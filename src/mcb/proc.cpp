#include "mcb/proc.hpp"

#include <algorithm>
#include <utility>

#include "mcb/network.hpp"
#include "util/check.hpp"

namespace mcb {

std::size_t Proc::p() const { return net_->config().p; }
std::size_t Proc::k() const { return net_->config().k; }
Cycle Proc::now() const { return net_->now(); }

void Proc::mark_done() { net_->tab_.done[id_] = 1; }

Proc::CycleAwaiter Proc::cycle(std::optional<WriteOp> write,
                               std::optional<ChannelId> read) {
  return cycle_after(0, std::move(write), read);
}

Proc::CycleAwaiter Proc::cycle_after(Cycle idle, std::optional<WriteOp> write,
                                     std::optional<ChannelId> read) {
  if (write) {
    MCB_REQUIRE(write->channel < k(), "P" << id_ + 1 << " writing channel "
                                          << write->channel << " of " << k());
  }
  if (read) {
    MCB_REQUIRE(*read < k(), "P" << id_ + 1 << " reading channel " << *read
                                 << " of " << k());
  }
  net_->tab_.pending_write[id_] = std::move(write);
  net_->tab_.pending_read[id_] = read;
  return CycleAwaiter{*this, idle};
}

Proc::BurstAwaiter Proc::burst_after(Cycle idle, std::span<const Beat> beats,
                                     std::span<ReadResult> got) {
  MCB_REQUIRE(!beats.empty(), "P" << id_ + 1 << " bursting no beats");
  bool reads = false;
  for (const Beat& b : beats) {
    MCB_REQUIRE(b.write == kNoChannel || b.write < k(),
                "P" << id_ + 1 << " writing channel " << b.write << " of "
                    << k());
    MCB_REQUIRE(b.read == kNoChannel || b.read < k(),
                "P" << id_ + 1 << " reading channel " << b.read << " of "
                    << k());
    reads = reads || b.read != kNoChannel;
  }
  MCB_REQUIRE(got.size() == beats.size() || (got.empty() && !reads),
              "P" << id_ + 1 << " bursting " << beats.size() << " beats into "
                  << got.size() << " read slots");
  ProcTable& tab = net_->tab_;
  tab.load_beat(id_, beats.front());
  tab.burst[id_] = ProcTable::Burst{beats.data() + 1,
                                    beats.data() + beats.size(),
                                    got.empty() ? nullptr : got.data()};
  return BurstAwaiter{*this, idle};
}

Proc::CycleAwaiter Proc::write(ChannelId ch, Message m) {
  return cycle(WriteOp{ch, std::move(m)}, std::nullopt);
}

Proc::CycleAwaiter Proc::read(ChannelId ch) { return cycle(std::nullopt, ch); }

Proc::CycleAwaiter Proc::write_read(ChannelId wch, Message m, ChannelId rch) {
  return cycle(WriteOp{wch, std::move(m)}, rch);
}

Proc::CycleAwaiter Proc::step() { return cycle(std::nullopt, std::nullopt); }

Proc::SkipAwaiter Proc::skip(Cycle t) { return SkipAwaiter{*this, t}; }

Proc::MultiReadAwaiter Proc::cycle_all(std::optional<WriteOp> write) {
  MCB_REQUIRE(net_->config().multi_read,
              "cycle_all requires SimConfig::multi_read (the Section 9 "
              "model extension)");
  if (write) {
    MCB_REQUIRE(write->channel < k(), "P" << id_ + 1 << " writing channel "
                                          << write->channel << " of " << k());
  }
  net_->tab_.pending_write[id_] = std::move(write);
  net_->tab_.pending_read[id_].reset();
  net_->tab_.pending_read_all[id_] = 1;
  return MultiReadAwaiter{*this};
}

void Proc::note_aux(std::size_t words) {
  auto& peak = net_->tab_.peak_aux_words[id_];
  peak = std::max(peak, words);
}

void Proc::mark_phase(std::string name) { net_->mark_phase(std::move(name)); }

void Proc::span_begin(std::string_view name) { net_->span_begin(name); }

void Proc::span_end() { net_->span_end(); }

void Proc::CycleAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  proc.net_->tab_.resume_point[proc.id_] = h;
  proc.net_->on_cycle_op(proc, idle);
}

Proc::ReadResult Proc::CycleAwaiter::await_resume() const noexcept {
  return std::move(proc.net_->tab_.read_result[proc.id_]);
}

void Proc::BurstAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  ProcTable& tab = proc.net_->tab_;
  tab.resume_point[proc.id_] = h;
  const ProcTable::Burst& b = tab.burst[proc.id_];
  proc.net_->on_cycle_op(proc, idle, b.next != b.end);
}

void Proc::BurstAwaiter::await_resume() const noexcept {
  ProcTable& tab = proc.net_->tab_;
  ProcTable::Burst& b = tab.burst[proc.id_];
  if (b.got != nullptr) *b.got = std::move(tab.read_result[proc.id_]);
  b.got = nullptr;
}

void Proc::SkipAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  ProcTable& tab = proc.net_->tab_;
  tab.pending_write[proc.id_].reset();
  tab.pending_read[proc.id_].reset();
  tab.pending_read_all[proc.id_] = 0;
  tab.resume_point[proc.id_] = h;
  proc.net_->on_sleep(proc, t);
}

void Proc::MultiReadAwaiter::await_suspend(
    std::coroutine_handle<> h) noexcept {
  proc.net_->tab_.resume_point[proc.id_] = h;
  proc.net_->on_cycle_op(proc, 0);
}

std::vector<Proc::ReadResult> Proc::MultiReadAwaiter::await_resume()
    const noexcept {
  return std::move(proc.net_->tab_.read_all_results[proc.id_]);
}

}  // namespace mcb

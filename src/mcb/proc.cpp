#include "mcb/proc.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "mcb/network.hpp"
#include "util/check.hpp"

namespace mcb {

void* detail::program_frame(Proc& self, std::size_t bytes) {
  RunStats& stats = self.net_->stats_;
  ++stats.frame_allocs;
  stats.frame_bytes += bytes;
  return self.net_->program_frame(bytes);
}

std::size_t Proc::p() const { return net_->config().p; }
std::size_t Proc::k() const { return net_->config().k; }
Cycle Proc::now() const { return net_->now(); }

Proc::CycleAwaiter Proc::cycle(std::optional<WriteOp> write,
                               std::optional<ChannelId> read) {
  return cycle_after(0, std::move(write), read);
}

Proc::CycleAwaiter Proc::cycle_after(Cycle idle, std::optional<WriteOp> write,
                                     std::optional<ChannelId> read,
                                     Cycle trail) {
  set_intent(write, read.value_or(kNoChannel));
  net_->tab_.read_result[id_].reset();  // reading nothing yields nullopt
  return CycleAwaiter{*this, idle, trail};
}

Proc::WindowAwaiter<Proc::NoFn, Proc::NoFn> Proc::window(Cycle idle) {
  return {*this, idle, 0, 0, {}, {}};
}

void Proc::require_beats(std::size_t beats) const {
  MCB_REQUIRE(beats <= UINT32_MAX, "P" << id_ + 1 << " opening a window of "
                                       << beats << " beats");
}

void Proc::load_beat(Beat b) {
  net_->tab_.intent[id_] = std::move(b);
  net_->check_intent(id_);
  net_->tab_.read_result[id_].reset();
}

Proc::ReadResult Proc::take_read() {
  return std::move(net_->tab_.read_result[id_]);
}

void Proc::act_sleep(Cycle cycles) {
  net_->on_window(id_, cycles, 0, ProcTable::Window{});
}

void Proc::set_step(StepFn step, void* ctx) {
  net_->tab_.step[id_] = {step, ctx};
}

void Proc::set_intent(std::optional<WriteOp>& write, ChannelId read) {
  // Field by field: a whole Beat assembled on the stack and copied in
  // stalls on store forwarding, on every action.
  Beat& b = net_->tab_.intent[id_];
  b.write = kNoChannel;
  if (write) {
    b.msg = std::move(write->msg);
    b.write = write->channel;
  }
  b.read = read;
  net_->check_intent(id_);
}

void Proc::open_window(Cycle lead, std::size_t beats, Cycle trail,
                       FillFn fill, PlaceFn place, void* ctx) {
  net_->on_window(id_, lead, beats, ProcTable::Window{fill, place, ctx, trail});
}

Proc::CycleAwaiter Proc::write(ChannelId ch, Message m) {
  return cycle(WriteOp{ch, std::move(m)}, std::nullopt);
}

Proc::CycleAwaiter Proc::read(ChannelId ch) { return cycle(std::nullopt, ch); }

Proc::CycleAwaiter Proc::write_read(ChannelId wch, Message m, ChannelId rch) {
  return cycle(WriteOp{wch, std::move(m)}, rch);
}

Proc::MultiReadAwaiter Proc::cycle_all(std::optional<WriteOp> write) {
  MCB_REQUIRE(net_->config().multi_read,
              "cycle_all requires SimConfig::multi_read (the Section 9 "
              "model extension)");
  set_intent(write, kNoChannel);
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

void Proc::CycleAwaiter::await_suspend(std::coroutine_handle<>) noexcept {
  proc.net_->on_window(proc.id_, idle, 1,
                       ProcTable::Window{nullptr, nullptr, nullptr, trail});
}

Proc::ReadResult Proc::CycleAwaiter::await_resume() const noexcept {
  return proc.take_read();
}

void Proc::MultiReadAwaiter::await_suspend(
    std::coroutine_handle<>) noexcept {
  proc.net_->on_window(proc.id_, 0, 1, ProcTable::Window{});
}

std::vector<Proc::ReadResult> Proc::MultiReadAwaiter::await_resume()
    const noexcept {
  return std::move(proc.net_->tab_.read_all_results[proc.id_]);
}

}  // namespace mcb

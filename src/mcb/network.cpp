#include "mcb/network.hpp"

#include <algorithm>
#include <utility>

#include "obs/clock.hpp"
#include "util/check.hpp"

namespace mcb {

Network::Network(SimConfig cfg, TraceSink* sink)
    : cfg_(cfg), sink_(sink), sched_(cfg.p, cfg.k) {
  cfg_.validate();
  mode_ = cfg_.engine;
  tab_.resize(cfg_.p);
  procs_.reserve(cfg_.p);
  for (std::size_t i = 0; i < cfg_.p; ++i) {
    // Proc's constructor is private (Network is its only factory), so
    // make_unique cannot reach it.
    procs_.push_back(std::unique_ptr<Proc>(
        new Proc(*this, static_cast<ProcId>(i))));  // lint-allow: naked-new
  }
  slot_written_.assign(cfg_.k, 0);
  slot_writer_.assign(cfg_.k, 0);
  slot_msg_.resize(cfg_.k);
  stats_.messages_per_proc.assign(cfg_.p, 0);
  stats_.messages_per_channel.assign(cfg_.k, 0);
}

Network::~Network() {
  // Members die in reverse declaration order, so stats_ and now_ would go
  // before programs_; but destroying a suspended program closes its
  // obs::Spans, which read both. Destroy the programs here instead, then
  // close the phase span they were nested in.
  programs_.clear();
  if (!phase_name_.empty()) span_end();
}

Proc& Network::proc(ProcId i) {
  MCB_REQUIRE(i < procs_.size(), "processor index " << i << " of " << cfg_.p);
  return *procs_[i];
}

void Network::install(ProcId i, ProcMain program) {
  MCB_REQUIRE(i < procs_.size(), "processor index " << i << " of " << cfg_.p);
  // A processor is installed exactly when its table slot holds a program
  // handle, so the duplicate check is O(1) and, with duplicates rejected
  // here, programs_.size() == p means every processor has one.
  MCB_REQUIRE(!tab_.program[i], "P" << i + 1 << " already has a program");
  program.handle().promise().proc = procs_[i].get();
  tab_.resume_point[i] = program.handle();
  tab_.program[i] = program.handle();
  programs_.push_back(std::move(program));
}

void Network::resume_proc(ProcId id) {
  ++stats_.proc_resumes;
  tab_.resume_point[id].resume();
  if (tab_.done[id]) {
    --alive_;
    // Surface any exception that escaped the program. The handle is stored
    // in the table at install time, so this is O(1) per completion.
    if (auto exc = tab_.program[id].promise().exception) {
      std::rethrow_exception(exc);
    }
  }
}

void Network::on_window(ProcId id, Cycle lead, std::size_t beats,
                        const ProcTable::Window& w) {
  const bool event = mode_ == Engine::kEventDriven;
  if (beats == 0) {  // a sleep
    tab_.wake_cycle[id] = now_ + lead + w.trail;
    if (event) sched_.schedule_wake(id, tab_.wake_cycle[id], now_);
    return;
  }
  // Beat 0 applies in cycle now + lead: the reference scan acts on it when
  // wake_cycle is the cycle after, the event engine when it is active. The
  // event engine sleeps out the lead first (j = 0); the drain at now + lead
  // makes the held beat active without resuming the processor.
  tab_.wake_cycle[id] = now_ + lead + 1;
  const std::uint32_t j = event && lead > 0 ? 0 : 1;
  if (beats > 1 || w.trail > 0) {
    tab_.window[id] = w;
    tab_.pos[id] = {j, static_cast<std::uint32_t>(beats)};
  } else if (j == 0) {
    tab_.pos[id] = {0, 1};
  }
  if (!event) return;
  if (lead == 0) {
    sched_.add_active(id);
    sched_.schedule_wake(id, now_ + 1, now_);
  } else {
    sched_.schedule_wake(id, now_ + lead, now_);
  }
}

bool Network::next_beat(ProcId id) {
  ProcTable::Pos& at = tab_.pos[id];
  if (at.j == 0) {  // the lead is over: beat 0 acts
    at.j = 1;
    return true;
  }
  // Beat j - 1 is done. Beat 0, and every beat of a window of at most
  // kBlock beats, passes through the intent slot itself; the later beats
  // of a longer window come from its block.
  constexpr std::size_t kBlock = ProcTable::kBlock;
  ProcTable::Window& w = tab_.window[id];
  Beat& intent = tab_.intent[id];
  Proc::ReadResult& read = tab_.read_result[id];
  if (w.block == ProcTable::kNoBlock) {
    if (w.place != nullptr && intent.read != kNoChannel) {
      w.place(w.ctx, at.j - 1, {&intent, 1}, {&read, 1});
    }
    if (at.j == at.n) return close_window(id);
    if (at.n <= kBlock) {
      w.fill(w.ctx, at.j, {&intent, 1});
      check_intent(id);
      ++at.j;
      return true;
    }
    w.block = tab_.lend_block();
    w.fill(w.ctx, at.j,
           {tab_.blocks[w.block].beats.data(),
            std::min<std::size_t>(kBlock, at.n - at.j)});
  } else {
    ProcTable::Block& b = tab_.blocks[w.block];
    const std::size_t slot = (at.j - 2) % kBlock;
    if (intent.read != kNoChannel) b.got[slot] = std::move(read);
    if (slot + 1 == kBlock || at.j == at.n) {
      if (w.place != nullptr) {
        w.place(w.ctx, at.j - 1 - slot, {b.beats.data(), slot + 1},
                {b.got.data(), slot + 1});
      }
      if (at.j == at.n) {
        tab_.free_blocks.push_back(std::exchange(w.block, ProcTable::kNoBlock));
        return close_window(id);
      }
      w.fill(w.ctx, at.j,
             {b.beats.data(), std::min<std::size_t>(kBlock, at.n - at.j)});
    }
  }
  intent = tab_.blocks[w.block].beats[(at.j - 1) % kBlock];
  check_intent(id);
  ++at.j;
  return true;
}

bool Network::close_window(ProcId id) {
  tab_.pos[id].n = 0;
  tab_.window[id].place = nullptr;
  return false;
}

void Network::bad_intent(ProcId id) const {
  const Beat& b = tab_.intent[id];
  MCB_REQUIRE(b.write == kNoChannel || b.write < cfg_.k,
              "P" << id + 1 << " writing channel " << b.write << " of "
                  << cfg_.k);
  MCB_REQUIRE(b.read == kNoChannel || b.read < cfg_.k,
              "P" << id + 1 << " reading channel " << b.read << " of "
                  << cfg_.k);
}

void Network::span_begin(std::string_view name) {
  if (cfg_.span_sink != nullptr) {
    cfg_.span_sink->on_span_begin(name, now_, stats_.messages);
  }
}

void Network::span_end() {
  if (cfg_.span_sink != nullptr) {
    cfg_.span_sink->on_span_end(now_, stats_.messages);
  }
}

void Network::mark_phase(std::string name) {
  finish_phase();
  span_begin(name);
  phase_name_ = std::move(name);
  phase_start_cycle_ = now_;
  phase_start_messages_ = stats_.messages;
}

void Network::finish_phase() {
  if (phase_name_.empty()) return;
  span_end();
  // Accumulate into an existing phase of the same name (phases that repeat,
  // e.g. the selection filtering rounds, aggregate naturally).
  for (auto& ph : stats_.phases) {
    if (ph.name == phase_name_) {
      ph.cycles += now_ - phase_start_cycle_;
      ph.messages += stats_.messages - phase_start_messages_;
      phase_name_.clear();
      return;
    }
  }
  stats_.phases.push_back(PhaseStats{phase_name_, phase_start_cycle_,
                                     now_ - phase_start_cycle_,
                                     stats_.messages - phase_start_messages_});
  phase_name_.clear();
}

void Network::throw_max_cycles() const {
  throw ProtocolError("run exceeded max_cycles=" +
                      std::to_string(cfg_.max_cycles) +
                      " — deadlocked or runaway protocol");
}

void Network::clear_intents(ProcId i) {
  tab_.intent[i].write = kNoChannel;
  tab_.intent[i].read = kNoChannel;
  tab_.pending_read_all[i] = 0;
}

void Network::apply_read(ProcId i) {
  // A processor that reads nothing keeps its last result: a cycle_after
  // with a trailing idle returns it after the trail.
  if (const ChannelId rc = tab_.intent[i].read; rc != kNoChannel) {
    if (slot_written_[rc] != 0) {
      tab_.read_result[i] = slot_msg_[rc];
    } else {
      tab_.read_result[i].reset();
    }
  }
  if (tab_.pending_read_all[i] != 0) {
    auto& out = tab_.read_all_results[i];
    out.assign(cfg_.k, std::nullopt);
    for (std::size_t c = 0; c < cfg_.k; ++c) {
      if (slot_written_[c] != 0) {
        out[c] = slot_msg_[c];
      }
    }
  }
}

void Network::emit_event(ProcId i) {
  const Beat& b = tab_.intent[i];
  if (b.write == kNoChannel && b.read == kNoChannel &&
      tab_.pending_read_all[i] == 0) {
    return;
  }
  CycleEvent ev;
  ev.cycle = now_;
  ev.proc = i;
  if (b.write != kNoChannel) {
    ev.wrote = b.write;
    ev.sent = b.msg;
  }
  if (b.read != kNoChannel) {
    ev.read = b.read;
    ev.received = tab_.read_result[i];
  }
  if (tab_.pending_read_all[i] != 0) {
    ev.read_all = true;
    ev.received_all = tab_.read_all_results[i];
  }
  sink_->on_event(ev);
}

RunStats Network::run() {
  MCB_REQUIRE(!ran_, "Network::run() is single-shot — reset() re-arms it");
  MCB_REQUIRE(programs_.size() == cfg_.p,
              "every processor needs a program before run()");
  ran_ = true;

  // Snapshot the arena counters so the run telemetry below reports this
  // run's deltas. On a fresh network every counter is zero and this is a
  // no-op; on a reset network the arena carries the previous runs' monotonic
  // totals (and, more usefully, its warm free lists).
  arena_base_ = arena_.stats();

  // Route coroutine frame allocations (Task subroutine frames created by
  // protocol code from here on) through this network's arena. The scope
  // nests, so a hosted Network run inside a program restores the outer
  // arena when it finishes. No-op layout-wise under MCB_FRAME_ARENA=OFF.
  util::FrameArenaScope frame_scope(&arena_);

  // Wall-clock telemetry (stats_.sim_wall_ns), never a protocol input —
  // the sim clock is the cycle counter. Read through the obs::Clock seam so
  // the engine directory stays free of direct *_clock::now() calls and
  // tests can pin host-time telemetry with a fake clock.
  obs::Clock& clk =
      cfg_.clock != nullptr ? *cfg_.clock : obs::default_clock();
  const std::uint64_t wall_start = clk.now_ns();

  // Initial resume: run every program up to its first cycle boundary.
  alive_ = cfg_.p;
  for (ProcId i = 0; i < cfg_.p; ++i) {
    if (tab_.done[i] == 0) resume_proc(i);
  }

  switch (mode_) {
    case Engine::kEventDriven:
      run_event_loop();
      break;
    case Engine::kReference:
      run_reference_loop();
      break;
  }

  finish_phase();
  stats_.cycles = now_;
  stats_.peak_aux_words = tab_.peak_aux_words;

  stats_.sim_wall_ns = clk.now_ns() - wall_start;
  stats_.cycles_per_sec =
      safe_cycles_per_sec(stats_.cycles, stats_.sim_wall_ns);

  // Allocation telemetry (host-side, like sim_wall_ns; all zero under
  // MCB_FRAME_ARENA=OFF where frames go through plain global new).
  //
  // All counts are deltas against the start-of-run snapshot, so a run on a
  // reset network reports the same frame_allocs/frees a fresh network would
  // — what changes on reuse is frame_reuses and the hit rate, which is the
  // point. bytes_peak stays the raw monotonic peak: live bytes return to
  // zero between runs (every frame is freed), so later runs' peaks match a
  // fresh network's and the value is reset-invariant anyway.
  const util::ArenaStats& as = arena_.stats();
  const std::uint64_t allocs = as.allocs - arena_base_.allocs;
  const std::uint64_t slabs = as.slab_allocs - arena_base_.slab_allocs;
  stats_.frame_allocs = allocs;
  stats_.frame_frees = as.frees - arena_base_.frees;
  stats_.frame_reuses = as.reuses - arena_base_.reuses;
  stats_.arena_bytes_peak = as.bytes_peak;
  stats_.arena_hit_rate =
      allocs == 0 ? 0.0
                  : static_cast<double>(allocs - slabs) /
                        static_cast<double>(allocs);
  return stats_;
}

void Network::reset() {
  // Destroy the program objects first: destroying a suspended coroutine
  // frame releases it (and any in-scope Task frames it holds) back to the
  // owning arena through the allocation headers, so the free lists are warm
  // for the next install round, and closes the frame's open spans before
  // the phase span they nest in. Only then null the table's handles.
  programs_.clear();
  if (!phase_name_.empty()) span_end();
  tab_.reset();

  std::fill(slot_written_.begin(), slot_written_.end(), std::uint8_t{0});
  std::fill(slot_writer_.begin(), slot_writer_.end(), ProcId{0});
  // slot_msg_ entries are dead once the written flags are clear — every
  // read consults the flag first — so the payloads need no scrubbing.

  sched_.reset();
  now_ = 0;
  alive_ = 0;
  ran_ = false;

  stats_ = RunStats{};
  stats_.messages_per_proc.assign(cfg_.p, 0);
  stats_.messages_per_channel.assign(cfg_.k, 0);
  phase_name_.clear();
  phase_start_cycle_ = 0;
  phase_start_messages_ = 0;

  arena_base_ = util::ArenaStats{};
}

// The event-driven engine. Observationally identical to the reference loop
// below (which is the semantics specification); see docs/ENGINE.md for the
// step-by-step argument. The three O(p) scans become iterations over the
// scheduler's active list, the O(k) slot sweep becomes an iteration over the
// dirty-channel list, and stretches of cycles in which no processor is due
// are skipped in one jump.
void Network::run_event_loop() {
  while (alive_ > 0) {
    MCB_REQUIRE(!sched_.queue_empty(),
                "live processors but an empty wake queue");

    // Idle-cycle fast-forward: if nobody wakes before cycle `next`, the
    // cycles in between carry no writes, no reads and no trace events (a
    // sleeping processor holds no channel intent), so jump straight to the
    // last idle cycle. Statistics are exact because nothing observable
    // happens in the skipped span.
    const Cycle next = sched_.next_wake(now_);
    if (next > now_ + 1) now_ = next - 1;
    if (now_ >= cfg_.max_cycles) throw_max_cycles();

    const auto& active = sched_.active();

    // Step 1: writes. Collision check per the model. `active` holds the
    // processors that suspended with a channel intent, in id order — the
    // same order the reference scan visits them.
    for (ProcId id : active) {
      const Beat& b = tab_.intent[id];
      if (b.write == kNoChannel) continue;
      const ChannelId c = b.write;
      if (slot_written_[c] != 0) {
        throw CollisionError(now_, c, slot_writer_[c], id);
      }
      slot_written_[c] = 1;
      slot_writer_[c] = id;
      slot_msg_[c] = b.msg;
      sched_.mark_dirty(c);
      ++stats_.messages;
      ++stats_.messages_per_proc[id];
      ++stats_.messages_per_channel[c];
    }

    // Step 2: reads (concurrent reads allowed; silence is observable).
    for (ProcId id : active) apply_read(id);

    if (sink_ != nullptr) {
      for (ProcId id : active) emit_event(id);
    }

    // Step 3: the cycle completes. Clear only the channels written this
    // cycle, then resume every processor due at the new time, in processor
    // order (the drain is id-sorted; processors re-registering while it is
    // iterated wake strictly later and land in fresh buckets). A processor
    // inside a window is not resumed: it has slept out the window's lead,
    // or applied a beat and has another to act on — then it joins the new
    // cycle's active list, as if it had just resumed and acted, so active
    // list and next bucket stay id-sorted — or it sleeps out the trail.
    for (ChannelId c : sched_.dirty()) {
      slot_written_[c] = 0;
    }
    sched_.clear_dirty();
    sched_.clear_active();
    ++now_;
    for (ProcId id : sched_.drain_due(now_)) {
      if (tab_.pos[id].n != 0) {
        if (next_beat(id)) {
          sched_.add_active(id);
          sched_.schedule_wake(id, now_ + 1, now_);
          continue;
        }
        if (Cycle& trail = tab_.window[id].trail; trail > 0) {
          clear_intents(id);
          sched_.schedule_wake(id, now_ + std::exchange(trail, 0), now_);
          continue;
        }
      }
      clear_intents(id);
      resume_proc(id);
    }
  }
}

// The scan-the-world reference loop — the seed implementation, kept as the
// executable specification of the cycle semantics and as the baseline that
// bench_simspeed measures the other engines against. A channel intent
// applies in the cycle before its processor's wake: the write, read and
// trace scans consider processor id in cycle now_ only when
// wake_cycle[id] == now_ + 1 (a finished processor's wake lies behind).
void Network::run_reference_loop() {
  const auto acts = [this](ProcId id) {
    return tab_.wake_cycle[id] == now_ + 1;
  };
  while (alive_ > 0) {
    if (now_ >= cfg_.max_cycles) throw_max_cycles();

    // Step 1: writes. Collision check per the model.
    std::fill(slot_written_.begin(), slot_written_.end(), std::uint8_t{0});
    for (ProcId id = 0; id < cfg_.p; ++id) {
      if (!acts(id)) continue;
      const Beat& b = tab_.intent[id];
      if (b.write == kNoChannel) continue;
      const ChannelId c = b.write;
      if (slot_written_[c] != 0) {
        throw CollisionError(now_, c, slot_writer_[c], id);
      }
      slot_written_[c] = 1;
      slot_writer_[c] = id;
      slot_msg_[c] = b.msg;
      ++stats_.messages;
      ++stats_.messages_per_proc[id];
      ++stats_.messages_per_channel[c];
    }

    // Step 2: reads (concurrent reads allowed; silence is observable).
    for (ProcId id = 0; id < cfg_.p; ++id) {
      if (acts(id)) apply_read(id);
    }

    if (sink_ != nullptr) {
      for (ProcId id = 0; id < cfg_.p; ++id) {
        if (acts(id)) emit_event(id);
      }
    }

    // Step 3: the cycle completes; resume local computation of every
    // processor due this cycle (in processor order, for determinism). A
    // processor inside a window acts on its next beat instead, or sleeps
    // out the window's trail.
    ++now_;
    for (ProcId id = 0; id < cfg_.p; ++id) {
      if (tab_.done[id] != 0 || tab_.wake_cycle[id] > now_) continue;
      if (tab_.pos[id].n != 0) {
        if (next_beat(id)) {
          tab_.wake_cycle[id] = now_ + 1;
          continue;
        }
        if (Cycle& trail = tab_.window[id].trail; trail > 0) {
          clear_intents(id);
          tab_.wake_cycle[id] = now_ + std::exchange(trail, 0);
          continue;
        }
      }
      clear_intents(id);
      resume_proc(id);
    }
  }
}

}  // namespace mcb

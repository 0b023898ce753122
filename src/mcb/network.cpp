#include "mcb/network.hpp"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>

#include "obs/clock.hpp"
#include "util/check.hpp"

namespace mcb {

Network::Network(SimConfig cfg, TraceSink* sink)
    : cfg_(cfg),
      sink_(sink),
      procs_(std::allocator<Proc>().allocate(cfg.p), ProcArray{cfg.p}),
      sched_(cfg.p, cfg.k) {
  cfg_.validate();
  mode_ = cfg_.engine;
  tab_.resize(cfg_.p);
  static_assert(std::is_trivially_destructible_v<Proc>);
  for (std::size_t i = 0; i < cfg_.p; ++i) {
    ::new (static_cast<void*>(&procs_[i])) Proc(*this, static_cast<ProcId>(i));
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
  MCB_REQUIRE(i < cfg_.p, "processor index " << i << " of " << cfg_.p);
  return procs_[i];
}

void Network::install(ProcId i, ProcMain program) {
  MCB_REQUIRE(i < cfg_.p, "processor index " << i << " of " << cfg_.p);
  // A processor is installed exactly when its table slot holds a program
  // handle, so the duplicate check is O(1) and, with duplicates rejected
  // here, programs_.size() == p means every processor has one.
  MCB_REQUIRE(!tab_.program[i], "P" << i + 1 << " already has a program");
  tab_.program[i] = program.handle();
  programs_.push_back(std::move(program));
}

void* Network::program_frame(std::size_t bytes) {
  bytes = (bytes + 15) & ~std::size_t{15};  // the default new alignment
  for (;; ++frame_chunk_, frame_used_ = 0) {
    if (frame_chunk_ == frame_chunks_.size()) {
      const std::size_t size = std::max(bytes, kFrameChunkBytes);
      frame_chunks_.push_back(
          {std::make_unique_for_overwrite<std::byte[]>(size), size});
    }
    FrameChunk& c = frame_chunks_[frame_chunk_];
    if (frame_used_ + bytes <= c.bytes) {
      std::byte* frame = c.mem.get() + frame_used_;
      frame_used_ += bytes;
      ASAN_UNPOISON_MEMORY_REGION(frame, bytes);
      return frame;
    }
  }
}

void Network::resume_proc(ProcId id) {
  ++stats_.proc_resumes;
  if (ProcTable::Step& st = tab_.step[id]; st.fn != nullptr) {
    if (st.fn(st.ctx)) return;  // the awaiter opened its next action
    st.fn = nullptr;
  }
  const ProcMain::handle_type program = tab_.program[id];
  program.resume();
  if (program.done()) {
    tab_.done[id] = 1;
    --alive_;
    // Surface any exception that escaped the program.
    if (auto exc = program.promise().exception) std::rethrow_exception(exc);
  }
}

void Network::on_window(ProcId id, Cycle lead, std::size_t beats,
                        const ProcTable::Window& w) {
  // A sleep ends after lead + trail cycles. Beat 0 of a window applies in
  // cycle now + lead, so the processor is next due in the cycle after:
  // both engines act on a held intent in the cycle before the wake.
  Cycle& wake = tab_.wake_cycle[id];
  if (beats == 0) {
    wake = now_ + lead + w.trail;
  } else {
    wake = now_ + lead + 1;
    if (beats > 1 || w.trail > 0 || w.place != nullptr) {
      tab_.window[id] = w;
      tab_.pos[id] = {1, static_cast<std::uint32_t>(beats)};
    }
  }
  if (mode_ == Engine::kEventDriven) sched_.schedule_wake(id, wake, now_);
}

bool Network::next_beat(ProcId id) {
  // Beat j - 1 is done. Beat 0, and every beat of a window of at most
  // kBlock beats, passes through the intent slot itself; the later beats
  // of a longer window come from its block.
  constexpr std::size_t kBlock = ProcTable::kBlock;
  ProcTable::Pos& at = tab_.pos[id];
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

void Network::collide(ChannelId c, ProcId id) const {
  throw CollisionError(now_, c, slot_writer_[c], id);
}

void Network::clear_slots() {
  for (ChannelId c : sched_.dirty()) {
    slot_written_[c] = 0;
  }
  sched_.clear_dirty();
}

void Network::apply_read(ProcId i) {
  // A processor that reads nothing keeps its last result: a cycle_after
  // with a trailing idle returns it after the trail.
  if (const ChannelId rc = tab_.intent[i].read; rc != kNoChannel) {
    read_channel(rc, tab_.read_result[i]);
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

void Network::emit_event(ProcId i, const Beat& b,
                         const Proc::ReadResult& got) {
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
    ev.received = got;
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

  return stats_;
}

void Network::reset() {
  // Destroy the program objects first: destroying a suspended program
  // destroys the step awaiters in its frame and closes the frame's open
  // spans before the phase span they nest in. Only then null the table's
  // handles and rewind the program-frame region.
  programs_.clear();
  if (!phase_name_.empty()) span_end();
  tab_.reset();
  // Under AddressSanitizer a use of a destroyed program's frame is
  // reported from here on, until program_frame() carves the bytes again.
  for (const FrameChunk& c : frame_chunks_) {
    ASAN_POISON_MEMORY_REGION(c.mem.get(), c.bytes);
  }
  frame_chunk_ = 0;
  frame_used_ = 0;

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
}

// The event-driven engine. Observationally identical to the reference loop
// below (which is the semantics specification); see docs/ENGINE.md for the
// step-by-step argument. The three O(p) scans become iterations over the
// scheduler's due set, the O(k) slot sweep becomes an iteration over the
// dirty-channel list, stretches of cycles in which no processor is due
// are skipped in one jump, and stretches in which the same processors act
// from their window blocks run without the per-cycle drain.
void Network::run_event_loop() {
  while (alive_ > 0) {
    // Idle-cycle fast-forward: if nobody is due before cycle `next`, the
    // cycles in between carry no writes, no reads and no trace events (a
    // processor acts only in the cycle before it is due), so jump straight
    // to the last idle cycle. Statistics are exact because nothing
    // observable happens in the skipped span.
    const Cycle next = sched_.next_wake(now_);
    MCB_REQUIRE(next != std::numeric_limits<Cycle>::max(),
                "live processors but an empty wake queue");
    if (next > now_ + 1) now_ = next - 1;
    if (now_ >= cfg_.max_cycles) throw_max_cycles();

    // The processors due at the end of this cycle, in id order: the ones
    // the reference scan visits. Each acts in this cycle on the intent it
    // holds (one ending a sleep or a trail holds none).
    const auto& due = sched_.collect(now_ + 1);
    if (run_dense_stretch(due)) {
      sched_.refile_due();
      continue;
    }

    // Step 1: writes. Collision check per the model.
    for (ProcId id : due) write_beat(id, tab_.intent[id]);

    // Step 2: reads (concurrent reads allowed; silence is observable).
    for (ProcId id : due) apply_read(id);

    if (sink_ != nullptr) {
      for (ProcId id : due) {
        emit_event(id, tab_.intent[id], tab_.read_result[id]);
      }
    }

    // Step 3: the cycle completes. Clear only the channels written this
    // cycle, then resume every processor due at the new time, in processor
    // order (processors re-registering while the due set is drained are due
    // strictly later and land in the next bucket or the wheel). A processor
    // inside a window is not resumed: it has applied a beat and has another
    // to act on — then it is due again next cycle, as if it had just
    // resumed and acted — or it sleeps out the trail.
    clear_slots();
    ++now_;
    for (ProcId id : due) {
      if (tab_.pos[id].n != 0) {
        if (next_beat(id)) {
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

// Dense fast-forward. When every processor due at the end of the cycle
// acts from a lent window block and the wheel holds no wake for the next
// B - 1 drains, each of those drains would hold the same processors and
// only move each on to its next block beat, in id order: no callback
// runs, no one resumes, no one joins. So the B - 1 cycles from now_ run
// here with the cycle's own write and read steps, straight from the
// blocks, and leave the table as those drains would. B is at most the
// beats left in any of these blocks, so the last beat of a block, whose
// drain places and refills it or ends the window, runs in the normal loop.
// B also stops short of a beat with a channel >= k, which the normal drain
// then rejects as it loads, and of max_cycles, which the loop then throws.
bool Network::run_dense_stretch(const std::vector<ProcId>& due) {
  constexpr std::size_t kBlock = ProcTable::kBlock;
  // Beats of the stretch: cycles now_ .. now_ + beats - 2 run here.
  std::size_t beats = kBlock;
  lanes_.clear();
  for (ProcId id : due) {
    const std::uint32_t block = tab_.window[id].block;
    if (block == ProcTable::kNoBlock || tab_.pending_read_all[id] != 0) {
      return false;
    }
    // Beat j - 1 applies now, from slot s of a block of `len` beats.
    const ProcTable::Pos at = tab_.pos[id];
    const std::size_t s = (at.j - 2) % kBlock;
    const std::size_t len =
        std::min<std::size_t>(kBlock, at.n - (at.j - 1 - s));
    beats = std::min(beats, len - s);
    if (beats < 2) return false;
    ProcTable::Block& b = tab_.blocks[block];
    lanes_.push_back({id, b.beats.data() + s, b.got.data() + s});
  }
  if (const Cycle wake = sched_.wheel_next_wake(); wake - now_ < beats) {
    beats = static_cast<std::size_t>(wake - now_);
  }
  if (cfg_.max_cycles - now_ < beats - 1) {
    beats = static_cast<std::size_t>(cfg_.max_cycles - now_) + 1;
  }
  // Stop short of the first beat naming a channel >= k.
  for (const Lane& l : lanes_) {
    for (std::size_t c = 1; c < beats; ++c) {
      if (bad_channels(l.beats[c])) beats = c;
    }
  }
  if (beats < 2) return false;

  for (std::size_t c = 0; c + 1 < beats; ++c) {
    for (const Lane& l : lanes_) write_beat(l.id, l.beats[c]);
    for (const Lane& l : lanes_) {
      if (const ChannelId rc = l.beats[c].read; rc != kNoChannel) {
        read_channel(rc, l.got[c]);
      }
    }
    if (sink_ != nullptr) {
      for (const Lane& l : lanes_) emit_event(l.id, l.beats[c], l.got[c]);
    }
    clear_slots();
    ++now_;
  }

  // The table as the skipped drains leave it: each beat's read moved on
  // to its slot (the last one stays in read_result) and the next beat
  // loaded. The processors stay in the due set, which the caller files
  // again for the cycle after the stretch.
  for (const Lane& l : lanes_) {
    tab_.pos[l.id].j += static_cast<std::uint32_t>(beats - 1);
    tab_.intent[l.id] = l.beats[beats - 1];
    for (std::size_t c = beats - 1; c-- > 0;) {
      if (l.beats[c].read != kNoChannel) {
        tab_.read_result[l.id] = l.got[c];
        break;
      }
    }
  }
  return true;
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

    // Step 1: writes. Collision check per the model. The shared write step
    // also lists the channels it writes, which this loop clears wholesale.
    std::fill(slot_written_.begin(), slot_written_.end(), std::uint8_t{0});
    sched_.clear_dirty();
    for (ProcId id = 0; id < cfg_.p; ++id) {
      if (acts(id)) write_beat(id, tab_.intent[id]);
    }

    // Step 2: reads (concurrent reads allowed; silence is observable).
    for (ProcId id = 0; id < cfg_.p; ++id) {
      if (acts(id)) apply_read(id);
    }

    if (sink_ != nullptr) {
      for (ProcId id = 0; id < cfg_.p; ++id) {
        if (acts(id)) emit_event(id, tab_.intent[id], tab_.read_result[id]);
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

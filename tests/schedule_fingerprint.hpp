// Fingerprints of a run's exact schedule, for tests that pin it: the
// cycle-by-cycle trace folded into one 64-bit FNV-1a hash, and the per-
// processor / per-channel message counts plus aux storage in another.
#pragma once

#include <cstdint>
#include <optional>

#include "mcb/message.hpp"
#include "mcb/stats.hpp"
#include "mcb/trace.hpp"

namespace mcb::fingerprint {

/// 64-bit FNV-1a, fed one word at a time.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(const std::optional<Message>& m) {
    add(m ? m->size() : ~std::uint64_t{0});
    if (m) {
      for (std::size_t j = 0; j < m->size(); ++j) {
        add(static_cast<std::uint64_t>((*m)[j]));
      }
    }
  }
  void add(const std::optional<ChannelId>& c) {
    add(c ? std::uint64_t{*c} : ~std::uint64_t{0});
  }
};

/// Folds the cycle-by-cycle event stream into one fingerprint.
class TraceFingerprint final : public TraceSink {
 public:
  void on_event(const CycleEvent& ev) override {
    fnv_.add(ev.cycle);
    fnv_.add(ev.proc);
    fnv_.add(ev.wrote);
    fnv_.add(ev.sent);
    fnv_.add(ev.read);
    fnv_.add(ev.received);
    ++events_;
  }
  std::uint64_t value() const { return fnv_.h ^ events_; }

 private:
  Fnv fnv_;
  std::uint64_t events_ = 0;
};

/// Fingerprint of messages_per_proc, messages_per_channel and
/// peak_aux_words.
inline std::uint64_t counts_fingerprint(const RunStats& s) {
  Fnv f;
  for (auto v : s.messages_per_proc) f.add(v);
  f.add(~std::uint64_t{0});
  for (auto v : s.messages_per_channel) f.add(v);
  f.add(~std::uint64_t{0});
  for (auto v : s.peak_aux_words) f.add(v);
  return f.h;
}

}  // namespace mcb::fingerprint

#include "algo/mergesort.hpp"

#include <algorithm>
#include <numeric>

#include "seq/sorting.hpp"
#include "util/check.hpp"

namespace mcb::algo {
namespace {

using Key = MergeSort::Key;

Message key_message(const Key& k) { return Message::of(k.value, k.owner, k.serial); }

Key key_from(const Message& m, std::size_t at = 0) {
  return Key{m.at(at), m.at(at + 1), m.at(at + 2)};
}

// A list position reply: the inserter's new rank and its successor.
Message insertion_point(std::size_t rank, const Key& pointer) {
  return Message::of(static_cast<Word>(rank + 1), pointer.value,
                     pointer.owner, pointer.serial);
}

}  // namespace

MergeSort mergesort_group(Proc& self, const GroupSpec& grp,
                          std::span<const std::size_t> sizes,
                          std::vector<Word>& data) {
  return MergeSort(self, grp, sizes, data);
}

bool MergeSort::begin(Proc& self) {
  // Every member inserts its top into the linked list in the construction.
  MCB_REQUIRE(!data_->empty(), "P" << self.id() + 1
                                   << " joins merge-sort with no elements");
  remaining_.reserve(data_->size() + 1);
  for (Word v : *data_) {
    remaining_.push_back(Key{v, static_cast<Word>(seat_.me), next_serial_++});
  }
  seq::intro_sort(std::span<Key>(remaining_), std::greater<Key>{});
  out_.reserve(seat_.end - seat_.first);
  note(self);
  return act(self);
}

void MergeSort::note(Proc& self) {
  // Constant bookkeeping plus at most one element of slack (see the C2
  // eviction rule).
  const std::size_t cap = seat_.end - seat_.first;
  const std::size_t held = remaining_.size() + out_.size();
  const std::size_t slack = held > cap ? held - cap : 0;
  self.note_aux(8 + slack);
}

void MergeSort::write(Proc& self, const Message& msg) {
  reads_ = false;
  beat_ = Beat{msg, grp_.channel};
  self.act_window(*this, 0, 1, 0);
}

void MergeSort::read(Proc& self) {
  reads_ = true;
  beat_ = Beat{{}, kNoChannel, grp_.channel};
  self.act_window(*this, 0, 1, 0);
}

// --- initial construction: members insert their tops one by one -----------
// Each insertion is 3 cycles: (a) broadcast the candidate top, (b) P_b
// replies with the insertion point, (c) on silence in (b), the demoted
// previous head hands over its top as the new head's pointer.
//
// --- main rounds: place one element per round --------------------------------
// C1 head -> target: the next-largest element (placed at output slot r);
// C2 target -> head: replacement; C3 the head re-inserts its new top and
// C4 P_b replies, as (a) and (b) do.
namespace {
enum Kind : std::uint8_t { kBroadcast, kReply, kHandover, kPlace, kEvict };
constexpr Kind kInsertion[] = {kBroadcast, kReply, kHandover};
constexpr Kind kRound[] = {kPlace, kEvict, kBroadcast, kReply};
}  // namespace

bool MergeSort::act(Proc& self) {
  const std::size_t built = 3 * grp_.count;
  const bool round = cycle_ >= built;
  const std::size_t c = round ? cycle_ - built : cycle_;
  if (round && c == 4 * seat_.n) {
    MCB_CHECK(out_.size() == seat_.end - seat_.first,
              "P" << seat_.me << " placed " << out_.size() << " of "
                  << seat_.end - seat_.first);
    MCB_CHECK(remaining_.empty(), "P" << seat_.me << " still holds "
                                      << remaining_.size() << " elements");
    *data_ = std::move(out_);
    return false;
  }
  kind_ = round ? kRound[c % 4] : kInsertion[c % 3];
  switch (kind_) {
    case kBroadcast:
      // Member c/3 inserts in the construction, the head in a round; a
      // head that ran dry stays silent.
      inserting_ = round ? head_ && !remaining_.empty() : c / 3 == seat_.me;
      cand_ = inserting_ ? remaining_.front() : Key{};
      if (inserting_) {
        write(self, key_message(cand_));
      } else if (round && head_) {
        reads_ = false;
        self.act_sleep(1);
      } else {
        read(self);
      }
      break;
    case kReply:
      if (pb_) {
        write(self, insertion_point(rank_, pointer_));
      } else {
        read(self);
      }
      break;
    case kHandover:
      if (head_ && rank_ == 2) {
        // I was the head and got demoted: the inserter is the new head and
        // needs my top as its pointer.
        write(self, key_message(remaining_.front()));
      } else {
        read(self);
      }
      break;
    case kPlace:
      head_ = listed_ && rank_ == 1;
      target_ = c / 4 >= seat_.first && c / 4 < seat_.end;
      if (head_) {
        write(self, Message::of(remaining_.front().value));
      } else {
        read(self);
      }
      break;
    case kEvict:
      // The target only evicts when it keeps at least two unplaced
      // elements, so its listed top is never evicted and the linked list
      // stays intact.
      if (target_ && !head_ && remaining_.size() >= 2) {
        const Key evicted = remaining_.back();
        remaining_.pop_back();
        write(self, Message::of(evicted.value));
      } else {
        read(self);
      }
      break;
  }
  return true;
}

void MergeSort::land(Proc& self) {
  const Proc::ReadResult got =
      reads_ ? self.take_read() : Proc::ReadResult{};
  const bool round = cycle_ >= 3 * grp_.count;
  switch (kind_) {
    case kBroadcast:
      if (got) {
        cand_ = key_from(*got);
      } else {
        MCB_CHECK(round || inserting_, "construction broadcast missing");
      }
      if (!round) head_ = listed_ && rank_ == 1;  // may be demoted now
      // P_b is the listed member whose top is the least one above cand_.
      pb_ = !cand_.null() && listed_ && remaining_.front() > cand_ &&
            (pointer_.null() || pointer_ < cand_);
      if (!cand_.null() && listed_ && remaining_.front() < cand_) ++rank_;
      return;
    case kReply:
      if (pb_) {
        pointer_ = cand_;
      } else if (inserting_) {
        if (got) {
          rank_ = static_cast<std::size_t>(got->at(0));
          pointer_ = key_from(*got, 1);
        } else {
          // A new global maximum: rank 1. In a round, its old pointer
          // already names the current second-largest top (only heads are
          // ever removed); in the construction, (c) sets it.
          rank_ = 1;
        }
        listed_ = true;
      }
      return;
    case kHandover:
      if (inserting_ && rank_ == 1 && got) pointer_ = key_from(*got);
      return;
    case kPlace: {
      Word placed = 0;
      if (head_) {
        placed = remaining_.front().value;
        remaining_.erase(remaining_.begin());
        listed_ = false;
        rank_ = 0;
      } else {
        MCB_CHECK(got.has_value(), "round " << (cycle_ - 3 * grp_.count) / 4
                                            << ": no head broadcast");
        placed = got->at(0);
        if (listed_) --rank_;
      }
      if (target_) {
        out_.push_back(placed);
        note(self);
      }
      return;
    }
    case kEvict:
      if (!reads_) {
        note(self);
      } else if (head_ && got) {
        // Re-tag and merge into my remaining list.
        const Key k{got->at(0), static_cast<Word>(seat_.me), next_serial_++};
        remaining_.insert(std::upper_bound(remaining_.begin(),
                                           remaining_.end(), k,
                                           std::greater<Key>{}),
                          k);
        note(self);
      }
      return;
  }
}

AlgoResult mergesort(const SimConfig& cfg,
                     const std::vector<std::vector<Word>>& inputs,
                     TraceSink* sink) {
  return detail::single_channel_sort<MergeSort>(cfg, inputs, sink);
}

}  // namespace mcb::algo

#include "util/arena.hpp"

#include <bit>
#include <new>

#include "util/check.hpp"

namespace mcb::util {

namespace {

/// Prefix of every frame allocation; 16 bytes keeps the frame itself on the
/// default new alignment. The classes are meaningful only when arena !=
/// nullptr.
struct alignas(16) FrameHeader {
  FrameArena* arena;    ///< nullptr: block came from global operator new
  std::uint32_t cls;    ///< size class of the block
  std::uint32_t asked;  ///< size class of the frame (<= cls)
};
static_assert(sizeof(FrameHeader) == 16);

thread_local FrameArena* tl_current_arena = nullptr;

}  // namespace

FrameArena::~FrameArena() {
  for (void* slab : slabs_) {
    ::operator delete(slab);
  }
}

void* FrameArena::take(std::size_t cls, std::size_t asked) {
  MCB_CHECK(asked <= cls && cls < kNumClasses,
            "size class " << cls << " out of range");
  const std::size_t bytes = class_bytes(cls);
  ++stats_.allocs;
  stats_.bytes_live += class_bytes(asked);
  if (stats_.bytes_live > stats_.bytes_peak) {
    stats_.bytes_peak = stats_.bytes_live;
  }

  if (FreeNode* node = free_heads_[cls]) {
    free_heads_[cls] = node->next;
    if (node->next == nullptr) nonempty_ &= ~(std::uint64_t{1} << cls);
    ++stats_.reuses;
    return node;
  }
  if (remaining_ < bytes) {
    ++stats_.slab_allocs;
    slabs_.push_back(::operator new(kSlabBytes));
    bump_ = static_cast<std::byte*>(slabs_.back());
    remaining_ = kSlabBytes;
  }
  void* block = bump_;
  bump_ += bytes;
  remaining_ -= bytes;
  return block;
}

FrameArena::Fit FrameArena::allocate_fit(std::size_t cls) {
  MCB_CHECK(cls < kNumClasses, "size class " << cls << " out of range");
  std::size_t served = cls;
  if (free_heads_[cls] == nullptr && remaining_ < class_bytes(cls)) {
    if (const std::uint64_t larger = nonempty_ >> cls >> 1; larger != 0) {
      served += 1 + static_cast<std::size_t>(std::countr_zero(larger));
    }
  }
  return {take(served, cls), served};
}

void FrameArena::deallocate_class(void* block, std::size_t cls,
                                  std::size_t asked) {
  ++stats_.frees;
  stats_.bytes_live -= class_bytes(asked);
  auto* node = static_cast<FreeNode*>(block);
  node->next = free_heads_[cls];
  free_heads_[cls] = node;
  nonempty_ |= std::uint64_t{1} << cls;
}

FrameArena* current_frame_arena() noexcept { return tl_current_arena; }

FrameArenaScope::FrameArenaScope(FrameArena* arena) noexcept
    : prev_(tl_current_arena) {
  tl_current_arena = arena;
}

FrameArenaScope::~FrameArenaScope() { tl_current_arena = prev_; }

void* frame_allocate_in(FrameArena* arena, std::size_t bytes) {
  const std::size_t total = bytes + sizeof(FrameHeader);
  FrameHeader* header;
  if (arena != nullptr && total <= FrameArena::kMaxClassBytes) {
    const std::size_t asked = FrameArena::class_of(total);
    const FrameArena::Fit fit = arena->allocate_fit(asked);
    header = static_cast<FrameHeader*>(fit.block);
    header->arena = arena;
    header->cls = static_cast<std::uint32_t>(fit.cls);
    header->asked = static_cast<std::uint32_t>(asked);
  } else {
    header = static_cast<FrameHeader*>(::operator new(total));
    header->arena = nullptr;
    header->cls = 0;
    header->asked = 0;
  }
  return header + 1;
}

void* frame_allocate(std::size_t bytes) {
  return frame_allocate_in(tl_current_arena, bytes);
}

void frame_deallocate(void* p) noexcept {
  if (p == nullptr) return;
  FrameHeader* header = static_cast<FrameHeader*>(p) - 1;
  if (header->arena != nullptr) {
    header->arena->deallocate_class(header, header->cls, header->asked);
  } else {
    ::operator delete(header);
  }
}

}  // namespace mcb::util

// Size-classed free-list arena for coroutine frames.
//
// Motivation (docs/ENGINE.md, "Memory model"): every `co_await` of a Task<T>
// subroutine allocates a coroutine frame, and the simulator's hot path
// performs hundreds of thousands of processor resumes per trial with several
// frame allocations each. Round-tripping malloc for frames that are freed
// microseconds later — and re-requested at the exact same size — dominates
// the per-trial wall clock. This arena recycles frames the way calendar-queue
// simulators and coroutine runtimes do: freed frames park on a per-size-class
// free list and the next allocation of that class pops them in O(1).
//
// Layout: every frame allocation (arena or fallback) is prefixed with a
// 16-byte header recording the owning arena (nullptr = global new) and the
// size class. Deallocation routes through the header, so a frame may outlive
// the thread-local arena *scope* it was allocated under — only the arena
// object itself must outlive its frames (Network guarantees this by owning
// the arena and declaring it before the program table).
//
// Thread contract: an arena is single-threaded — it is installed thread_local
// by Network::run(), one Network runs on one thread, and the harness gives
// every trial its own Network, so sweep workers never contend (no locks
// anywhere on this path). Allocate and deallocate must not race; frames are
// freed on the thread that owns the arena.
//
// The arena never returns memory to the system until it is destroyed; a
// sanitizer note follows from that: recycled frames stay addressable, so
// ASan cannot flag use-after-free *within* one arena's lifetime. The
// MCB_FRAME_ARENA=OFF build (plain global new/delete for every frame)
// exists exactly so sanitizer runs can cover both layouts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mcb::util {

/// Telemetry counters of one arena. `allocs`/`frees`/`reuses`/`slab_allocs`
/// are monotonic; `bytes_live`/`bytes_peak` track rounded class bytes
/// (headers included), each frame charged at the class it asked for, even
/// when a larger free block serves it — so they are a function of the
/// frames requested alone, the same on a fresh arena and a warm one.
struct ArenaStats {
  std::uint64_t allocs = 0;       ///< requests served from this arena
  std::uint64_t frees = 0;        ///< frames returned to this arena
  std::uint64_t reuses = 0;       ///< allocs served from a free list
  std::uint64_t slab_allocs = 0;  ///< allocs that acquired a new slab
  std::uint64_t bytes_live = 0;
  std::uint64_t bytes_peak = 0;

  /// Fraction of arena allocations served without touching the global
  /// allocator — a free-list pop or a bump-carve from a slab already in
  /// hand. Only allocations that had to acquire a fresh slab count as
  /// misses, so the rate measures exactly what the arena exists to avoid:
  /// per-frame round trips to operator new. Approaches 1 quickly — one
  /// 64 KiB slab amortizes hundreds of frames.
  double hit_rate() const {
    return allocs == 0 ? 0.0
                       : static_cast<double>(allocs - slab_allocs) /
                             static_cast<double>(allocs);
  }
};

class FrameArena {
 public:
  /// Size classes are multiples of 64 bytes up to 4 KiB; larger frames fall
  /// back to global new (rare: a frame that big holds large locals that
  /// should live on the processor, not the coroutine frame).
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kNumClasses = 64;  ///< one bit each in a mask
  static constexpr std::size_t kMaxClassBytes = kGranularity * kNumClasses;
  /// Slabs are carved bump-pointer style; one slab serves many classes.
  static constexpr std::size_t kSlabBytes = 64 * 1024;

  FrameArena() = default;
  ~FrameArena();
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;

  const ArenaStats& stats() const { return stats_; }

  // Internal allocation interface (header excluded); frame code uses the
  // free functions below, tests may drive these directly.
  //
  // allocate_class serves exactly class `cls`: a free-list pop, else a
  // carve from the current slab, else from a fresh one. allocate_fit may
  // serve a larger class instead, and returns with the block the class it
  // served, whose free list the block goes back to: when class `cls` has no
  // free block and the current slab is too short for one, it takes the
  // smallest larger free block rather than acquire a slab. So frames a
  // size class smaller than an earlier phase's reuse that phase's blocks,
  // and the footprint follows the live bytes rather than the sum of
  // per-class peaks. deallocate_class takes the block's class and, for a
  // block from allocate_fit, the class it was asked for.
  struct Fit {
    void* block;
    std::size_t cls;
  };
  void* allocate_class(std::size_t cls) { return take(cls, cls); }
  Fit allocate_fit(std::size_t cls);
  void deallocate_class(void* block, std::size_t cls) {
    deallocate_class(block, cls, cls);
  }
  void deallocate_class(void* block, std::size_t cls, std::size_t asked);

  static std::size_t class_of(std::size_t total_bytes) {
    return (total_bytes - 1) / kGranularity;
  }
  static std::size_t class_bytes(std::size_t cls) {
    return (cls + 1) * kGranularity;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  // A block of class `cls` charged as class `asked`.
  void* take(std::size_t cls, std::size_t asked);

  FreeNode* free_heads_[kNumClasses] = {};
  std::uint64_t nonempty_ = 0;  ///< bit c set iff free_heads_[c] != nullptr
  std::vector<void*> slabs_;
  std::byte* bump_ = nullptr;     ///< next free byte in the current slab
  std::size_t remaining_ = 0;     ///< bytes left in the current slab
  ArenaStats stats_;
};

/// The arena new frame allocations route to on this thread (nullptr = global
/// new). Installed by Network::run() via FrameArenaScope.
FrameArena* current_frame_arena() noexcept;

/// RAII install/restore of the thread-local current arena. Scopes nest (a
/// hosted Network running inside another Network's coroutine restores the
/// outer arena on exit).
class FrameArenaScope {
 public:
  explicit FrameArenaScope(FrameArena* arena) noexcept;
  ~FrameArenaScope();
  FrameArenaScope(const FrameArenaScope&) = delete;
  FrameArenaScope& operator=(const FrameArenaScope&) = delete;

 private:
  FrameArena* prev_;
};

/// Allocates a coroutine frame: from `arena` when it is non-null and the
/// size fits a class, from global new otherwise. The returned pointer is
/// 16-byte aligned (the default new alignment GCC assumes for coroutine
/// frames without an aligned promise operator new).
void* frame_allocate_in(FrameArena* arena, std::size_t bytes);

/// frame_allocate_in the current arena.
void* frame_allocate(std::size_t bytes);

/// Frees a frame wherever it came from — the header, not the thread-local
/// pointer, decides, so frames may be freed after their allocation scope
/// ended (e.g. suspended programs destroyed by ~Network after run()).
void frame_deallocate(void* p) noexcept;

}  // namespace mcb::util

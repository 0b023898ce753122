// Tests of the coroutine-frame arena (util/arena.hpp): size-class
// mapping, free-list reuse, peak accounting, the global-new fallbacks
// (oversized frames and no installed arena), scope nesting, and the
// end-to-end contract with Network — every frame allocated during a run is
// returned to the arena, and the run serves almost all of them without
// touching the global allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mcb/network.hpp"
#include "util/arena.hpp"

namespace mcb {
namespace {

using util::FrameArena;
using util::FrameArenaScope;

// --- size-class mapping ------------------------------------------------------

TEST(ArenaTest, ClassMappingRoundTrips) {
  // class_bytes(class_of(n)) is the smallest class multiple >= n.
  EXPECT_EQ(FrameArena::class_of(1), 0u);
  EXPECT_EQ(FrameArena::class_of(64), 0u);
  EXPECT_EQ(FrameArena::class_of(65), 1u);
  EXPECT_EQ(FrameArena::class_of(FrameArena::kMaxClassBytes),
            FrameArena::kNumClasses - 1);
  for (std::size_t n = 1; n <= FrameArena::kMaxClassBytes; ++n) {
    const std::size_t cls = FrameArena::class_of(n);
    EXPECT_GE(FrameArena::class_bytes(cls), n);
    EXPECT_LT(FrameArena::class_bytes(cls) - n, FrameArena::kGranularity);
  }
}

// --- reuse and accounting ----------------------------------------------------

TEST(ArenaTest, FreedBlockIsReusedLifo) {
  FrameArena arena;
  void* a = arena.allocate_class(3);
  void* b = arena.allocate_class(3);
  EXPECT_NE(a, b);
  arena.deallocate_class(a, 3);
  arena.deallocate_class(b, 3);
  // Free lists are LIFO: the most recently freed block comes back first.
  EXPECT_EQ(arena.allocate_class(3), b);
  EXPECT_EQ(arena.allocate_class(3), a);
  EXPECT_EQ(arena.stats().allocs, 4u);
  EXPECT_EQ(arena.stats().frees, 2u);
  EXPECT_EQ(arena.stats().reuses, 2u);
}

TEST(ArenaTest, FitTakesALargerFreeBlockBeforeANewSlab) {
  FrameArena arena;
  std::vector<void*> bigs;
  // Fill the first slab with class-5 (384 B) blocks, then free them.
  while (arena.stats().slab_allocs < 2) bigs.push_back(arena.allocate_class(5));
  void* last = bigs.back();  // carved from the second slab
  bigs.pop_back();
  for (void* b : bigs) arena.deallocate_class(b, 5);
  // Class 4 (320 B) has no free block, but the second slab still has room:
  // a carve, not a borrow.
  const auto carved = arena.allocate_fit(4);
  EXPECT_EQ(carved.cls, 4u);
  std::vector<FrameArena::Fit> fits{carved};
  // Once the slab is too short, a freed class-5 block serves instead of a
  // third slab; it is charged as the class asked for and goes back to its
  // own list.
  while (fits.back().cls == 4) fits.push_back(arena.allocate_fit(4));
  EXPECT_EQ(fits.back().cls, 5u);
  EXPECT_EQ(arena.stats().slab_allocs, 2u);
  EXPECT_EQ(arena.stats().bytes_live,
            FrameArena::class_bytes(5) +
                fits.size() * FrameArena::class_bytes(4));
  for (const auto& f : fits) arena.deallocate_class(f.block, f.cls, 4);
  arena.deallocate_class(last, 5);
  EXPECT_EQ(arena.stats().bytes_live, 0u);
  // The borrowed block is back on the class-5 list.
  EXPECT_EQ(arena.allocate_class(5), last);
  EXPECT_EQ(arena.allocate_class(5), fits.back().block);
}

TEST(ArenaTest, ClassesDoNotShareFreeLists) {
  FrameArena arena;
  void* small = arena.allocate_class(0);
  arena.deallocate_class(small, 0);
  // An allocation of a different class must not pick up the freed block.
  void* big = arena.allocate_class(5);
  EXPECT_NE(big, small);
  EXPECT_EQ(arena.stats().reuses, 0u);
}

TEST(ArenaTest, StressReallocationAcrossClasses) {
  // Allocate/free/reallocate waves across several classes; after the
  // warm-up wave every allocation must be a free-list pop, no block is
  // handed out twice while live, and the books balance exactly.
  FrameArena arena;
  const std::size_t classes[] = {0, 1, 2, 7, 15, 31};
  const int waves = 50, per_class = 8;
  std::vector<void*> live;
  for (int w = 0; w < waves; ++w) {
    for (std::size_t cls : classes) {
      for (int i = 0; i < per_class; ++i) {
        void* p = arena.allocate_class(cls);
        for (void* q : live) ASSERT_NE(p, q);
        live.push_back(p);
      }
    }
    std::size_t idx = 0;
    for (std::size_t cls : classes) {
      for (int i = 0; i < per_class; ++i) {
        arena.deallocate_class(live[idx++], cls);
      }
    }
    live.clear();
  }
  const auto& st = arena.stats();
  const auto total =
      static_cast<std::uint64_t>(waves) * std::size(classes) * per_class;
  EXPECT_EQ(st.allocs, total);
  EXPECT_EQ(st.frees, total);
  // Only the first wave carves fresh blocks; every later wave reuses.
  EXPECT_EQ(st.reuses, total - std::size(classes) * per_class);
  EXPECT_EQ(st.bytes_live, 0u);
  EXPECT_GT(st.hit_rate(), 0.9);
}

TEST(ArenaTest, PeakTracksHighWaterOfRoundedBytes) {
  FrameArena arena;
  void* a = arena.allocate_class(0);  // 64 bytes
  void* b = arena.allocate_class(1);  // 128 bytes
  EXPECT_EQ(arena.stats().bytes_live, 192u);
  EXPECT_EQ(arena.stats().bytes_peak, 192u);
  arena.deallocate_class(a, 0);
  EXPECT_EQ(arena.stats().bytes_live, 128u);
  EXPECT_EQ(arena.stats().bytes_peak, 192u);  // peak is sticky
  void* c = arena.allocate_class(0);          // reuse: peak unchanged
  EXPECT_EQ(arena.stats().bytes_peak, 192u);
  arena.deallocate_class(b, 1);
  arena.deallocate_class(c, 0);
  EXPECT_EQ(arena.stats().bytes_live, 0u);
}

TEST(ArenaTest, HitRateCountsSlabAcquisitionsAsMisses) {
  FrameArena arena;
  // The first allocation must acquire a slab; subsequent bump-carves and
  // free-list pops are hits, so the rate climbs towards 1.
  void* p = arena.allocate_class(0);
  EXPECT_EQ(arena.stats().slab_allocs, 1u);
  EXPECT_DOUBLE_EQ(arena.stats().hit_rate(), 0.0);
  std::vector<void*> blocks{p};
  // One slab holds kSlabBytes / 64 class-0 blocks; stay well within it.
  for (int i = 0; i < 100; ++i) blocks.push_back(arena.allocate_class(0));
  EXPECT_EQ(arena.stats().slab_allocs, 1u);
  EXPECT_GT(arena.stats().hit_rate(), 0.99);
  for (void* q : blocks) arena.deallocate_class(q, 0);
}

// --- frame_allocate / frame_deallocate routing -------------------------------

TEST(ArenaTest, NoInstalledArenaFallsBackToGlobalNew) {
  ASSERT_EQ(util::current_frame_arena(), nullptr);
  void* p = util::frame_allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
  util::frame_deallocate(p);  // routes to global delete via the header
  util::frame_deallocate(nullptr);  // no-op
}

TEST(ArenaTest, ScopeInstallsAndNestsAndRestores) {
  FrameArena outer, inner;
  ASSERT_EQ(util::current_frame_arena(), nullptr);
  {
    FrameArenaScope s1(&outer);
    EXPECT_EQ(util::current_frame_arena(), &outer);
    {
      FrameArenaScope s2(&inner);
      EXPECT_EQ(util::current_frame_arena(), &inner);
    }
    EXPECT_EQ(util::current_frame_arena(), &outer);
  }
  EXPECT_EQ(util::current_frame_arena(), nullptr);
}

TEST(ArenaTest, InstalledArenaServesAndOversizedBypasses) {
  FrameArena arena;
  FrameArenaScope scope(&arena);
  void* p = util::frame_allocate(100);
  EXPECT_EQ(arena.stats().allocs, 1u);
  // An allocation too large for any size class must bypass the arena even
  // while one is installed (its header routes the delete to global new).
  void* big = util::frame_allocate(FrameArena::kMaxClassBytes + 1);
  EXPECT_EQ(arena.stats().allocs, 1u);
  util::frame_deallocate(big);
  EXPECT_EQ(arena.stats().frees, 0u);
  util::frame_deallocate(p);
  EXPECT_EQ(arena.stats().frees, 1u);
}

TEST(ArenaTest, FrameMayOutliveItsAllocationScope) {
  // Deletion is routed by the per-block header, not the thread-local
  // pointer — the contract ~Network relies on when destroying suspended
  // programs after run() returned (docs/ENGINE.md, "Memory model").
  FrameArena arena;
  void* p;
  {
    FrameArenaScope scope(&arena);
    p = util::frame_allocate(100);
  }
  ASSERT_EQ(util::current_frame_arena(), nullptr);
  util::frame_deallocate(p);
  EXPECT_EQ(arena.stats().frees, 1u);
  EXPECT_EQ(arena.stats().bytes_live, 0u);
}

// --- end-to-end: Network runs recycle every frame ----------------------------

Task<Word> double_up(Proc& self, Word x) {
  co_await self.window(1);
  co_return x * 2;
}

ProcMain doubling_program(Proc& self, Word& out) {
  Word v = 1;
  for (int i = 0; i < 50; ++i) {
    v = co_await double_up(self, v % 1000);
  }
  out = v;
}

TEST(ArenaTest, NetworkRunRecyclesTaskFrames) {
  const std::size_t p = 8;
  Network net({.p = p, .k = 1});
  std::vector<Word> out(p, 0);
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, doubling_program(net.proc(i), out[i]));
  }
  auto stats = net.run();
  for (Word v : out) EXPECT_NE(v, 0);
#if MCB_FRAME_ARENA_ENABLED
  // One Task frame per double_up call, all allocated from the run's arena
  // and all returned to it: the frames of one processor's successive calls
  // recycle each other.
  EXPECT_GE(stats.frame_allocs, std::uint64_t{50 * p});
  EXPECT_EQ(stats.frame_allocs, stats.frame_frees);
  EXPECT_GT(stats.arena_bytes_peak, 0u);
  EXPECT_GT(stats.arena_hit_rate, 0.9);
#else
  // The OFF build compiles the arena hooks out entirely; the telemetry
  // must read as zeros, not garbage.
  EXPECT_EQ(stats.frame_allocs, 0u);
  EXPECT_EQ(stats.frame_frees, 0u);
  EXPECT_EQ(stats.arena_bytes_peak, 0u);
  EXPECT_EQ(stats.arena_hit_rate, 0.0);
#endif
}

// --- program frames ----------------------------------------------------------

ProcMain sleeper_program(Proc& self, Cycle t) { co_await self.window(t); }

// Not Proc& first: its frame cannot name a network, so it takes global new.
ProcMain tagged_sleeper(Cycle t, Proc& self) { co_await self.window(t); }

TEST(ArenaTest, ProgramFramesComeFromTheirNetworksArena) {
  const std::size_t p = 16;
  Network net({.p = p, .k = 2});
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, sleeper_program(net.proc(i), i + 1));
  }
#if MCB_FRAME_ARENA_ENABLED
  // Installed, not yet run: the program frames are live in the arena.
  EXPECT_EQ(net.arena_stats().allocs, p);
  EXPECT_GT(net.arena_stats().bytes_live, 0u);
#endif
  const auto stats = net.run();
  // The run's own frame counts exclude the frames installed before it.
  EXPECT_EQ(stats.frame_allocs, 0u);
  EXPECT_EQ(stats.frame_frees, 0u);
#if MCB_FRAME_ARENA_ENABLED
  EXPECT_EQ(stats.arena_bytes_peak, net.arena_stats().bytes_live);
#else
  EXPECT_EQ(stats.arena_bytes_peak, 0u);
  EXPECT_EQ(net.arena_stats().allocs, 0u);
#endif
}

TEST(ArenaTest, ResetRecyclesProgramFrames) {
  const std::size_t p = 64;
  Network net({.p = p, .k = 4});
  std::vector<Word> out(p, 0);
  for (int round = 0; round < 3; ++round) {
    const auto slabs = net.arena_stats().slab_allocs;
    for (ProcId i = 0; i < p; ++i) {
      net.install(i, doubling_program(net.proc(i), out[i]));
    }
    net.run();
    net.reset();
    EXPECT_EQ(net.arena_stats().bytes_live, 0u) << "round " << round;
    // Reinstall and rerun take every frame from the free lists.
    if (round > 0) {
      EXPECT_EQ(net.arena_stats().slab_allocs, slabs) << "round " << round;
    }
  }
#if MCB_FRAME_ARENA_ENABLED
  EXPECT_GT(net.arena_stats().slab_allocs, 0u);
#else
  EXPECT_EQ(net.arena_stats().slab_allocs, 0u);
#endif
}

TEST(ArenaTest, ProgramWithoutProcFirstUsesGlobalNew) {
  const std::size_t p = 8;
  Network net({.p = p, .k = 1});
  for (ProcId i = 0; i < p; ++i) {
    net.install(i, tagged_sleeper(2 * i + 1, net.proc(i)));
  }
  EXPECT_EQ(net.arena_stats().allocs, 0u);
  const auto stats = net.run();
  EXPECT_EQ(stats.cycles, 2 * p - 1);
  EXPECT_EQ(stats.arena_bytes_peak, 0u);
}

}  // namespace
}  // namespace mcb

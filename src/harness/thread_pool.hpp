// A fixed-size worker pool for embarrassingly parallel trial grids.
//
// parallel_for_index runs fn(0), fn(1), ..., fn(n-1) across a bounded set of
// worker threads, pulling indices from a shared atomic counter (dynamic
// scheduling — long trials don't straggle behind a static partition). The
// call returns only when every index has completed.
//
// Concurrency contract: the only shared mutable state inside the pool is
// the index counter, an std::atomic. Each index i is claimed by exactly one
// worker, and callers are required to make fn(i) touch only state owned by
// index i (the sweep harness runs one independent single-threaded Network
// per trial and writes to results[i] only). Completed writes are published
// to the caller by the workers' thread joins, which synchronize-with the
// return. The contract is enforced, not assumed: tools/ci.sh builds the
// `tsan` preset and runs this suite (tests/harness_test.cpp) plus a
// parallel sweep smoke under ThreadSanitizer on every CI run.
#pragma once

#include <cstddef>
#include <functional>

namespace mcb::harness {

/// Number of workers the pool uses for a request of `threads` (0 means "use
/// the hardware"): clamped to [1, n] and, for threads == 0, to
/// std::thread::hardware_concurrency() (itself at least 1).
std::size_t resolve_threads(std::size_t threads, std::size_t n);

/// Runs fn(i) for every i in [0, n) on up to `threads` workers (0 = use the
/// hardware). fn must not throw — trial errors are data, not control flow;
/// callers capture them into their per-index result slot. With one worker
/// (or n <= 1) everything runs on the calling thread.
void parallel_for_index(std::size_t n, std::size_t threads,
                        const std::function<void(std::size_t)>& fn);

}  // namespace mcb::harness

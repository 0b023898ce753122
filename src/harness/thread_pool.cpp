#include "harness/thread_pool.hpp"

#include <atomic>
#include <thread>
#include <vector>

namespace mcb::harness {

std::size_t resolve_threads(std::size_t threads, std::size_t n) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : hw;
  }
  if (n == 0) return 1;
  return threads < n ? (threads == 0 ? 1 : threads) : n;
}

void parallel_for_index(std::size_t n, std::size_t threads,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = resolve_threads(threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 0; t + 1 < workers; ++t) pool.emplace_back(worker);
  worker();  // the calling thread is worker 0
  for (auto& th : pool) th.join();
}

}  // namespace mcb::harness

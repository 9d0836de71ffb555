#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace cref {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

std::size_t EngineOptions::resolved_threads(std::size_t n) const {
  return std::max<std::size_t>(1, std::min(resolve_thread_count(num_threads), n));
}

std::size_t EngineOptions::resolved_chunk(std::size_t n) const {
  if (chunk_size) return chunk_size;
  std::size_t t = resolved_threads(n);
  return std::max<std::size_t>(64, n / (8 * t));
}

void parallel_chunks(std::size_t n, const EngineOptions& opts,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t threads = opts.resolved_threads(n);
  if (threads <= 1) {
    fn(0, 0, n);
    return;
  }
  std::atomic<std::size_t> next{0};
  const std::size_t chunk = opts.resolved_chunk(n);
  auto worker = [&](std::size_t tid) {
    for (;;) {
      std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      fn(tid, begin, std::min(begin + chunk, n));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) pool.emplace_back(worker, i);
  worker(0);
  for (auto& th : pool) th.join();
}

}  // namespace cref

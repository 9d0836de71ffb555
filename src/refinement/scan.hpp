#pragma once

// Internals of the relation engine (checker.cpp): wall-clock phase
// accounting and the deterministic parallel first-violation scan.
// Internal header — the public surface is checker.hpp.

#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <vector>

#include "core/space.hpp"
#include "util/parallel.hpp"

namespace cref::detail {

// CAS loop instead of fetch_add: atomic<double>::fetch_add is C++20 but
// patchily available across standard libraries.
inline void add_ms(std::atomic<double>& sink, double ms) {
  double cur = sink.load(std::memory_order_relaxed);
  while (!sink.compare_exchange_weak(cur, cur + ms, std::memory_order_relaxed)) {
  }
}

/// Accumulates elapsed wall-clock milliseconds into `sink` on destruction.
class PhaseTimer {
 public:
  explicit PhaseTimer(std::atomic<double>& sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    add_ms(sink_, std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }

 private:
  std::atomic<double>& sink_;
  std::chrono::steady_clock::time_point start_;
};

inline constexpr StateId kNoState = std::numeric_limits<StateId>::max();

/// Parallel "first violation" scan: runs `per_state(tid, s)` (an
/// optional<V>-returning detector) over all states and returns the
/// violation of the LOWEST state id, exactly as a serial ascending loop
/// would. Each worker visits its states in ascending order, so its first
/// hit is its minimum; the shared `bound` only prunes states that can no
/// longer beat the current minimum, never the minimum itself. The result
/// is therefore independent of thread count and scheduling. `tid` is the
/// dense worker index — detectors that need per-worker scratch (a
/// generated source's successor buffers) index it into a
/// resolved_threads-sized pool.
template <typename V, typename F>
std::optional<V> min_state_scan(StateId n, const EngineOptions& opts, F&& per_state) {
  const std::size_t threads = opts.resolved_threads(n);
  std::vector<std::optional<V>> best(threads);
  std::vector<StateId> best_s(threads, kNoState);
  std::atomic<StateId> bound{kNoState};
  parallel_chunks(n, opts, [&](std::size_t tid, std::size_t begin, std::size_t end) {
    if (best_s[tid] != kNoState) return;  // this worker's minimum is already fixed
    for (StateId s = static_cast<StateId>(begin); s < end; ++s) {
      if (s >= bound.load(std::memory_order_relaxed)) return;
      if (auto v = per_state(tid, s)) {
        best[tid] = std::move(v);
        best_s[tid] = s;
        StateId cur = bound.load(std::memory_order_relaxed);
        while (s < cur &&
               !bound.compare_exchange_weak(cur, s, std::memory_order_relaxed)) {
        }
        return;
      }
    }
  });
  std::size_t winner = threads;
  for (std::size_t i = 0; i < threads; ++i)
    if (best_s[i] != kNoState && (winner == threads || best_s[i] < best_s[winner])) winner = i;
  if (winner == threads) return std::nullopt;
  return best[winner];
}

}  // namespace cref::detail

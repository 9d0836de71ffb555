#pragma once

#include <cstddef>
#include <functional>

// Cross-layer parallelism primitives. These live in util/ (not
// refinement/) because the state-space materialization in core/ runs on
// the same chunked thread pool as the refinement engine's edge scans;
// they keep the cref namespace they were born with in refinement/engine
// so every existing call site still reads cref::EngineOptions.

namespace cref {

/// Resolves a user-facing `--threads` value to a worker count: 0 means
/// one per hardware thread (never returns 0, even when the runtime
/// reports unknown concurrency). The single source of truth for the
/// `--threads 0 == hardware_concurrency` convention across every tool
/// and bench binary.
std::size_t resolve_thread_count(std::size_t requested = 0);

/// Tuning knobs of the parallel scans: the refinement engine's edge
/// scans and the Sigma-materialization in TransitionGraph::build. Both
/// are bit-identical to their serial counterparts at any thread count:
/// per-thread partial results are merged by state id, and the CSR build
/// writes each state's slice at a precomputed offset.
///
/// Set the options on a RefinementChecker BEFORE the first check; the
/// options are not synchronized against concurrently running checks.
struct EngineOptions {
  /// Worker threads for the scans. 0 = one per hardware thread.
  /// 1 = fully serial (no threads spawned).
  std::size_t num_threads = 0;

  /// States handed to a worker per grab. 0 = auto: n / (8 * threads),
  /// clamped to at least 64 (small enough to balance skewed successor
  /// lists, large enough to keep the atomic work-queue cold).
  std::size_t chunk_size = 0;

  /// Above this many A-side SCCs the condensation-closure bitsets would
  /// use too much memory; reachability queries fall back to per-query
  /// BFS. Exposed mainly so tests can force the BFS path.
  std::size_t max_comps_for_closure = 20000;

  /// Threads that will actually run for an `n`-item scan (respects
  /// num_threads, hardware_concurrency, and never exceeds n).
  std::size_t resolved_threads(std::size_t n) const;

  /// Chunk size that will actually be used for an `n`-item scan.
  std::size_t resolved_chunk(std::size_t n) const;
};

/// Runs `fn(thread, begin, end)` over dynamically-scheduled chunks of
/// [0, n). `thread` is a dense worker index in [0, threads) usable for
/// per-thread accumulators; chunks are pulled from a shared atomic
/// counter, so a worker may process many non-adjacent chunks. With one
/// resolved thread (or n == 0) everything runs inline on the caller.
/// `fn` must not throw.
void parallel_chunks(std::size_t n, const EngineOptions& opts,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

}  // namespace cref

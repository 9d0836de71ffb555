#pragma once

// Latency statistics and process resource usage for the end-to-end
// metrics.

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// The percentiles a tail may be reported at.
inline constexpr double kTailLadder[] = {50, 75, 90, 95, 97.5, 99, 99.5, 99.9};

/// The highest ladder percentile that leaves at least ten samples beyond
/// it among n samples (50 when none does).
double tail_percentile(std::size_t n);

/// Median of a small list (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Milliseconds of steady-clock time since `t0`.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
}

/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// The process's peak resident set size since it started, in MB.
double peak_rss_mb();

}  // namespace perfbench

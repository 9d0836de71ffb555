#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile; p is taken in tenths so
/// 97.5 and 99.9 round exactly.
std::size_t rank_of(std::size_t n, double p) {
  const auto tenths = static_cast<std::size_t>(std::llround(p * 10.0));
  return std::max<std::size_t>(1, (tenths * n + 999) / 1000);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[std::min(values.size(), rank_of(values.size(), p)) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - std::min(n, rank_of(n, p));
}

double tail_percentile(std::size_t n) {
  double best = 50;
  for (double p : kTailLadder)
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 ? values[m] : (values[m - 1] + values[m]) / 2.0;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return double(tv.tv_sec) + double(tv.tv_usec) / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM, not ru_maxrss: Linux carries ru_maxrss across execve, so a
  // small process reports its launcher's peak (the Python of run.py: 14.3
  // MB against this program's 8.4 MB on refine_static).
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench

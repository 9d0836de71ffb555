#include <algorithm>
#include <chrono>

#include "workloads.hpp"

namespace perfbench {

Timed measure(std::size_t sessions, std::size_t min_passes, double seconds,
              const std::function<Rep(std::size_t)>& rep) {
  using Clock = std::chrono::steady_clock;
  auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  Timed t;
  const auto t0 = Clock::now();
  std::vector<Rep> best;
  for (std::size_t pass = 0;; ++pass) {
    if (pass >= min_passes) {
      const double elapsed = since(t0);
      if (seconds <= 0 || elapsed + elapsed / double(pass) > seconds) break;
    }
    double pass_wall = 0;
    for (std::size_t s = 0; s < sessions; ++s) {
      Rep r = rep(s);
      pass_wall += r.wall_s;
      t.requests.insert(t.requests.end(), r.requests.begin(), r.requests.end());
      t.answers.insert(t.answers.end(), r.answers.begin(), r.answers.end());
      if (pass == 0) {
        best.push_back(std::move(r));
        continue;
      }
      Rep& b = best[s];
      for (std::size_t i = 0; i < b.latency_ms.size(); ++i)
        b.latency_ms[i] = std::min(b.latency_ms[i], r.latency_ms[i]);
      b.wall_s = std::min(b.wall_s, r.wall_s);
      b.cpu_s = std::min(b.cpu_s, r.cpu_s);
    }
    t.pass_wall_s.push_back(pass_wall);
  }
  for (const Rep& b : best) {
    t.distinct.insert(t.distinct.end(), b.requests.begin(), b.requests.end());
    t.latency_ms.insert(t.latency_ms.end(), b.latency_ms.begin(), b.latency_ms.end());
    t.wall_s += b.wall_s;
    t.cpu_s += b.cpu_s;
  }
  t.elapsed_s = since(t0);
  return t;
}

}  // namespace perfbench

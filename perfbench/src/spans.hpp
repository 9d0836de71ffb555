#pragma once

// In-memory span recorder for the traced run. Each span is one public
// library call the benchmark makes (name, start, end, parent, request);
// counters are summed where the work happens. Spans stay in memory and
// are written once, at exit, in Chrome's Trace Event format. One Tracer
// per client thread; merge() folds them together for the metrics.

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;
    double start_us = 0;
    double end_us = 0;
    std::size_t parent = kNoParent;  // index into this tracer's spans
    std::size_t request = 0;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  Tracer(Clock::time_point origin, int tid) : origin_(origin), tid_(tid) {}

  std::size_t open(const char* name, std::size_t request);
  void close(std::size_t span);
  void count(const std::string& counter, double amount) { counters_[counter] += amount; }

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, double>& counters() const { return counters_; }
  int tid() const { return tid_; }

 private:
  Clock::time_point origin_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::map<std::string, double> counters_;
};

/// RAII span: open on construction, close on destruction (exceptions too).
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::size_t request) : t_(t), span_(t.open(name, request)) {}
  ~Scope() { t_.close(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::size_t span_;
};

/// Totals over several tracers: self time (duration minus the children's
/// durations) per span name, in milliseconds, and summed counters.
struct TraceTotals {
  std::map<std::string, double> self_ms;
  std::map<std::string, double> counters;

  double self(const std::string& name) const;
  double counter(const std::string& name) const;
};

TraceTotals merge(const std::vector<const Tracer*>& tracers);

/// Writes every span as a complete ("ph": "X") Chrome trace event.
void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

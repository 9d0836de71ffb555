#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t Tracer::open(const char* name, std::size_t request) {
  Span s;
  s.name = name;
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  s.parent = stack_.empty() ? kNoParent : stack_.back();
  s.request = request;
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) {
  spans_[span].end_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

double TraceTotals::self(const std::string& name) const {
  auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

double TraceTotals::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

TraceTotals merge(const std::vector<const Tracer*>& tracers) {
  TraceTotals out;
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const auto& s : spans)
      if (s.parent != Tracer::kNoParent) child_us[s.parent] += s.end_us - s.start_us;
    for (std::size_t i = 0; i < spans.size(); ++i)
      out.self_ms[spans[i].name] += (spans[i].end_us - spans[i].start_us - child_us[i]) / 1000.0;
    for (const auto& [k, v] : t->counters()) out.counters[k] += v;
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  char buf[512];
  for (const Tracer* t : tracers) {
    const auto& spans = t->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      const long long parent =
          s.parent == Tracer::kNoParent ? -1 : static_cast<long long>(s.parent);
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"request\": %zu, \"span\": %zu, \"parent\": %lld}}",
                    first ? "" : ",\n", s.name, t->tid(), s.start_us, s.end_us - s.start_us,
                    s.request, i, parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
}

}  // namespace perfbench

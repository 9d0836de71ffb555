// Load generator for the repository benchmark. One run:
//
//   perfbench_loadgen --workload W --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--trace-dir DIR]
//
// sets the workload up five times (setup_s is the median), answers the
// workload's fixed set of seeded sessions in passes for about S seconds,
// at least three passes (see measure() in workloads.hpp), checks every
// answer against its known answer, and prints one JSON object as its last
// line: the end-to-end metrics with --trace 0; with --trace 1, the
// per-layer metrics of one more, traced pass over the same requests
// (whose answers must equal the untraced ones) and a Chrome trace file
// under the trace directory. Exits 0 when the run completed, whatever it
// measured.

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "requests.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct Spec {
  std::string name;
  std::size_t clients = 1;
  std::size_t threads = 1;   // CheckService engine threads (cref_serve --threads)
  std::size_t sessions = 1;  // the run's request set (refine_static: cycles)
};

// Every run answers the same number of distinct requests, at least 200,
// whatever the program's speed; faster code buys more passes instead.
// serve_parallel is not in BENCHMARK.json (perfbench/records.json says
// why); it stays runnable because it measures the nested parallel build
// that the records list as a defect.
const std::vector<Spec> kSpecs = {
    {"serve_cold", 1, 1, 2},
    {"serve_parallel", 2, 2, 2},
    {"serve_warm", 1, 1, 8},
    {"refine_static", 1, 1, 4},
};

constexpr int kSetups = 5;

struct State {
  ColdSet cold;
  WarmSet warm;
  RefineSet refine;
  std::vector<Answer> pool_answers;  // serve_warm: the set-up answers
  std::vector<std::string> errors;
};

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Why `a` is not the right answer to `q` (empty when it is).
std::string check(const Spec& spec, const Request& q, const Answer& a,
                  const std::vector<Answer>& pool_answers) {
  if (a.threw) return "threw: " + a.error;
  if (spec.name == "refine_static") {
    const std::string want = q.expect_holds ? "proved" : "refuted";
    if (a.verdict != want) return "prover said " + a.verdict + ", known answer " + want;
    if (q.expect_holds && !a.validated) return "proved certificate failed validation";
    return {};
  }
  if (a.holds != q.expect_holds)
    return std::string("verdict ") + (a.holds ? "holds" : "fails") + ", known answer " +
           (q.expect_holds ? "holds" : "fails");
  if (spec.name == "serve_warm") {
    if (!a.cache_hit || !a.revalidated) return "not a validated cache hit";
    const Answer& first = pool_answers.at(q.pool_index);
    if (a.holds != first.holds || a.reason != first.reason || a.witness != first.witness)
      return "answer bytes differ from the set-up answer";
  } else if (a.cache_hit) {
    return "cache hit on a never-repeated key";
  }
  return {};
}

std::size_t check_all(const Spec& spec, const Timed& t, const std::vector<Answer>& pool,
                      const char* pass, std::vector<std::string>& notes) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < t.answers.size(); ++i) {
    const std::string why = check(spec, *t.requests[i], t.answers[i], pool);
    if (why.empty()) continue;
    if (++failed <= 5)
      notes.push_back(std::string(pass) + " request " + std::to_string(t.requests[i]->id) +
                      " (" + t.requests[i]->family + " " +
                      cref::service::to_string(t.requests[i]->relation) + "): " + why);
  }
  return failed;
}

void check_setup(const Spec& spec, const Session& s, const std::vector<Answer>& answers,
                 const char* what, State& st) {
  // Set-up answers are cold answers; check them by the cold rules.
  const Spec cold{spec.name == "refine_static" ? spec.name : "serve_cold"};
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::string why = check(cold, s[i], answers[i], {});
    if (!why.empty()) st.errors.push_back(std::string(what) + ": " + why);
  }
}

State set_up(const Spec& spec, std::uint64_t seed, const fs::path& dir) {
  State st;
  fs::remove_all(dir);
  fs::create_directories(dir);
  // One fresh service per batch, as one cref_serve run answers it.
  auto answer = [](const Session& s, const fs::path& cache) {
    return cold_session(s, 1, 1, cache.string(), nullptr).answers;
  };
  if (spec.name == "refine_static") {
    st.refine = make_refine_set(seed, spec.sessions);
    std::vector<Answer> answers;
    for (const Request& q : st.refine.warmup) answers.push_back(refine_request(q));
    check_setup(spec, st.refine.warmup, answers, "warm-up", st);
  } else if (spec.name == "serve_warm") {
    st.warm = make_warm_set(seed, spec.sessions);
    check_setup(spec, st.warm.warmup, answer(st.warm.warmup, dir / "warmup"), "warm-up", st);
    st.pool_answers = answer(st.warm.pool, dir / "cache");
    check_setup(spec, st.warm.pool, st.pool_answers, "cache fill", st);
  } else {
    st.cold = make_cold_set(seed, spec.sessions);
    check_setup(spec, st.cold.warmup, answer(st.cold.warmup, dir / "warmup"), "warm-up", st);
  }
  return st;
}

/// The timed phase (`tracers` empty) or the traced pass (one tracer per
/// client) over the run's sessions.
Timed run_phase(const Spec& spec, const State& st, const fs::path& dir, std::size_t min_passes,
                double seconds, const std::vector<Tracer*>& tracers) {
  Tracer* tr = tracers.empty() ? nullptr : tracers.front();
  std::function<Rep(std::size_t)> session;
  if (spec.name == "refine_static") {
    session = [&](std::size_t s) { return refine_cycle(st.refine.cycles[s], tr); };
  } else if (spec.name == "serve_warm") {
    // serve_warm's sessions only read the cache the set-up filled.
    session = [&](std::size_t s) { return warm_session(st.warm, s, dir / "cache", tr); };
  } else {
    const fs::path cache = dir / (tracers.empty() ? "cache" : "traced-cache");
    session = [&, cache](std::size_t s) {
      return cold_session(st.cold.sessions[s], spec.clients, spec.threads, cache.string(),
                          tracers.empty() ? nullptr : &tracers);
    };
  }
  return measure(spec.sessions, min_passes, seconds, session);
}

struct Metric {
  std::string name, unit;
  double value;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<Metric> layer_metrics(const TraceTotals& t, std::size_t requests,
                                  double overhead_frac) {
  const double n = double(requests);
  auto per = [&](const char* span) { return ratio(t.self(span), n); };
  auto c = [&](const char* counter) { return t.counter(counter); };
  return {
      {"gcl.parse_ms", "ms", ratio(t.self("gcl.parse") + t.self("gcl.parse_alpha"), n)},
      {"gcl.compile_ms", "ms", per("gcl.compile")},
      {"gcl.source_bytes", "bytes", ratio(c("gcl.source_bytes"), n)},
      {"service.hash_ms", "ms", per("service.hash")},
      {"service.cache.lookup_ms", "ms", per("service.cache.lookup")},
      {"service.cache.store_ms", "ms", per("service.cache.store")},
      {"service.cache.entry_bytes", "bytes",
       ratio(c("service.cache.entry_bytes"), c("service.cache.stores"))},
      {"service.cache.hit_frac", "frac",
       ratio(c("service.cache.hits"), c("service.cache.lookups"))},
      {"service.cache.disk_hit_frac", "frac",
       ratio(c("service.cache.disk_hits"), c("service.cache.hits"))},
      {"service.certify_ms", "ms", per("service.certify")},
      {"service.validate_ms", "ms", per("service.validate")},
      {"service.validation_failures", "count", c("service.validation_failures")},
      {"prover.prove_ms", "ms", per("prover.prove")},
      {"prover.validate_a_ms", "ms", per("prover.validate_a")},
      {"prover.validate_b_ms", "ms", per("prover.validate_b")},
      {"prover.cert_parse_ms", "ms", per("prover.cert_parse")},
      {"prover.replayed_states", "count",
       ratio(c("prover.replayed_states"), c("prover.mode_a_validations"))},
      {"prover.decided_frac", "frac", ratio(c("prover.decided"), c("prover.attempts"))},
      {"prover.fallback_frac", "frac",
       ratio(c("prover.static_fallbacks"), c("prover.static_attempts"))},
      {"core.build_ms", "ms", per("core.build")},
      {"core.states", "count", ratio(c("core.states"), c("core.builds"))},
      {"core.edges", "count", ratio(c("core.edges"), c("core.builds"))},
      {"core.builds_per_job", "count", ratio(c("core.builds"), n)},
      {"refinement.scc_ms", "ms", per("refinement.scc")},
      {"refinement.relation_ms", "ms", per("refinement.relation")},
      {"refinement.components", "count",
       ratio(c("refinement.components"), c("refinement.checks"))},
      {"trace.overhead_frac", "frac", overhead_frac},
  };
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  return out + "}}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_loadgen: %s\n"
               "usage: perfbench_loadgen --workload W --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--trace-dir DIR]\n"
               "workloads: serve_cold serve_parallel serve_warm refine_static\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args = {{"work-dir", ".bench_build/perfbench/run"},
                                             {"trace-dir", ".bench_build/perfbench/traces"}};
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage(("unexpected argument " + key).c_str());
    args[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (!args.count(required)) return usage((std::string("missing --") + required).c_str());
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (s.name == args["workload"]) spec = &s;
  if (!spec) return usage(("unknown workload " + args["workload"]).c_str());
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool traced = args["trace"] == "1";
  if (!(seconds > 0)) return usage("--seconds must be positive");

  const fs::path root =
      fs::path(args["work-dir"]) /
      (spec->name + "-" + std::to_string(seed) + "-" + std::to_string(::getpid()));
  try {
    // ---- set-up, several times; the last one is measured ----
    std::vector<double> setup_s;
    std::optional<State> state;
    fs::path dir;
    for (int k = 0; k < kSetups; ++k) {
      if (!dir.empty()) fs::remove_all(dir);
      state.reset();
      dir = root / ("setup-" + std::to_string(k));
      const auto t0 = Clock::now();
      state.emplace(set_up(*spec, seed, dir));
      setup_s.push_back(secs_since(t0));
    }
    std::vector<std::string> notes = state->errors;

    // ---- timed phase ----
    const Timed timed = run_phase(*spec, *state, dir, kMinPasses, seconds, {});
    const std::size_t attempted = timed.answers.size();
    const std::size_t distinct = timed.distinct.size();
    std::size_t failed = check_all(*spec, timed, state->pool_answers, "untraced", notes);
    const double tail_p = tail_percentile(distinct);

    std::printf("workload %s seed %llu: %zu sessions, %zu distinct requests, %zu passes "
                "(%.3f s); fastest repetitions %.3f s\n",
                spec->name.c_str(), static_cast<unsigned long long>(seed), spec->sessions,
                distinct, timed.pass_wall_s.size(), timed.elapsed_s, timed.wall_s);
    std::printf("pass walls (s):");
    for (double w : timed.pass_wall_s) std::printf(" %.3f", w);
    std::printf("\n");
    std::printf("tail percentile p%g with %zu samples beyond it\n", tail_p,
                samples_beyond(distinct, tail_p));
    std::map<std::string, std::vector<double>> by_class;
    for (std::size_t i = 0; i < distinct; ++i)
      by_class[timed.distinct[i]->family + " " + timed.distinct[i]->shape].push_back(
          timed.latency_ms[i]);
    for (const auto& [cls, lat] : by_class) {
      double sum = 0;
      for (double x : lat) sum += x;
      std::printf("  %-26s %5zu requests  %9.2f ms total  p50 %8.3f ms\n", cls.c_str(), lat.size(),
                  sum, percentile(lat, 50));
    }

    std::vector<Metric> metrics;
    if (!traced) {
      metrics = {
          {"latency_ms_p50", "ms", percentile(timed.latency_ms, 50)},
          {"latency_ms_tail", "ms", percentile(timed.latency_ms, tail_p)},
          {"jobs_per_s", "1/s", ratio(double(distinct), timed.wall_s)},
          {"cpu_ms_per_job", "ms", ratio(timed.cpu_s * 1000.0, double(distinct))},
          {"peak_rss_mb", "MB", peak_rss_mb()},
          {"setup_s", "s", median(setup_s)},
      };
    } else {
      std::vector<std::unique_ptr<Tracer>> owned;
      std::vector<Tracer*> tracers;
      const auto origin = Clock::now();
      for (std::size_t c = 0; c < spec->clients; ++c) {
        owned.push_back(std::make_unique<Tracer>(origin, int(c)));
        tracers.push_back(owned.back().get());
      }
      const Timed tr = run_phase(*spec, *state, dir, 1, 0, tracers);
      const std::size_t traced_failed = check_all(*spec, tr, state->pool_answers, "traced", notes);
      // The untraced answers begin with its first pass, in the same order.
      std::size_t differ = 0;
      for (std::size_t i = 0; i < distinct; ++i)
        if (i >= tr.answers.size() || !tr.answers[i].same_as(timed.answers[i]))
          if (++differ <= 5)
            notes.push_back("request " + std::to_string(timed.requests[i]->id) +
                            ": traced answer differs from the untraced one");
      failed = std::max(failed, traced_failed) + differ;
      const std::vector<const Tracer*> view(tracers.begin(), tracers.end());
      fs::create_directories(args["trace-dir"]);
      const fs::path trace_file = fs::path(args["trace-dir"]) /
                                  (spec->name + "-seed" + std::to_string(seed) + ".json");
      write_chrome_trace(trace_file.string(), view);
      std::printf("traced pass: %zu answers in %.3f s; trace written to %s\n", tr.answers.size(),
                  tr.wall_s, trace_file.string().c_str());
      const double untraced_pass_s = median(timed.pass_wall_s);
      metrics = layer_metrics(merge(view), tr.answers.size(),
                              ratio(tr.wall_s - untraced_pass_s, untraced_pass_s));
    }
    for (const std::string& n : notes) std::printf("FAILED %s\n", n.c_str());
    fs::remove_all(root);
    const bool correct = failed == 0 && state->errors.empty();
    std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    std::error_code ec;
    fs::remove_all(root, ec);
    return 1;
  }
}

// E20: refinement checking for huge Sigma through a generated successor
// source.
//
// The derived instance is the work ring (src/ring/work_ring.hpp):
// Dijkstra's K-state counters plus a per-process work quota, related to
// K-state by the forget-work abstraction and to UTR by the composed
// privilege-image abstraction. Every leg runs the relation engine
// (RefinementChecker) with C generated on demand — successor lists from
// the guarded commands, images through a lazy abstraction, no CSR:
//
//   sources   configs small enough to materialize: [WorkRing
//             curlypreceq KState], stabilizing-to-UTR and the work-skip
//             wrapper leg through the generated source, then again
//             through the materialized CSR; the verdict must be the
//             theory's and the two sources' CheckResults identical.
//   control   the looping-work variant: a reachable pure-stutter
//             cycle, so convergence must FAIL with a divergence
//             witness, through both sources identically.
//   headline  (full mode) WorkRing(n=4, K=5, m=8): 40^5 = 1.024e8
//             states, above TransitionGraph::build's limit, so the
//             System constructor itself generates C. Verifies the
//             Theorem 1 chain (convergence to K-state, stabilization to
//             UTR through the composed alpha) and the Theorem 3 leg (box
//             with the work-skip wrapper still converges).
//
//   ./bench_onthefly [--smoke] [--threads N] [--chunk N]
//
// Results go to BENCH_onthefly.json. Exit 1 if a check decides against
// the theory or the two sources disagree.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "refinement/checker.hpp"
#include "ring/work_ring.hpp"

using namespace cref;
using namespace cref::ring;

namespace {

struct Row {
  std::string family;    // sources / control / headline
  std::string config;    // "n=4 K=5 m=8"
  std::string relation;  // "conv-to-kstate" / "stab-to-utr" / ...
  unsigned long long states = 0;
  std::string generated;     // verdict through the generated source
  std::string materialized;  // verdict through the CSR ("-" when not run)
  bool match = true;         // full CheckResult equality across sources
  bool expected = true;      // verdict is the theoretically required one
  double generated_ms = 0;
  double materialized_ms = 0;
};

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", ms);
  return buf;
}

CheckResult run(const RefinementChecker& rc, const std::string& relation) {
  return relation == "stab-to-utr" ? rc.stabilizing_to() : rc.convergence_refinement();
}

struct Leg {
  const char* relation;
  bool expect_holds;
  System c;
  System a;
  Abstraction alpha;
};

/// Runs one leg through the generated source, then the materialized one.
Row run_sources(const std::string& family, const std::string& config, const Leg& leg,
                const EngineOptions& eo) {
  Row row;
  row.family = family;
  row.config = config;
  row.relation = leg.relation;
  row.states = leg.c.space().size();

  const RefinementChecker gen = RefinementChecker::generated(leg.c, leg.a, leg.alpha, eo);
  bench::Timer tg;
  const CheckResult gr = run(gen, leg.relation);
  row.generated_ms = tg.ms();
  row.generated = bench::verdict(gr);

  bench::Timer tm;
  const RefinementChecker mat(leg.c, leg.a, leg.alpha, eo);
  const CheckResult mr = run(mat, leg.relation);
  row.materialized_ms = tm.ms();
  row.materialized = bench::verdict(mr);
  row.match = gr.holds == mr.holds && gr.reason == mr.reason &&
              gr.witness.states == mr.witness.states;
  row.expected = gr.holds == leg.expect_holds;
  return row;
}

/// Runs one relation on the headline instance: the System constructor
/// generates C because |Sigma_C| exceeds the build limit.
Row run_headline(const std::string& config, const Leg& leg, const EngineOptions& eo) {
  Row row;
  row.family = "headline";
  row.config = config;
  row.relation = leg.relation;
  row.states = leg.c.space().size();
  row.materialized = "-";

  const RefinementChecker rc(leg.c, leg.a, leg.alpha, eo);
  bench::Timer tg;
  const CheckResult r = run(rc, leg.relation);
  row.generated_ms = tg.ms();
  row.generated = bench::verdict(r);
  row.expected = r.holds == leg.expect_holds && !rc.materialized();
  const PhaseTimings pt = rc.phase_timings();
  std::printf(
      "  %-14s %-46s %s in %.1f ms  (a-build %.1f, c-scc %.1f, a-scc+closure %.1f, "
      "edge-scan %.1f)\n",
      leg.relation, (config + ", " + std::to_string(row.states) + " states:").c_str(),
      row.generated.c_str(), row.generated_ms, pt.graph_build_ms, pt.c_scc_ms,
      pt.a_scc_ms + pt.closure_ms, pt.edge_scan_ms);
  return row;
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E20 generated-source\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"family\": \"" << r.family << "\", \"config\": \"" << r.config
        << "\", \"relation\": \"" << r.relation << "\", \"states\": " << r.states
        << ", \"generated\": \"" << r.generated << "\", \"materialized\": \""
        << r.materialized << "\", \"match\": " << (r.match ? "true" : "false")
        << ", \"expected\": " << (r.expected ? "true" : "false")
        << ", \"generated_ms\": " << r.generated_ms
        << ", \"materialized_ms\": " << r.materialized_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

struct Config {
  int n, k, m;
  std::string label() const {
    return "n=" + std::to_string(n) + " K=" + std::to_string(k) + " m=" + std::to_string(m);
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"smoke"});
  const bool smoke = cli.has("smoke");
  bench::header("E20", "huge-Sigma checking through a generated source (work ring)");
  const EngineOptions eo = bench::engine_options_from_cli(cli);

  std::vector<Row> rows;

  // ---- sources + control: generated vs materialized C --------------
  const std::vector<Config> configs =
      smoke ? std::vector<Config>{{2, 3, 2}, {3, 4, 2}}
            : std::vector<Config>{{2, 3, 2}, {3, 4, 2}, {3, 4, 4}, {4, 5, 2}};
  for (const Config& cfg : configs) {
    WorkRingLayout l(cfg.n, cfg.k, cfg.m);
    KStateLayout lk(cfg.n, cfg.k);
    UtrLayout lu(cfg.n);
    rows.push_back(run_sources("sources", cfg.label(),
                               {"conv-to-kstate", true, make_work_ring(l), make_kstate(lk),
                                make_alpha_forget_work(l, lk)},
                               eo));
    rows.push_back(run_sources("sources", cfg.label(),
                               {"stab-to-utr", true, make_work_ring(l), make_utr(lu),
                                make_alpha_work_to_utr(l, lu)},
                               eo));
    rows.push_back(run_sources("control", cfg.label(),
                               {"conv-to-kstate", false, make_work_ring_looping(l),
                                make_kstate(lk), make_alpha_forget_work(l, lk)},
                               eo));
    rows.push_back(run_sources("sources", cfg.label(),
                               {"wrapped-conv", true, box(make_work_ring(l), make_work_skip(l)),
                                make_kstate(lk), make_alpha_forget_work(l, lk)},
                               eo));
  }

  util::Table t({"family", "config", "relation", "states", "generated", "materialized",
                 "identical", "generated ms", "materialized ms"});
  for (const Row& r : rows)
    t.add_row({r.family, r.config, r.relation, std::to_string(r.states), r.generated,
               r.materialized, r.match ? "yes" : "NO", fmt_ms(r.generated_ms),
               fmt_ms(r.materialized_ms)});
  std::printf("%s\n", t.to_string().c_str());

  // ---- headline: 10^8 states, generated by the size rule -----------
  if (!smoke) {
    const Config big{4, 5, 8};  // 40^5 = 102,400,000 states
    WorkRingLayout l(big.n, big.k, big.m);
    KStateLayout lk(big.n, big.k);
    UtrLayout lu(big.n);
    std::printf("headline: WorkRing(%s) — no CSR is ever materialized\n",
                big.label().c_str());
    rows.push_back(run_headline(big.label(),
                                {"conv-to-kstate", true, make_work_ring(l), make_kstate(lk),
                                 make_alpha_forget_work(l, lk)},
                                eo));
    rows.push_back(run_headline(big.label(),
                                {"stab-to-utr", true, make_work_ring(l), make_utr(lu),
                                 make_alpha_work_to_utr(l, lu)},
                                eo));
    rows.push_back(run_headline(big.label(),
                                {"wrapped-conv", true, box(make_work_ring(l), make_work_skip(l)),
                                 make_kstate(lk), make_alpha_forget_work(l, lk)},
                                eo));
  }

  bool ok = true;
  for (const Row& r : rows) ok = ok && r.match && r.expected;
  if (!smoke) {
    unsigned long long headline_states = 0;
    for (const Row& r : rows)
      if (r.family == "headline") headline_states = r.states;
    std::printf("acceptance: %llu states (>= 1e8: %s), all verdicts as required: %s\n",
                headline_states, headline_states >= 100000000ull ? "yes" : "NO",
                ok ? "PASS" : "FAIL");
    ok = ok && headline_states >= 100000000ull;
  }

  write_json("BENCH_onthefly.json", rows);
  std::printf("wrote BENCH_onthefly.json\n");
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a check decided against the theory or the two sources disagreed "
                 "(see table)\n");
    return 1;
  }
  return 0;
}

// E21: static convergence proofs vs explicit state-space exploration.
//
// Prices the static stabilization prover (src/prover) against the
// explicit ground-truth checker on the paper's systems: synthesis plus
// independent certificate validation on one side, the materialized
// TransitionGraph check on the other. The
// point of the experiment is the asymptotics: on DAG-layered programs
// the prover's obligations are layer-local, so its cost is independent
// of |Sigma| while every explicit method pays for the whole product
// space.
//
// Families:
//   chain    drain-and-copy chains (card k, n variables), converging to
//            the all-caught-up predicate. The headline instance k=8 n=6
//            (262144 states) must make the static proof >= 100x cheaper
//            than the explicit check.
//   kstate   Dijkstra's K-state token ring, converging to the unique-
//            privilege predicate. Needs the enumerated-table component,
//            so the static cost here IS Sigma-bound — the honest
//            counterpoint to the chain family.
//   wrapper  the W1/W2 UTR wrappers, proved terminating (the Theorem
//            3/5 side condition).
//   negative the bare UTR ring, which does NOT converge: the prover
//            must fail honestly and ground truth must agree.
//
//   ./bench_prover [--smoke]
//
// Results go to BENCH_prover.json. Exit 1 if any certificate fails the
// independent validator or any proved verdict disagrees with ground
// truth (soundness, not speed).

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "absint/closure.hpp"
#include "common.hpp"
#include "gcl/parser.hpp"
#include "prover/ground_truth.hpp"
#include "prover/prove.hpp"
#include "util/table.hpp"

using namespace cref;

namespace {

/// Drain-and-copy chain: x1 drains to 0, every other variable copies
/// its predecessor. Stabilizes to the all-caught-up predicate.
std::string chain_gcl(int k, int n) {
  auto x = [](int j) { return "x" + std::to_string(j); };
  std::string src = "system chain_k" + std::to_string(k) + "_n" + std::to_string(n) + " {\n";
  for (int j = 1; j <= n; ++j)
    src += "  var " + x(j) + " : 0.." + std::to_string(k - 1) + ";\n";
  src += "  action a1 : " + x(1) + " != 0 -> " + x(1) + " := 0;\n";
  for (int j = 2; j <= n; ++j)
    src += "  action a" + std::to_string(j) + " : " + x(j) + " != " + x(j - 1) +
           " -> " + x(j) + " := " + x(j - 1) + ";\n";
  src += "  init : " + x(1) + " == 0";
  for (int j = 2; j <= n; ++j) src += " && " + x(j) + " == 0";
  src += ";\n}\n";
  return src;
}

std::string chain_target(int n) {
  std::string t = "x1 == 0";
  for (int j = 2; j <= n; ++j)
    t += " && x" + std::to_string(j) + " == x" + std::to_string(j - 1);
  return t;
}

/// Dijkstra's K-state token ring over processes 0..n, all-zeros init.
std::string kstate_gcl(int k, int n) {
  auto c = [](int j) { return "c" + std::to_string(j); };
  std::string src =
      "system kring_k" + std::to_string(k) + "_n" + std::to_string(n) + " {\n";
  for (int j = 0; j <= n; ++j)
    src += "  var " + c(j) + " : 0.." + std::to_string(k - 1) + ";\n";
  src += "  action bottom @0 : " + c(0) + " == " + c(n) + " -> " + c(0) + " := (" +
         c(0) + " + 1) % " + std::to_string(k) + ";\n";
  for (int j = 1; j <= n; ++j)
    src += "  action up" + std::to_string(j) + " @" + std::to_string(j) + " : " +
           c(j) + " != " + c(j - 1) + " -> " + c(j) + " := " + c(j - 1) + ";\n";
  src += "  init : " + c(0) + " == 0";
  for (int j = 1; j <= n; ++j) src += " && " + c(j) + " == 0";
  src += ";\n}\n";
  return src;
}

const char* kW1 = R"(
system w1_utr {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action create : t0 == 0 && t1 == 0 && t2 == 0 -> t0 := 1, t1 := 0, t2 := 0;
}
)";

const char* kW2 = R"(
system w2_utr {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action cancel0 : t0 != 0 && t1 != 0 -> t1 := 0;
  action cancel1 : t1 != 0 && t2 != 0 -> t2 := 0;
  action cancel2 : t2 != 0 && t0 != 0 -> t0 := 0;
}
)";

const char* kUtr = R"(
system utr {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action pass0 : t0 != 0 -> t0 := 0, t1 := 1;
  action pass1 : t1 != 0 -> t1 := 0, t2 := 1;
  action pass2 : t2 != 0 -> t2 := 0, t0 := 1;
  init : t0 == 1 && t1 == 0 && t2 == 0;
}
)";

struct Row {
  std::string family;
  std::string config;
  std::size_t sigma = 0;
  std::string goal;          // "stabilization" / "termination"
  bool expect_proved = true;
  bool proved = false;
  bool validated = false;    // certificate survived the independent validator
  bool sound = true;         // no proved-vs-ground-truth disagreement
  double static_ms = 0.0;    // synthesis + validation
  double explicit_ms = 0.0;  // materialized TransitionGraph check
};

double speedup(const Row& r) {
  return r.static_ms > 0.0 ? r.explicit_ms / r.static_ms : 0.0;
}

/// One convergence instance: prove + validate vs the explicit check.
/// `budget` == 0 keeps the prover's default; the chain family passes a
/// small one, which is the whole point of the experiment — it caps
/// every obligation at its layer-local footprint AND routes validation
/// through the symbolic mode-B path, making the static cost independent
/// of |Sigma| (a budget-capped proof is still a proof: the budget only
/// bounds enumeration size, never weakens an obligation).
Row run_convergence(const std::string& family, const std::string& config,
                    const std::string& src, const std::string& target_text,
                    bool expect_proved, std::size_t budget = 0) {
  Row row{family, config, 0, "stabilization", expect_proved};
  const gcl::SystemAst ast = gcl::parse(src);
  std::string err;
  std::optional<gcl::Expr> target;
  if (target_text.empty()) {
    target = prover::enabled_one_predicate(ast);
  } else {
    target = absint::parse_predicate(ast, target_text, &err);
    if (!target) {
      std::fprintf(stderr, "bad target for %s: %s\n", config.c_str(), err.c_str());
      row.sound = false;
      return row;
    }
  }

  prover::ProveOptions popts;
  if (budget) popts.budget = budget;
  bench::Timer ts;
  const prover::ProveResult res = prover::prove_convergence(ast, *target, popts);
  if (res.proved) {
    std::string why;
    row.validated = prover::validate_certificate(ast, &*target, *res.certificate, &why);
    if (!row.validated)
      std::fprintf(stderr, "%s: certificate rejected: %s\n", config.c_str(), why.c_str());
  }
  row.static_ms = ts.ms();
  row.proved = res.proved;

  bench::Timer te;
  const prover::GroundTruth ex = prover::explicit_check(ast, *target);
  row.explicit_ms = te.ms();
  row.sigma = ex.states;

  // Soundness: a proof the explicit graph refutes, or a certificate the
  // validator rejects.
  if (row.proved && ex.applicable &&
      !(ex.converges() && (!res.certificate->closure_proved || ex.closed)))
    row.sound = false;
  if (row.proved && !row.validated) row.sound = false;
  return row;
}

Row run_termination(const std::string& config, const std::string& src) {
  Row row{"wrapper", config, 0, "termination", true};
  const gcl::SystemAst ast = gcl::parse(src);

  bench::Timer ts;
  const prover::ProveResult res = prover::prove_termination(ast);
  if (res.proved) {
    std::string why;
    row.validated = prover::validate_certificate(ast, nullptr, *res.certificate, &why);
    if (!row.validated)
      std::fprintf(stderr, "%s: certificate rejected: %s\n", config.c_str(), why.c_str());
  }
  row.static_ms = ts.ms();
  row.proved = res.proved;

  bench::Timer te;
  bool applicable = false;
  const bool truth = prover::explicit_terminates(ast, &applicable);
  row.explicit_ms = te.ms();
  if (row.proved && applicable && !truth) row.sound = false;
  if (row.proved && !row.validated) row.sound = false;
  return row;
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

std::string fmt_x(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", x);
  return buf;
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E21 static-prover\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"family\": \"" << r.family << "\", \"config\": \"" << r.config
        << "\", \"sigma_states\": " << r.sigma << ", \"goal\": \"" << r.goal
        << "\", \"proved\": " << (r.proved ? "true" : "false")
        << ", \"validated\": " << (r.validated ? "true" : "false")
        << ", \"static_ms\": " << r.static_ms << ", \"explicit_ms\": " << r.explicit_ms
        << ", \"speedup\": " << speedup(r)
        << ", \"sound\": " << (r.sound ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"smoke"});
  const bool smoke = cli.has("smoke");
  bench::header("E21", "static stabilization proofs vs explicit exploration");

  std::vector<Row> rows;

  // chain: Sigma grows k^n, static cost stays layer-local. The full run
  // carries the k=8 n=6 acceptance instance.
  const std::vector<std::pair<int, int>> chains =
      smoke ? std::vector<std::pair<int, int>>{{4, 4}, {8, 6}}
            : std::vector<std::pair<int, int>>{{4, 4}, {6, 5}, {8, 6}};
  for (auto [k, n] : chains) {
    rows.push_back(run_convergence(
        "chain", "k=" + std::to_string(k) + " n=" + std::to_string(n),
        chain_gcl(k, n), chain_target(n), /*expect_proved=*/true,
        /*budget=*/512));
  }

  // kstate: the table component prices the whole of Sigma — still ahead
  // of the explicit check (no CSR materialization), but Sigma-bound.
  const std::vector<std::pair<int, int>> rings =
      smoke ? std::vector<std::pair<int, int>>{{5, 3}}
            : std::vector<std::pair<int, int>>{{5, 3}, {5, 4}, {6, 5}};
  for (auto [k, n] : rings) {
    rows.push_back(run_convergence(
        "kstate", "K=" + std::to_string(k) + " n=" + std::to_string(n),
        kstate_gcl(k, n), /*enabled-one*/ "", /*expect_proved=*/true));
  }

  rows.push_back(run_termination("w1", kW1));
  rows.push_back(run_termination("w2", kW2));

  // negative: bare UTR does not converge; honesty check on both sides.
  rows.push_back(run_convergence("negative", "utr n=3", kUtr, "", false));

  util::Table t({"family", "config", "|Sigma|", "goal", "proved", "validated",
                 "static ms", "explicit ms", "speedup", "sound"});
  bool all_sound = true;
  bool expectations_met = true;
  for (const Row& r : rows) {
    all_sound = all_sound && r.sound;
    expectations_met = expectations_met && (r.proved == r.expect_proved);
    t.add_row({r.family, r.config, std::to_string(r.sigma), r.goal,
               r.proved ? "yes" : "no", r.validated ? "yes" : "no",
               fmt_ms(r.static_ms), fmt_ms(r.explicit_ms), fmt_x(speedup(r)),
               r.sound ? "yes" : "NO"});
  }
  std::printf("%s\n", t.to_string().c_str());

  // The acceptance instance: on the k=8 n=6 chain the static proof must
  // be >= 100x cheaper than the explicit check.
  for (const Row& r : rows) {
    if (r.family == "chain" && r.config == "k=8 n=6") {
      const bool ok = r.proved && r.validated && speedup(r) >= 100.0;
      std::printf("acceptance (chain k=8 n=6): static %.3f ms vs explicit %.3f ms "
                  "(%.0fx) -> %s\n",
                  r.static_ms, r.explicit_ms, speedup(r), ok ? "PASS" : "FAIL");
    }
  }

  write_json("BENCH_prover.json", rows);
  std::printf("wrote BENCH_prover.json\n");
  if (!all_sound) {
    std::fprintf(stderr, "FAIL: a prover verdict disagreed with ground truth or "
                         "failed validation (see table)\n");
    return 1;
  }
  if (!expectations_met) {
    std::fprintf(stderr, "FAIL: a family's expected verdict flipped (see table)\n");
    return 1;
  }
  return 0;
}

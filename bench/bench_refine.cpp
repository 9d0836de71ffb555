// E24: static convergence-refinement proofs vs explicit exploration.
//
// Prices the static refinement prover (src/prover/refine.hpp) against
// the relation engine on [C curlypreceq A] instances: per-action
// simulation obligations plus independent certificate validation on
// one side, RefinementChecker on the other. The headline is the work
// ring (each process takes m - 1 work steps under its privilege before
// passing it): at n = 5, m = 8 its 1.024e8 states are far past any
// graph budget, yet the certificate is synthesized and mode-B validated
// from the ASTs alone — the engine then generates the full space on
// demand to confirm what the certificate already proved.
//
// Families:
//   kstate    Dijkstra's K-state ring vs the abstract UTR through the
//             privilege map — compressed (privilege-merging) rows, a
//             visible ranking, and the token-count invariant.
//   workring  the work ring vs the K-state ring through the by-name
//             projection — symbolic stutter ranking + deadlock pairs;
//             carries the 1.024e8-state acceptance instance.
//   wrapper   W2' (deterministic cancel) vs W2 (permissive cancel) —
//             every action Exact.
//   negative  forgetting work against a non-ring — the prover must
//             refute and the engine must agree.
//
//   ./bench_refine [--smoke]
//
// Results go to BENCH_refine.json. Exit 1 if any certificate fails the
// independent validator or any decided verdict disagrees with the
// engine (soundness, not speed).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/abstraction.hpp"
#include "core/system.hpp"
#include "gcl/alpha.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "prover/ground_truth.hpp"
#include "prover/refine.hpp"
#include "refinement/checker.hpp"
#include "util/table.hpp"

using namespace cref;

namespace {

/// Dijkstra's K-state token ring over processes 0..n-1, all-zeros init.
std::string kstate_gcl(int k, int n) {
  auto c = [](int j) { return "c" + std::to_string(j); };
  std::string src = "system kstate_n" + std::to_string(n) + " {\n";
  for (int j = 0; j < n; ++j)
    src += "  var " + c(j) + " : 0.." + std::to_string(k - 1) + ";\n";
  src += "  action bottom @0 : " + c(0) + " == " + c(n - 1) + " -> " + c(0) +
         " := (" + c(0) + " + 1) % " + std::to_string(k) + ";\n";
  for (int j = 1; j < n; ++j)
    src += "  action up" + std::to_string(j) + " @" + std::to_string(j) + " : " +
           c(j) + " != " + c(j - 1) + " -> " + c(j) + " := " + c(j - 1) + ";\n";
  src += "  init : " + c(0) + " == 0";
  for (int j = 1; j < n; ++j) src += " && " + c(j) + " == 0";
  src += ";\n}\n";
  return src;
}

/// The UTR over n token slots: passing into an occupied slot merges.
std::string utr_gcl(int n) {
  auto t = [](int j) { return "t" + std::to_string(j); };
  std::string src = "system utr_n" + std::to_string(n) + " {\n";
  for (int j = 0; j < n; ++j) src += "  var " + t(j) + " : bool;\n";
  for (int j = 0; j < n; ++j)
    src += "  action pass" + std::to_string(j) + " : " + t(j) + " != 0 -> " +
           t(j) + " := 0, " + t((j + 1) % n) + " := 1;\n";
  src += "  init : " + t(0) + " == 1";
  for (int j = 1; j < n; ++j) src += " && " + t(j) + " == 0";
  src += ";\n}\n";
  return src;
}

/// The privilege image of the K-state ring onto the UTR, with the
/// one-privilege invariant that excludes the merging rows from reach.
std::string kstate_alpha(int n) {
  auto c = [](int j) { return "c" + std::to_string(j); };
  std::string src = "alpha kstate_privilege {\n";
  src += "  t0 := " + c(0) + " == " + c(n - 1) + ";\n";
  for (int j = 1; j < n; ++j)
    src += "  t" + std::to_string(j) + " := " + c(j) + " != " + c(j - 1) + ";\n";
  src += "  invariant : (" + c(0) + " == " + c(n - 1) + ")";
  for (int j = 1; j < n; ++j)
    src += " + (" + c(j) + " != " + c(j - 1) + ")";
  src += " == 1;\n}\n";
  return src;
}

/// The K-state ring with local work: m - 1 work steps per privilege
/// before passing, |Sigma| = (k * m)^n.
std::string work_ring_gcl(int k, int n, int m) {
  auto c = [](int j) { return "c" + std::to_string(j); };
  auto w = [](int j) { return "w" + std::to_string(j); };
  const std::string top = std::to_string(m - 1);
  std::string src = "system work_ring_n" + std::to_string(n) + " {\n";
  for (int j = 0; j < n; ++j)
    src += "  var " + c(j) + " : 0.." + std::to_string(k - 1) + ";\n";
  for (int j = 0; j < n; ++j)
    src += "  var " + w(j) + " : 0.." + top + ";\n";
  for (int j = 0; j < n; ++j) {
    const std::string priv =
        j == 0 ? c(0) + " == " + c(n - 1) : c(j) + " != " + c(j - 1);
    const std::string move =
        j == 0 ? c(0) + " := (" + c(0) + " + 1) % " + std::to_string(k)
               : c(j) + " := " + c(j - 1);
    src += "  action work" + std::to_string(j) + " @" + std::to_string(j) + " : " +
           priv + " && " + w(j) + " < " + top + " -> " + w(j) + " := " + w(j) +
           " + 1;\n";
    src += "  action pass" + std::to_string(j) + " @" + std::to_string(j) + " : " +
           priv + " && " + w(j) + " == " + top + " -> " + move + ", " + w(j) +
           " := 0;\n";
  }
  src += "  init : " + c(0) + " == 0";
  for (int j = 1; j < n; ++j) src += " && " + c(j) + " == 0";
  for (int j = 0; j < n; ++j) src += " && " + w(j) + " == 0";
  src += ";\n}\n";
  return src;
}

// The deterministic token-cancellation wrapper (W2: always cancel the
// second of two adjacent tokens) against the permissive one (either may
// go): every W2 action is Exact against its *1 counterpart, and the two
// deadlock on exactly the same token-free patterns.
const char* kW2Det = R"(
system w2_det {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action cancel0 : t0 != 0 && t1 != 0 -> t1 := 0;
  action cancel1 : t1 != 0 && t2 != 0 -> t2 := 0;
  action cancel2 : t2 != 0 && t0 != 0 -> t0 := 0;
}
)";

const char* kW2Any = R"(
system w2_any {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action cancel01 : t0 != 0 && t1 != 0 -> t1 := 0;
  action cancel00 : t0 != 0 && t1 != 0 -> t0 := 0;
  action cancel11 : t1 != 0 && t2 != 0 -> t2 := 0;
  action cancel10 : t1 != 0 && t2 != 0 -> t1 := 0;
  action cancel21 : t2 != 0 && t0 != 0 -> t0 := 0;
  action cancel20 : t2 != 0 && t0 != 0 -> t2 := 0;
}
)";

const char* kTwoRing = R"(
system two_ring {
  var x : 0..1;
  var y : 0..1;
  action flip0 : x == y -> x := (x + 1) % 2;
  action flip1 : x != y -> y := x;
}
)";

const char* kOneShot = R"(
system one_shot {
  var x : 0..1;
  var y : 0..1;
  action shoot : x == 0 && y == 0 -> x := 1;
}
)";

struct Row {
  std::string family;
  std::string config;
  std::size_t c_states = 0;
  std::string verdict{};    // proved / refuted / unknown
  std::string expect{};     // the verdict the family must produce
  bool validated = false;   // certificate survived the independent validator
  std::string mode{};       // A (replay) / B (symbolic) / -
  bool sound = true;        // no decided-vs-explicit disagreement
  double static_ms = 0.0;   // synthesis + validation
  double generated_ms = 0.0; // engine over a generated C (0 = not run)
  double explicit_ms = 0.0;  // engine over a materialized C (0 = not run)
};

std::size_t space_of(const gcl::SystemAst& ast) {
  std::size_t total = 1;
  for (const auto& v : ast.vars) total *= static_cast<std::size_t>(v.cardinality);
  return total;
}

const char* verdict_name(prover::RefineVerdict v) {
  switch (v) {
    case prover::RefineVerdict::Proved: return "proved";
    case prover::RefineVerdict::Refuted: return "refuted";
    case prover::RefineVerdict::Unknown: return "unknown";
  }
  return "?";
}

/// One refinement instance: prove + validate, then cross-check every
/// decided verdict against the relation engine: materialized when both
/// spaces fit `cross`, else (`generated`) over C generated on demand —
/// the headline pays that on 1.024e8 states.
Row run_instance(const std::string& family, const std::string& config,
                 const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                 const gcl::AlphaSpec& alpha, const char* expect,
                 std::size_t cross, bool generated) {
  Row row{family, config};
  row.expect = expect;
  row.c_states = space_of(c_ast);

  bench::Timer ts;
  const prover::RefineResult res = prover::prove_refinement(c_ast, a_ast, alpha);
  row.verdict = verdict_name(res.verdict);
  if (res.verdict == prover::RefineVerdict::Proved) {
    std::string why;
    row.validated = prover::validate_refinement_certificate(c_ast, a_ast, alpha,
                                                            *res.certificate, &why);
    if (!row.validated)
      std::fprintf(stderr, "%s: certificate rejected: %s\n", config.c_str(),
                   why.c_str());
    row.mode = row.c_states <= res.certificate->budget ? "A" : "B";
    if (!row.validated) row.sound = false;
  } else {
    row.mode = "-";
  }
  row.static_ms = ts.ms();

  bool claimed = res.verdict == prover::RefineVerdict::Proved;
  if (cross > 0) {
    bench::Timer te;
    const prover::RefineGroundTruth gt =
        prover::explicit_refinement(c_ast, a_ast, alpha, cross);
    row.explicit_ms = te.ms();
    if (gt.applicable && res.verdict != prover::RefineVerdict::Unknown &&
        claimed != gt.holds)
      row.sound = false;
  } else if (generated) {
    // Headline scale: |Sigma_C| is past the build limit, so the engine
    // generates C on demand through a lazy alpha.
    const System c = gcl::compile(c_ast);
    const System a = gcl::compile(a_ast);
    Abstraction::MapFn map = [&alpha, &a_ast](const StateVec& s, StateVec& out) {
      gcl::alpha_image(alpha, a_ast, s, out);
    };
    bench::Timer tl;
    const RefinementChecker rc(c, a,
                               Abstraction::lazy("alpha", c.space_ptr(), a.space_ptr(), map));
    const bool holds = rc.convergence_refinement().holds;
    row.generated_ms = tl.ms();
    if (res.verdict != prover::RefineVerdict::Unknown && claimed != holds)
      row.sound = false;
  }
  return row;
}

std::string fmt_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n  \"experiment\": \"E24 static-refinement\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"family\": \"" << r.family << "\", \"config\": \"" << r.config
        << "\", \"c_states\": " << r.c_states << ", \"verdict\": \"" << r.verdict
        << "\", \"validated\": " << (r.validated ? "true" : "false")
        << ", \"mode\": \"" << r.mode << "\", \"static_ms\": " << r.static_ms
        << ", \"generated_ms\": " << r.generated_ms
        << ", \"explicit_ms\": " << r.explicit_ms
        << ", \"sound\": " << (r.sound ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"smoke"});
  const bool smoke = cli.has("smoke");
  bench::header("E24", "static refinement certificates vs explicit checking");

  std::vector<Row> rows;
  const std::size_t kCross = 1ull << 22;

  // kstate vs UTR through the privilege map: mode-A certificates with
  // compressed rows; the engine confirms.
  for (int n : smoke ? std::vector<int>{4} : std::vector<int>{4, 5}) {
    const gcl::SystemAst c = gcl::parse(kstate_gcl(5, n));
    const gcl::SystemAst a = gcl::parse(utr_gcl(n));
    rows.push_back(run_instance("kstate", "K=5 n=" + std::to_string(n), c, a,
                                gcl::parse_alpha(kstate_alpha(n), c, a), "proved",
                                kCross, false));
  }

  // work ring vs kstate: mode-B certificates, Sigma grows (5m)^n. The
  // small shapes are explicitly confirmed; the full run adds the
  // 1.024e8-state acceptance instance, confirmed over a generated C.
  struct Shape { int n, m; bool cross; };
  const std::vector<Shape> shapes =
      smoke ? std::vector<Shape>{{3, 2, true}, {5, 8, false}}
            : std::vector<Shape>{{3, 2, true}, {4, 4, true}, {5, 8, false}};
  for (const Shape& s : shapes) {
    const gcl::SystemAst c = gcl::parse(work_ring_gcl(5, s.n, s.m));
    const gcl::SystemAst a = gcl::parse(kstate_gcl(5, s.n));
    const bool headline = !s.cross && !smoke;  // walk 1.024e8 states
    rows.push_back(run_instance(
        "workring", "n=" + std::to_string(s.n) + " m=" + std::to_string(s.m), c, a,
        gcl::identity_alpha(c, a), "proved", s.cross ? kCross : 0, headline));
  }

  // wrapper: the deterministic cancel wrapper refines the permissive one.
  {
    const gcl::SystemAst c = gcl::parse(kW2Det);
    const gcl::SystemAst a = gcl::parse(kW2Any);
    rows.push_back(run_instance("wrapper", "w2' vs w2", c, a,
                                gcl::identity_alpha(c, a), "proved", kCross, false));
  }

  // negative: forgetting work against a non-ring must be refuted.
  {
    const gcl::SystemAst c = gcl::parse(kTwoRing);
    const gcl::SystemAst a = gcl::parse(kOneShot);
    rows.push_back(run_instance("negative", "two_ring vs one_shot", c, a,
                                gcl::identity_alpha(c, a), "refuted", kCross, false));
  }

  util::Table t({"family", "config", "|Sigma_C|", "verdict", "validated", "mode",
                 "static ms", "generated ms", "explicit ms", "sound"});
  bool all_sound = true;
  bool expectations_met = true;
  for (const Row& r : rows) {
    all_sound = all_sound && r.sound;
    expectations_met = expectations_met && r.verdict == r.expect;
    t.add_row({r.family, r.config, std::to_string(r.c_states), r.verdict,
               bench::yesno(r.validated), r.mode, fmt_ms(r.static_ms),
               fmt_ms(r.generated_ms), fmt_ms(r.explicit_ms),
               r.sound ? "yes" : "NO"});
  }
  std::printf("%s\n", t.to_string().c_str());

  // The acceptance instance: the 1.024e8-state work ring is certified
  // statically; in the full run the engine must confirm it over a
  // generated C.
  for (const Row& r : rows) {
    if (r.family == "workring" && r.config == "n=5 m=8") {
      const bool ok = r.verdict == "proved" && r.validated && r.mode == "B" && r.sound;
      std::printf("acceptance (work ring n=5 m=8, %zu states): static %.3f ms, "
                  "mode-%s validated%s -> %s\n",
                  r.c_states, r.static_ms, r.mode.c_str(),
                  r.generated_ms > 0
                      ? (" , engine confirmed in " + fmt_ms(r.generated_ms) + " ms").c_str()
                      : " (baseline skipped in --smoke)",
                  ok ? "PASS" : "FAIL");
    }
  }

  write_json("BENCH_refine.json", rows);
  std::printf("wrote BENCH_refine.json\n");
  if (!all_sound) {
    std::fprintf(stderr, "FAIL: a refinement verdict disagreed with the engine or "
                         "failed validation (see table)\n");
    return 1;
  }
  if (!expectations_met) {
    std::fprintf(stderr, "FAIL: a family's expected verdict flipped (see table)\n");
    return 1;
  }
  return 0;
}

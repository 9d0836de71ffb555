#include "prover/prove.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "absint/closure.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"
#include "prover/ground_truth.hpp"
#include "util/strings.hpp"

// End-to-end prover goldens: the shipped examples certify (or honestly
// fail) exactly as their header comments promise, every emitted
// certificate survives the independent validator, and every verdict is
// cross-checked against the explicit-state ground truth. The
// paper's showcase — Dijkstra's K-state ring converging to the
// unique-privilege predicate — is pinned here, table component and all.

namespace cref::prover {
namespace {

namespace fs = std::filesystem;

gcl::SystemAst example(const char* name) {
  return gcl::parse(util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" / "gcl" / name));
}

gcl::Expr predicate(const gcl::SystemAst& ast, const std::string& text) {
  std::string err;
  auto p = absint::parse_predicate(ast, text, &err);
  EXPECT_TRUE(p.has_value()) << err;
  return std::move(*p);
}

/// The explicit ground truth must agree with the claimed convergence
/// verdict.
void expect_ground_truth_converges(const gcl::SystemAst& ast, const gcl::Expr& target,
                                   bool converges, bool stabilizes) {
  const GroundTruth ex = explicit_check(ast, target);
  ASSERT_TRUE(ex.applicable);
  EXPECT_EQ(ex.converges(), converges);
  EXPECT_EQ(ex.stabilizes(), stabilizes);
}

TEST(ProveTest, CopyChainStabilizesWithGuardIndicators) {
  const gcl::SystemAst ast = example("copy_chain_n4.gcl");
  const gcl::Expr target =
      predicate(ast, "x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3");
  const ProveResult res = prove_convergence(ast, target);
  ASSERT_TRUE(res.proved) << (res.failures.empty() ? "" : res.failures[0]);
  ASSERT_TRUE(res.certificate.has_value());
  const ConvergenceCertificate& cert = *res.certificate;
  // Layer-ordered guard indicators rank the whole chain: one component
  // per action, no table.
  ASSERT_EQ(cert.components.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cert.components[i].kind, RankComponent::Kind::Template);
    EXPECT_EQ(cert.components[i].pretty, "enabled(a" + std::to_string(i + 1) + ")");
  }
  EXPECT_TRUE(cert.closure_proved);
  // Closure of the all-caught-up predicate is per-action vacuous: a
  // caught-up chain enables nothing that changes it.
  for (const Obligation& o : cert.obligations) {
    if (o.kind == Obligation::Kind::Closure) {
      EXPECT_EQ(o.method, Discharge::Vacuous) << o.action;
    }
  }
  std::string why;
  EXPECT_TRUE(validate_certificate(ast, &target, cert, &why)) << why;
  expect_ground_truth_converges(ast, target, true, true);
}

TEST(ProveTest, CopyChainObligationsAreLayerLocal) {
  // The headline cost claim: on a DAG-layered chain no template
  // obligation enumerates more than one layer's neighbourhood, so the
  // per-obligation valuation counts stay bounded while Sigma grows.
  const gcl::SystemAst ast = example("copy_chain_n4.gcl");
  const gcl::Expr target =
      predicate(ast, "x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3");
  const ProveResult res = prove_convergence(ast, target);
  ASSERT_TRUE(res.proved);
  for (const Obligation& o : res.certificate->obligations) {
    if (o.kind == Obligation::Kind::StrictDecrease ||
        o.kind == Obligation::Kind::NonIncrease) {
      EXPECT_LE(o.valuations, 64u) << o.action << " vs component " << o.component;
    }
  }
}

TEST(ProveTest, DijkstraKStateNeedsTheTableComponent) {
  const gcl::SystemAst ast = example("dijkstra_kstate_n4.gcl");
  const gcl::Expr target = enabled_one_predicate(ast);
  const ProveResult res = prove_convergence(ast, target);
  ASSERT_TRUE(res.proved) << (res.failures.empty() ? "" : res.failures[0]);
  const ConvergenceCertificate& cert = *res.certificate;
  // Token passing conserves the privilege count, so no local template
  // ranks it: the enabled-count gives ties and the enumerated table
  // does the strict work over all 5^4 states.
  ASSERT_EQ(cert.components.size(), 2u);
  EXPECT_EQ(cert.components[0].pretty, "enabled-count");
  EXPECT_EQ(cert.components[1].kind, RankComponent::Kind::Table);
  EXPECT_EQ(cert.components[1].pretty, "residual-table[625]");
  EXPECT_EQ(cert.components[1].table.size(), 625u);
  for (std::size_t r : cert.ranked_at) EXPECT_EQ(r, 1u);
  EXPECT_TRUE(cert.closure_proved);
  std::string why;
  EXPECT_TRUE(validate_certificate(ast, &target, cert, &why)) << why;
  expect_ground_truth_converges(ast, target, true, true);
}

TEST(ProveTest, WrappersTerminate) {
  // W1 fires `create` at most once; W2 only ever cancels tokens. Both
  // are the Theorem 3/5 wrapper side conditions, proved statically.
  {
    const gcl::SystemAst ast = example("w1_utr.gcl");
    const ProveResult res = prove_termination(ast);
    ASSERT_TRUE(res.proved);
    ASSERT_EQ(res.certificate->components.size(), 1u);
    EXPECT_EQ(res.certificate->components[0].pretty, "sum-complements");
    std::string why;
    EXPECT_TRUE(validate_certificate(ast, nullptr, *res.certificate, &why)) << why;
    bool applicable = false;
    EXPECT_TRUE(explicit_terminates(ast, &applicable));
    EXPECT_TRUE(applicable);
  }
  {
    const gcl::SystemAst ast = example("w2_utr.gcl");
    const ProveResult res = prove_termination(ast);
    ASSERT_TRUE(res.proved);
    ASSERT_EQ(res.certificate->components.size(), 1u);
    EXPECT_EQ(res.certificate->components[0].pretty, "enabled-count");
    std::string why;
    EXPECT_TRUE(validate_certificate(ast, nullptr, *res.certificate, &why)) << why;
  }
}

TEST(ProveTest, BareTokenRingFailsHonestly) {
  // UTR without its wrappers is NOT convergent (two tokens circulate
  // forever): the prover must fail — and with the residual-cycle
  // reason, not a budget cop-out — and ground truth must agree.
  const gcl::SystemAst ast = example("utr_n3.gcl");
  const gcl::Expr target = enabled_one_predicate(ast);
  const ProveResult res = prove_convergence(ast, target);
  EXPECT_FALSE(res.proved);
  ASSERT_FALSE(res.failures.empty());
  EXPECT_NE(res.failures[0].find("residual relation has a cycle"), std::string::npos)
      << res.failures[0];
  const GroundTruth gt = explicit_check(ast, target);
  ASSERT_TRUE(gt.applicable);
  EXPECT_FALSE(gt.converges());
  // And the ring does not terminate either (the good token circulates).
  EXPECT_FALSE(prove_termination(ast).proved);
  bool applicable = false;
  EXPECT_FALSE(explicit_terminates(ast, &applicable));
  EXPECT_TRUE(applicable);
}

TEST(ProveTest, DeadlockOutsideTargetFailsProgress) {
  // x == 1 is a rest state outside the target x == 0: no ranking can
  // save a system that simply stops in the wrong place.
  const gcl::SystemAst ast = gcl::parse(R"(
system stuck {
  var x : 0..2;
  action down : x == 2 -> x := 1;
  init : x == 0;
}
)");
  const gcl::Expr target = predicate(ast, "x == 0");
  const ProveResult res = prove_convergence(ast, target);
  EXPECT_FALSE(res.proved);
  ASSERT_FALSE(res.failures.empty());
  EXPECT_NE(res.failures[0].find("deadlock"), std::string::npos) << res.failures[0];
  const GroundTruth gt = explicit_check(ast, target);
  EXPECT_FALSE(gt.converges());
  EXPECT_FALSE(gt.no_deadlock_outside);
}

TEST(ProveTest, ConvergenceWithoutClosureIsReported) {
  // A draining counter: x <= 1 is reached and closed (stabilization),
  // while x == 1 is left again by the last decrement — closure must be
  // reported false for it, whatever the convergence verdict.
  const gcl::SystemAst ast = gcl::parse(R"(
system drain {
  var x : 0..3;
  action dec : x > 0 -> x := x - 1;
  init : x == 3;
}
)");
  const gcl::Expr closed = predicate(ast, "x <= 1");
  const ProveResult res = prove_convergence(ast, closed);
  ASSERT_TRUE(res.proved);
  EXPECT_TRUE(res.certificate->closure_proved);
  expect_ground_truth_converges(ast, closed, true, true);

  const gcl::Expr open = predicate(ast, "x == 1");
  const ProveResult res2 = prove_convergence(ast, open);
  // x == 1 is not closed (dec leaves it); whatever the convergence
  // verdict, closure_proved must be false and ground truth agrees.
  if (res2.proved) {
    EXPECT_FALSE(res2.certificate->closure_proved);
  }
  const GroundTruth gt = explicit_check(ast, open);
  EXPECT_FALSE(gt.closed);
}

TEST(ProveTest, ModeBValidationBeyondTheBudget) {
  // Scale the chain's domains so Sigma = 16^4 = 65536 exceeds a small
  // budget: synthesis must still succeed (layer-local obligations), the
  // certificate must carry no table, and the validator must take the
  // symbolic mode-B path and accept.
  const gcl::SystemAst ast = gcl::parse(R"(
system wide_chain {
  var x1 : 0..15;
  var x2 : 0..15;
  var x3 : 0..15;
  var x4 : 0..15;
  action a1 : x1 != 0  -> x1 := 0;
  action a2 : x2 != x1 -> x2 := x1;
  action a3 : x3 != x2 -> x3 := x2;
  action a4 : x4 != x3 -> x4 := x3;
  init : x1 == 0 && x2 == 0 && x3 == 0 && x4 == 0;
}
)");
  const gcl::Expr target =
      predicate(ast, "x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3");
  ProveOptions opts;
  opts.budget = 4096;  // < 65536 states, > any layer-local footprint
  const ProveResult res = prove_convergence(ast, target, opts);
  ASSERT_TRUE(res.proved) << (res.failures.empty() ? "" : res.failures[0]);
  for (const RankComponent& c : res.certificate->components)
    EXPECT_EQ(c.kind, RankComponent::Kind::Template);
  std::string why;
  EXPECT_TRUE(validate_certificate(ast, &target, *res.certificate, &why)) << why;
  // Ground truth at this size is still explorable: cross-check.
  expect_ground_truth_converges(ast, target, true, true);
}

TEST(ProveTest, EnabledOnePredicateCountsGuards) {
  const gcl::SystemAst ast = example("utr_n3.gcl");
  const gcl::Expr target = enabled_one_predicate(ast);
  // Exactly-one-token states satisfy it; zero- and two-token states
  // do not (guards here are exactly the token slots).
  StateVec s = {1, 0, 0};
  EXPECT_NE(gcl::eval(target, s), 0);
  s = {0, 0, 0};
  EXPECT_EQ(gcl::eval(target, s), 0);
  s = {1, 1, 0};
  EXPECT_EQ(gcl::eval(target, s), 0);
}

TEST(ProveTest, RenderedCertificateIsStable) {
  const gcl::SystemAst ast = example("w2_utr.gcl");
  const ProveResult res = prove_termination(ast);
  ASSERT_TRUE(res.proved);
  const std::string text = format_certificate(ast, *res.certificate);
  EXPECT_NE(text.find("enabled-count"), std::string::npos);
  EXPECT_NE(text.find("termination"), std::string::npos);
  const std::string json = render_certificate_json(*res.certificate);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"goal\": \"termination\""), std::string::npos);
  EXPECT_NE(json.find("\"pretty\": \"enabled-count\""), std::string::npos);
}

}  // namespace
}  // namespace cref::prover

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "absint/closure.hpp"
#include "gcl/parser.hpp"
#include "prover/prove.hpp"
#include "util/strings.hpp"

// The certificate trust story: validate_certificate must reject every
// tampered certificate — wrong template, corrupted table, widened
// predicate, forged rank sites, structural nonsense — in BOTH validation
// modes (complete edge-level re-check within budget, symbolic
// re-derivation beyond it). A validator that accepts any of these is a
// hole in the proof system, so each rejection reason is pinned.

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

struct Proved {
  gcl::SystemAst ast;
  gcl::Expr target;
  ConvergenceCertificate cert;
};

Proved proved_chain() {
  Proved p{example("copy_chain_n4.gcl"), {}, {}};
  p.target = predicate(p.ast, "x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3");
  ProveResult res = prove_convergence(p.ast, p.target);
  EXPECT_TRUE(res.proved);
  p.cert = std::move(*res.certificate);
  return p;
}

Proved proved_kstate() {
  Proved p{example("dijkstra_kstate_n4.gcl"), {}, {}};
  p.target = enabled_one_predicate(p.ast);
  ProveResult res = prove_convergence(p.ast, p.target);
  EXPECT_TRUE(res.proved);
  p.cert = std::move(*res.certificate);
  return p;
}

void expect_rejected(const Proved& p, const std::string& reason_fragment) {
  std::string why;
  EXPECT_FALSE(validate_certificate(p.ast, &p.target, p.cert, &why));
  EXPECT_NE(why.find(reason_fragment), std::string::npos) << "actual reason: " << why;
}

TEST(TamperTest, PristineCertificatesValidate) {
  {
    const Proved p = proved_chain();
    std::string why;
    EXPECT_TRUE(validate_certificate(p.ast, &p.target, p.cert, &why)) << why;
  }
  {
    const Proved p = proved_kstate();
    std::string why;
    EXPECT_TRUE(validate_certificate(p.ast, &p.target, p.cert, &why)) << why;
  }
}

TEST(TamperTest, NegatedTemplateComponentRejected) {
  // Flip the sign of the most significant component: edges it ranked
  // now INCREASE it first, which mode A's lex walk must catch.
  Proved p = proved_chain();
  p.cert.components[0].expr =
      make_binary(gcl::Op::Sub, make_const(0), p.cert.components[0].expr);
  expect_rejected(p, "does not decrease the ranking");
}

TEST(TamperTest, ConstantTemplateComponentsRejected) {
  // Replace every component with the constant 0 — all ties, nothing
  // ever decreases.
  Proved p = proved_chain();
  for (RankComponent& c : p.cert.components) c.expr = make_const(0);
  expect_rejected(p, "does not decrease the ranking");
}

TEST(TamperTest, ZeroedTableRejected) {
  // The K-state ring's strict work lives in the table; zeroing it makes
  // every token-passing edge a full lex tie.
  Proved p = proved_kstate();
  RankComponent& table = p.cert.components.back();
  ASSERT_EQ(table.kind, RankComponent::Kind::Table);
  std::fill(table.table.begin(), table.table.end(), 0u);
  expect_rejected(p, "does not decrease the ranking");
}

TEST(TamperTest, TruncatedTableRejected) {
  Proved p = proved_kstate();
  p.cert.components.back().table.resize(17);
  expect_rejected(p, "table component size does not match");
}

TEST(TamperTest, WidenedPredicateRejected) {
  // Validate against a STRICTLY WEAKER target than the certificate
  // proves: the print-match check must refuse to transfer the proof.
  Proved p = proved_chain();
  p.target = predicate(p.ast, "x1 == 0");
  expect_rejected(p, "does not match the requested target");
}

TEST(TamperTest, GoalMismatchRejected) {
  {
    // A termination certificate offered as a convergence proof.
    const gcl::SystemAst ast = example("w1_utr.gcl");
    ProveResult res = prove_termination(ast);
    ASSERT_TRUE(res.proved);
    const gcl::Expr target = predicate(ast, "t0 == 1");
    std::string why;
    EXPECT_FALSE(validate_certificate(ast, &target, *res.certificate, &why));
    EXPECT_NE(why.find("goal is not convergence"), std::string::npos) << why;
  }
  {
    // A convergence certificate offered as a termination proof.
    const Proved p = proved_chain();
    std::string why;
    EXPECT_FALSE(validate_certificate(p.ast, nullptr, p.cert, &why));
    EXPECT_NE(why.find("goal is not termination"), std::string::npos) << why;
  }
}

TEST(TamperTest, StructuralCorruptionRejected) {
  {
    Proved p = proved_chain();
    p.cert.budget = 0;
    expect_rejected(p, "no budget");
  }
  {
    Proved p = proved_chain();
    p.cert.ranked_at.pop_back();
    expect_rejected(p, "action count");
  }
  {
    Proved p = proved_chain();
    p.cert.ranked_at[0] = p.cert.components.size();  // out of range
    expect_rejected(p, "rank site out of range");
  }
  {
    // A table component anywhere but last breaks the lex convention.
    Proved p = proved_kstate();
    std::swap(p.cert.components[0], p.cert.components[1]);
    expect_rejected(p, "least significant");
  }
}

// --- mode B (symbolic re-derivation beyond the budget) ----------------

Proved proved_wide_chain() {
  Proved p;
  p.ast = gcl::parse(R"(
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
  p.target = predicate(p.ast, "x1 == 0 && x2 == x1 && x3 == x2 && x4 == x3");
  ProveOptions opts;
  opts.budget = 4096;  // |Sigma| = 65536 forces mode B at validation
  ProveResult res = prove_convergence(p.ast, p.target, opts);
  EXPECT_TRUE(res.proved);
  p.cert = std::move(*res.certificate);
  return p;
}

TEST(TamperTest, ModeBForgedRankSiteRejected) {
  // Claim a2 is ranked by a component its Delta provably cannot
  // strictly decrease: the symbolic re-derivation must refuse.
  Proved p = proved_wide_chain();
  std::string why;
  ASSERT_TRUE(validate_certificate(p.ast, &p.target, p.cert, &why)) << why;
  const std::size_t a2 = 1;
  ASSERT_NE(p.cert.ranked_at[a2], 0u);
  p.cert.ranked_at[a2] = 0;  // a2 does not touch enabled(a1)
  expect_rejected(p, "strict decrease of a2");
}

TEST(TamperTest, ModeBForgedVacuityRejected) {
  // Claim a genuinely firing action is vacuous — the dropped-obligation
  // tamper: its decrease obligations silently disappear from the
  // certificate, and mode B must fail to re-establish the vacuity.
  Proved p = proved_wide_chain();
  p.cert.ranked_at[0] = kUnranked;
  expect_rejected(p, "vacuity of a1");
}

TEST(TamperTest, ModeBRejectsTableComponents) {
  // A table over 5^4 states with a budget of 100 claims an enumeration
  // the validator cannot afford to audit: reject, never trust.
  Proved p = proved_kstate();
  p.cert.budget = 100;
  expect_rejected(p, "not auditable");
}

}  // namespace
}  // namespace cref::prover

#include "prover/rank.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"

// The expression layer underneath the prover: post-state substitution,
// Delta construction with term cancellation, the changed-state test,
// and the budgeted decide_always/decide_unsat procedure. Every symbolic
// construct is cross-checked against brute-force evaluation with
// gcl::eval over the full state space — the symbolic and concrete
// semantics must agree exactly or certificates mean nothing.

namespace cref::prover {
namespace {

const char* kPair = R"(
system pair {
  var x : 0..3;
  var y : 0..3;
  var z : 0..1;
  action copy : x != y -> y := x;
  action swap : z == 1 -> x := y, y := x, z := 0;
  action twice : x < 2 -> x := x + 1, x := x + 2;
  init : x == 0 && y == 0 && z == 0;
}
)";

// Brute-force check: symbolic(s) == concrete over EVERY state.
void expect_matches_everywhere(const gcl::SystemAst& ast, const gcl::Expr& symbolic,
                               const std::function<std::int64_t(const StateVec&)>& concrete) {
  const std::vector<int> cards = gcl::cardinalities(ast);
  StateVec scratch;
  gcl::for_each_valuation(gcl::all_vars(ast.vars.size()), cards, scratch, [&](const StateVec& s) {
    EXPECT_EQ(gcl::eval(symbolic, s), concrete(s));
    return true;
  });
}

TEST(RankTest, PostExprMatchesActionExecution) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const std::vector<int> cards = gcl::cardinalities(ast);
  // rho = x + 2*y + z, evaluated after each action, must equal rho of
  // the concretely-executed post state (guard ignored on both sides).
  const gcl::Expr rho = make_sum({make_var(ast, 0),
                                  make_binary(gcl::Op::Mul, make_const(2), make_var(ast, 1)),
                                  make_var(ast, 2)});
  for (const gcl::ActionAst& action : ast.actions) {
    SCOPED_TRACE(action.name);
    const gcl::Expr post = post_expr(rho, action, cards);
    StateVec out;
    expect_matches_everywhere(ast, post, [&](const StateVec& s) {
      gcl::step(action, cards, s, out);
      return gcl::eval(rho, out);
    });
  }
}

TEST(RankTest, ApplyActionReadsOldStateAndLastWriteWins) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const std::vector<int> cards = gcl::cardinalities(ast);
  // `swap` assigns x := y, y := x from the OLD state: a genuine swap.
  StateVec s = {3, 1, 1}, out;
  gcl::step(ast.actions[1], cards, s, out);
  EXPECT_EQ(out, (StateVec{1, 3, 0}));
  // `twice` assigns x twice; the LAST assignment (x := x + 2) wins,
  // reduced mod card(x) = 4.
  s = {3, 0, 0};
  gcl::step(ast.actions[2], cards, s, out);
  EXPECT_EQ(out[0], 1);  // (3 + 2) % 4
}

TEST(RankTest, DeltaCancelsUntouchedTerms) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const std::vector<int> cards = gcl::cardinalities(ast);
  // `copy` writes only y, so Delta(x + y + z) must reference only
  // x and y — the x and z terms cancel syntactically.
  const gcl::Expr rho = make_sum({make_var(ast, 0), make_var(ast, 1), make_var(ast, 2)});
  const gcl::Expr delta = delta_expr(rho, ast.actions[0], cards);
  EXPECT_EQ(gcl::footprint(delta, ast.vars.size()), (std::vector<std::size_t>{0, 1}));
  // And it still computes the true difference everywhere.
  StateVec out;
  expect_matches_everywhere(ast, delta, [&](const StateVec& s) {
    gcl::step(ast.actions[0], cards, s, out);
    return gcl::eval(rho, out) - gcl::eval(rho, s);
  });
}

TEST(RankTest, DeltaOfUntouchedExprIsConstZero) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const std::vector<int> cards = gcl::cardinalities(ast);
  // `copy` writes y only; a ranking over z alone is untouched, and the
  // fast path must collapse the Delta to a literal Const 0 (so the
  // prover can discard the candidate without enumerating anything).
  const gcl::Expr delta = delta_expr(make_var(ast, 2), ast.actions[0], cards);
  EXPECT_EQ(delta.op, gcl::Op::Const);
  EXPECT_EQ(delta.value, 0);
}

TEST(RankTest, ChangedExprMatchesStateComparison) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const std::vector<int> cards = gcl::cardinalities(ast);
  for (const gcl::ActionAst& action : ast.actions) {
    SCOPED_TRACE(action.name);
    const gcl::Expr changed = changed_expr(action, cards);
    StateVec scratch, out;
    gcl::for_each_valuation(gcl::all_vars(ast.vars.size()), cards, scratch, [&](const StateVec& s) {
      gcl::step(action, cards, s, out);
      EXPECT_EQ(gcl::eval(changed, s) != 0, out != s);
      return true;
    });
  }
}

TEST(RankTest, ExprEqualIgnoresLocations) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  // The parsed guard of `copy` and a built x != y are structurally equal
  // even though one carries source locations.
  const gcl::Expr built =
      make_binary(gcl::Op::Ne, make_var(ast, 0), make_var(ast, 1));
  EXPECT_TRUE(expr_equal(ast.actions[0].guard, built));
  EXPECT_FALSE(expr_equal(built, make_binary(gcl::Op::Ne, make_var(ast, 1), make_var(ast, 0))));
}

TEST(RankTest, ConjunctsSplitTopLevelAndOnly) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const gcl::Expr three = make_binary(
      gcl::Op::And, make_binary(gcl::Op::And, make_var(ast, 0), make_var(ast, 1)),
      make_var(ast, 2));
  EXPECT_EQ(conjuncts_of(three).size(), 3u);
  // An Or is opaque: one conjunct.
  const gcl::Expr disj = make_binary(gcl::Op::Or, make_var(ast, 0), make_var(ast, 1));
  EXPECT_EQ(conjuncts_of(disj).size(), 1u);
}

TEST(RankTest, ValuationCountSaturatesAtCap) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const std::vector<int> cards = gcl::cardinalities(ast);
  EXPECT_EQ(cards, (std::vector<int>{4, 4, 2}));
  EXPECT_EQ(gcl::valuation_count({0, 1, 2}, cards, 1024), 32u);
  EXPECT_EQ(gcl::valuation_count({}, cards, 1024), 1u);
  EXPECT_EQ(gcl::valuation_count({0, 1, 2}, cards, 16), SIZE_MAX);
}

TEST(RankTest, DecideAlwaysProvesAndRespectsContext) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  // x <= 3 holds unconditionally over the declared domain.
  const gcl::Expr in_range =
      make_binary(gcl::Op::Le, make_var(ast, 0), make_const(3));
  DecideOutcome out = decide_always(ast, in_range, {}, {});
  EXPECT_TRUE(out.proved);
  // x >= 1 holds only under the context x != y && y == 0 — both
  // conjuncts are needed, so neither may be dropped.
  const gcl::Expr prop = make_binary(gcl::Op::Ge, make_var(ast, 0), make_const(1));
  const gcl::Expr ne = make_binary(gcl::Op::Ne, make_var(ast, 0), make_var(ast, 1));
  const gcl::Expr y0 = make_binary(gcl::Op::Eq, make_var(ast, 1), make_const(0));
  out = decide_always(ast, prop, {&ne, &y0}, {false, false});
  EXPECT_TRUE(out.proved);
  EXPECT_EQ(out.method, Discharge::Enumeration);
  // Without the context the property is false — and decide_always must
  // say "not proved", never "refuted by absence of proof".
  EXPECT_FALSE(decide_always(ast, prop, {}, {}).proved);
}

TEST(RankTest, DecideAlwaysDroppingContextIsSoundStrengthening) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  // prop: x + 1 >= 1 holds over the whole domain, so it survives any
  // amount of context dropping. Give it a droppable conjunct whose
  // footprint (y) would otherwise join the enumeration, with a budget
  // of 4 = card(x): keeping y would cost 16 > 4, so the procedure must
  // drop it and still prove the property.
  const gcl::Expr prop = make_binary(
      gcl::Op::Ge, make_binary(gcl::Op::Add, make_var(ast, 0), make_const(1)),
      make_const(1));
  const gcl::Expr ctx = make_binary(gcl::Op::Eq, make_var(ast, 1), make_const(2));
  DecideOptions opts;
  opts.budget = 4;
  const DecideOutcome out = decide_always(ast, prop, {&ctx}, {true}, opts);
  EXPECT_TRUE(out.proved);
  EXPECT_EQ(out.dropped, 1u);
  EXPECT_LE(out.valuations, 4u);
}

TEST(RankTest, DecideAlwaysEscalatesWhenMinimalContextFails) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  // x >= 1 under the droppable context x == y + 1. The context adds y
  // to the footprint, so the minimal-first pass drops it and fails —
  // but NOT definitively (something was dropped), so the procedure must
  // escalate, grow the context back within the budget, and prove.
  const gcl::Expr prop = make_binary(gcl::Op::Ge, make_var(ast, 0), make_const(1));
  const gcl::Expr ctx = make_binary(
      gcl::Op::Eq, make_var(ast, 0),
      make_binary(gcl::Op::Add, make_var(ast, 1), make_const(1)));
  const DecideOutcome out = decide_always(ast, prop, {&ctx}, {true});
  EXPECT_TRUE(out.proved);
  EXPECT_EQ(out.dropped, 0u);
  EXPECT_EQ(out.valuations, 16u);
}

TEST(RankTest, DecideAlwaysKeepsFreeDroppables) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  // A droppable conjunct whose footprint adds no variable is free: even
  // the minimal pass keeps it, so the needed x != 0 survives.
  const gcl::Expr prop = make_binary(gcl::Op::Ge, make_var(ast, 0), make_const(1));
  const gcl::Expr ctx = make_binary(gcl::Op::Ne, make_var(ast, 0), make_const(0));
  const DecideOutcome out = decide_always(ast, prop, {&ctx}, {true});
  EXPECT_TRUE(out.proved);
  EXPECT_EQ(out.dropped, 0u);
  EXPECT_EQ(out.valuations, 4u);
}

TEST(RankTest, DecideUnsatFindsContradictions) {
  const gcl::SystemAst ast = gcl::parse(kPair);
  const gcl::Expr x0 = make_binary(gcl::Op::Eq, make_var(ast, 0), make_const(0));
  const gcl::Expr x1 = make_binary(gcl::Op::Ge, make_var(ast, 0), make_const(1));
  EXPECT_TRUE(decide_unsat(ast, {&x0, &x1}, {false, false}).proved);
  // Satisfiable context: unknown, not "proved unsat".
  const gcl::Expr y0 = make_binary(gcl::Op::Eq, make_var(ast, 1), make_const(0));
  EXPECT_FALSE(decide_unsat(ast, {&x0, &y0}, {false, false}).proved);
}

TEST(RankTest, AbsintFallbackAboveBudget) {
  // One variable with a domain bigger than any budget we grant: the
  // enumeration is out of reach, but interval reasoning still proves
  // the range fact (and reports the AbstractInterpretation method).
  const gcl::SystemAst ast = gcl::parse(R"(
system wide {
  var big : 0..200;
  action dec : big > 0 -> big := big - 1;
  init : big == 0;
}
)");
  const gcl::Expr prop =
      make_binary(gcl::Op::Le, make_var(ast, 0), make_const(200));
  DecideOptions opts;
  opts.budget = 8;
  const DecideOutcome out = decide_always(ast, prop, {}, {}, opts);
  EXPECT_TRUE(out.proved);
  EXPECT_EQ(out.method, Discharge::AbstractInterpretation);
  EXPECT_EQ(out.valuations, 0u);
}

TEST(RankTest, MakeSumOfNothingIsConstOne) {
  EXPECT_EQ(gcl::print_expr(make_sum({})), "1");
}

}  // namespace
}  // namespace cref::prover

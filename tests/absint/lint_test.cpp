#include "absint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gcl/parser.hpp"

// The four R#-quantified lint rules (opt-in via --absint). Each test
// program is built so one rule fires for a reason visible in the
// source; a final clean program pins that none of them fire spuriously
// — these rules feed gcl_lint --werror runs, so false positives are
// regressions, not noise.

namespace cref::absint {
namespace {

std::vector<gcl::Diagnostic> lint(const char* src) {
  return check_absint(gcl::parse(src));
}

const gcl::Diagnostic* find_rule(const std::vector<gcl::Diagnostic>& diags,
                                 gcl::Rule r) {
  auto it = std::find_if(diags.begin(), diags.end(),
                         [&](const gcl::Diagnostic& d) { return d.rule == r; });
  return it == diags.end() ? nullptr : &*it;
}

TEST(AbsintLintTest, FlagsStaticallyUnreachableAction) {
  // x stays in {0, 1, 2} from init, so `dead` can never fire — but its
  // guard IS satisfiable somewhere in Sigma, which keeps it out of the
  // exact guard-always-false rule's reach.
  const auto diags = lint(R"(
system unreachable {
  var x : 0..3;
  action step : x < 2  -> x := x + 1;
  action dead : x == 3 -> x := 0;
  init : x == 0;
}
)");
  const gcl::Diagnostic* d = find_rule(diags, gcl::Rule::AbsintUnreachableAction);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, gcl::Severity::Warning);
  EXPECT_NE(d->message.find("dead"), std::string::npos) << d->message;
}

TEST(AbsintLintTest, FlagsGuardConjunctDeadUnderReachableRegion) {
  // x is pinned at 0 by init and never written, so the `x <= 1`
  // conjunct is true in every reachable state — yet not a tautology
  // over Sigma (x ranges to 3), so only the R# rule can see it.
  const auto diags = lint(R"(
system deadguard {
  var x : 0..3;
  var y : 0..3;
  action step : y < 3           -> y := y + 1;
  action chk  : x <= 1 && y > 0 -> y := 0;
  init : x == 0 && y == 0;
}
)");
  const gcl::Diagnostic* d = find_rule(diags, gcl::Rule::AbsintGuardDead);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, gcl::Severity::Note);
}

TEST(AbsintLintTest, FlagsWrittenVariableConstantUnderRegion) {
  // x is written (so var-never-written stays quiet) but every reachable
  // write stores the value it already has.
  const auto diags = lint(R"(
system constvar {
  var x : 0..3;
  var y : 0..3;
  action step  : y < 3  -> y := y + 1;
  action reset : y == 3 -> y := 0, x := 0;
  init : x == 0 && y == 0;
}
)");
  const gcl::Diagnostic* d = find_rule(diags, gcl::Rule::AbsintVarConstant);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, gcl::Severity::Note);
  EXPECT_NE(d->message.find('x'), std::string::npos) << d->message;
}

TEST(AbsintLintTest, FlagsInitNotClosedWithExactWitness) {
  const auto diags = lint(R"(
system escape {
  var x : 0..3;
  action inc : x < 3 -> x := x + 1;
  init : x == 0;
}
)");
  const gcl::Diagnostic* d = find_rule(diags, gcl::Rule::AbsintInitNotClosed);
  ASSERT_NE(d, nullptr);
  // Small space: the exact check runs and names the escaping action.
  EXPECT_EQ(d->severity, gcl::Severity::Warning);
  EXPECT_NE(d->message.find("inc"), std::string::npos) << d->message;
}

TEST(AbsintLintTest, CleanProgramProducesNoFindings) {
  // Init covers an invariant (the whole domain), every action can fire,
  // no guard conjunct is redundant under R#, and no written variable is
  // frozen.
  const auto diags = lint(R"(
system clean {
  var x : 0..2;
  action inc  : x < 2  -> x := x + 1;
  action wrap : x == 2 -> x := 0;
  init : x <= 2;
}
)");
  EXPECT_TRUE(diags.empty()) << diags.size() << " finding(s), first: "
                             << (diags.empty() ? "" : diags.front().message);
}

TEST(AbsintLintTest, UnsatisfiableInitYieldsNoAbsintFindings) {
  // An empty R# makes every R#-quantified claim vacuous; the exact
  // init-unsatisfiable rule in gcl/analyze.cpp owns this defect.
  const auto diags = lint(R"(
system vacuous {
  var x : 0..2;
  action inc : x < 2 -> x := x + 1;
  init : x > 4;
}
)");
  EXPECT_TRUE(diags.empty());
}

TEST(AbsintLintTest, ResultOutParameterExposesTheRegion) {
  gcl::SystemAst ast = gcl::parse(R"(
system tiny {
  var x : 0..2;
  action inc : x < 2 -> x := x + 1;
  init : x == 0;
}
)");
  AbsintResult res;
  check_absint(ast, {}, &res);
  EXPECT_FALSE(res.region.is_bottom());
  EXPECT_TRUE(res.region.contains(StateVec{0}));
  EXPECT_TRUE(res.region.contains(StateVec{2}));
}

}  // namespace
}  // namespace cref::absint

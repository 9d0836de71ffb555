#include "prover/superposition.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "gcl/parser.hpp"
#include "util/strings.hpp"

// The graybox superposition side conditions of Theorems 3 and 5: a
// wrapper may read any base variable but write only its own process's,
// and its own computation must terminate. The shipped W1/W2 wrappers
// pass both checks (with the validated termination proof surfaced as a
// Note); the violations each produce their pinned diagnostic.

namespace cref::prover {
namespace {

namespace fs = std::filesystem;

gcl::SystemAst example(const char* name) {
  return gcl::parse(util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" / "gcl" / name));
}

bool has_rule(const std::vector<gcl::Diagnostic>& diags, gcl::Rule rule,
              gcl::Severity severity) {
  for (const gcl::Diagnostic& d : diags)
    if (d.rule == rule && d.severity == severity) return true;
  return false;
}

// A base ring whose @process annotations assign each slot an owner.
const char* kOwnedBase = R"(
system owned_base {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action pass0 @0 : t0 != 0 -> t0 := 0;
  action pass1 @1 : t1 != 0 -> t1 := 0;
  action pass2 @2 : t2 != 0 -> t2 := 0;
  init : t0 == 1 && t1 == 0 && t2 == 0;
}
)";

TEST(SuperpositionTest, ShippedWrappersAreClean) {
  const gcl::SystemAst base = example("utr_n3.gcl");
  for (const char* name : {"w1_utr.gcl", "w2_utr.gcl"}) {
    SCOPED_TRACE(name);
    const gcl::SystemAst wrapper = example(name);
    const std::vector<gcl::Diagnostic> diags = check_superposition(wrapper, &base);
    // No warnings at all — and the termination proof shows up as a
    // Note naming the ranking.
    for (const gcl::Diagnostic& d : diags)
      EXPECT_EQ(d.severity, gcl::Severity::Note) << d.message;
    ASSERT_TRUE(has_rule(diags, gcl::Rule::WrapperNonterminating, gcl::Severity::Note));
    bool found = false;
    for (const gcl::Diagnostic& d : diags)
      if (d.rule == gcl::Rule::WrapperNonterminating &&
          d.message.find("ranking") != std::string::npos)
        found = true;
    EXPECT_TRUE(found);
  }
}

TEST(SuperpositionTest, ForeignWriteIsFlagged) {
  // A process-1 wrapper action writing process-0's slot: the graybox
  // contract is read-anything, write-only-your-own.
  const gcl::SystemAst base = gcl::parse(kOwnedBase);
  const gcl::SystemAst wrapper = gcl::parse(R"(
system bad_wrapper {
  var t0 : bool;
  var t1 : bool;
  action grab @1 : t0 != 0 && t1 == 0 -> t0 := 0, t1 := 1;
}
)");
  const std::vector<gcl::Diagnostic> diags = check_superposition(wrapper, &base);
  ASSERT_TRUE(
      has_rule(diags, gcl::Rule::WrapperWritesForeignVar, gcl::Severity::Warning));
  // The finding points at the offending assignment, not the action.
  for (const gcl::Diagnostic& d : diags) {
    if (d.rule == gcl::Rule::WrapperWritesForeignVar) {
      EXPECT_GT(d.loc.line, 0u);
    }
  }
}

TEST(SuperpositionTest, UnannotatedBaseClaimsNoOwnership) {
  // The shipped UTR has no @process annotations, so no base variable
  // has an owner and the foreign-write rule is vacuous — even for a
  // wrapper that writes every slot from one process.
  const gcl::SystemAst base = example("utr_n3.gcl");
  const gcl::SystemAst wrapper = gcl::parse(R"(
system sweeping_wrapper {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action reset @0 : t0 == 0 && t1 == 0 && t2 == 0 -> t0 := 1, t1 := 0, t2 := 0;
}
)");
  const std::vector<gcl::Diagnostic> diags = check_superposition(wrapper, &base);
  EXPECT_FALSE(has_rule(diags, gcl::Rule::WrapperWritesForeignVar,
                        gcl::Severity::Warning));
}

TEST(SuperpositionTest, UnannotatedWrapperActionIsExempt) {
  // A wrapper action with no @process claims no identity; the ownership
  // rule cannot apply to it.
  const gcl::SystemAst base = gcl::parse(kOwnedBase);
  const gcl::SystemAst wrapper = gcl::parse(R"(
system anonymous_wrapper {
  var t0 : bool;
  action clear : t0 != 0 -> t0 := 0;
}
)");
  const std::vector<gcl::Diagnostic> diags = check_superposition(wrapper, &base);
  EXPECT_FALSE(has_rule(diags, gcl::Rule::WrapperWritesForeignVar,
                        gcl::Severity::Warning));
}

TEST(SuperpositionTest, CardinalityMismatchThrows) {
  // Redeclaring a shared variable over a different domain is not a
  // superposition over the same state space: hard error, not a warning.
  const gcl::SystemAst base = gcl::parse(kOwnedBase);
  const gcl::SystemAst wrapper = gcl::parse(R"(
system mis_wrapper {
  var t0 : 0..3;
  action clear @0 : t0 != 0 -> t0 := 0;
}
)");
  EXPECT_THROW(check_superposition(wrapper, &base), std::invalid_argument);
}

TEST(SuperpositionTest, NonterminatingWrapperIsFlagged) {
  // A two-action flip-flop computes forever: the Theorem 3 side
  // condition fails and the check must say so.
  const gcl::SystemAst wrapper = gcl::parse(R"(
system flip_flop {
  var x : bool;
  action set   : x == 0 -> x := 1;
  action clear : x == 1 -> x := 0;
}
)");
  const std::vector<gcl::Diagnostic> diags = check_superposition(wrapper, nullptr);
  ASSERT_TRUE(
      has_rule(diags, gcl::Rule::WrapperNonterminating, gcl::Severity::Warning));
}

TEST(SuperpositionTest, UnvalidatedTerminationProofIsNotReported) {
  // Under a zero budget the prover still proves W1's termination by its
  // abstract legs, but the validator refuses a certificate without a
  // budget: the check must warn instead of noting the proof.
  const gcl::SystemAst base = example("utr_n3.gcl");
  SuperpositionOptions opts;
  opts.prove.budget = 0;
  ASSERT_TRUE(prove_termination(example("w1_utr.gcl"), opts.prove).proved);
  const std::vector<gcl::Diagnostic> diags =
      check_superposition(example("w1_utr.gcl"), &base, opts);
  EXPECT_FALSE(has_rule(diags, gcl::Rule::WrapperNonterminating, gcl::Severity::Note));
  bool found = false;
  for (const gcl::Diagnostic& d : diags)
    found |= d.rule == gcl::Rule::WrapperNonterminating &&
             d.severity == gcl::Severity::Warning &&
             d.message.find("validator rejected the certificate: certificate has no budget") !=
                 std::string::npos;
  EXPECT_TRUE(found);
}

TEST(SuperpositionTest, InitFilesSkipTheTerminationCheck) {
  // A system WITH an init clause is not a wrapper; its (possibly
  // infinite) computation is not the wrapper side condition's business.
  const gcl::SystemAst base = example("utr_n3.gcl");
  const std::vector<gcl::Diagnostic> diags = check_superposition(base, nullptr);
  EXPECT_TRUE(diags.empty());
}

}  // namespace
}  // namespace cref::prover

#include "prover/refine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/space.hpp"
#include "gcl/alpha.hpp"
#include "gcl/parser.hpp"
#include "prover/ground_truth.hpp"
#include "util/strings.hpp"

// End-to-end goldens for the static convergence-refinement prover: the
// three shipped instances certify exactly as their header comments
// promise, every certificate survives the independent validator, and
// every verdict small enough to materialize is cross-checked against
// the relation engine. The E24 headline — the 1.024e8-state work
// ring against the K-state ring — is pinned here as a PURELY static
// proof (mode-B validation; no graph is ever built).

namespace cref::prover {
namespace {

namespace fs = std::filesystem;

gcl::SystemAst example(const char* rel_path) {
  return gcl::parse(util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" / rel_path));
}

/// Proves, validates, and (when both spaces fit) confirms the verdict
/// against the relation engine.
RefinementCertificate prove_and_validate(const gcl::SystemAst& c_ast,
                                         const gcl::SystemAst& a_ast,
                                         const gcl::AlphaSpec& alpha,
                                         bool cross_check = true) {
  RefineResult r = prove_refinement(c_ast, a_ast, alpha);
  EXPECT_EQ(r.verdict, RefineVerdict::Proved)
      << (r.failures.empty() ? std::string("no failure recorded") : r.failures[0]);
  if (r.verdict != RefineVerdict::Proved) return {};
  std::string why;
  EXPECT_TRUE(validate_refinement_certificate(c_ast, a_ast, alpha, *r.certificate, &why))
      << why;
  if (cross_check) {
    const RefineGroundTruth gt = explicit_refinement(c_ast, a_ast, alpha);
    EXPECT_TRUE(gt.applicable);
    EXPECT_TRUE(gt.holds) << "static Proved but the explicit engine refutes";
  }
  return std::move(*r.certificate);
}

// --- the three shipped acceptance instances --------------------------

TEST(RefineProverExamples, DijkstraKStateRefinesAbstractUTR) {
  const gcl::SystemAst c = example("gcl/dijkstra_kstate_n4.gcl");
  const gcl::SystemAst a = example("gcl/utr_n4.gcl");
  const gcl::AlphaSpec alpha = gcl::parse_alpha(
      util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" / "gcl" / "kstate_utr_n4.alpha"),
      c, a);

  const RefinementCertificate cert = prove_and_validate(c, a, alpha);
  // Privilege-merging steps are Compressed, so the proof must carry a
  // visible ranking AND the token-count invariant excluding them from
  // reach(I_C).
  EXPECT_FALSE(cert.compressed.empty());
  EXPECT_FALSE(cert.visible_components.empty());
  EXPECT_TRUE(cert.has_invariant);
  for (ActionClass ac : cert.action_class) EXPECT_EQ(ac, ActionClass::Enumerated);
}

TEST(RefineProverExamples, WorkRingRefinesKStateStatically) {
  // The E24 headline: (5 * 8)^5 = 1.024e8 concrete states — the
  // certificate must be produced AND validated without either graph.
  const gcl::SystemAst c = example("refine/work_ring_n5.gcl");
  const gcl::SystemAst a = example("gcl/kstate_n5.gcl");
  const gcl::AlphaSpec alpha = gcl::identity_alpha(c, a);

  const RefinementCertificate cert =
      prove_and_validate(c, a, alpha, /*cross_check=*/false);
  ASSERT_EQ(cert.action_class.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    if (i % 2 == 0) {  // work0, work1, ... stutter under the projection
      EXPECT_EQ(cert.action_class[i], ActionClass::Stutter) << i;
      EXPECT_NE(cert.stutter_ranked_at[i], kUnranked) << i;
    } else {  // pass0, pass1, ... are Exact against bottom/up_j
      EXPECT_EQ(cert.action_class[i], ActionClass::Exact) << i;
      EXPECT_EQ(cert.matched[i], static_cast<std::ptrdiff_t>(i / 2)) << i;
    }
  }
  EXPECT_FALSE(cert.stutter_components.empty());
  EXPECT_TRUE(cert.compressed.empty());
  // The deadlock obligations need the {work_j, pass_j} pairs: neither
  // action alone covers its privilege.
  for (const auto& support : cert.deadlock_support) EXPECT_EQ(support.size(), 2u);
}

TEST(RefineProverExamples, WorkRingShapeConfirmedExplicitlyAtSmallScale) {
  // The same protocol shape at explicit-checkable scale (n=3, m=2:
  // 6^3 = 216 states) so the headline instance's classification is
  // held against the relation engine too.
  const gcl::SystemAst c = gcl::parse(R"(
    system small_work_ring {
      var c0 : 0..2;  var c1 : 0..2;  var c2 : 0..2;
      var w0 : 0..1;  var w1 : 0..1;  var w2 : 0..1;
      action work0 @0 : c0 == c2 && w0 < 1 -> w0 := w0 + 1;
      action pass0 @0 : c0 == c2 && w0 == 1 -> c0 := (c0 + 1) % 3, w0 := 0;
      action work1 @1 : c1 != c0 && w1 < 1 -> w1 := w1 + 1;
      action pass1 @1 : c1 != c0 && w1 == 1 -> c1 := c0, w1 := 0;
      action work2 @2 : c2 != c1 && w2 < 1 -> w2 := w2 + 1;
      action pass2 @2 : c2 != c1 && w2 == 1 -> c2 := c1, w2 := 0;
      init : c0 == 0 && c1 == 0 && c2 == 0 && w0 == 0 && w1 == 0 && w2 == 0;
    })");
  const gcl::SystemAst a = gcl::parse(R"(
    system small_kstate {
      var c0 : 0..2;  var c1 : 0..2;  var c2 : 0..2;
      action bottom @0 : c0 == c2 -> c0 := (c0 + 1) % 3;
      action up1 @1 : c1 != c0 -> c1 := c0;
      action up2 @2 : c2 != c1 -> c2 := c1;
      init : c0 == 0 && c1 == 0 && c2 == 0;
    })");
  prove_and_validate(c, a, gcl::identity_alpha(c, a));
}

TEST(RefineProverExamples, DeterministicWrapperRefinesPermissiveWrapper) {
  const gcl::SystemAst c = example("gcl/w2_utr.gcl");
  const gcl::SystemAst a = example("gcl/w2_any_utr.gcl");
  const RefinementCertificate cert =
      prove_and_validate(c, a, gcl::identity_alpha(c, a));
  // Every deterministic cancel is Exact against its *1 counterpart.
  for (ActionClass ac : cert.action_class) EXPECT_EQ(ac, ActionClass::Exact);
  EXPECT_TRUE(cert.stutter_components.empty());
  EXPECT_TRUE(cert.compressed.empty());
  EXPECT_FALSE(cert.has_invariant);
}

// --- negatives and the Refuted verdict -------------------------------

TEST(RefineProverNegative, ForgettingWorkIsRefutedAgainstNonRing) {
  // C moves a token around a 2-ring; A only ever increments x once.
  // C's pass1 changes the image in a way A can never follow — the
  // abstract BFS exhausts A, so the verdict is a complete refutation.
  const gcl::SystemAst c = gcl::parse(R"(
    system two_ring {
      var x : 0..1;
      action flip0 : x == 0 -> x := 1;
      action flip1 : x == 1 -> x := 0;
    })");
  const gcl::SystemAst a = gcl::parse(R"(
    system one_shot {
      var x : 0..1;
      action shoot : x == 0 -> x := 1;
    })");
  const gcl::AlphaSpec alpha = gcl::identity_alpha(c, a);
  const RefineResult r = prove_refinement(c, a, alpha);
  EXPECT_EQ(r.verdict, RefineVerdict::Refuted);
  EXPECT_FALSE(r.counterexample.empty());

  const RefineGroundTruth gt = explicit_refinement(c, a, alpha);
  ASSERT_TRUE(gt.applicable);
  EXPECT_FALSE(gt.holds) << "static Refuted but the explicit engine accepts";
}

TEST(RefineProverNegative, MissingDeadlockSupportIsUnknownNotRefuted) {
  // w2_utr deadlocks on token-free states where utr's passes still
  // fire; the prover cannot support the abstract deadlock obligation.
  // That is honest incompleteness (Unknown), never a refutation claim.
  const gcl::SystemAst c = example("gcl/w2_utr.gcl");
  const gcl::SystemAst a = example("gcl/utr_n3.gcl");
  const RefineResult r = prove_refinement(c, a, gcl::identity_alpha(c, a));
  EXPECT_EQ(r.verdict, RefineVerdict::Unknown);
  EXPECT_FALSE(r.failures.empty());
}

// --- serialization ----------------------------------------------------

TEST(RefineProverSerialization, CertificateRoundTripsAndRevalidates) {
  const gcl::SystemAst c = example("gcl/dijkstra_kstate_n4.gcl");
  const gcl::SystemAst a = example("gcl/utr_n4.gcl");
  const gcl::AlphaSpec alpha = gcl::parse_alpha(
      util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" / "gcl" / "kstate_utr_n4.alpha"),
      c, a);
  const RefinementCertificate cert = prove_and_validate(c, a, alpha);

  const std::string text = serialize_refinement_certificate(cert);
  const auto parsed = parse_refinement_certificate(text, c);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->c_system, cert.c_system);
  EXPECT_EQ(parsed->a_system, cert.a_system);
  EXPECT_EQ(parsed->alpha_text, cert.alpha_text);
  EXPECT_EQ(parsed->budget, cert.budget);
  EXPECT_EQ(parsed->action_class, cert.action_class);
  EXPECT_EQ(parsed->matched, cert.matched);
  EXPECT_EQ(parsed->enum_footprint, cert.enum_footprint);
  EXPECT_EQ(parsed->stutter_ranked_at, cert.stutter_ranked_at);
  EXPECT_EQ(parsed->compressed.size(), cert.compressed.size());
  EXPECT_EQ(parsed->deadlock_support, cert.deadlock_support);
  EXPECT_EQ(parsed->has_invariant, cert.has_invariant);
  // The parsed copy must stand on its own in front of the validator.
  std::string why;
  EXPECT_TRUE(validate_refinement_certificate(c, a, alpha, *parsed, &why)) << why;
  // Serialization is a fixpoint.
  EXPECT_EQ(serialize_refinement_certificate(*parsed), text);
}

TEST(RefineProverSerialization, MalformedTextIsAMissNeverACrash) {
  const gcl::SystemAst c = example("gcl/w2_utr.gcl");
  EXPECT_FALSE(parse_refinement_certificate("", c).has_value());
  EXPECT_FALSE(parse_refinement_certificate("refine-cert 99\n", c).has_value());
  EXPECT_FALSE(parse_refinement_certificate("refine-cert 1\ngarbage\n", c).has_value());

  const gcl::SystemAst a = example("gcl/w2_any_utr.gcl");
  const gcl::AlphaSpec alpha = gcl::identity_alpha(c, a);
  const RefineResult r = prove_refinement(c, a, alpha);
  ASSERT_EQ(r.verdict, RefineVerdict::Proved);
  std::string text = serialize_refinement_certificate(*r.certificate);
  // Truncation at every proper line boundary parses to nullopt, never
  // throws (the final newline is the complete certificate).
  std::size_t pos = 0;
  while ((pos = text.find('\n', pos + 1)) != std::string::npos) {
    if (pos + 1 == text.size()) break;
    EXPECT_FALSE(parse_refinement_certificate(text.substr(0, pos + 1), c).has_value())
        << "truncated at byte " << pos;
  }
}

// --- the alpha spec language -----------------------------------------

TEST(RefineProverAlpha, ParsePrintFixpointAndImages) {
  const gcl::SystemAst c = example("gcl/dijkstra_kstate_n4.gcl");
  const gcl::SystemAst a = example("gcl/utr_n4.gcl");
  const std::string source = util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" /
                                       "gcl" / "kstate_utr_n4.alpha");
  const gcl::AlphaSpec alpha = gcl::parse_alpha(source, c, a);
  ASSERT_TRUE(alpha.invariant != nullptr);

  // print -> parse -> print is a fixpoint.
  const std::string printed = gcl::print_alpha(alpha);
  const gcl::AlphaSpec reparsed = gcl::parse_alpha(printed, c, a);
  EXPECT_EQ(gcl::print_alpha(reparsed), printed);

  // The all-zeros legitimate state maps to "privilege at the bottom".
  StateVec s(4, 0), img;
  gcl::alpha_image(alpha, a, s, img);
  ASSERT_EQ(img.size(), 4u);
  EXPECT_EQ(img[0], 1u);  // t0 = (c0 == c3)
  EXPECT_EQ(img[1], 0u);
  EXPECT_EQ(img[2], 0u);
  EXPECT_EQ(img[3], 0u);
}

TEST(RefineProverAlpha, RejectsIllFormedSpecs) {
  const gcl::SystemAst c = example("gcl/dijkstra_kstate_n4.gcl");
  const gcl::SystemAst a = example("gcl/utr_n4.gcl");
  // Missing a definition for t3.
  EXPECT_THROW(
      gcl::parse_alpha("alpha partial { t0 := c0 == c3; t1 := c1 != c0; t2 := c2 != c1; }",
                       c, a),
      std::runtime_error);
  // Duplicate definition.
  EXPECT_THROW(gcl::parse_alpha("alpha dup { t0 := c0 == c3; t0 := c1 != c0;"
                                " t1 := c1 != c0; t2 := c2 != c1; t3 := c3 != c2; }",
                                c, a),
               std::runtime_error);
  // Unknown concrete variable on a right-hand side.
  EXPECT_THROW(gcl::parse_alpha("alpha bad { t0 := nope == 1; t1 := c1 != c0;"
                                " t2 := c2 != c1; t3 := c3 != c2; }",
                                c, a),
               std::runtime_error);
  // Identity map undefined: A has a variable C lacks.
  EXPECT_THROW(gcl::identity_alpha(c, a), std::runtime_error);
}

}  // namespace
}  // namespace cref::prover

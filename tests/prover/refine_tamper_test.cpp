#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>

#include "gcl/alpha.hpp"
#include "gcl/parser.hpp"
#include "prover/refine.hpp"
#include "util/strings.hpp"

// The refinement-certificate trust story: the independent validator
// must reject every tampered RefinementCertificate — forged abstract
// matches, dropped stutter-rank sites, widened alpha maps, truncated
// obligation tables, dropped compressed rows, forged deadlock
// supports, forged invariants, structural nonsense — in BOTH modes:
// complete edge-level replay of Sigma_C when it fits the budget (mode
// A, the small instances here) and symbolic re-derivation above it
// (mode B, the 1.024e8-state work ring, where no graph can exist).
// A validator that accepts any of these is a hole in the proof system.

namespace cref::prover {
namespace {

namespace fs = std::filesystem;

gcl::SystemAst example(const char* rel_path) {
  return gcl::parse(util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" / rel_path));
}

struct Proved {
  gcl::SystemAst c, a;
  gcl::AlphaSpec alpha;
  RefinementCertificate cert;
};

/// dijkstra_kstate_n4 vs utr_n4 under the privilege map: 625 concrete
/// states — validates in mode A (complete replay). Exercises the
/// compressed-row, visible-ranking, and invariant machinery.
Proved proved_kstate() {
  Proved p{example("gcl/dijkstra_kstate_n4.gcl"), example("gcl/utr_n4.gcl"), {}, {}};
  p.alpha = gcl::parse_alpha(util::read_file(fs::path(CREF_SOURCE_DIR) / "examples" /
                                       "gcl" / "kstate_utr_n4.alpha"),
                             p.c, p.a);
  RefineResult r = prove_refinement(p.c, p.a, p.alpha);
  EXPECT_EQ(r.verdict, RefineVerdict::Proved);
  p.cert = std::move(*r.certificate);
  return p;
}

/// work_ring_n5 vs kstate_n5 through the identity projection: 1.024e8
/// concrete states — validates in mode B (symbolic re-derivation).
/// Exercises the stutter-ranking and deadlock-support machinery.
Proved proved_work_ring() {
  Proved p{example("refine/work_ring_n5.gcl"), example("gcl/kstate_n5.gcl"), {}, {}};
  p.alpha = gcl::identity_alpha(p.c, p.a);
  RefineResult r = prove_refinement(p.c, p.a, p.alpha);
  EXPECT_EQ(r.verdict, RefineVerdict::Proved);
  p.cert = std::move(*r.certificate);
  return p;
}

/// The one certificate shape mode A never covers: compressed rows plus
/// a binding invariant validated in mode B, where the re-enumeration
/// equality and expr_equal invariant checks are the only line of
/// defense. `jump` compresses TWO abstract falls into one concrete
/// step (excluded from reach by the invariant p < 2), and the fat work
/// counter pushes |Sigma| = 3 * 64 = 192 past the 128-valuation budget
/// while every obligation footprint stays within it.
constexpr const char* kJumpC = R"(
system jump_chain {
  var p : 0..2;
  var u : 0..63;

  action jump @0 : p == 2 -> p := 0;
  action step @0 : p == 1 -> p := 0;
  action work @1 : u < 63 -> u := u + 1;

  init : p == 0 && u == 0;
}
)";

constexpr const char* kJumpA = R"(
system fall_chain {
  var a : 0..2;

  action fall2 : a == 2 -> a := 1;
  action fall1 : a == 1 -> a := 0;
}
)";

Proved proved_jump_chain() {
  Proved p{gcl::parse(kJumpC), gcl::parse(kJumpA), {}, {}};
  p.alpha = gcl::parse_alpha("alpha proj {\n  a := p;\n  invariant : p < 2;\n}\n",
                             p.c, p.a);
  RefineOptions opts;
  opts.budget = 128;
  RefineResult r = prove_refinement(p.c, p.a, p.alpha, opts);
  EXPECT_EQ(r.verdict, RefineVerdict::Proved)
      << (r.failures.empty() ? std::string("no failure recorded") : r.failures[0]);
  p.cert = std::move(*r.certificate);
  return p;
}

/// tests/prover/gcl/jump_chain.gcl: jump_chain above plus a switch s,
/// so `jump` is Enumerated with one stutter row (s == 0: p stays 2) and
/// one compressed row (s == 1: p falls 2 -> 0). |Sigma| = 384 is above
/// the 128-valuation budget: mode B re-checks both rows point-wise.
Proved proved_jump_rows() {
  const fs::path dir = fs::path(CREF_SOURCE_DIR) / "tests" / "prover" / "gcl";
  Proved p{gcl::parse(util::read_file(dir / "jump_chain.gcl")),
           gcl::parse(util::read_file(dir / "fall_chain.gcl")), {}, {}};
  p.alpha = gcl::parse_alpha(util::read_file(dir / "jump_proj.alpha"), p.c, p.a);
  RefineOptions opts;
  opts.budget = 128;
  RefineResult r = prove_refinement(p.c, p.a, p.alpha, opts);
  EXPECT_EQ(r.verdict, RefineVerdict::Proved)
      << (r.failures.empty() ? std::string("no failure recorded") : r.failures[0]);
  p.cert = std::move(*r.certificate);
  return p;
}

::testing::AssertionResult rejected(const Proved& p, const RefinementCertificate& bad) {
  std::string why;
  if (validate_refinement_certificate(p.c, p.a, p.alpha, bad, &why))
    return ::testing::AssertionFailure() << "tampered certificate was ACCEPTED";
  return ::testing::AssertionSuccess() << why;
}

/// Rejected, and by the leg whose message starts with `reason`.
::testing::AssertionResult rejected_by(const Proved& p, const RefinementCertificate& bad,
                                       const std::string& reason) {
  std::string why;
  if (validate_refinement_certificate(p.c, p.a, p.alpha, bad, &why))
    return ::testing::AssertionFailure() << "tampered certificate was ACCEPTED";
  if (why.rfind(reason, 0) != 0)
    return ::testing::AssertionFailure() << "rejected for another reason: " << why;
  return ::testing::AssertionSuccess() << why;
}

TEST(RefineTamper, IntactCertificatesValidateInBothModes) {
  const Proved ka = proved_kstate();
  const Proved wr = proved_work_ring();
  std::string why;
  EXPECT_TRUE(validate_refinement_certificate(ka.c, ka.a, ka.alpha, ka.cert, &why))
      << why;
  EXPECT_TRUE(validate_refinement_certificate(wr.c, wr.a, wr.alpha, wr.cert, &why))
      << why;
}

// --- scenario 1: widened / swapped alpha map -------------------------

TEST(RefineTamper, WidenedAlphaMapIsRejected) {
  Proved p = proved_kstate();
  // Claim the proof is for a different (widened) map than requested.
  RefinementCertificate bad = p.cert;
  bad.alpha_text = "alpha widened {\n  t0 := 1;\n  t1 := c1 != c0;\n"
                   "  t2 := c2 != c1;\n  t3 := c3 != c2;\n}\n";
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 2: wrong system binding --------------------------------

TEST(RefineTamper, WrongSystemNamesAreRejected) {
  Proved p = proved_kstate();
  RefinementCertificate bad = p.cert;
  bad.c_system = "not_the_system";
  EXPECT_TRUE(rejected(p, bad));
  bad = p.cert;
  bad.a_system = "not_the_spec";
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 3: truncated obligation table --------------------------

TEST(RefineTamper, TruncatedActionTableIsRejected) {
  Proved p = proved_kstate();
  RefinementCertificate bad = p.cert;
  bad.action_class.pop_back();
  EXPECT_TRUE(rejected(p, bad));

  Proved wr = proved_work_ring();
  RefinementCertificate bad_b = wr.cert;
  bad_b.action_class.pop_back();
  EXPECT_TRUE(rejected(wr, bad_b));
}

// --- scenario 4: forged abstract match (mode B) ----------------------

TEST(RefineTamper, ForgedAbstractMatchIsRejectedModeB) {
  Proved p = proved_work_ring();
  // pass0 is Exact against bottom (index 0); claim it matches up1
  // instead. Mode B re-derives the match conjuncts from cert.matched,
  // so the forgery must fail its own obligation.
  RefinementCertificate bad = p.cert;
  ASSERT_EQ(bad.action_class[1], ActionClass::Exact);
  ASSERT_EQ(bad.matched[1], 0);
  bad.matched[1] = 1;
  EXPECT_TRUE(rejected(p, bad));
  // An out-of-range match index is structurally rejected.
  bad.matched[1] = 99;
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 5: dropped / forged stutter-rank site (mode B) ---------

TEST(RefineTamper, DroppedStutterRankSiteIsRejectedModeB) {
  Proved p = proved_work_ring();
  // work0 is a ranked stutter action. Claiming it needs no rank
  // (kUnranked) forces the validator's exemption re-check — work0's
  // stutter context is satisfiable, so the exemption must fail.
  RefinementCertificate bad = p.cert;
  ASSERT_EQ(bad.action_class[0], ActionClass::Stutter);
  ASSERT_NE(bad.stutter_ranked_at[0], kUnranked);
  bad.stutter_ranked_at[0] = kUnranked;
  EXPECT_TRUE(rejected(p, bad));
}

TEST(RefineTamper, ForgedStutterRankSiteIsRejectedModeB) {
  Proved p = proved_work_ring();
  // Point the action at a component index past the tuple.
  RefinementCertificate bad = p.cert;
  bad.stutter_ranked_at[0] = bad.stutter_components.size();
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 6: stripped stutter ranking (mode B) -------------------

TEST(RefineTamper, StrippedStutterComponentsAreRejectedModeB) {
  Proved p = proved_work_ring();
  // No components at all: the divergence side condition is unproven.
  RefinementCertificate bad = p.cert;
  bad.stutter_components.clear();
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 7: dropped compressed row (mode B re-enumeration) ------

TEST(RefineTamper, DroppedCompressedRowIsRejectedModeB) {
  Proved p = proved_jump_chain();
  ASSERT_FALSE(p.cert.compressed.empty());
  std::string why;
  ASSERT_TRUE(validate_refinement_certificate(p.c, p.a, p.alpha, p.cert, &why))
      << why;
  // Mode B re-enumerates every Enumerated action and demands row-exact
  // agreement with the stored table — a hidden privilege-merging row
  // cannot be waved through.
  RefinementCertificate bad = p.cert;
  bad.compressed.erase(bad.compressed.begin());
  EXPECT_TRUE(rejected(p, bad));
  // Nor can a fabricated extra row (wrong multi-step witness).
  bad = p.cert;
  bad.compressed.push_back(bad.compressed.back());
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 7b: enumerated stutter and compressed rows (mode B) ----

TEST(RefineTamper, EnumeratedRowsFixtureValidatesInModeB) {
  const Proved p = proved_jump_rows();
  ASSERT_EQ(p.cert.action_class[0], ActionClass::Enumerated);
  EXPECT_EQ(p.cert.obligations[0].detail,
            "1 stutter / 0 exempt / 0 exact / 1 compressed row(s)");
  EXPECT_EQ(p.cert.compressed.size(), 1u);
  ASSERT_EQ(p.cert.stutter_components.size(), 2u);
  ASSERT_EQ(p.cert.visible_components.size(), 1u);
  std::string why;
  EXPECT_TRUE(validate_refinement_certificate(p.c, p.a, p.alpha, p.cert, &why)) << why;
}

TEST(RefineTamper, StutterRowWithoutDecreaseIsRejectedModeB) {
  const Proved p = proved_jump_rows();
  // 63 - u still ranks work's stutter steps, but jump's stutter row
  // leaves u alone: the whole tuple ties there.
  RefinementCertificate bad = p.cert;
  bad.stutter_components[1].expr = gcl::parse_expr_over("63 - u", p.c);
  EXPECT_TRUE(rejected_by(p, bad, "a stutter row of jump does not decrease the stutter ranking"));
}

TEST(RefineTamper, CompressedRowWithoutDecreaseIsRejectedModeB) {
  const Proved p = proved_jump_rows();
  // A constant is non-increasing everywhere and decreases nowhere.
  RefinementCertificate bad = p.cert;
  bad.visible_components[0].expr = make_const(0);
  EXPECT_TRUE(rejected_by(
      p, bad, "a compressed row of jump does not strictly decrease the visible ranking"));
}

TEST(RefineTamper, VisibleIncreaseIsRejectedModeB) {
  const Proved p = proved_jump_rows();
  RefinementCertificate bad = p.cert;
  bad.visible_components[0].expr =
      make_unary(gcl::Op::Neg, std::move(bad.visible_components[0].expr));
  EXPECT_TRUE(rejected_by(p, bad, "visible non-increase of jump at component 0"));
}

TEST(RefineTamper, StutterIncreaseIsRejectedModeB) {
  const Proved p = proved_jump_rows();
  RefinementCertificate bad = p.cert;
  for (RankComponent& c : bad.stutter_components)
    c.expr = make_unary(gcl::Op::Neg, std::move(c.expr));
  EXPECT_TRUE(rejected_by(p, bad, "stutter non-increase of work"));
}

// --- scenario 8: forged deadlock support (mode B) --------------------

TEST(RefineTamper, ForgedDeadlockSupportIsRejectedModeB) {
  Proved p = proved_work_ring();
  // bottom's support is {work0, pass0}; neither alone covers the
  // privilege (work0 dies at w0 == 7, pass0 below it).
  RefinementCertificate bad = p.cert;
  ASSERT_EQ(bad.deadlock_support[0].size(), 2u);
  bad.deadlock_support[0].pop_back();
  EXPECT_TRUE(rejected(p, bad));
  // An out-of-range concrete index is structurally rejected.
  bad = p.cert;
  bad.deadlock_support[0][0] = 99;
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 9: forged invariant ------------------------------------

TEST(RefineTamper, ForgedInvariantIsRejectedModeB) {
  Proved p = proved_jump_chain();
  ASSERT_TRUE(p.cert.has_invariant);
  // A different expression than the alpha spec's declared invariant:
  // mode B only accepts the exact binding invariant (anything else is
  // an unproven claim about reach(I_C)).
  RefinementCertificate bad = p.cert;
  bad.invariant = gcl::parse_expr_over("u < 64", p.c);
  EXPECT_TRUE(rejected(p, bad));
  // Dropping it entirely leaves the compressed rows unexcluded.
  bad = p.cert;
  bad.has_invariant = false;
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 10: stripped visible ranking ---------------------------

TEST(RefineTamper, StrippedVisibleRankingIsRejected) {
  Proved p = proved_kstate();
  ASSERT_FALSE(p.cert.visible_components.empty());
  RefinementCertificate bad = p.cert;
  bad.visible_components.clear();
  EXPECT_TRUE(rejected(p, bad));
}

// --- scenario 11: structural nonsense --------------------------------

TEST(RefineTamper, StructuralNonsenseIsRejected) {
  Proved p = proved_kstate();

  RefinementCertificate bad = p.cert;
  bad.budget = 0;
  EXPECT_TRUE(rejected(p, bad));

  bad = p.cert;  // out-of-domain compressed source value
  ASSERT_FALSE(bad.compressed.empty());
  bad.compressed[0].source[0] = 99;
  EXPECT_TRUE(rejected(p, bad));

  bad = p.cert;  // compressed row charged to a non-Enumerated action
  bad.compressed[0].action = 99;
  EXPECT_TRUE(rejected(p, bad));

  bad = p.cert;  // empty abstract path cannot witness a Compressed row
  bad.compressed[0].a_path.clear();
  EXPECT_TRUE(rejected(p, bad));

  bad = p.cert;  // rank site on a non-stutter action
  ASSERT_EQ(bad.action_class[0], ActionClass::Enumerated);
  bad.stutter_ranked_at[0] = 0;
  EXPECT_TRUE(rejected(p, bad));
}

// A count read from a cache file sizes nothing: each vector grows from
// the numbers actually on the line, so a claimed 10^12 entries is a
// parse failure, not a terabyte allocation (or std::bad_alloc).
TEST(RefineTamper, HugeCountsAreParseFailuresNotAllocations) {
  const Proved p = proved_kstate();
  const std::string text = serialize_refinement_certificate(p.cert);
  ASSERT_TRUE(parse_refinement_certificate(text, p.c).has_value());
  // Replaces field `field` (0 = the keyword) of the first `keyword` line.
  auto with_count = [&](const std::string& keyword, std::size_t field) {
    std::string out = text;
    const std::size_t line = out.find("\n" + keyword + " ");
    EXPECT_NE(line, std::string::npos) << keyword;
    if (line == std::string::npos) return out;
    std::size_t begin = line + 1;
    for (std::size_t i = 0; i < field; ++i) begin = out.find(' ', begin) + 1;
    const std::size_t end = out.find_first_of(" \n", begin);
    return out.replace(begin, end - begin, "1000000000000");
  };
  const std::string support = text.substr(0, text.find("\nsupports ")) +
                              "\nsupports 1\nsupport 1000000000000 0\nend\n";
  for (const std::string& bad : {with_count("action", 4), with_count("row", 2), support}) {
    std::optional<RefinementCertificate> parsed;
    EXPECT_NO_THROW(parsed = parse_refinement_certificate(bad, p.c));
    EXPECT_FALSE(parsed.has_value());
  }
}

// --- scenario 12: forged classification ------------------------------

TEST(RefineTamper, ForgedActionClassIsRejected) {
  // Claiming an Enumerated action is a clean Exact (mode A re-derives
  // by direct execution; mode B re-decides the conjuncts) must fail in
  // BOTH modes.
  Proved ka = proved_kstate();
  RefinementCertificate bad = ka.cert;
  bad.action_class[0] = ActionClass::Exact;
  bad.matched[0] = 0;
  bad.enum_footprint[0].clear();
  // Its compressed rows now hang off a non-Enumerated action.
  EXPECT_TRUE(rejected(ka, bad));

  Proved wr = proved_work_ring();
  RefinementCertificate bad_b = wr.cert;
  ASSERT_EQ(bad_b.action_class[0], ActionClass::Stutter);
  bad_b.action_class[0] = ActionClass::Vacuous;  // claim work0 never fires
  bad_b.stutter_ranked_at[0] = kUnranked;
  EXPECT_TRUE(rejected(wr, bad_b));
}

}  // namespace
}  // namespace cref::prover

// Tests of the relation engine's two successor sources: a generated
// source (successor lists produced on demand from a System, images
// through its Abstraction) must present exactly the graph that
// TransitionGraph::build materializes — slices, alpha images and initial
// states — including under an absint state filter, and the System
// constructor must pick the source by |Sigma_C| alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "absint/absint.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "refinement/checker.hpp"
#include "refinement/reachability.hpp"
#include "ring/btr.hpp"
#include "ring/kstate.hpp"
#include "ring/three_state.hpp"
#include "ring/work_ring.hpp"

namespace cref {
namespace {

/// The generated source of (c, a, alpha) against TransitionGraph::build
/// and the materialized source's eager alpha table.
void expect_source_matches_build(const System& c, const System& a, const Abstraction& alpha,
                                 const Abstraction& eager_alpha) {
  const RefinementChecker gen = RefinementChecker::generated(c, a, alpha);
  const RefinementChecker mat(c, a, eager_alpha);
  ASSERT_FALSE(gen.materialized());
  ASSERT_TRUE(mat.materialized());
  const TransitionGraph built = TransitionGraph::build(c);
  ASSERT_EQ(gen.num_states(), built.num_states());
  for (StateId s = 0; s < built.num_states(); ++s) {
    const auto slice = built.successors(s);
    EXPECT_EQ(gen.c_successors(s), std::vector<StateId>(slice.begin(), slice.end()))
        << c.name() << " state " << s;
    EXPECT_EQ(gen.image(s), mat.image(s)) << c.name() << " state " << s;
  }
  EXPECT_EQ(gen.c_initial(), c.initial_states()) << c.name();
}

TEST(SuccessorSourceTest, RingProtocolsThroughAlpha) {
  ring::ThreeStateLayout l3(3);
  ring::BtrLayout lb(3);
  expect_source_matches_build(ring::make_dijkstra3(l3), ring::make_btr(lb),
                              ring::make_alpha3(l3, lb), ring::make_alpha3(l3, lb));
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  expect_source_matches_build(ring::make_kstate(lk), ring::make_utr(lu),
                              ring::make_alpha_k(lk, lu), ring::make_alpha_k(lk, lu));
  ring::WorkRingLayout lw(2, 3, 2);
  ring::KStateLayout lwk(2, 3);
  expect_source_matches_build(ring::make_work_ring(lw), ring::make_kstate(lwk),
                              ring::make_alpha_forget_work(lw, lwk),
                              ring::make_alpha_forget_work(lw, lwk));
}

TEST(SuccessorSourceTest, LazyAlphaMatchesEagerTable) {
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  Abstraction lazy = Abstraction::lazy("alphaK", lk.space(), lu.space(),
                                       [lk, lu](const StateVec& cs, StateVec& as) {
                                         for (int j = 0; j <= lk.n(); ++j)
                                           as[lu.t(j)] = lk.token_image(cs, j) ? 1 : 0;
                                       });
  expect_source_matches_build(ring::make_kstate(lk), ring::make_utr(lu), lazy,
                              ring::make_alpha_k(lk, lu));
}

TEST(SuccessorSourceTest, AbsintFilterPrunesExactlyLikeTheBuild) {
  // Dijkstra's K-state ring with its R# (16 of 256 states) installed as
  // the engine-pruning filter: filtered states must get empty lists from
  // the generator, exactly as from the CSR build.
  const gcl::SystemAst ast = gcl::parse(R"(
system kring {
  var c0 : 0..3;
  var c1 : 0..3;
  var c2 : 0..3;
  var c3 : 0..3;
  action top : c0 == c3 -> c0 := (c0 + 1) % 4;
  action up1 : c1 != c0 -> c1 := c0;
  action up2 : c2 != c1 -> c2 := c1;
  action up3 : c3 != c2 -> c3 := c2;
  init : c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0;
}
)");
  System c = gcl::compile(ast);
  c.set_state_filter(absint::make_state_filter(absint::analyze_reachable(ast).region));
  const System a = gcl::compile(ast);
  const Abstraction id = Abstraction::identity(c.space_ptr());
  expect_source_matches_build(c, a, id, id);
  std::size_t deadlocks = 0;
  const RefinementChecker gen = RefinementChecker::generated(c, a, id);
  for (StateId s = 0; s < gen.num_states(); ++s) deadlocks += gen.c_successors(s).empty();
  EXPECT_EQ(deadlocks, 256u - 16u);  // everything outside R# is pruned
  // Same verdicts through either source: the pruned states are C
  // deadlocks where A keeps moving.
  const RefinementChecker mat(c, a, id);
  EXPECT_EQ(gen.everywhere_refinement().witness.states,
            mat.everywhere_refinement().witness.states);
  EXPECT_TRUE(gen.refinement_init().holds);
}

TEST(SuccessorSourceTest, SizeRulePicksTheSource) {
  // Below TransitionGraph::build's limit the System constructor
  // materializes; the 1.024e8-state work ring is above it and is
  // generated (constructing it explores nothing).
  ring::WorkRingLayout small(2, 3, 2);
  ring::KStateLayout small_k(2, 3);
  const RefinementChecker mat(ring::make_work_ring(small), ring::make_kstate(small_k),
                              ring::make_alpha_forget_work(small, small_k));
  EXPECT_TRUE(mat.materialized());
  EXPECT_EQ(mat.c_graph().num_states(), mat.num_states());

  ring::WorkRingLayout big(4, 5, 8);
  ring::KStateLayout big_k(4, 5);
  const RefinementChecker gen(ring::make_work_ring(big), ring::make_kstate(big_k),
                              ring::make_alpha_forget_work(big, big_k));
  EXPECT_FALSE(gen.materialized());
  EXPECT_EQ(gen.num_states(), StateId{102400000});
  EXPECT_GT(gen.num_states(), TransitionGraph::kDefaultMaxStates);
  EXPECT_THROW(gen.c_graph(), std::logic_error);
  EXPECT_FALSE(gen.c_successors(0).empty());
}

TEST(SuccessorSourceTest, EdgeStatsAndCompressionExampleAgree) {
  // K-state onto UTR compresses privilege merges: the classification
  // scans read A's closure the same way through either source.
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  const System c = ring::make_kstate(lk);
  const System a = ring::make_utr(lu);
  const RefinementChecker gen = RefinementChecker::generated(c, a, ring::make_alpha_k(lk, lu));
  const RefinementChecker mat(c, a, ring::make_alpha_k(lk, lu));
  const EdgeStats gs = gen.edge_stats(), ms = mat.edge_stats();
  EXPECT_EQ(gs.exact, ms.exact);
  EXPECT_EQ(gs.stutter, ms.stutter);
  EXPECT_EQ(gs.compressed, ms.compressed);
  EXPECT_EQ(gs.invalid, ms.invalid);
  EXPECT_GT(gs.compressed, 0u);
  const auto gx = gen.example_compression(), mx = mat.example_compression();
  ASSERT_TRUE(gx.has_value());
  ASSERT_TRUE(mx.has_value());
  EXPECT_EQ(gx->first.states, mx->first.states);
  EXPECT_EQ(gx->second.states, mx->second.states);
}

TEST(SuccessorSourceTest, StutterRankDecreasesAlongEveryStutterEdge) {
  // The work ring's work steps are stutter edges; sigma is their
  // longest-path rank, the same through either source, globally and on
  // the region reachable from I_C.
  ring::WorkRingLayout l(2, 3, 3);
  ring::KStateLayout lk(2, 3);
  const System c = ring::make_work_ring(l);
  const System a = ring::make_kstate(lk);
  const RefinementChecker gen =
      RefinementChecker::generated(c, a, ring::make_alpha_forget_work(l, lk));
  const RefinementChecker mat(c, a, ring::make_alpha_forget_work(l, lk));
  const auto sigma = gen.stutter_rank();
  ASSERT_TRUE(sigma.has_value());
  EXPECT_EQ(sigma, mat.stutter_rank());
  std::uint64_t top = 0;
  for (StateId s = 0; s < gen.num_states(); ++s) {
    top = std::max(top, (*sigma)[s]);
    for (StateId t : gen.c_successors(s))
      if (gen.image(s) == gen.image(t)) EXPECT_GT((*sigma)[s], (*sigma)[t]) << s << "->" << t;
  }
  EXPECT_GE(top, 2u);  // m - 1 work steps per privilege, more with several
  const util::DenseBitset region = reachable_from(mat.c_graph(), mat.c_initial());
  EXPECT_EQ(gen.stutter_rank(&region), mat.stutter_rank(&region));

  // The looping variant's stutter subgraph has cycles: no rank exists.
  const RefinementChecker looping = RefinementChecker::generated(
      ring::make_work_ring_looping(l), a, ring::make_alpha_forget_work(l, lk));
  EXPECT_FALSE(looping.stutter_rank().has_value());
}

TEST(SuccessorSourceTest, GeneratedRejectsMismatchedAlphaAndOversizedSpaces) {
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  ring::UtrLayout lu4(4);
  EXPECT_THROW(RefinementChecker::generated(ring::make_kstate(lk), ring::make_utr(lu4),
                                            ring::make_alpha_k(lk, lu)),
               std::invalid_argument);
  // 2^32 states: past the 2^32 - 1 budget of the 4-byte SCC words. The
  // check fires before anything per-state is allocated.
  const SpacePtr huge = make_uniform_space(32, 2, "b");
  const SpacePtr bit = make_uniform_space(1, 2, "x");
  const System c("huge", huge, {}, std::nullopt);
  const System a("bit", bit, {}, std::nullopt);
  Abstraction first_bit = Abstraction::lazy(
      "first", huge, bit, [](const StateVec& cs, StateVec& as) { as[0] = cs[0]; });
  EXPECT_THROW(RefinementChecker::generated(c, a, first_bit), std::length_error);
  EXPECT_THROW(RefinementChecker(c, a, first_bit), std::length_error);
}

}  // namespace
}  // namespace cref

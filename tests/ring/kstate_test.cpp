#include "ring/kstate.hpp"

#include <gtest/gtest.h>

#include "refinement/checker.hpp"
#include "refinement/convergence_time.hpp"

namespace cref::ring {
namespace {

TEST(UtrTest, TokenCirculates) {
  UtrLayout l(2);
  System utr = make_utr(l);
  StateVec s(3, 0);
  s[l.t(0)] = 1;
  StateId id = l.space()->encode(s);
  for (int step = 0; step < 3; ++step) {
    auto succ = utr.successors(id);
    ASSERT_EQ(succ.size(), 1u);
    id = succ[0];
  }
  // After 3 moves on a 3-process ring, the token is back at 0.
  EXPECT_EQ(l.space()->decode(id)[l.t(0)], 1);
  EXPECT_EQ(l.token_count(l.space()->decode(id)), 1);
}

TEST(UtrTest, MovingOntoOccupiedSlotMerges) {
  UtrLayout l(2);
  System utr = make_utr(l);
  StateVec s(3, 0);
  s[l.t(0)] = 1;
  s[l.t(1)] = 1;
  // Moving token 0 onto occupied slot 1 merges: 2 tokens -> 1.
  StateVec t = s;
  utr.actions()[0].effect(t);
  EXPECT_EQ(l.token_count(t), 1);
  EXPECT_EQ(t[l.t(1)], 1);
}

TEST(WuTest, CreateFiresOnlyOnEmptyRing) {
  UtrLayout l(3);
  System wu = make_wu_create(l);
  StateVec s(4, 0);
  auto succ = wu.successors(l.space()->encode(s));
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(l.space()->decode(succ[0])[l.t(0)], 1);
  s[l.t(2)] = 1;
  EXPECT_TRUE(wu.successors(l.space()->encode(s)).empty());
}

TEST(WuTest, CancelDropsAdjacentPairs) {
  UtrLayout l(3);
  System wu = make_wu_cancel(l);
  StateVec s(4, 0);
  s[l.t(1)] = 1;
  s[l.t(2)] = 1;
  auto succ = wu.successors(l.space()->encode(s));
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(l.token_count(l.space()->decode(succ[0])), 0);
}

TEST(UtrWrappedTest, AdversaryCanKeepTwoTokensApartForever) {
  // The honesty caveat from DESIGN.md Section 5, machine-checked: the
  // abstract unidirectional ring plus creation/cancellation wrappers is
  // NOT stabilizing under plain union — the daemon simply never grants
  // the cancellation action while two tokens chase each other. This is
  // exactly why the K-state derivation cannot mirror the BTR one.
  UtrLayout l(3);
  System utr = make_utr(l);
  System wrapped = box(utr, make_wu_create(l), make_wu_cancel(l));
  RefinementChecker rc(wrapped, utr);
  EXPECT_FALSE(rc.stabilizing_to().holds);
}

TEST(UtrWrappedTest, PriorityCancellationSavesTinyRingsOnly) {
  // With cancellation given priority, a 4-process ring is too cramped
  // for two tokens to stay non-adjacent (any move forces a cancel), so
  // stabilization holds — but from 5 processes up the adversary can
  // rotate two tokens at distance >= 2 forever.
  {
    UtrLayout l(3);
    System utr = make_utr(l);
    System wrapped = box_priority(utr, box(make_wu_create(l), make_wu_cancel(l)));
    EXPECT_TRUE(RefinementChecker(wrapped, utr).stabilizing_to().holds);
  }
  {
    UtrLayout l(4);
    System utr = make_utr(l);
    System wrapped = box_priority(utr, box(make_wu_create(l), make_wu_cancel(l)));
    EXPECT_FALSE(RefinementChecker(wrapped, utr).stabilizing_to().holds);
  }
}

TEST(KStateLayoutTest, PrivilegeImages) {
  KStateLayout l(2, 3);
  StateVec s{0, 0, 0};
  EXPECT_TRUE(l.token_image(s, 0));  // c0 == cn: bottom privileged
  EXPECT_FALSE(l.token_image(s, 1));
  EXPECT_EQ(l.image_token_count(s), 1);
  StateVec t{1, 0, 0};
  EXPECT_TRUE(l.token_image(t, 1));   // c1 != c0
  EXPECT_FALSE(l.token_image(t, 0));  // c0 != c2
  EXPECT_EQ(l.image_token_count(t), 1);
}

TEST(KStateLayoutTest, AtLeastOnePrivilegeAlways) {
  // Dijkstra's classic pigeonhole: no K-state configuration is
  // privilege-free (if all c_j equal, the bottom is privileged).
  KStateLayout l(3, 3);
  StateVec v;
  for (StateId id = 0; id < l.space()->size(); ++id) {
    l.space()->decode_into(id, v);
    EXPECT_GE(l.image_token_count(v), 1) << l.space()->format(id);
  }
}

TEST(KStateTest, LegitBehaviourCirculatesOnePrivilege) {
  KStateLayout l(3, 4);
  System ks = make_kstate(l);
  StateVec s{0, 0, 0, 0};
  StateId id = l.space()->encode(s);
  StateVec v;
  for (int step = 0; step < 20; ++step) {
    auto succ = ks.successors(id);
    ASSERT_EQ(succ.size(), 1u) << "legit behaviour must be deterministic";
    id = succ[0];
    l.space()->decode_into(id, v);
    EXPECT_EQ(l.image_token_count(v), 1);
  }
}

// The (n, K) stabilization grid: Dijkstra's K-state ring on n+1
// processes is stabilizing iff K >= n (measured exactly; the classical
// sufficient condition K >= n+1 is not tight).
struct GridCase {
  int n;
  int k;
  bool stabilizing;
};

// Gives each case a stable test name. Without it gtest prints the
// struct's bytes, whose padding is uninitialized and differs per run.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "n=" << c.n << " K=" << c.k << (c.stabilizing ? " stabilizing" : " not stabilizing");
}

class KStateGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(KStateGridTest, MatchesMeasuredBoundary) {
  const auto& c = GetParam();
  KStateLayout l(c.n, c.k);
  UtrLayout ul(c.n);
  RefinementChecker rc(make_kstate(l), make_utr(ul), make_alpha_k(l, ul));
  EXPECT_EQ(rc.stabilizing_to().holds, c.stabilizing)
      << "n=" << c.n << " K=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(Grid, KStateGridTest,
                         ::testing::Values(GridCase{2, 2, true}, GridCase{2, 3, true},
                                           GridCase{3, 2, false}, GridCase{3, 3, true},
                                           GridCase{3, 4, true}, GridCase{4, 2, false},
                                           GridCase{4, 3, false}, GridCase{4, 4, true},
                                           GridCase{4, 5, true}, GridCase{5, 4, false},
                                           GridCase{5, 5, true}));

TEST(KStateTest, ConvergenceTimeBoundedWhenStabilizing) {
  KStateLayout l(3, 4);
  UtrLayout ul(3);
  RefinementChecker rc(make_kstate(l), make_utr(ul), make_alpha_k(l, ul));
  ASSERT_TRUE(rc.stabilizing_to().holds);
  auto res = convergence_time(rc);
  EXPECT_TRUE(res.bounded);
  EXPECT_GT(res.worst_steps, 0u);
}

}  // namespace
}  // namespace cref::ring

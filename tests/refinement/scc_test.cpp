#include "refinement/scc.hpp"

#include <gtest/gtest.h>

#include <span>

#include "refinement/random_systems.hpp"

namespace cref {
namespace {

TEST(SccTest, DagIsAllSingletons) {
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  Scc scc(g);
  EXPECT_EQ(scc.count(), 4u);
  for (StateId s = 0; s < 4; ++s) EXPECT_FALSE(scc.nontrivial(scc.component(s)));
  EXPECT_EQ(scc.nontrivial_count(), 0u);
  EXPECT_FALSE(scc.edge_on_cycle(0, 1));
}

TEST(SccTest, SingleCycle) {
  TransitionGraph g = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  Scc scc(g);
  EXPECT_EQ(scc.count(), 1u);
  EXPECT_TRUE(scc.edge_on_cycle(0, 1));
  EXPECT_TRUE(scc.edge_on_cycle(2, 0));
}

TEST(SccTest, CycleWithTail) {
  // 0 -> 1 <-> 2, 2 -> 3
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  Scc scc(g);
  EXPECT_EQ(scc.count(), 3u);
  EXPECT_EQ(scc.component(1), scc.component(2));
  EXPECT_NE(scc.component(0), scc.component(1));
  EXPECT_TRUE(scc.edge_on_cycle(1, 2));
  EXPECT_FALSE(scc.edge_on_cycle(0, 1));
  EXPECT_FALSE(scc.edge_on_cycle(2, 3));
}

TEST(SccTest, TwoSeparateCycles) {
  TransitionGraph g =
      TransitionGraph::from_edges(5, {{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1, 2}});
  Scc scc(g);
  EXPECT_EQ(scc.component(0), scc.component(1));
  EXPECT_EQ(scc.component(2), scc.component(3));
  EXPECT_NE(scc.component(0), scc.component(2));
  EXPECT_FALSE(scc.edge_on_cycle(1, 2));
}

TEST(SccTest, ReverseTopologicalIdOrder) {
  // Tarjan ids: cross edges go from higher to lower component id.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  Scc scc(g);
  for (StateId s = 0; s < 4; ++s)
    for (StateId t : g.successors(s))
      if (scc.component(s) != scc.component(t)) {
        EXPECT_GT(scc.component(s), scc.component(t));
      }
}

TEST(SccTest, NumberingIsPinnedAfterCompIdNarrowing) {
  // Regression for the 8-byte -> 4-byte CompId rewrite: the traversal
  // (roots ascending, successors in CSR order) and hence the EXACT
  // component numbering must not change — the condensation-closure
  // sweep and the certificates' rho ranking both depend on it.
  static_assert(sizeof(Scc::CompId) == 4, "CompId is the 4-byte budget");
  // 0 -> 1 <-> 2, 2 -> 3: DFS pops {3} first, then {1, 2}, then {0}.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 1}, {2, 3}});
  Scc scc(g);
  EXPECT_EQ(scc.component(3), 0u);
  EXPECT_EQ(scc.component(1), 1u);
  EXPECT_EQ(scc.component(2), 1u);
  EXPECT_EQ(scc.component(0), 2u);
}

TEST(SccTest, DeepChainDoesNotOverflowStack) {
  const StateId n = 200000;
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(n - 1, 0);  // close into one giant cycle
  Scc scc(TransitionGraph::from_edges(n, std::move(edges)));
  EXPECT_EQ(scc.count(), 1u);
  EXPECT_TRUE(scc.nontrivial(0));
  EXPECT_TRUE(scc.edge_on_cycle(n - 1, 0));
}

TEST(SccTest, ComponentSizesSumToStateCount) {
  TransitionGraph g =
      TransitionGraph::from_edges(6, {{0, 1}, {1, 0}, {2, 3}, {4, 4 % 6}, {5, 2}});
  Scc scc(g);
  std::vector<std::size_t> sizes(scc.count(), 0);
  for (StateId s = 0; s < 6; ++s) ++sizes[scc.component(s)];
  std::size_t total = 0;
  for (std::size_t c = 0; c < scc.count(); ++c) {
    total += sizes[c];
    EXPECT_EQ(scc.nontrivial(c), sizes[c] >= 2) << "comp " << c;  // a self-loop is trivial
  }
  EXPECT_EQ(total, 6u);
}

TEST(SccTest, DeepPathStaysIterativeAndReportsPeaks) {
  // A 100k-state chain drives the DFS frame stack to full depth; a
  // recursive Tarjan would overflow the call stack here.
  const StateId n = 100000;
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId s = 0; s + 1 < n; ++s) edges.emplace_back(s, s + 1);
  Scc scc(TransitionGraph::from_edges(n, std::move(edges)));
  EXPECT_EQ(scc.count(), n);
  EXPECT_EQ(scc.nontrivial_count(), 0u);
  EXPECT_EQ(scc.peak_frames(), static_cast<std::size_t>(n));
  // Each frame parks at most one successor entry on the edge stack.
  EXPECT_EQ(scc.peak_edges(), static_cast<std::size_t>(n - 1));
  // Components come out in reverse topological order along the chain.
  EXPECT_EQ(scc.component(n - 1), 0u);
  EXPECT_EQ(scc.component(0), static_cast<std::size_t>(n - 1));
}

TEST(SccTest, RejectsGraphsPastTheCompIdBudget) {
  // 2^32 - 1 states would collide with the unvisited sentinel; the check
  // fires before any per-state storage is allocated.
  const StateId n = std::numeric_limits<Scc::CompId>::max();
  auto no_succ = [](StateId) { return std::span<const StateId>{}; };
  EXPECT_THROW(Scc(n, no_succ), std::length_error);
}

TEST(SccTest, GeneratedListsMatchTheCsrDecomposition) {
  // A generator hands out each list in one reused buffer, clobbered by
  // the next call: the decomposition must still equal the CSR one,
  // numbering included.
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SystemSampler gen(seed);
    const StateId n = 8 + static_cast<StateId>(seed % 25);
    const TransitionGraph g = gen.random_graph(n, 0.05 + 0.01 * static_cast<double>(seed % 10));
    std::vector<StateId> buf;
    Scc generated(n, [&](StateId s) {
      buf.assign(g.successors(s).begin(), g.successors(s).end());
      return std::span<const StateId>(buf);
    });
    Scc csr(g);
    ASSERT_EQ(generated.count(), csr.count()) << "seed " << seed;
    for (StateId s = 0; s < n; ++s)
      EXPECT_EQ(generated.component(s), csr.component(s)) << "seed " << seed << " state " << s;
    for (std::size_t c = 0; c < csr.count(); ++c)
      EXPECT_EQ(generated.nontrivial(c), csr.nontrivial(c)) << "seed " << seed << " comp " << c;
  }
}

}  // namespace
}  // namespace cref

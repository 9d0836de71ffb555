#include "refinement/reachability.hpp"

#include <gtest/gtest.h>

namespace cref {
namespace {

util::DenseBitset bits(std::initializer_list<int> membership) {
  util::DenseBitset b(membership.size());
  std::size_t i = 0;
  for (int m : membership) b.set(i++, m != 0);
  return b;
}

TransitionGraph chain_with_branch() {
  // 0 -> 1 -> 2 -> 3, 1 -> 4, 5 isolated, 6 -> 0
  return TransitionGraph::from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {1, 4}, {6, 0}});
}

TEST(ReachabilityTest, FromSingleSource) {
  auto reach = reachable_from(chain_with_branch(), {0});
  EXPECT_EQ(reach, bits({1, 1, 1, 1, 1, 0, 0}));
}

TEST(ReachabilityTest, FromMultipleSources) {
  auto reach = reachable_from(chain_with_branch(), {5, 6});
  EXPECT_EQ(reach, bits({1, 1, 1, 1, 1, 1, 1}));
}

TEST(ReachabilityTest, EmptySources) {
  auto reach = reachable_from(chain_with_branch(), {});
  EXPECT_TRUE(reach.none());
  EXPECT_EQ(reach.size(), 7u);
}

TEST(FindPathTest, ShortestPath) {
  // Two routes 0->3: 0-1-2-3 and 0-3.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  auto path = find_path(g, {0}, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states, (std::vector<StateId>{0, 3}));
}

TEST(FindPathTest, TargetIsSource) {
  TransitionGraph g = TransitionGraph::from_edges(2, {{0, 1}});
  auto path = find_path(g, {1}, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states, (std::vector<StateId>{1}));
}

TEST(FindPathTest, Unreachable) {
  TransitionGraph g = TransitionGraph::from_edges(3, {{0, 1}});
  EXPECT_FALSE(find_path(g, {0}, 2).has_value());
}

TEST(FindPathWithinTest, RespectsAllowedSet) {
  // 0 -> 1 -> 3 and 0 -> 2 -> 3; forbid 1.
  TransitionGraph g = TransitionGraph::from_edges(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  auto path = find_path_within(g, 0, 3, bits({1, 0, 1, 1}));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states, (std::vector<StateId>{0, 2, 3}));
  EXPECT_FALSE(find_path_within(g, 0, 3, bits({1, 0, 0, 1})).has_value());
}

TEST(FindPathWithinTest, ForbiddenEndpointsFail) {
  TransitionGraph g = TransitionGraph::from_edges(2, {{0, 1}});
  EXPECT_FALSE(find_path_within(g, 0, 1, bits({0, 1})).has_value());
}

TEST(ReachabilityTest, CrossesWordBoundaries) {
  // A 130-state chain spans three bitset words; the frontier sweep must
  // carry the wave across both 64-bit boundaries.
  const StateId n = 130;
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  TransitionGraph g = TransitionGraph::from_edges(n, std::move(edges));
  auto reach = reachable_from(g, {0});
  EXPECT_EQ(reach.count(), n);
  EXPECT_TRUE(reach.test(63));
  EXPECT_TRUE(reach.test(64));
  EXPECT_TRUE(reach.test(n - 1));
  auto from_mid = reachable_from(g, {64});
  EXPECT_EQ(from_mid.count(), n - 64);
  EXPECT_FALSE(from_mid.test(63));
}

TEST(ReachabilityTest, FanOutsAndChainsFromSeveralSources) {
  // 0 fans out to 1..99, which all enter a chain 100 -> ... -> 999; 500
  // fans out again to 1000..1999, and 1999 -> 2000. The states above
  // 2000 are reachable only from 2047.
  const StateId n = 2048;
  std::vector<std::pair<StateId, StateId>> edges;
  for (StateId i = 1; i < 100; ++i) edges.insert(edges.end(), {{0, i}, {i, 100}});
  for (StateId i = 100; i < 999; ++i) edges.emplace_back(i, i + 1);
  for (StateId i = 1000; i < 2000; ++i) edges.emplace_back(500, i);
  edges.emplace_back(1999, 2000);
  for (StateId i = 2001; i < n; ++i) edges.emplace_back(2047, i);
  TransitionGraph g = TransitionGraph::from_edges(n, std::move(edges));
  auto reach = reachable_from(g, {0});
  EXPECT_EQ(reach.count(), 2001u);
  EXPECT_TRUE(reach.test(999) && reach.test(1500) && reach.test(2000));
  EXPECT_FALSE(reach.test(2001) || reach.test(2047));
  auto from_chain = reachable_from(g, {998, 2047});
  EXPECT_EQ(from_chain.count(), 2u + 47u);
  EXPECT_TRUE(from_chain.test(999) && from_chain.test(2046));
  EXPECT_FALSE(from_chain.test(997) || from_chain.test(2000));
}

TEST(ReachabilityTest, LargeChainIterative) {
  // 100k-state chain: exercises the non-recursive BFS at depth.
  const StateId n = 100000;
  std::vector<std::pair<StateId, StateId>> edges;
  edges.reserve(n - 1);
  for (StateId i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  TransitionGraph g = TransitionGraph::from_edges(n, std::move(edges));
  auto reach = reachable_from(g, {0});
  EXPECT_TRUE(reach.test(n - 1));
  EXPECT_EQ(reach.count(), n);
  auto path = find_path(g, {0}, n - 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->states.size(), n);
}

}  // namespace
}  // namespace cref

#include "service/hash.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "gcl/parser.hpp"
#include "refinement/random_systems.hpp"

namespace cref::service {
namespace {

TEST(ServiceHashTest, StateSetIsOrderIndependent) {
  EXPECT_EQ(hash_state_set({1, 5, 9}), hash_state_set({9, 1, 5}));
  EXPECT_NE(hash_state_set({1, 5, 9}), hash_state_set({1, 5}));
  EXPECT_NE(hash_state_set({1, 5, 9}), hash_state_set({1, 5, 8}));
  // Multiset semantics: duplicates change the digest (only ever a miss).
  EXPECT_NE(hash_state_set({1, 1, 5}), hash_state_set({1, 5}));
}

TEST(ServiceHashTest, AlphaIsOrderedAndIdentityIsDistinct) {
  EXPECT_NE(hash_alpha({0, 1}), hash_alpha({1, 0}));
  EXPECT_NE(hash_alpha({}), hash_alpha({0}));
  EXPECT_NE(hash_alpha({}), hash_alpha({0, 1}));
}

TEST(ServiceHashTest, GraphHashSeparatesStructure) {
  auto g1 = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  auto g2 = TransitionGraph::from_edges(3, {{1, 0}, {1, 2}});  // flipped edge
  auto g3 = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}});  // extra state
  auto g4 = TransitionGraph::from_edges(3, {{0, 1}});          // dropped edge
  EXPECT_NE(hash_graph(g1), hash_graph(g2));
  EXPECT_NE(hash_graph(g1), hash_graph(g3));
  EXPECT_NE(hash_graph(g1), hash_graph(g4));
  // Edge insertion order is irrelevant (CSR canonicalizes, and the
  // combine is commutative on top).
  auto g5 = TransitionGraph::from_edges(3, {{1, 2}, {0, 1}});
  EXPECT_EQ(hash_graph(g1), hash_graph(g5));
}

TEST(ServiceHashTest, NoCollisionsAcrossRandomGraphFamily) {
  // 600 random graphs; equal digests must mean equal graphs.
  std::map<std::string, TransitionGraph> seen;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    SystemSampler gen(seed);
    StateId n = 3 + static_cast<StateId>(seed % 12);
    TransitionGraph g = gen.random_graph(n, 0.25);
    auto [it, inserted] = seen.emplace(hash_graph(g).hex(), g);
    if (!inserted) {
      EXPECT_EQ(it->second, g) << "digest collision at seed " << seed;
    }
  }
}

TEST(ServiceHashTest, JobKeySeparatesEverySlot) {
  auto g1 = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  auto g2 = TransitionGraph::from_edges(3, {{0, 1}});
  Digest c1 = hash_side(g1, {0}), c2 = hash_side(g2, {0});
  Digest c3 = hash_side(g1, {1});  // same graph, different init
  EXPECT_NE(c1, c2);
  EXPECT_NE(c1, c3);
  Digest id = hash_alpha({});
  EXPECT_NE(job_key(c1, c2, id, Relation::kEverywhere),
            job_key(c2, c1, id, Relation::kEverywhere));  // sides are positional
  EXPECT_NE(job_key(c1, c2, id, Relation::kEverywhere),
            job_key(c1, c2, id, Relation::kConvergence));  // relation in the key
  EXPECT_NE(job_key(c1, c2, id, Relation::kEverywhere),
            job_key(c1, c2, hash_alpha({0, 0, 0}), Relation::kEverywhere));
}

// --------------------------------------------------------------- GCL hashing

constexpr const char* kBase = R"(system s {
  var x : 0..2;
  var y : 0..2;
  action a @0 : x == y -> x := (x + 1) % 3;
  action b @1 : y != x -> y := x;
  init : x == 0 && y == 0;
})";

Digest gcl_digest(const std::string& src) { return hash_gcl(gcl::parse(src)); }

TEST(ServiceHashTest, GclHashIgnoresNamesAndActionOrder) {
  // Action declaration order reversed.
  EXPECT_EQ(gcl_digest(kBase), gcl_digest(R"(system s {
    var x : 0..2;
    var y : 0..2;
    action b @1 : y != x -> y := x;
    action a @0 : x == y -> x := (x + 1) % 3;
    init : x == 0 && y == 0;
  })"));
  // System, variable, and action names changed (structure identical).
  EXPECT_EQ(gcl_digest(kBase), gcl_digest(R"(system other {
    var u : 0..2;
    var v : 0..2;
    action first  @0 : u == v -> u := (u + 1) % 3;
    action second @1 : v != u -> v := u;
    init : u == 0 && v == 0;
  })"));
}

TEST(ServiceHashTest, GclHashSeesSemanticChanges) {
  // Guard changed.
  EXPECT_NE(gcl_digest(kBase), gcl_digest(R"(system s {
    var x : 0..2;
    var y : 0..2;
    action a @0 : x != y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
    init : x == 0 && y == 0;
  })"));
  // Cardinality changed.
  EXPECT_NE(gcl_digest(kBase), gcl_digest(R"(system s {
    var x : 0..3;
    var y : 0..2;
    action a @0 : x == y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
    init : x == 0 && y == 0;
  })"));
  // Process id changed (selects differently under distributed daemons).
  EXPECT_NE(gcl_digest(kBase), gcl_digest(R"(system s {
    var x : 0..2;
    var y : 0..2;
    action a @1 : x == y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
    init : x == 0 && y == 0;
  })"));
  // Init predicate changed / removed.
  EXPECT_NE(gcl_digest(kBase), gcl_digest(R"(system s {
    var x : 0..2;
    var y : 0..2;
    action a @0 : x == y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
    init : x == 1 && y == 0;
  })"));
  EXPECT_NE(gcl_digest(kBase), gcl_digest(R"(system s {
    var x : 0..2;
    var y : 0..2;
    action a @0 : x == y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
  })"));
  // Variable ORDER is part of the encoding: swapping two declarations
  // with different roles changes var indices and hence the digest.
  EXPECT_NE(gcl_digest(kBase), gcl_digest(R"(system s {
    var y : 0..2;
    var x : 0..2;
    action a @0 : x == y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
    init : x == 0 && y == 0;
  })"));
}

TEST(ServiceHashTest, HexIsStableAndDistinct) {
  Digest d = hash_u64(42);
  EXPECT_EQ(d.hex().size(), 32u);
  EXPECT_EQ(d.hex(), hash_u64(42).hex());
  EXPECT_NE(d.hex(), hash_u64(43).hex());
}

}  // namespace
}  // namespace cref::service

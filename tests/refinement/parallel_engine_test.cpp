// Tests of the parallel refinement-check engine: the parallel scans must
// be bit-identical to the serial engine (verdicts, EdgeStats, reasons,
// counterexample witnesses), lazy shared structures must be safe to
// build from concurrent checks (run under TSan in CI), and the
// condensation-closure and BFS reachability paths must agree — including
// the singleton-SCC self-loop case the closure used to get wrong.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "refinement/checker.hpp"
#include "refinement/random_systems.hpp"
#include "ring/kstate.hpp"
#include "ring/three_state.hpp"

namespace cref {
namespace {

using Edges = std::vector<std::pair<StateId, StateId>>;

// ---------------------------------------------------------------------
// Regression: a singleton A-SCC with a self-loop. The condensation
// closure used to mark a component self-reachable only when its size was
// >= 2 and skipped intra-component edges, so it answered "unreachable
// from itself" where the BFS fallback answered "reachable". Pinned
// semantics: reachable_in_a(s, t) iff A has a path of length >= 1.
// ---------------------------------------------------------------------
TEST(ReachableInATest, SingletonSelfLoopClosurePath) {
  // A: 0 has a self-loop, 1 -> 0, 2 isolated.
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 0}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {});
  RefinementChecker rc(std::move(c), std::move(a), {}, {});
  EXPECT_TRUE(rc.reachable_in_a(0, 0));   // self-loop: path of length 1
  EXPECT_TRUE(rc.reachable_in_a(1, 0));
  EXPECT_FALSE(rc.reachable_in_a(1, 1));  // no cycle through 1
  EXPECT_FALSE(rc.reachable_in_a(2, 2));  // isolated
  EXPECT_FALSE(rc.reachable_in_a(0, 1));
}

TEST(ReachableInATest, SingletonSelfLoopBfsPathAgrees) {
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 0}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {});
  RefinementChecker rc(std::move(c), std::move(a), {}, {});
  EngineOptions eo;
  eo.max_comps_for_closure = 0;  // force the per-query BFS fallback
  rc.set_engine_options(eo);
  EXPECT_TRUE(rc.reachable_in_a(0, 0));
  EXPECT_TRUE(rc.reachable_in_a(1, 0));
  EXPECT_FALSE(rc.reachable_in_a(1, 1));
  EXPECT_FALSE(rc.reachable_in_a(2, 2));
  EXPECT_FALSE(rc.reachable_in_a(0, 1));
}

TEST(ReachableInATest, ClosureAndBfsAgreeOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SystemSampler gen(seed);
    StateId n = 6 + static_cast<StateId>(seed % 10);
    TransitionGraph a = gen.random_graph(n, 0.15);
    // Sprinkle self-loops (random_graph never emits them).
    Edges extra;
    for (StateId s = 0; s < n; ++s)
      if (s % 3 == 0) extra.emplace_back(s, s);
    for (StateId s = 0; s < n; ++s)
      for (StateId t : a.successors(s)) extra.emplace_back(s, t);
    a = TransitionGraph::from_edges(n, extra);

    RefinementChecker closure_rc(TransitionGraph::from_edges(n, {}), a, {}, {});
    RefinementChecker bfs_rc(TransitionGraph::from_edges(n, {}), a, {}, {});
    EngineOptions eo;
    eo.max_comps_for_closure = 0;
    bfs_rc.set_engine_options(eo);
    for (StateId s = 0; s < n; ++s)
      for (StateId t = 0; t < n; ++t)
        EXPECT_EQ(closure_rc.reachable_in_a(s, t), bfs_rc.reachable_in_a(s, t))
            << "seed " << seed << " pair (" << s << ", " << t << ")";
  }
}

// ---------------------------------------------------------------------
// Differential suite: serial vs parallel engines over seeded random
// instances. Every relation's full CheckResult (verdict, reason,
// witness trace) and the EdgeStats must be identical.
// ---------------------------------------------------------------------

struct Instance {
  TransitionGraph a;
  TransitionGraph c;
  std::vector<StateId> init;
};

Instance draw(std::uint64_t seed) {
  SystemSampler gen(seed);
  // Big enough that a chunk_size of 4 yields many chunks per scan.
  StateId n = 16 + static_cast<StateId>(seed % 33);  // 16..48 states
  Instance inst;
  inst.a = gen.random_graph(n, 0.12);
  inst.c = gen.drop_edges(inst.a, 0.8);
  if (seed % 2 == 0) inst.c = gen.add_shortcuts(inst.c, 3);
  inst.init = gen.random_subset(n, 0.2, /*nonempty=*/true);
  return inst;
}

void expect_identical(const CheckResult& serial, const CheckResult& parallel,
                      std::uint64_t seed, const char* relation) {
  EXPECT_EQ(serial.holds, parallel.holds) << "seed " << seed << " " << relation;
  EXPECT_EQ(serial.reason, parallel.reason) << "seed " << seed << " " << relation;
  EXPECT_EQ(serial.witness.states, parallel.witness.states)
      << "seed " << seed << " " << relation;
}

TEST(ParallelDifferentialTest, IdenticalToSerialOn200SeededInstances) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Instance inst = draw(seed);
    RefinementChecker serial(inst.c, inst.a, inst.init, inst.init);
    EngineOptions se;
    se.num_threads = 1;
    serial.set_engine_options(se);
    RefinementChecker parallel(inst.c, inst.a, inst.init, inst.init);
    EngineOptions pe;
    pe.num_threads = 4;
    pe.chunk_size = 4;  // force many chunks even on small graphs
    parallel.set_engine_options(pe);

    expect_identical(serial.refinement_init(), parallel.refinement_init(), seed, "init");
    expect_identical(serial.everywhere_refinement(), parallel.everywhere_refinement(), seed,
                     "everywhere");
    expect_identical(serial.convergence_refinement(), parallel.convergence_refinement(), seed,
                     "convergence");
    expect_identical(serial.everywhere_eventually_refinement(),
                     parallel.everywhere_eventually_refinement(), seed, "eventually");
    expect_identical(serial.stabilizing_to(), parallel.stabilizing_to(), seed, "stabilizing");

    EdgeStats ss = serial.edge_stats(), ps = parallel.edge_stats();
    EXPECT_EQ(ss.exact, ps.exact) << "seed " << seed;
    EXPECT_EQ(ss.stutter, ps.stutter) << "seed " << seed;
    EXPECT_EQ(ss.compressed, ps.compressed) << "seed " << seed;
    EXPECT_EQ(ss.invalid, ps.invalid) << "seed " << seed;
  }
}

TEST(ParallelDifferentialTest, IdenticalOnTheRingProtocolsThroughAlpha) {
  // One non-identity-alpha instance: Figure 1 plus a stutterful alpha.
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  TransitionGraph c =
      TransitionGraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  std::vector<StateId> alpha{0, 0, 1, 1, 2, 2};
  RefinementChecker serial(c, a, {0}, {0}, alpha);
  EngineOptions se;
  se.num_threads = 1;
  serial.set_engine_options(se);
  RefinementChecker parallel(c, a, {0}, {0}, alpha);
  EngineOptions pe;
  pe.num_threads = 3;
  pe.chunk_size = 1;
  parallel.set_engine_options(pe);
  expect_identical(serial.everywhere_refinement(), parallel.everywhere_refinement(), 0,
                   "everywhere");
  expect_identical(serial.stabilizing_to(), parallel.stabilizing_to(), 0, "stabilizing");
}

// ---------------------------------------------------------------------
// Concurrency: lazy shared structures (C-SCC, A-SCC + closure, R_A) are
// built under once_flags, so checks may be issued from many threads on
// ONE checker instance. Run under -fsanitize=thread in CI.
// ---------------------------------------------------------------------
TEST(ParallelEngineConcurrencyTest, ConcurrentEdgeStatsAndChecksAgree) {
  Instance inst = draw(7);
  RefinementChecker rc(inst.c, inst.a, inst.init, inst.init);
  EngineOptions eo;
  eo.num_threads = 2;
  eo.chunk_size = 8;
  rc.set_engine_options(eo);

  RefinementChecker ref(inst.c, inst.a, inst.init, inst.init);
  EngineOptions se;
  se.num_threads = 1;
  ref.set_engine_options(se);
  const EdgeStats expect_stats = ref.edge_stats();
  const CheckResult expect_conv = ref.convergence_refinement();
  const CheckResult expect_stab = ref.stabilizing_to();
  const bool expect_reach = ref.reachable_in_a(0, 1);

  constexpr int kCallers = 4;
  std::vector<EdgeStats> stats(kCallers);
  std::vector<CheckResult> conv(kCallers);
  std::vector<CheckResult> stab(kCallers);
  std::vector<int> reach(kCallers);
  {
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
      callers.emplace_back([&, i] {
        // Cold lazy caches on the first round: all callers race to build
        // them through the once_flags. The direct closure-path query
        // races the A-side SCC + closure build with the checks
        // (regression for the plain-bool publication the once_flag
        // replaced — TSan flags the old version here).
        reach[i] = rc.reachable_in_a(0, 1) ? 1 : 0;
        stats[i] = rc.edge_stats();
        conv[i] = rc.convergence_refinement();
        stab[i] = rc.stabilizing_to();
      });
    for (auto& th : callers) th.join();
  }
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(stats[i].exact, expect_stats.exact);
    EXPECT_EQ(stats[i].stutter, expect_stats.stutter);
    EXPECT_EQ(stats[i].compressed, expect_stats.compressed);
    EXPECT_EQ(stats[i].invalid, expect_stats.invalid);
    EXPECT_EQ(conv[i].holds, expect_conv.holds);
    EXPECT_EQ(conv[i].reason, expect_conv.reason);
    EXPECT_EQ(conv[i].witness.states, expect_conv.witness.states);
    EXPECT_EQ(stab[i].holds, expect_stab.holds);
    EXPECT_EQ(stab[i].reason, expect_stab.reason);
    EXPECT_EQ(stab[i].witness.states, expect_stab.witness.states);
    EXPECT_EQ(reach[i], expect_reach ? 1 : 0);
  }
}

TEST(ParallelEngineConcurrencyTest, GeneratedSourceConcurrentChecksAgree) {
  // The same race through a generated source: I_C (a parallel predicate
  // scan), C's SCC and the A-side closure are built on first read from
  // concurrent callers, each worker with its own successor buffers.
  ring::KStateLayout lk(3, 4);
  ring::UtrLayout lu(3);
  const System c = ring::make_kstate(lk);
  const System a = ring::make_utr(lu);
  EngineOptions eo;
  eo.num_threads = 2;
  eo.chunk_size = 8;
  const RefinementChecker gen =
      RefinementChecker::generated(c, a, ring::make_alpha_k(lk, lu), eo);
  ASSERT_FALSE(gen.materialized());

  RefinementChecker ref(c, a, ring::make_alpha_k(lk, lu));
  ref.set_engine_options(EngineOptions{/*num_threads=*/1, /*chunk_size=*/0});
  const EdgeStats expect_stats = ref.edge_stats();
  const CheckResult expect_conv = ref.convergence_refinement();
  const CheckResult expect_stab = ref.stabilizing_to();
  const CheckResult expect_init = ref.refinement_init();

  constexpr int kCallers = 4;
  std::vector<EdgeStats> stats(kCallers);
  std::vector<CheckResult> conv(kCallers), stab(kCallers), init(kCallers);
  {
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
      callers.emplace_back([&, i] {
        init[i] = gen.refinement_init();
        stats[i] = gen.edge_stats();
        conv[i] = gen.convergence_refinement();
        stab[i] = gen.stabilizing_to();
      });
    for (auto& th : callers) th.join();
  }
  for (int i = 0; i < kCallers; ++i) {
    EXPECT_EQ(stats[i].exact, expect_stats.exact);
    EXPECT_EQ(stats[i].stutter, expect_stats.stutter);
    EXPECT_EQ(stats[i].compressed, expect_stats.compressed);
    EXPECT_EQ(stats[i].invalid, expect_stats.invalid);
    expect_identical(expect_init, init[i], 0, "init");
    expect_identical(expect_conv, conv[i], 0, "convergence");
    expect_identical(expect_stab, stab[i], 0, "stabilizing");
  }
}

// ---------------------------------------------------------------------
// Parallel state-space materialization: the two-pass build must be
// bit-identical to the serial single-pass build at every thread count,
// and the checker's system constructors must route their EngineOptions
// into it (timed as the graph-build phase). Runs under TSan in CI.
// ---------------------------------------------------------------------
TEST(ParallelBuildTest, BitIdenticalAcrossThreadCounts) {
  ring::ThreeStateLayout l(4);
  System sys = ring::make_dijkstra3(l);  // 3^5 = 243 states
  const TransitionGraph serial =
      TransitionGraph::build(sys, EngineOptions{/*num_threads=*/1, /*chunk_size=*/0});
  EXPECT_GT(serial.num_edges(), 0u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.chunk_size = 7;  // many chunks per worker on 243 states
    EXPECT_EQ(TransitionGraph::build(sys, eo), serial) << "threads=" << threads;
  }
}

TEST(ParallelBuildTest, CheckerConstructorUsesOptionsAndTimesTheBuild) {
  ring::ThreeStateLayout l(3);
  System sys = ring::make_dijkstra3(l);
  EngineOptions eo;
  eo.num_threads = 2;
  eo.chunk_size = 7;
  RefinementChecker rc(sys, sys, eo);
  EXPECT_TRUE(rc.everywhere_refinement().holds);  // reflexivity sanity
  // The constructor's graph materialization is timed as graph-build; a
  // fresh checker handed ready graphs builds nothing.
  EXPECT_GT(rc.phase_timings().graph_build_ms, 0.0);
  const RefinementChecker given(rc.c_graph(), rc.c_graph(), {}, {});
  EXPECT_EQ(given.phase_timings().graph_build_ms, 0.0);
  // The graphs themselves match a plain serial build.
  EXPECT_EQ(rc.c_graph(), TransitionGraph::build(sys, EngineOptions{1, 0}));
}

TEST(ParallelBuildTest, ReversedGraphIsMemoizedOnTheChecker) {
  Instance inst = draw(11);
  RefinementChecker rc(inst.c, inst.a, inst.init, inst.init);
  const TransitionGraph& r1 = rc.c_reversed();
  const TransitionGraph& r2 = rc.c_reversed();
  EXPECT_EQ(&r1, &r2);  // one memoized copy
  EXPECT_EQ(r1, inst.c.reversed());
}

// ---------------------------------------------------------------------
// EngineOptions plumbing.
// ---------------------------------------------------------------------
TEST(EngineOptionsTest, ResolvedThreadsAndChunks) {
  EngineOptions eo;
  eo.num_threads = 3;
  EXPECT_EQ(eo.resolved_threads(100), 3u);
  EXPECT_EQ(eo.resolved_threads(2), 2u);   // never more threads than items
  EXPECT_EQ(eo.resolved_threads(0), 1u);   // at least one (inline) worker
  eo.chunk_size = 10;
  EXPECT_EQ(eo.resolved_chunk(1000), 10u);
  eo.chunk_size = 0;
  EXPECT_GE(eo.resolved_chunk(10), 64u);   // auto-chunk is clamped up
  eo.num_threads = 1;
  EXPECT_EQ(eo.resolved_threads(1000), 1u);
}

TEST(EngineOptionsTest, ParallelChunksCoversEveryIndexOnce) {
  EngineOptions eo;
  eo.num_threads = 4;
  eo.chunk_size = 3;
  const std::size_t n = 101;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  parallel_chunks(n, eo, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(EngineOptionsTest, ResolveThreadCountNormalizesZero) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  const std::size_t hw = resolve_thread_count(0);
  EXPECT_GE(hw, 1u);  // 0 means hardware concurrency, never zero workers
  std::size_t reported = std::thread::hardware_concurrency();
  if (reported != 0) {
    EXPECT_EQ(hw, reported);
  }
}

TEST(EngineOptionsTest, PhaseTimingsAccumulateAndReset) {
  Instance inst = draw(3);
  RefinementChecker rc(inst.c, inst.a, inst.init, inst.init);
  (void)rc.convergence_refinement();
  const PhaseTimings t = rc.phase_timings();
  EXPECT_GE(t.c_scc_ms, 0.0);
  EXPECT_GE(t.a_scc_ms, 0.0);
  EXPECT_GE(t.edge_scan_ms, 0.0);
  // Totals accumulate across the checks of one checker...
  (void)rc.convergence_refinement();
  EXPECT_GE(rc.phase_timings().edge_scan_ms, t.edge_scan_ms);
  // ...and a fresh checker starts from zero.
  const RefinementChecker fresh(inst.c, inst.a, inst.init, inst.init);
  const PhaseTimings z = fresh.phase_timings();
  EXPECT_EQ(z.c_scc_ms, 0.0);
  EXPECT_EQ(z.edge_scan_ms, 0.0);
}

TEST(EngineOptionsTest, SharedStructuresAreBuiltOnFirstReadOnly) {
  // All-Exact C (A itself, identity alpha): no edge asks whether it lies
  // on a cycle or is reachable in A, so neither SCC is ever built.
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}, {2, 0}});
  RefinementChecker exact(a, a, {0}, {0});
  EXPECT_TRUE(exact.everywhere_refinement().holds);
  EXPECT_TRUE(exact.convergence_refinement().holds);
  EXPECT_EQ(exact.phase_timings().c_scc_ms, 0.0);
  EXPECT_EQ(exact.phase_timings().a_scc_ms, 0.0);

  // 0 -> 2 compresses the A-path 0 -> 1 -> 2: its classification reads
  // A's closure, and its cycle test reads C's SCC — each built once,
  // however many checks follow.
  RefinementChecker compressed(TransitionGraph::from_edges(3, {{0, 2}, {2, 0}}), a, {0}, {0});
  EXPECT_FALSE(compressed.everywhere_refinement().holds);
  const PhaseTimings first = compressed.phase_timings();
  EXPECT_GT(first.c_scc_ms, 0.0);
  EXPECT_GT(first.a_scc_ms, 0.0);
  (void)compressed.convergence_refinement();
  (void)compressed.everywhere_eventually_refinement();
  EXPECT_EQ(compressed.phase_timings().c_scc_ms, first.c_scc_ms);
  EXPECT_EQ(compressed.phase_timings().a_scc_ms, first.a_scc_ms);
}

}  // namespace
}  // namespace cref

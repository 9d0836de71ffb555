// E15 — google-benchmark micro-benchmarks of the verification engine:
// transition-graph construction, reachability, SCC, edge classification,
// and the full relation checks, as a function of ring size (state count
// grows exponentially in n).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "refinement/checker.hpp"
#include "refinement/convergence_time.hpp"
#include "refinement/reachability.hpp"
#include "refinement/scc.hpp"
#include "ring/btr.hpp"
#include "ring/three_state.hpp"

using namespace cref;
using namespace cref::ring;

namespace {

void BM_GraphBuild(benchmark::State& state) {
  ThreeStateLayout l(static_cast<int>(state.range(0)));
  System d3 = make_dijkstra3(l);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TransitionGraph::build(d3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(l.space()->size()));
}
BENCHMARK(BM_GraphBuild)->DenseRange(3, 8)->Unit(benchmark::kMillisecond);

void BM_Reachability(benchmark::State& state) {
  ThreeStateLayout l(static_cast<int>(state.range(0)));
  System d3 = make_dijkstra3(l);
  TransitionGraph g = TransitionGraph::build(d3);
  std::vector<StateId> init = d3.initial_states();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reachable_from(g, init));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_states()));
}
BENCHMARK(BM_Reachability)->DenseRange(3, 8)->Unit(benchmark::kMillisecond);

void BM_Scc(benchmark::State& state) {
  ThreeStateLayout l(static_cast<int>(state.range(0)));
  TransitionGraph g = TransitionGraph::build(make_dijkstra3(l));
  for (auto _ : state) {
    Scc scc(g);
    benchmark::DoNotOptimize(scc.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_states()));
}
BENCHMARK(BM_Scc)->DenseRange(3, 8)->Unit(benchmark::kMillisecond);

void BM_StabilizingCheck(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ThreeStateLayout l(n);
  BtrLayout bl(n);
  for (auto _ : state) {
    RefinementChecker rc(make_dijkstra3(l), make_btr(bl), make_alpha3(l, bl));
    benchmark::DoNotOptimize(rc.stabilizing_to().holds);
  }
}
BENCHMARK(BM_StabilizingCheck)->DenseRange(3, 7)->Unit(benchmark::kMillisecond);

void BM_ConvergenceRefinementCheck(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ThreeStateLayout l(n);
  BtrLayout bl(n);
  System c3 = with_reachable_initial(make_c3(l), l.canonical_state());
  for (auto _ : state) {
    RefinementChecker rc(c3, make_btr(bl), make_alpha3(l, bl));
    benchmark::DoNotOptimize(rc.convergence_refinement().holds);
  }
}
BENCHMARK(BM_ConvergenceRefinementCheck)->DenseRange(3, 6)->Unit(benchmark::kMillisecond);

// Parallel-engine scaling: the same scan at 1 / 2 / 4 threads. The
// checker is constructed (and its SCC / closure caches warmed) outside
// the timed loop, so these measure the pure edge-scan phase — the part
// the thread pool parallelizes. Reproduce the speedup table with
//   bench_engine_micro --benchmark_filter='EdgeStatsScan|StabilizingScan'

void BM_EdgeStatsScan(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ThreeStateLayout l(n);
  BtrLayout bl(n);
  RefinementChecker rc(make_dijkstra3(l), make_btr(bl), make_alpha3(l, bl));
  rc.set_engine_options({.num_threads = static_cast<std::size_t>(state.range(1))});
  (void)rc.edge_stats();  // warm the A-side closure
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc.edge_stats().total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rc.c_graph().num_edges()));
}
BENCHMARK(BM_EdgeStatsScan)
    ->ArgsProduct({{6, 7, 8}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_StabilizingScan(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ThreeStateLayout l(n);
  BtrLayout bl(n);
  RefinementChecker rc(make_dijkstra3(l), make_btr(bl), make_alpha3(l, bl));
  rc.set_engine_options({.num_threads = static_cast<std::size_t>(state.range(1))});
  (void)rc.stabilizing_to();  // warm R_A and the C-side SCC
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc.stabilizing_to().holds);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rc.c_graph().num_edges()));
}
BENCHMARK(BM_StabilizingScan)
    ->ArgsProduct({{6, 7, 8}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_ConvergenceScan(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ThreeStateLayout l(n);
  BtrLayout bl(n);
  System c3 = with_reachable_initial(make_c3(l), l.canonical_state());
  RefinementChecker rc(c3, make_btr(bl), make_alpha3(l, bl));
  rc.set_engine_options({.num_threads = static_cast<std::size_t>(state.range(1))});
  (void)rc.convergence_refinement();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rc.convergence_refinement().holds);
  }
}
BENCHMARK(BM_ConvergenceScan)
    ->ArgsProduct({{5, 6}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

void BM_ConvergenceTime(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  ThreeStateLayout l(n);
  BtrLayout bl(n);
  RefinementChecker rc(make_dijkstra3(l), make_btr(bl), make_alpha3(l, bl));
  (void)rc.stabilizing_to();
  for (auto _ : state) {
    benchmark::DoNotOptimize(convergence_time(rc).worst_steps);
  }
}
BENCHMARK(BM_ConvergenceTime)->DenseRange(3, 7)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

#pragma once

// EngineOptions and parallel_chunks moved to util/parallel.hpp so the
// Sigma-materialization in core/graph.cpp can run on the same chunked
// thread pool as the edge scans; this header re-exports them for the
// engine's call sites and keeps the per-phase timing struct.
#include "util/parallel.hpp"

namespace cref {

/// Wall-clock totals (ms) of the engine's internal phases, accumulated
/// across all checks run on one RefinementChecker. Graph build is paid
/// in the constructor, SCC/closure phases once (on first read, possibly
/// from inside a scan); the edge scan recurs per check. Benches feed
/// successive snapshots into sim::Stats for a per-phase breakdown.
struct PhaseTimings {
  double graph_build_ms = 0;  // CSR materialization of C (when materialized) and A
  double c_scc_ms = 0;        // SCC decomposition of C
  double a_scc_ms = 0;        // SCC decomposition of A
  double closure_ms = 0;      // A-side condensation transitive closure
  double edge_scan_ms = 0;    // classify / verify scans over T_C and the
                              // divergence search, minus the SCC and
                              // closure builds they trigger
  double absint_ms = 0;       // abstract-interpretation fixpoint feeding
                              // the state filter (recorded by callers
                              // that run absint pruning; see
                              // RefinementChecker::record_absint_ms)
};

}  // namespace cref

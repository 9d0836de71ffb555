#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/abstraction.hpp"
#include "core/graph.hpp"
#include "core/system.hpp"
#include "refinement/check_result.hpp"
#include "refinement/engine.hpp"
#include "refinement/scc.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitset.hpp"

namespace cref {

/// Decision procedures for every relation of the paper, between a
/// concrete system C and an abstract system A related by an abstraction
/// function alpha (identity for same-space refinement). All procedures
/// are exact on the full finite state spaces.
///
/// Reduction to graph conditions (each is proved in the corresponding
/// method's documentation): on a finite system, an infinite computation
/// eventually traverses only edges that lie on cycles, and a finite
/// computation ends in a deadlock state. Hence each relation becomes a
/// set of conditions on (a) edges reachable from the initial states,
/// (b) edges on cycles, and (c) deadlock states, after classifying every
/// concrete edge against A (EdgeClass).
///
/// Stuttering (paper Section 2.3 / Section 6): a concrete edge whose two
/// endpoints have the same abstract image is invisible abstractly; images
/// of computations are stutter-collapsed before comparison. A reachable
/// cycle of pure-stutter edges would collapse to a *finite* image of an
/// *infinite* computation, which can only be a computation of A if the
/// image state is an A-deadlock — such "divergence" is therefore a
/// violation except at A-deadlock images.
///
/// Successor source: C is read through one of two sources, and every
/// scan, search and witness below is written once against it.
///   - materialized: a CSR (TransitionGraph) plus an alpha table — the
///     graph-taking constructor, and the System-taking ones whenever
///     TransitionGraph::build accepts |Sigma_C| (kDefaultMaxStates);
///   - generated: successor lists produced on demand from the System's
///     guarded commands (its absint state filter pruning exactly as the
///     CSR build prunes) and images through the Abstraction (lazy ones
///     stay lazy) — the System-taking constructors above that limit, and
///     generated() at any size. Memory is then O(|Sigma_C|) bits plus
///     4 bytes per state during an SCC decomposition.
/// A is the specification side and is always materialized.
///
/// Engine: the shared read-only structures (C-side SCC, A-side SCC +
/// condensation closure, R_A, I_C, the reversed C graph) are built once,
/// thread-safely, on first read — a check whose edges are all Exact or
/// Stutter never builds either SCC. The per-check scans over T_C run
/// across an EngineOptions-sized thread pool. Partial results are merged
/// by state id (lowest violating (s, t) wins), so verdicts, EdgeStats,
/// and counterexample witnesses are bit-identical to a single-threaded
/// run, and identical across the two sources. Checks on one instance may
/// themselves be issued from multiple threads concurrently.
class RefinementChecker {
 public:
  /// Checks relations between `c` and `a` through `alpha` (whose
  /// from/to spaces must match c/a). Materializes C's graph and alpha
  /// table (using `opts` for the parallel Sigma build) when |Sigma_C| is
  /// within TransitionGraph::kDefaultMaxStates, and generates C on demand
  /// above it; throws std::length_error past 2^32 - 1 states.
  RefinementChecker(const System& c, const System& a, Abstraction alpha,
                    const EngineOptions& opts = {});

  /// Same-space convenience: identity abstraction. The spaces of `c` and
  /// `a` must have the same shape.
  RefinementChecker(const System& c, const System& a, const EngineOptions& opts = {});

  /// Hand-built automata (tests, Figure 1). `alpha_table` maps every
  /// C-state to an A-state; empty means identity (same state count).
  RefinementChecker(TransitionGraph c, TransitionGraph a, std::vector<StateId> c_init,
                    std::vector<StateId> a_init, std::vector<StateId> alpha_table = {});

  /// A checker that generates C on demand whatever its size — what the
  /// System-taking constructor does above the build limit. Exists so
  /// tests and benches can cover the generated source on spaces small
  /// enough to cross-check. Holds copies of `c` and `alpha`.
  static RefinementChecker generated(const System& c, const System& a, Abstraction alpha,
                                     const EngineOptions& opts = {});

  /// [C subseteq A]_init — every computation of C that starts from an
  /// initial state of C is (after stutter-collapse of its image) a
  /// computation of A. Conditions on the subgraph reachable from I_C:
  /// every edge Exact or Stutter; every deadlock maps to an A-deadlock;
  /// no pure-stutter cycle (except at A-deadlock images).
  CheckResult refinement_init() const;

  /// [C subseteq A] — everywhere refinement: the refinement_init
  /// conditions over ALL of Sigma_C.
  CheckResult everywhere_refinement() const;

  /// [C curlypreceq A] — convergence refinement: refinement_init, plus
  /// over all of Sigma_C: no Invalid edge anywhere; no Compressed edge on
  /// a cycle (a computation looping through a compression would drop
  /// infinitely many states); no pure-stutter cycle (except at A-deadlock
  /// images); every deadlock maps to an A-deadlock.
  CheckResult convergence_refinement() const;

  /// Everywhere-eventually refinement (paper Section 7, from [1]):
  /// refinement_init, plus every computation is an arbitrary finite
  /// prefix followed by a computation of A. Off-cycle edges are
  /// unconstrained; cycle edges must be Exact/Stutter; deadlocks map to
  /// A-deadlocks; stutter-cycle condition as above.
  CheckResult everywhere_eventually_refinement() const;

  /// C is stabilizing to A — every computation of C has a suffix that is
  /// a suffix of some computation of A starting at an initial state of A.
  /// With R_A = reachable(A, I_A): every cycle edge of C must be "good"
  /// (image edge in T_A with both images in R_A, or stutter with image in
  /// R_A); pure-stutter cycles only at A-deadlock images inside R_A;
  /// every C-deadlock maps to an A-deadlock inside R_A.
  CheckResult stabilizing_to() const;

  /// Classification of one concrete transition (s, t). Precondition:
  /// (s, t) is an edge of C (not checked).
  EdgeClass classify_edge(StateId s, StateId t) const;

  /// Classification counts over the entire concrete transition relation.
  /// Scanned in parallel per EngineOptions; safe to call concurrently.
  EdgeStats edge_stats() const;

  /// True if alpha maps the initial states of C into the initial states
  /// of A (reported separately: the paper's refinement definition
  /// constrains computations, not the initial sets themselves).
  bool initial_states_match() const;

  /// An example of a Compressed concrete edge together with the dropped
  /// interior A-path it compresses; nullopt if no compressed edge exists.
  /// The first trace is the single concrete edge (2 states), the second
  /// the A-path between the images.
  std::optional<std::pair<Trace, Trace>> example_compression() const;

  /// True iff A has a path of length >= 1 from `src` to `dst`. In
  /// particular reachable_in_a(s, s) holds iff s lies on a cycle of A
  /// (including a self-loop) — the condensation-closure and BFS paths
  /// agree on this by construction.
  bool reachable_in_a(StateId src, StateId dst) const;

  /// Engine tuning. Set BEFORE the first check; not synchronized against
  /// concurrently running checks on this instance. (The graph build in
  /// the system-taking constructors uses the options passed there.)
  void set_engine_options(const EngineOptions& opts) { opts_ = opts; }

  /// Snapshot of the accumulated per-phase wall-clock totals.
  PhaseTimings phase_timings() const;

  /// Number of C states.
  StateId num_states() const { return n_; }

  /// True if C is read from a CSR, false if it is generated on demand.
  bool materialized() const { return !gen_; }

  /// The concrete graph. Materialized sources only: throws
  /// std::logic_error when C is generated.
  const TransitionGraph& c_graph() const;
  const TransitionGraph& a_graph() const { return a_; }

  /// Sorted initial states of C. For a generated source they come from a
  /// parallel predicate scan over Sigma on first read (never through
  /// System::initial_states(), whose cache is serial and not
  /// thread-safe).
  const std::vector<StateId>& c_initial() const;
  const std::vector<StateId>& a_initial() const { return a_init_; }

  /// Successors of `s` in C, read from the source (a copy).
  std::vector<StateId> c_successors(StateId s) const;

  /// The reversed concrete graph (predecessor lists), built lazily and
  /// memoized; clients walking T_C backwards (convergence-time layering)
  /// share one copy instead of re-deriving it per query. Materialized
  /// sources only.
  const TransitionGraph& c_reversed() const;

  /// Image of concrete state `s` under alpha. (A generated source's
  /// lazy alpha allocates decode buffers per call here; the scans use
  /// per-worker buffers instead.)
  StateId image(StateId s) const {
    if (gen_) return gen_->alpha.apply(s);
    return alpha_.empty() ? s : alpha_[s];
  }

  /// Membership bitset of R_A = reachable(A, I_A) (computed lazily,
  /// thread-safely).
  const util::DenseBitset& a_reachable() const;

  /// SCC decomposition of C (computed lazily, thread-safely).
  const Scc& c_scc() const;

  /// Longest-path rank sigma over the stutter subgraph: the stutter edges
  /// of C inside `c_region` (all of Sigma_C when null) whose image is not
  /// an A-deadlock. sigma(s) > sigma(t) on each of its edges and is 0 on
  /// states with none. nullopt if that subgraph has a cycle (then the
  /// relations' divergence condition fails). Certificates store it as
  /// their stutter ranking.
  std::optional<std::vector<std::uint64_t>> stutter_rank(
      const util::DenseBitset* c_region = nullptr) const;

 private:
  class Cursor;  // per-worker read access to the successor source (checker.cpp)

  /// The generated source: C's guarded commands and the abstraction.
  struct Generator {
    System sys;
    Abstraction alpha;
  };

  RefinementChecker(const System& c, const System& a, Abstraction alpha,
                    const EngineOptions& opts, bool generate);

  EdgeClass classify(StateId is, StateId it) const;
  void ensure_a_closure() const;
  template <typename Scan>
  auto timed_scan(Scan&& scan) const;
  CheckResult check_region(const util::DenseBitset* filter, bool allow_compressed_off_cycle,
                           bool allow_invalid_off_cycle, const char* relation_name) const;
  std::optional<Scc> stutter_scc(Cursor& cur, const util::DenseBitset* c_region,
                                 const util::DenseBitset* a_region) const;
  std::optional<Trace> find_stutter_cycle(const util::DenseBitset* c_region,
                                          const util::DenseBitset* a_region) const;
  Trace cycle_witness(StateId s, StateId t) const;

  TransitionGraph c_;           // materialized source
  std::vector<StateId> alpha_;  // materialized source; empty => identity
  std::optional<Generator> gen_;  // generated source
  StateId n_ = 0;
  TransitionGraph a_;
  std::vector<StateId> a_init_;
  std::string c_name_ = "C";
  std::string a_name_ = "A";
  EngineOptions opts_;

  /// A-side condensation closure, or the decision not to build one.
  /// Everything a reachable_in_a query reads lives in this one struct so
  /// its publication is a single optional engage under the once_flag —
  /// the previous shape (bitset rows + two plain `built`/`too_big` bools
  /// set piecewise) let a concurrent caller observe half-built state.
  struct AClosure {
    util::BitMatrix reach;  // rows/cols = A components; empty if too_big
    bool too_big = false;   // comps > max_comps_for_closure: BFS fallback
  };

  // Lazily-built shared structures. Each is built exactly once under its
  // once_flag, so concurrent checks never race on them.
  mutable std::once_flag c_init_once_;
  mutable std::vector<StateId> c_init_;  // materialized: set at construction
  mutable std::once_flag a_reach_once_;
  mutable std::optional<util::DenseBitset> a_reach_;
  mutable std::once_flag c_scc_once_;
  mutable std::optional<Scc> c_scc_;
  mutable std::once_flag c_rev_once_;
  mutable std::optional<TransitionGraph> c_rev_;
  mutable std::once_flag a_closure_once_;
  mutable std::optional<Scc> a_scc_;
  mutable std::optional<AClosure> a_closure_;

  mutable std::atomic<double> graph_build_ms_{0};
  mutable std::atomic<double> c_scc_ms_{0};
  mutable std::atomic<double> a_scc_ms_{0};
  mutable std::atomic<double> closure_ms_{0};
  mutable std::atomic<double> edge_scan_ms_{0};
};

}  // namespace cref

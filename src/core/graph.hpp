#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/system.hpp"
#include "util/parallel.hpp"

namespace cref {

/// The full transition relation of a system over its ENTIRE state space,
/// materialized in compressed-sparse-row form. All decision procedures in
/// the `refinement` module run on this structure: transient faults can
/// land the system anywhere in Sigma, so the relations of the paper
/// quantify over all states, not just the reachable ones.
///
/// Successor lists are sorted, enabling O(log d) edge-membership queries.
class TransitionGraph {
 public:
  /// An empty graph (0 states); assign a built graph over it.
  TransitionGraph() : offsets_(1, 0) {}

  /// Default cap on |Sigma| for build(): past it the CSR (8-byte offsets
  /// plus 8 bytes per edge) is too large to materialize by accident.
  static constexpr StateId kDefaultMaxStates = StateId{1} << 26;

  /// Explores every state of `sys.space()` and records its successors,
  /// writing straight into the final CSR arrays. With more than one
  /// resolved thread the exploration is a two-pass (count, then fill)
  /// scan over EngineOptions-sized chunks with one SuccessorScratch per
  /// worker; the result is byte-identical to the serial build at every
  /// thread count, because each state's slice lands at an offset fixed
  /// by the count pass. Throws std::length_error if the space exceeds
  /// `max_states` (guard against accidentally materializing an
  /// astronomically large Sigma).
  static TransitionGraph build(const System& sys, const EngineOptions& opts,
                               StateId max_states = kDefaultMaxStates);

  /// Convenience overload: default EngineOptions (one worker per
  /// hardware thread).
  static TransitionGraph build(const System& sys, StateId max_states = kDefaultMaxStates) {
    return build(sys, EngineOptions{}, max_states);
  }

  /// Builds a graph directly from adjacency lists (used by tests and by
  /// the Figure-1 hand-constructed automata). Lists need not be sorted.
  /// Every endpoint is validated up front; an out-of-range source or
  /// target throws std::out_of_range naming the offending edge.
  static TransitionGraph from_edges(StateId num_states,
                                    std::vector<std::pair<StateId, StateId>> edges);

  /// Number of states (== space size when built from a system).
  StateId num_states() const { return static_cast<StateId>(offsets_.size() - 1); }

  /// Total number of transitions.
  std::size_t num_edges() const { return targets_.size(); }

  /// Sorted successor list of `s`.
  std::span<const StateId> successors(StateId s) const {
    return {targets_.data() + offsets_[s], targets_.data() + offsets_[s + 1]};
  }

  /// True if (s, t) is a transition.
  bool has_edge(StateId s, StateId t) const;

  /// True if `s` has no outgoing transitions.
  bool is_deadlock(StateId s) const { return offsets_[s] == offsets_[s + 1]; }

  /// The reverse graph (predecessor lists), built on demand and cached by
  /// the caller if reused (RefinementChecker::c_reversed memoizes it).
  TransitionGraph reversed() const;

  /// Structural equality of the CSR arrays — the bit-identity predicate
  /// pinned by the parallel-build tests and the fuzzing oracle.
  friend bool operator==(const TransitionGraph&, const TransitionGraph&) = default;

 private:
  std::vector<std::size_t> offsets_;  // num_states + 1
  std::vector<StateId> targets_;
};

}  // namespace cref

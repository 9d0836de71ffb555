#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/space.hpp"

namespace cref {

/// A predicate over decoded states, used to define initial-state sets
/// intensionally (they are materialized lazily by scanning Sigma).
using StatePredicate = std::function<bool(const StateVec&)>;

/// Reusable workspace for System::successors_into. One scratch per
/// worker thread lets the Sigma-materialization loops decode, evaluate
/// and collect successors for millions of states without a single heap
/// allocation after warm-up (the three buffers keep their capacity).
struct SuccessorScratch {
  StateVec decoded;         // decode of the queried state
  StateVec effect;          // action-effect workspace
  std::vector<StateId> out; // caller-owned successor buffer
};

/// A system S = (Sigma, T, I) in the sense of the paper, presented as a
/// set of guarded commands over a packed state space.
///
/// Transition semantics: `T = {(s, a(s)) : a in actions, guard_a(s),
/// a(s) != s}`. Executions of an enabled action that do not change the
/// state are *not* transitions — a computation is a sequence of states, so
/// a no-op execution cannot appear in it. This is the paper's treatment of
/// the tau-steps ("stuttering") of system C3 in Section 6.
///
/// Computations are maximal sequences of states chained by T. They may
/// start at ANY state of Sigma (transient faults perturb the state
/// arbitrarily); the initial-state set I is only consulted by the
/// "[C subseteq A]_init" part of refinement checks.
class System {
 public:
  /// Builds a system from explicit parts. `initial` is a predicate;
  /// pass std::nullopt for systems with no initial states of their own
  /// (wrappers) — box() then inherits the other operand's set.
  System(std::string name, SpacePtr space, std::vector<Action> actions,
         std::optional<StatePredicate> initial);

  const std::string& name() const { return name_; }
  const Space& space() const { return *space_; }
  const SpacePtr& space_ptr() const { return space_; }
  const std::vector<Action>& actions() const { return actions_; }

  /// True if the system declares an initial-state predicate (wrappers do
  /// not).
  bool has_initial() const { return initial_.has_value(); }

  /// Evaluates the initial predicate on a decoded state. Precondition:
  /// has_initial().
  bool is_initial(const StateVec& s) const { return (*initial_)(s); }

  /// Evaluates the initial predicate on a packed state, decoding into
  /// `scratch.decoded` (allocation-free after warm-up). This is how the
  /// relation engine finds I_C of a generated source: a scan of
  /// Sigma through this overload, never through the initial_states()
  /// vector (which would be huge and is not thread-safe to first-call
  /// concurrently). Precondition: has_initial().
  bool is_initial(StateId s, SuccessorScratch& scratch) const {
    space_->decode_into(s, scratch.decoded);
    return (*initial_)(scratch.decoded);
  }

  /// Materializes the initial-state set by scanning Sigma (cached).
  /// Returns an empty vector if has_initial() is false.
  const std::vector<StateId>& initial_states() const;

  /// Distinct successors of `s` under T (self-transitions excluded),
  /// in ascending StateId order. Thin wrapper over successors_into; hot
  /// loops should hold a SuccessorScratch and call that directly.
  std::vector<StateId> successors(StateId s) const;

  /// Allocation-free successor enumeration: decodes `s` into
  /// `scratch.decoded` once, evaluates every action against it in
  /// place, and APPENDS the distinct non-self successors (ascending) to
  /// `scratch.out`. Returns the number appended. The caller owns the
  /// buffer: clear it between states, or keep appending to batch
  /// several states' lists.
  std::size_t successors_into(StateId s, SuccessorScratch& scratch) const;

  /// True if no action leads out of `s` (final state of a finite
  /// computation).
  bool is_deadlock(StateId s) const { return successors(s).empty(); }

  /// Allocation-free deadlock probe: clears `scratch.out` and enumerates
  /// into it (the successor list is still there for the caller afterward).
  bool is_deadlock(StateId s, SuccessorScratch& scratch) const {
    scratch.out.clear();
    return successors_into(s, scratch) == 0;
  }

  /// Names of the actions enabled (guard true) in `s`, whether or not
  /// their execution would change the state. Used by diagnostics.
  std::vector<std::string> enabled_actions(StateId s) const;

  /// Engine-pruning hook: an optional predicate over decoded states
  /// restricting which SOURCE states TransitionGraph::build enumerates
  /// successors for — states failing the filter get empty slices. With
  /// a filter whose set is closed under T (e.g. an absint reachable
  /// region R#, see src/absint/absint.hpp), the pruned graph agrees
  /// with the unpruned one on every state inside the set, so any
  /// analysis confined to it (reachability from a covered init, ...)
  /// is unaffected. The filter is consulted ONLY by the graph build;
  /// successors()/simulation semantics never change, and box()/
  /// box_priority compositions do not inherit it. No filter (the
  /// default) leaves the build code path bit-identical to before.
  void set_state_filter(StatePredicate filter) { state_filter_ = std::move(filter); }
  void clear_state_filter() { state_filter_ = nullptr; }
  bool has_state_filter() const { return static_cast<bool>(state_filter_); }

  /// Evaluates the filter on `s`, decoding into `scratch.decoded`.
  /// Precondition: has_state_filter().
  bool passes_filter(StateId s, SuccessorScratch& scratch) const;

 private:
  std::string name_;
  SpacePtr space_;
  std::vector<Action> actions_;
  std::optional<StatePredicate> initial_;
  StatePredicate state_filter_;  // empty: no pruning
  mutable std::optional<std::vector<StateId>> initial_cache_;
};

/// Box composition `a [] b`: union of the two automata (the paper's "[]"
/// operator). Requires both systems to share the same state-space shape.
/// The composite's initial predicate is `a`'s if `a` has one, otherwise
/// `b`'s (wrappers declare none, so `BTR [] W1 [] W2` keeps BTR's).
System box(const System& a, const System& b);

/// Variadic convenience: box(a, b, c, ...) left-folds the binary box.
template <typename... Systems>
System box(const System& a, const System& b, const Systems&... rest) {
  if constexpr (sizeof...(rest) == 0) {
    return box(a, b);
  } else {
    return box(box(a, b), rest...);
  }
}

/// PRIORITY composition `sys <| wrapper`: the wrapper's actions preempt
/// the system's — a system action may fire only in states where no
/// wrapper action would change the state. This is the superposition
/// semantics under which correction wrappers like the paper's W2 actually
/// correct: under plain union an unfair central daemon may simply never
/// pick the wrapper's cancellation action (two tokens then cross and
/// circulate forever), which our model checker exhibits as a failure of
/// Theorem 6; see EXPERIMENTS.md.
///
/// "Would change the state" (not merely "is enabled") is the preemption
/// test: a wrapper whose enabled action is a no-op must not block the
/// system, and no-op executions are not transitions.
System box_priority(const System& sys, const System& wrapper);

/// Returns a copy of `sys` whose initial-state set is the set of states
/// reachable from `seed` (inclusive) under `sys`'s own transitions. This
/// is the "faithful encoding" choice of initial states for a concrete
/// system derived through a mapping: the preimage of the abstract initial
/// states is too large (it contains corrupted encodings from which the
/// very first step already compresses), which our checker exhibits as a
/// failure of Lemma 7 under the naive choice; see EXPERIMENTS.md.
System with_reachable_initial(const System& sys, const StateVec& seed);

}  // namespace cref

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "gcl/ast.hpp"

namespace cref::gcl {

/// Euclidean division: the unique q with a == q*b + eval_mod(a, b) and
/// 0 <= eval_mod(a, b) < |b|. Equals floor division for b > 0 (the only
/// divisors reachable from 0-based GCL domains without explicit
/// negation). Returns 0 when b == 0 (total semantics).
std::int64_t eval_div(std::int64_t a, std::int64_t b);

/// Mathematical (always-nonnegative) modulo: result in [0, |b|).
/// Returns 0 when b == 0 (total semantics).
std::int64_t eval_mod(std::int64_t a, std::int64_t b);

/// Evaluates an expression over a decoded state (int64 arithmetic;
/// comparisons/logic yield 0/1; any nonzero value is truthy). Division
/// and modulo use the Euclidean pair above, so `(a / b) * b + a % b == a`
/// holds for every nonzero b; division or modulo by zero evaluates to 0
/// (total semantics — model checking must not trap on corrupted states).
std::int64_t eval(const Expr& e, const StateVec& s);

// --- valuations: the finite-domain enumeration every static pass runs --
//
// The linter, the abstract-interpretation lint and both static provers
// decide their questions by enumerating the valuations of an
// expression's FOOTPRINT (the variables it reads), with every other
// variable pinned to 0, under a budget on the number of valuations.

/// Declared cardinalities of ast.vars, in declaration order.
std::vector<int> cardinalities(const SystemAst& ast);

/// Sets used[v] for every variable v < used.size() that `e` references.
void mark_footprint(const Expr& e, std::vector<char>& used);

/// The indices v with used[v] set, ascending.
std::vector<std::size_t> marked_vars(const std::vector<char>& used);

/// Sorted distinct indices of the variables `e` references.
std::vector<std::size_t> footprint(const Expr& e, std::size_t num_vars);

/// [0, n) — the footprint of a whole-state enumeration.
std::vector<std::size_t> all_vars(std::size_t n);

/// Product of the listed variables' cardinalities; SIZE_MAX once the
/// product exceeds `cap`.
std::size_t valuation_count(const std::vector<std::size_t>& vars,
                            const std::vector<int>& cards, std::size_t cap);

/// Calls `f(state)` for every valuation of `vars` (odometer order, the
/// first listed variable fastest), with every other variable pinned to
/// 0 — sound for expressions whose footprint is within `vars`. Stops
/// early when `f` returns false; returns false iff stopped early.
template <class Fn>
bool for_each_valuation(const std::vector<std::size_t>& vars,
                        const std::vector<int>& cards, StateVec& state, Fn&& f) {
  state.assign(cards.size(), 0);
  while (true) {
    if (!f(static_cast<const StateVec&>(state))) return false;
    std::size_t i = 0;
    for (; i < vars.size(); ++i) {
      const std::size_t v = vars[i];
      if (++state[v] < cards[v]) break;
      state[v] = 0;
    }
    if (i == vars.size()) return true;
  }
}

/// Executes `action` on `s` into `out` (guard NOT checked): every
/// right-hand side is evaluated against `s`, then written reduced into
/// its target's domain (Euclidean `eval_mod`), in declaration order, so
/// a variable assigned twice takes its last value — compile's
/// guarded-command multiple assignment.
void step(const ActionAst& action, const std::vector<int>& cards, const StateVec& s,
          StateVec& out);

/// Calls `f(action_index, post)` for every transition of `ast` at `s`, in
/// declaration order: each action whose guard holds and whose step
/// changes the state (a no-op execution is not a transition). `post` is
/// the caller's scratch. Stops early when `f` returns false; returns
/// false iff stopped early.
template <class Fn>
bool for_each_move(const SystemAst& ast, const std::vector<int>& cards, const StateVec& s,
                   StateVec& post, Fn&& f) {
  for (std::size_t i = 0; i < ast.actions.size(); ++i) {
    if (eval(ast.actions[i].guard, s) == 0) continue;
    step(ast.actions[i], cards, s, post);
    if (post != s && !f(i, static_cast<const StateVec&>(post))) return false;
  }
  return true;
}

/// `name=value, ...` over the listed variables of `s` (diagnostic
/// witnesses and refutation rows).
std::string format_valuation(const SystemAst& ast, const StateVec& s,
                             const std::vector<std::size_t>& vars);

/// Compiles a parsed system into a cref::System over a fresh Space.
/// Assignment values are reduced into the variable's domain modulo its
/// cardinality (mathematically, so negative values wrap upward) — which
/// gives mod-K counters for free: with `var c : 0..2;`, `c := c + 1` is
/// the paper's (+) 1. Actions keep their declared process ids; `init`
/// becomes the initial-state predicate (absent init -> no initial
/// states, i.e. a wrapper).
System compile(const SystemAst& ast);

/// Convenience: parse + compile in one call.
System load_system(const std::string& source);

}  // namespace cref::gcl

#pragma once

// Per-action simulation obligations of the static refinement prover
// (refine.hpp): the expression-level constructions that turn "this
// concrete action maps to a stutter / an A-edge under alpha" into
// decide_always propositions over the CONCRETE variables only, plus the
// abstract-side point evaluation helpers (direct match, bounded BFS)
// used by the enumerated residual classification.
//
// The key device is alpha substitution: an expression over the abstract
// program's variables is rewritten over the concrete ones by replacing
// every abstract variable t with its image expression — the alpha
// definition wrapped into the abstract domain with the compiler's
// Euclidean `% card` unless a conservative interval analysis proves the
// definition already in range. eval(alpha_subst(e), s) then equals
// eval(e, alpha_image(s)) pointwise, which is what makes the purely
// syntactic obligations speak about A's transitions.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/space.hpp"
#include "gcl/alpha.hpp"
#include "gcl/ast.hpp"

namespace cref::prover {

/// Conservative integer interval of `e` over the declared domains.
struct ExprRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

ExprRange expr_range(const gcl::Expr& e, const std::vector<int>& cards);

/// `e` when the interval analysis proves 0 <= e < k everywhere, else
/// `(e) % k` (the Euclidean wrap gcl::compile applies to assignments).
gcl::Expr wrap_mod(gcl::Expr e, int k, const std::vector<int>& cards);

/// AND-fold (Const 1 when empty) / OR-fold (Const 0 when empty).
gcl::Expr conj(std::vector<gcl::Expr> terms);
gcl::Expr disj(std::vector<gcl::Expr> terms);

/// Bound (C, A, alpha) triple with the per-abstract-variable image
/// expressions precomputed.
struct AlphaCtx {
  const gcl::SystemAst& c;
  const gcl::SystemAst& a;
  const gcl::AlphaSpec& alpha;
  std::vector<int> c_cards;
  std::vector<int> a_cards;
  /// Per abstract variable: its image expression over C's variables
  /// (definition wrapped into the abstract domain).
  std::vector<gcl::Expr> img;

  AlphaCtx(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
           const gcl::AlphaSpec& spec);
};

/// `e` (over A's variables) rewritten over C's by substituting every
/// abstract variable with its image expression.
gcl::Expr alpha_subst(const AlphaCtx& ctx, const gcl::Expr& e_over_a);

/// Conjuncts of "executing concrete action `ai` is a stutter": per
/// abstract variable t, post(img_t) == img_t, with structurally
/// unchanged conjuncts pruned (an action that writes no variable of
/// img_t preserves it syntactically). Empty == trivially a stutter.
std::vector<gcl::Expr> stutter_conjuncts(const AlphaCtx& ctx, std::size_t ai);

/// Conjuncts of "executing concrete action `ai` maps to the A-edge of
/// abstract action `bi`": guard_b[alpha], changed_b[alpha], and per
/// abstract variable t, post_ai(img_t) == target_t where target_t is
/// bi's (alpha-substituted, wrapped) right-hand side, or img_t when bi
/// leaves t alone. Structurally equal pairs are pruned.
std::vector<gcl::Expr> match_conjuncts(const AlphaCtx& ctx, std::size_t ai,
                                       std::size_t bi);

/// "alpha(s) is not a deadlock of A": OR over abstract actions of
/// guard_b[alpha] && changed_b[alpha]. The stutter-cycle exemption
/// context (the checker permits infinite stuttering at an A-deadlock
/// image).
gcl::Expr not_a_deadlock_expr(const AlphaCtx& ctx);

/// guard_b[alpha] && changed_b[alpha] for one abstract action (the
/// antecedent of the per-abstract-action deadlock obligation).
gcl::Expr a_action_fires_expr(const AlphaCtx& ctx, std::size_t bi);

// --- abstract-side point evaluation (enumerated residual rows) --------

/// True iff no abstract action is enabled AND state-changing at `as`.
bool a_is_deadlock(const AlphaCtx& ctx, const StateVec& as);

/// Index of an abstract action forming the edge as -> at (enabled at
/// `as`, result == `at` != `as`), or -1.
std::ptrdiff_t find_direct_match(const AlphaCtx& ctx, const StateVec& as,
                                 const StateVec& at);

/// BFS in A's full state space for a path of length >= 1 from `as` to
/// `at`, returned as the abstract action index sequence. `exhausted`
/// (if non-null) reports whether the search covered everything
/// reachable from `as` within `max_nodes` — only then does nullopt
/// prove "no path" (the edge is Invalid, refuting the refinement).
std::optional<std::vector<std::size_t>> find_a_path(const AlphaCtx& ctx,
                                                    const StateVec& as,
                                                    const StateVec& at,
                                                    std::size_t max_nodes,
                                                    bool* exhausted);

}  // namespace cref::prover

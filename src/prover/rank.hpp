#pragma once

// Expression-level machinery of the static stabilization prover: the
// post-state substitution and Delta-expression construction that turn a
// ranking candidate rho into per-action proof obligations, and the
// unified decision procedure that discharges those obligations exactly
// (budgeted finite-domain enumeration over the obligation's FOOTPRINT
// variables, mirroring the gcl_lint passes) with a sound abstract-
// interpretation fallback above the budget.
//
// Semantics contract: post_expr models gcl::compile exactly — every
// assigned variable x is replaced by `(rhs % card)` (the Euclidean
// eval_mod is the wrap compile applies), all right-hand sides read the
// OLD state (guarded-command multiple assignment), and a variable
// assigned twice takes its LAST assignment. Because substitution leaves
// subexpressions over unwritten variables structurally unchanged,
// delta_expr's additive term cancellation collapses rho(post) - rho to
// an expression over only the variables the action actually interferes
// with — which is what keeps obligation footprints layer-local and the
// prover's cost independent of |Sigma| on DAG-layered programs.
//
// Also the one rank re-checker both validators share: the ranking
// component type of both certificate kinds, one lexicographic
// comparison across an edge, the mode-A replay of Sigma through the
// rules of refinement/positive_rules.hpp, the mode-B re-derivation of
// an action's rank site and the mode-B point check of enumerated rows.
// The provers synthesize rankings with templates.hpp; the validators
// only re-check them here, never re-running synthesis.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/space.hpp"
#include "gcl/ast.hpp"
#include "gcl/compile.hpp"
#include "refinement/positive_rules.hpp"

namespace cref::prover {

// --- expression builders (loc-free; for the prover and its tests) ----

gcl::Expr make_const(std::int64_t v);
gcl::Expr make_var(const gcl::SystemAst& ast, std::size_t var_index);
gcl::Expr make_unary(gcl::Op op, gcl::Expr a);
gcl::Expr make_binary(gcl::Op op, gcl::Expr a, gcl::Expr b);
/// Left-folded Add chain; Const 1 for an empty list (the neutral
/// element of conjunction-free truthiness, used for "no predicate").
gcl::Expr make_sum(std::vector<gcl::Expr> terms);

/// Deep structural equality (op, value, var_index, children; source
/// locations and display names ignored).
bool expr_equal(const gcl::Expr& a, const gcl::Expr& b);

/// Splits a top-level `&&` chain into its conjuncts (a non-And
/// expression is its own single conjunct).
std::vector<const gcl::Expr*> conjuncts_of(const gcl::Expr& e);

// --- post-state substitution and Delta construction ------------------

/// `e` evaluated in the post-state of `action`: every assigned variable
/// x is replaced by `(rhs % card)`, last assignment wins, unwritten
/// subtrees are returned structurally unchanged.
gcl::Expr post_expr(const gcl::Expr& e, const gcl::ActionAst& action,
                    const std::vector<int>& cards);

/// post_expr(e) - e with additive term cancellation: both sides are
/// flattened into +/- term lists and structurally equal terms of
/// opposite sign are dropped, so terms the action does not touch vanish
/// syntactically. Const 0 when everything cancels (in particular when
/// the action writes no variable of `e`).
gcl::Expr delta_expr(const gcl::Expr& e, const gcl::ActionAst& action,
                     const std::vector<int>& cards);

/// Truthy iff executing `action` changes the state: OR over assigned
/// variables of `(rhs % card) != x` (last assignment per variable).
/// Const 0 for an action with no assignments. This is the paper's
/// no-op-is-not-a-transition side condition made syntactic.
gcl::Expr changed_expr(const gcl::ActionAst& action, const std::vector<int>& cards);

// --- the decision procedure ------------------------------------------

/// How an obligation was discharged (recorded in certificates).
enum class Discharge {
  Vacuous,                 // context provably unsatisfiable
  Enumeration,             // exhaustive finite-domain enumeration
  AbstractInterpretation,  // interval x congruence transfer functions
  Table,                   // whole-Sigma enumerated residual ranking
};

const char* discharge_name(Discharge d);

struct DecideOptions {
  /// Max valuations an exhaustive check may enumerate (product of the
  /// footprint variables' cardinalities), as in gcl::AnalyzeOptions.
  std::size_t budget = std::size_t{1} << 20;
};

struct DecideOutcome {
  bool proved = false;
  Discharge method = Discharge::Enumeration;
  std::size_t valuations = 0;  // enumerated points (0 for absint)
  std::size_t dropped = 0;     // droppable context conjuncts discarded
};

/// Proves "every state (over the FULL declared domains) satisfying all
/// of `context` makes `prop` truthy". `droppable[i]` marks context
/// conjuncts the procedure may discard — discarding only enlarges the
/// quantified set, so it is a sound strengthening; the procedure keeps
/// exactly the droppable conjuncts that fit the enumeration budget
/// (those adding no footprint variables are always kept). Falls back to
/// refine_by_guard + abs_eval when even the mandatory footprint
/// overflows the budget. !proved means unknown, never refuted.
DecideOutcome decide_always(const gcl::SystemAst& ast, const gcl::Expr& prop,
                            const std::vector<const gcl::Expr*>& context,
                            const std::vector<bool>& droppable,
                            const DecideOptions& opts = {});

/// Proves the conjunction of `context` unsatisfiable (same droppable
/// semantics: an unsatisfiable subset witnesses the whole).
DecideOutcome decide_unsat(const gcl::SystemAst& ast,
                           const std::vector<const gcl::Expr*>& context,
                           const std::vector<bool>& droppable,
                           const DecideOptions& opts = {});

/// decide_always for every proposition of `props` in order, under one
/// context, stopping at the first that fails. Proved iff all are; then
/// `valuations` is their sum and `method` the last non-Vacuous method
/// (Vacuous when every one, or none, was).
DecideOutcome decide_all(const gcl::SystemAst& ast, const std::vector<gcl::Expr>& props,
                         const std::vector<const gcl::Expr*>& context,
                         const std::vector<bool>& droppable,
                         const DecideOptions& opts = {});

// --- point evaluation -------------------------------------------------

/// GCL truthiness: eval(e, s) != 0.
bool truthy(const gcl::Expr& e, const StateVec& s);

/// Mixed-radix packing matching core::Space (variable 0 least
/// significant) — the index space of table components and of both
/// validators' complete-replay modes.
struct Packing {
  std::vector<std::size_t> strides;
  std::size_t total = 1;

  explicit Packing(const std::vector<int>& cards) {
    strides.resize(cards.size());
    for (std::size_t i = 0; i < cards.size(); ++i) {
      strides[i] = total;
      total *= static_cast<std::size_t>(cards[i]);
    }
  }
  std::size_t encode(const StateVec& s) const {
    std::size_t id = 0;
    for (std::size_t i = 0; i < strides.size(); ++i)
      id += static_cast<std::size_t>(s[i]) * strides[i];
    return id;
  }
  void decode(std::size_t id, const std::vector<int>& cards, StateVec& out) const {
    out.resize(strides.size());
    for (std::size_t i = 0; i < strides.size(); ++i)
      out[i] = static_cast<Value>(id / strides[i] % static_cast<std::size_t>(cards[i]));
  }
};

// --- the rank re-checker (validators) ----------------------------------

/// One component of a lexicographic ranking — of a convergence
/// certificate, or of a refinement certificate's stutter or visible
/// tuple (those are Template only).
struct RankComponent {
  enum class Kind { Template, Table };
  Kind kind = Kind::Template;
  std::string pretty;  // display form (re-derivable for Template)
  gcl::Expr expr;      // Template: integer-valued rho over the state
  /// Table: rank per state, indexed by the mixed-radix packing
  /// id = sum_i s[i] * stride_i with stride_0 = 1 (Space's encoding).
  std::vector<std::uint32_t> table;
};

/// Lexicographic comparison of the tuple across the edge s -> t: -1 at
/// a strict decrease, +1 at an increase before any decrease, 0 when
/// every component ties. Table components are read through `pack`.
int lex_compare(const std::vector<RankComponent>& comps, const StateVec& s,
                const StateVec& t, const Packing* pack = nullptr);

/// Sets `*why` (when non-null) and returns false — the validators'
/// rejection idiom.
bool reject(std::string* why, std::string msg);

/// Mode A of both validators: every transition of Sigma (valuations in
/// packing order, moves by gcl::for_each_move) is put to the rules of
/// refinement/positive_rules.hpp. Besides the rules' questions, `view`
/// gives its image type `Image`, `image(s, out)` and
/// `message(breach, action)`, the rejection at the first breach.
template <class View>
bool replay(const gcl::SystemAst& ast, const std::vector<int>& cards, View& view,
            std::string* why) {
  StateVec s, post;
  typename View::Image u{}, v{};
  rules::Breach breach = rules::Breach::kNone;
  std::string action;  // of the breaking edge
  gcl::for_each_valuation(gcl::all_vars(cards.size()), cards, s, [&](const StateVec& sv) {
    view.image(sv, u);
    bool dead = true;
    gcl::for_each_move(ast, cards, sv, post, [&](std::size_t i, const StateVec& t) {
      dead = false;
      view.image(t, v);
      breach = rules::check_edge(view, sv, t, u, v);
      if (breach != rules::Breach::kNone) action = ast.actions[i].name;
      return breach == rules::Breach::kNone;
    });
    if (breach == rules::Breach::kNone) breach = rules::check_deadlock(view, u, dead);
    return breach == rules::Breach::kNone;
  });
  return breach == rules::Breach::kNone || reject(why, view.message(breach, action));
}

/// Mode-B re-derivation of one action's rank site: for the first
/// `count` components, Delta <= 0 — at the last one Delta < 0 when
/// `strict` — is re-decided under `context`, each earlier component's
/// tie Delta == 0 joining it as a droppable conjunct. On failure rejects
/// with "[strict ]<ranking>decrease of A at component J cannot be
/// re-established" or "<ranking>non-increase of ...", `ranking` being
/// "" or a word and a space ("stutter ").
bool recheck_rank_site(const gcl::SystemAst& ast, std::size_t action,
                       const std::vector<RankComponent>& comps, std::size_t count,
                       bool strict, const std::vector<const gcl::Expr*>& context,
                       const std::vector<bool>& droppable, const std::string& ranking,
                       const DecideOptions& opts, std::string* why);

/// Mode-B point check of enumerated rows of `action`: each row (a
/// valuation of `fp`, every other variable 0) must strictly decrease
/// the tuple across the action's step. Sound only when every
/// component's Delta reads within `fp`, which is checked first
/// (rejecting with "a <ranking>-ranking delta reads outside the
/// footprint of A"); a row without a strict decrease rejects with
/// `no_decrease`.
bool recheck_point_rows(const gcl::SystemAst& ast, std::size_t action,
                        const std::vector<RankComponent>& comps,
                        std::span<const StateVec> rows, const std::vector<std::size_t>& fp,
                        const std::string& ranking, const std::string& no_decrease,
                        std::string* why);

}  // namespace cref::prover

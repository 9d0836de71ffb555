#include "absint/lint.hpp"

#include <string>

#include "absint/closure.hpp"
#include "gcl/compile.hpp"
#include "gcl/pretty.hpp"

namespace cref::absint {

using gcl::Diagnostic;
using gcl::Rule;
using gcl::Severity;

namespace {

void collect_conjuncts(const gcl::Expr& e, std::vector<const gcl::Expr*>& out) {
  if (e.op == gcl::Op::And) {
    collect_conjuncts(e.children[0], out);
    collect_conjuncts(e.children[1], out);
  } else {
    out.push_back(&e);
  }
}

/// Guard satisfiable anywhere in the full domain product, abstractly.
bool guard_satisfiable_somewhere(const gcl::Expr& guard, const std::vector<int>& cards) {
  AbsBox box = AbsBox::top(cards);
  return refine_by_guard(box, guard, true);
}

/// Exact init-closure counterexample: a state satisfying init whose
/// post under some action does not. Enumerates the full product (the
/// caller has checked the budget).
struct ClosureViolation {
  std::string action;
  StateVec pre, post;
};

std::optional<ClosureViolation> find_exact_violation(const gcl::SystemAst& ast,
                                                     const std::vector<int>& cards) {
  std::optional<ClosureViolation> found;
  StateVec s, post;
  gcl::for_each_valuation(gcl::all_vars(cards.size()), cards, s, [&](const StateVec& sv) {
    if (gcl::eval(*ast.init, sv) == 0) return true;
    return gcl::for_each_move(ast, cards, sv, post, [&](std::size_t i, const StateVec& t) {
      if (gcl::eval(*ast.init, t) != 0) return true;
      found = ClosureViolation{ast.actions[i].name, sv, t};
      return false;
    });
  });
  return found;
}

}  // namespace

std::vector<Diagnostic> check_absint(const gcl::SystemAst& ast,
                                     const AbsintLintOptions& opts,
                                     AbsintResult* result) {
  std::vector<Diagnostic> out;
  std::vector<int> cards = gcl::cardinalities(ast);
  AbsintResult res = analyze_reachable(ast, opts.absint);
  if (result) *result = res;
  const AbsRegion& rs = res.region;
  // Unsatisfiable init has no reachable region; every per-action rule
  // would fire vacuously and only restate init-unsatisfiable.
  if (rs.is_bottom()) return out;

  // --- absint-unreachable-action / absint-guard-dead ------------------
  for (const auto& action : ast.actions) {
    bool fires_somewhere = false;
    for (const AbsBox& b : rs.boxes) {
      AbsBox pre = b;
      if (refine_by_guard(pre, action.guard, true)) {
        fires_somewhere = true;
        break;
      }
    }
    if (!fires_somewhere) {
      // Globally-dead actions are check_guards' guard-always-false.
      if (!guard_satisfiable_somewhere(action.guard, cards)) continue;
      out.push_back({Rule::AbsintUnreachableAction, Severity::Warning, action.loc,
                     "guard of action '" + action.name +
                         "' is unsatisfiable in every state reachable from init: "
                         "the action can never fire in an initialized run",
                     "the action only matters for fault recovery (runs started "
                     "outside init); if that is not intended, revisit the guard "
                     "or the init predicate"});
      continue;  // conjunct analysis over an unreachable guard is noise
    }
    std::vector<const gcl::Expr*> conjuncts;
    collect_conjuncts(action.guard, conjuncts);
    for (const gcl::Expr* c : conjuncts) {
      bool always_true = true;
      for (const AbsBox& b : rs.boxes) {
        if (!abs_eval(*c, b).surely_true()) {
          always_true = false;
          break;
        }
      }
      if (!always_true) continue;
      // A globally-tautological guard is check_guards' guard-always-true;
      // only reachability-dependent deadness is news.
      AbsBox top = AbsBox::top(cards);
      if (abs_eval(*c, top).surely_true()) continue;
      gcl::SourceLoc loc = c->loc.line ? c->loc : action.loc;
      std::string what = conjuncts.size() == 1
                             ? "guard of action '" + action.name + "'"
                             : "conjunct '" + gcl::print_expr(*c) + "' in the guard of "
                                   "action '" + action.name + "'";
      out.push_back({Rule::AbsintGuardDead, Severity::Note, loc,
                     what + " is always true in every state reachable from init",
                     "the test only matters for fault recovery; drop it if runs "
                     "always start in init"});
    }
  }

  // --- absint-var-constant --------------------------------------------
  std::vector<char> written(ast.vars.size(), 0);
  for (const auto& action : ast.actions) {
    for (const auto& asg : action.assignments) {
      if (asg.var_index < written.size()) written[asg.var_index] = 1;
    }
  }
  for (std::size_t i = 0; i < ast.vars.size(); ++i) {
    if (!written[i]) continue;  // unwritten vars are var-never-written
    bool constant = true;
    std::int64_t value = 0;
    for (std::size_t bi = 0; bi < rs.boxes.size() && constant; ++bi) {
      const AbsValue& v = rs.boxes[bi].vars[i];
      if (!v.is_constant() || (bi > 0 && v.iv.lo != value)) constant = false;
      value = v.iv.lo;
    }
    if (!constant) continue;
    out.push_back({Rule::AbsintVarConstant, Severity::Note, ast.vars[i].loc,
                   "variable '" + ast.vars[i].name + "' holds the single value " +
                       std::to_string(value) +
                       " in every state reachable from init, despite being assigned",
                   "its writers are unreachable or rewrite the same value; consider "
                   "folding it into a constant"});
  }

  // --- absint-init-not-closed -----------------------------------------
  if (ast.init) {
    const std::vector<std::size_t> all = gcl::all_vars(cards.size());
    if (gcl::valuation_count(all, cards, opts.exact_budget) <= opts.exact_budget) {
      if (auto v = find_exact_violation(ast, cards)) {
        out.push_back(
            {Rule::AbsintInitNotClosed, Severity::Warning, ast.init_loc,
             "init predicate is not closed under the actions: action '" + v->action +
                 "' leads from " + gcl::format_valuation(ast, v->pre, all) +
                 " (in init) to " + gcl::format_valuation(ast, v->post, all) +
                 " (outside init)",
             "closure of the legitimate-state predicate is the precondition of the "
             "paper's Theorems 1 and 3; widen init to an invariant if it is meant "
             "to be one"});
      }
    } else if (!make_closure_certificate(ast, *ast.init)) {
      out.push_back({Rule::AbsintInitNotClosed, Severity::Note, ast.init_loc,
                     "init predicate is not provably closed under the actions "
                     "(state space too large for the exact check; the abstract "
                     "closure proof did not go through)",
                     "this may be abstraction coarseness rather than a real leak; "
                     "raise the budget or verify closure explicitly"});
    }
  }
  return out;
}

}  // namespace cref::absint

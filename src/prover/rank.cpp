#include "prover/rank.hpp"

#include <algorithm>

#include "absint/transfer.hpp"
#include "gcl/compile.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

// --- builders ---------------------------------------------------------

gcl::Expr make_const(std::int64_t v) { return Expr::constant(v); }

gcl::Expr make_var(const gcl::SystemAst& ast, std::size_t var_index) {
  Expr e;
  e.op = Op::Var;
  e.name = ast.vars[var_index].name;
  e.var_index = var_index;
  return e;
}

gcl::Expr make_unary(gcl::Op op, gcl::Expr a) {
  Expr e;
  e.op = op;
  e.children.push_back(std::move(a));
  return e;
}

gcl::Expr make_binary(gcl::Op op, gcl::Expr a, gcl::Expr b) {
  Expr e;
  e.op = op;
  e.children.push_back(std::move(a));
  e.children.push_back(std::move(b));
  return e;
}

gcl::Expr make_sum(std::vector<gcl::Expr> terms) {
  if (terms.empty()) return make_const(1);
  Expr acc = std::move(terms.front());
  for (std::size_t i = 1; i < terms.size(); ++i)
    acc = make_binary(Op::Add, std::move(acc), std::move(terms[i]));
  return acc;
}

bool expr_equal(const gcl::Expr& a, const gcl::Expr& b) {
  if (a.op != b.op) return false;
  if (a.op == Op::Const && a.value != b.value) return false;
  if (a.op == Op::Var && a.var_index != b.var_index) return false;
  if (a.children.size() != b.children.size()) return false;
  for (std::size_t i = 0; i < a.children.size(); ++i)
    if (!expr_equal(a.children[i], b.children[i])) return false;
  return true;
}

std::vector<const gcl::Expr*> conjuncts_of(const gcl::Expr& e) {
  std::vector<const Expr*> out;
  std::vector<const Expr*> stack{&e};
  while (!stack.empty()) {
    const Expr* cur = stack.back();
    stack.pop_back();
    if (cur->op == Op::And) {
      // Push right first so conjuncts come out left-to-right.
      stack.push_back(&cur->children[1]);
      stack.push_back(&cur->children[0]);
    } else {
      out.push_back(cur);
    }
  }
  return out;
}

// --- post-state substitution -----------------------------------------

namespace {

/// Final right-hand side per assigned variable (last write wins, as in
/// gcl::compile which applies assignments in order).
std::vector<const Expr*> final_rhs(const gcl::ActionAst& action, std::size_t num_vars) {
  std::vector<const Expr*> rhs(num_vars, nullptr);
  for (const gcl::AssignmentAst& asg : action.assignments)
    if (asg.var_index < num_vars) rhs[asg.var_index] = &asg.value;
  return rhs;
}

Expr substitute(const Expr& e, const std::vector<const Expr*>& rhs,
                const std::vector<int>& cards) {
  if (e.op == Op::Var && e.var_index < rhs.size() && rhs[e.var_index]) {
    // x -> (rhs % card): exactly the wrap gcl::compile applies on write
    // (Euclidean eval_mod, so negative intermediates wrap upward too).
    return make_binary(Op::Mod, *rhs[e.var_index],
                       make_const(cards[e.var_index]));
  }
  Expr out = e;
  for (Expr& c : out.children) c = substitute(c, rhs, cards);
  return out;
}

}  // namespace

gcl::Expr post_expr(const gcl::Expr& e, const gcl::ActionAst& action,
                    const std::vector<int>& cards) {
  return substitute(e, final_rhs(action, cards.size()), cards);
}

namespace {

void flatten_terms(const Expr& e, int sign, std::int64_t& const_sum,
                   std::vector<std::pair<int, Expr>>& terms) {
  switch (e.op) {
    case Op::Add:
      flatten_terms(e.children[0], sign, const_sum, terms);
      flatten_terms(e.children[1], sign, const_sum, terms);
      return;
    case Op::Sub:
      flatten_terms(e.children[0], sign, const_sum, terms);
      flatten_terms(e.children[1], -sign, const_sum, terms);
      return;
    case Op::Neg:
      flatten_terms(e.children[0], -sign, const_sum, terms);
      return;
    case Op::Const:
      const_sum += sign * e.value;
      return;
    default:
      terms.emplace_back(sign, e);
  }
}

}  // namespace

gcl::Expr delta_expr(const gcl::Expr& e, const gcl::ActionAst& action,
                     const std::vector<int>& cards) {
  const std::size_t n = cards.size();
  // Fast path: the action writes no variable of e — Delta is 0.
  std::vector<char> used(n, 0);
  gcl::mark_footprint(e, used);
  bool touches = false;
  for (const gcl::AssignmentAst& asg : action.assignments)
    touches |= asg.var_index < n && used[asg.var_index];
  if (!touches) return make_const(0);

  std::int64_t const_sum = 0;
  std::vector<std::pair<int, Expr>> terms;
  flatten_terms(post_expr(e, action, cards), +1, const_sum, terms);
  flatten_terms(e, -1, const_sum, terms);

  // Cancel structurally equal terms of opposite sign (the terms the
  // substitution left untouched).
  std::vector<char> dropped(terms.size(), 0);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (dropped[i]) continue;
    for (std::size_t j = i + 1; j < terms.size(); ++j) {
      if (dropped[j] || terms[i].first == terms[j].first) continue;
      if (expr_equal(terms[i].second, terms[j].second)) {
        dropped[i] = dropped[j] = 1;
        break;
      }
    }
  }

  Expr acc = make_const(0);
  bool have = false;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (dropped[i]) continue;
    auto& [sign, t] = terms[i];
    if (!have) {
      acc = sign > 0 ? std::move(t) : make_unary(Op::Neg, std::move(t));
      have = true;
    } else {
      acc = make_binary(sign > 0 ? Op::Add : Op::Sub, std::move(acc), std::move(t));
    }
  }
  if (!have) return make_const(const_sum);
  if (const_sum != 0)
    acc = make_binary(const_sum > 0 ? Op::Add : Op::Sub, std::move(acc),
                      make_const(const_sum > 0 ? const_sum : -const_sum));
  return acc;
}

gcl::Expr changed_expr(const gcl::ActionAst& action, const std::vector<int>& cards) {
  const std::vector<const Expr*> rhs = final_rhs(action, cards.size());
  Expr acc = make_const(0);
  bool have = false;
  for (std::size_t v = 0; v < rhs.size(); ++v) {
    if (!rhs[v]) continue;
    Expr var;
    var.op = Op::Var;
    var.name = action.assignments.front().var;  // display only; fixed below
    var.var_index = v;
    for (const gcl::AssignmentAst& asg : action.assignments)
      if (asg.var_index == v) var.name = asg.var;
    Expr ne = make_binary(
        Op::Ne, make_binary(Op::Mod, *rhs[v], make_const(cards[v])), std::move(var));
    acc = have ? make_binary(Op::Or, std::move(acc), std::move(ne)) : std::move(ne);
    have = true;
  }
  return acc;
}

// --- decision procedure ----------------------------------------------

const char* discharge_name(Discharge d) {
  switch (d) {
    case Discharge::Vacuous:
      return "vacuous";
    case Discharge::Enumeration:
      return "enumeration";
    case Discharge::AbstractInterpretation:
      return "absint";
    case Discharge::Table:
      return "table";
  }
  return "?";
}

bool truthy(const gcl::Expr& e, const StateVec& s) { return gcl::eval(e, s) != 0; }

namespace {

/// Shared context-selection step: mandatory footprint = prop + all
/// non-droppable conjuncts; droppable conjuncts are kept when they add
/// no variables, then greedily (in order) while `grow_budget` holds
/// (0 keeps the free ones only — the minimal-first fast path).
struct Selection {
  std::vector<const Expr*> kept;
  std::vector<std::size_t> vars;  // enumeration footprint
  std::size_t count = 0;          // valuations (SIZE_MAX: over budget)
  std::size_t dropped = 0;
  bool exact = false;  // kept == full context (enumeration is definitive)
};

Selection select_context(const gcl::SystemAst& ast, const Expr* prop,
                         const std::vector<const Expr*>& context,
                         const std::vector<bool>& droppable,
                         const std::vector<int>& cards, std::size_t budget,
                         std::size_t grow_budget) {
  const std::size_t n = ast.vars.size();
  Selection sel;
  std::vector<char> used(n, 0);
  if (prop) gcl::mark_footprint(*prop, used);
  for (std::size_t i = 0; i < context.size(); ++i)
    if (i >= droppable.size() || !droppable[i]) gcl::mark_footprint(*context[i], used);

  std::vector<const Expr*> pending;  // droppable, in order
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i < droppable.size() && droppable[i])
      pending.push_back(context[i]);
    else
      sel.kept.push_back(context[i]);
  }
  // Keep droppable conjuncts that cost nothing, then grow greedily.
  std::vector<const Expr*> deferred;
  for (const Expr* e : pending) {
    std::vector<char> with = used;
    gcl::mark_footprint(*e, with);
    if (with == used)
      sel.kept.push_back(e);
    else
      deferred.push_back(e);
  }
  for (const Expr* e : deferred) {
    std::vector<char> with = used;
    gcl::mark_footprint(*e, with);
    if (gcl::valuation_count(gcl::marked_vars(with), cards, grow_budget) <= grow_budget) {
      used = std::move(with);
      sel.kept.push_back(e);
    } else {
      ++sel.dropped;
    }
  }
  sel.vars = gcl::marked_vars(used);
  sel.count = gcl::valuation_count(sel.vars, cards, budget);
  sel.exact = sel.dropped == 0;
  return sel;
}

/// Abstract-interpretation leg: refine the top box by every context
/// conjunct; bottom proves the context unsatisfiable, otherwise `prop`
/// (when given) must abstractly evaluate surely-true.
DecideOutcome absint_leg(const Expr* prop, const std::vector<const Expr*>& context,
                         const std::vector<int>& cards, std::size_t dropped) {
  absint::AbsBox box = absint::AbsBox::top(cards);
  for (const Expr* c : context) {
    if (!absint::refine_by_guard(box, *c, true))
      return {true, Discharge::Vacuous, 0, dropped};
  }
  if (!prop) return {false, Discharge::AbstractInterpretation, 0, dropped};
  const bool proved = absint::abs_eval(*prop, box).surely_true();
  return {proved, Discharge::AbstractInterpretation, 0, dropped};
}

}  // namespace

namespace {

/// One enumeration attempt over an already-selected context. Outcome
/// `proved` is definitive; !proved is only definitive when sel.exact.
DecideOutcome enumerate_always(const gcl::Expr& prop, const Selection& sel,
                               const std::vector<int>& cards) {
  StateVec state;
  bool counterexample = false;
  std::size_t witnesses = 0;
  gcl::for_each_valuation(sel.vars, cards, state, [&](const StateVec& s) {
    for (const Expr* c : sel.kept)
      if (!truthy(*c, s)) return true;
    ++witnesses;
    if (!truthy(prop, s)) {
      counterexample = true;
      return false;
    }
    return true;
  });
  if (!counterexample)
    return {true,
            witnesses == 0 && sel.exact ? Discharge::Vacuous : Discharge::Enumeration,
            sel.count, sel.dropped};
  return {false, Discharge::Enumeration, sel.count, sel.dropped};
}

}  // namespace

DecideOutcome decide_always(const gcl::SystemAst& ast, const gcl::Expr& prop,
                            const std::vector<const gcl::Expr*>& context,
                            const std::vector<bool>& droppable,
                            const DecideOptions& opts) {
  const std::vector<int> cards = gcl::cardinalities(ast);
  // Minimal context first: mandatory footprint plus the free droppable
  // conjuncts only. Most obligations (a layer-local Delta against its
  // own guard) prove here at a cost independent of |Sigma|.
  Selection sel = select_context(ast, &prop, context, droppable, cards, opts.budget,
                                 /*grow_budget=*/0);
  if (sel.count <= opts.budget) {
    const DecideOutcome out = enumerate_always(prop, sel, cards);
    if (out.proved) return out;
    // A counterexample under a WEAKENED context does not refute the full
    // obligation; with nothing dropped the enumeration was exact and the
    // obligation definitively fails.
    if (sel.exact) return {false, Discharge::Enumeration, sel.count, 0};
  }
  // Escalate: grow the kept set greedily within the budget — some
  // obligations only hold under the dropped conjuncts (e.g. strictness
  // only outside P).
  Selection full =
      select_context(ast, &prop, context, droppable, cards, opts.budget, opts.budget);
  if (full.dropped < sel.dropped && full.count <= opts.budget) {
    const DecideOutcome out = enumerate_always(prop, full, cards);
    if (out.proved) return out;
    if (full.exact) return {false, Discharge::Enumeration, full.count, 0};
    sel = std::move(full);
  }
  // Last resort: the relational-free absint leg rarely saves a failed
  // enumeration, but it sees the FULL context, so give it the chance.
  return absint_leg(&prop, context, cards, sel.dropped);
}

DecideOutcome decide_unsat(const gcl::SystemAst& ast,
                           const std::vector<const gcl::Expr*>& context,
                           const std::vector<bool>& droppable,
                           const DecideOptions& opts) {
  const std::vector<int> cards = gcl::cardinalities(ast);
  // For unsatisfiability MORE context can only help (each kept conjunct
  // constrains further), so grow greedily right away.
  Selection sel =
      select_context(ast, nullptr, context, droppable, cards, opts.budget, opts.budget);
  if (sel.count <= opts.budget) {
    StateVec state;
    bool satisfiable = false;
    gcl::for_each_valuation(sel.vars, cards, state, [&](const StateVec& s) {
      for (const Expr* c : sel.kept)
        if (!truthy(*c, s)) return true;
      satisfiable = true;
      return false;
    });
    // An unsatisfiable SUBSET witnesses the whole context unsatisfiable.
    if (!satisfiable) return {true, Discharge::Enumeration, sel.count, sel.dropped};
    // Satisfiable subset decides nothing unless it was the full context.
    if (sel.exact) return {false, Discharge::Enumeration, sel.count, 0};
  }
  DecideOutcome out = absint_leg(nullptr, context, cards, sel.dropped);
  return out.proved ? out : DecideOutcome{false, Discharge::Enumeration, sel.count,
                                          sel.dropped};
}

DecideOutcome decide_all(const gcl::SystemAst& ast, const std::vector<gcl::Expr>& props,
                         const std::vector<const gcl::Expr*>& context,
                         const std::vector<bool>& droppable, const DecideOptions& opts) {
  DecideOutcome all{true, Discharge::Vacuous, 0, 0};
  for (const Expr& prop : props) {
    const DecideOutcome r = decide_always(ast, prop, context, droppable, opts);
    if (!r.proved) return r;
    all.valuations += r.valuations;
    if (r.method != Discharge::Vacuous) all.method = r.method;
  }
  return all;
}

// --- the rank re-checker ----------------------------------------------

int lex_compare(const std::vector<RankComponent>& comps, const StateVec& s,
                const StateVec& t, const Packing* pack) {
  for (const RankComponent& c : comps) {
    const bool table = c.kind == RankComponent::Kind::Table;
    const std::int64_t v = table ? c.table[pack->encode(s)] : gcl::eval(c.expr, s);
    const std::int64_t v2 = table ? c.table[pack->encode(t)] : gcl::eval(c.expr, t);
    if (v2 < v) return -1;
    if (v2 > v) return +1;
  }
  return 0;
}

bool reject(std::string* why, std::string msg) {
  if (why) *why = std::move(msg);
  return false;
}

bool recheck_rank_site(const gcl::SystemAst& ast, std::size_t action,
                       const std::vector<RankComponent>& comps, std::size_t count,
                       bool strict, const std::vector<const gcl::Expr*>& context,
                       const std::vector<bool>& droppable, const std::string& ranking,
                       const DecideOptions& opts, std::string* why) {
  const gcl::ActionAst& a = ast.actions[action];
  const std::vector<int> cards = gcl::cardinalities(ast);
  std::vector<Expr> ties;
  for (std::size_t j = 0; j < count; ++j) {
    Expr delta = delta_expr(comps[j].expr, a, cards);
    std::vector<const Expr*> ctx = context;
    std::vector<bool> drop = droppable;
    for (const Expr& t : ties) {
      ctx.push_back(&t);
      drop.push_back(true);
    }
    const bool strict_here = strict && j + 1 == count;
    const Expr prop = make_binary(strict_here ? Op::Lt : Op::Le, delta, make_const(0));
    if (!decide_always(ast, prop, ctx, drop, opts).proved)
      return reject(why, (strict_here ? "strict " + ranking + "decrease of "
                                      : ranking + "non-increase of ") +
                             a.name + " at component " + std::to_string(j) +
                             " cannot be re-established");
    ties.push_back(make_binary(Op::Eq, std::move(delta), make_const(0)));
  }
  return true;
}

bool recheck_point_rows(const gcl::SystemAst& ast, std::size_t action,
                        const std::vector<RankComponent>& comps,
                        std::span<const StateVec> rows, const std::vector<std::size_t>& fp,
                        const std::string& ranking, const std::string& no_decrease,
                        std::string* why) {
  const gcl::ActionAst& a = ast.actions[action];
  const std::vector<int> cards = gcl::cardinalities(ast);
  for (const RankComponent& c : comps) {
    const std::vector<std::size_t> reads =
        gcl::footprint(delta_expr(c.expr, a, cards), cards.size());
    if (!std::includes(fp.begin(), fp.end(), reads.begin(), reads.end()))
      return reject(why, "a " + ranking + "-ranking delta reads outside the footprint of " +
                             a.name);
  }
  StateVec post;
  for (const StateVec& row : rows) {
    gcl::step(a, cards, row, post);
    if (lex_compare(comps, row, post) != -1) return reject(why, no_decrease);
  }
  return true;
}

}  // namespace cref::prover

#include "prover/templates.hpp"

#include <algorithm>

#include "gcl/compile.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

namespace {

constexpr std::size_t kMaxPool = 64;        // template candidates tried
constexpr std::size_t kMaxComponents = 16;  // lexicographic length cap

/// Appends a candidate unless the pool is full or an expr_equal
/// duplicate is already present.
void push_candidate(std::vector<Candidate>& pool, std::string pretty, Expr e) {
  if (pool.size() >= kMaxPool) return;
  for (const Candidate& c : pool)
    if (expr_equal(c.expr, e)) return;
  pool.push_back({std::move(pretty), std::move(e)});
}

}  // namespace

std::vector<Candidate> template_pool(const gcl::SystemAst& ast,
                                     const InterferenceGraph& ig) {
  std::vector<Candidate> pool;
  const std::size_t n = ast.vars.size();

  auto indicator = [&](const gcl::ActionAst& a) {
    return make_binary(Op::Ne, a.guard, make_const(0));
  };

  if (ig.acyclic) {
    std::vector<std::size_t> order(ast.actions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return ig.action_layer[a] < ig.action_layer[b];
    });
    for (std::size_t i : order)
      push_candidate(pool, "enabled(" + ast.actions[i].name + ")",
                     indicator(ast.actions[i]));
  }

  if (ast.actions.size() >= 2) {
    std::vector<Expr> ind;
    for (const gcl::ActionAst& a : ast.actions) ind.push_back(indicator(a));
    push_candidate(pool, "enabled-count", make_sum(std::move(ind)));
  }

  std::vector<char> written(n, 0);
  for (const gcl::ActionAst& a : ast.actions)
    for (const gcl::AssignmentAst& asg : a.assignments)
      if (asg.var_index < n) written[asg.var_index] = 1;

  std::vector<std::size_t> wvars;
  for (std::size_t v = 0; v < n; ++v)
    if (written[v]) wvars.push_back(v);
  std::stable_sort(wvars.begin(), wvars.end(), [&](std::size_t a, std::size_t b) {
    return ig.layer[a] < ig.layer[b];
  });

  if (wvars.size() >= 2) {
    std::vector<Expr> up, down;
    for (std::size_t v : wvars) {
      up.push_back(make_var(ast, v));
      down.push_back(make_binary(Op::Sub, make_const(ast.vars[v].cardinality - 1),
                                 make_var(ast, v)));
    }
    push_candidate(pool, "sum-vars", make_sum(std::move(up)));
    push_candidate(pool, "sum-complements", make_sum(std::move(down)));
  }
  for (std::size_t v : wvars) {
    push_candidate(pool, ast.vars[v].name, make_var(ast, v));
    push_candidate(pool, "complement(" + ast.vars[v].name + ")",
                   make_binary(Op::Sub, make_const(ast.vars[v].cardinality - 1),
                               make_var(ast, v)));
  }

  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v : ig.dep_out[u]) {
      const int k = ast.vars[u].cardinality;
      if (k < 2 || ast.vars[v].cardinality != k) continue;
      push_candidate(pool,
                     "(" + ast.vars[u].name + " - " + ast.vars[v].name + ") mod " +
                         std::to_string(k),
                     make_binary(Op::Mod,
                                 make_binary(Op::Sub, make_var(ast, u), make_var(ast, v)),
                                 make_const(k)));
      push_candidate(pool,
                     "(" + ast.vars[v].name + " - " + ast.vars[u].name + ") mod " +
                         std::to_string(k),
                     make_binary(Op::Mod,
                                 make_binary(Op::Sub, make_var(ast, v), make_var(ast, u)),
                                 make_const(k)));
    }
  }
  return pool;
}


LexSynthesis synthesize_ranking(const gcl::SystemAst& ast,
                                const std::vector<Candidate>& pool,
                                const std::vector<SymbolicObligation>& obligations,
                                const std::vector<PointRow>& rows,
                                const DecideOptions& opts) {
  const std::vector<int> cards = gcl::cardinalities(ast);
  LexSynthesis out;
  std::vector<std::size_t> open(obligations.size());
  for (std::size_t o = 0; o < open.size(); ++o) open[o] = o;
  std::vector<const PointRow*> open_rows;
  open_rows.reserve(rows.size());
  for (const PointRow& row : rows) open_rows.push_back(&row);
  std::vector<std::vector<Expr>> ties(obligations.size());

  // Context of obligation o: its own conjuncts, then its ties.
  auto decide = [&](std::size_t o, const Expr& prop) {
    std::vector<const Expr*> ctx = obligations[o].context;
    std::vector<bool> drop = obligations[o].droppable;
    for (const Expr& t : ties[o]) {
      ctx.push_back(&t);
      drop.push_back(true);
    }
    return decide_always(ast, prop, ctx, drop, opts);
  };
  auto strict_open = [&] {
    for (std::size_t o : open)
      if (obligations[o].strict) return true;
    return false;
  };

  for (const Candidate& cand : pool) {
    if ((!strict_open() && open_rows.empty()) || out.components.size() >= kMaxComponents)
      break;
    struct Eval {
      std::size_t obligation;
      Expr delta;
      bool strict;
      DecideOutcome outcome;
    };
    std::vector<Eval> evals;
    bool rejected = false;
    bool any_strict = false;
    for (std::size_t o : open) {
      Expr delta = delta_expr(cand.expr, ast.actions[obligations[o].action], cards);
      bool strict = false;
      DecideOutcome r;
      if (obligations[o].strict) {
        r = decide(o, make_binary(Op::Lt, delta, make_const(0)));
        strict = r.proved;
      }
      if (!strict) {
        r = decide(o, make_binary(Op::Le, delta, make_const(0)));
        if (!r.proved) {
          rejected = true;
          break;
        }
      }
      any_strict |= strict;
      evals.push_back({o, std::move(delta), strict, r});
    }
    std::vector<char> row_decreased(open_rows.size(), 0);
    for (std::size_t k = 0; k < open_rows.size() && !rejected; ++k) {
      const PointRow& row = *open_rows[k];
      const Expr delta = delta_expr(cand.expr, ast.actions[row.action], cards);
      // Point evaluation is only sound when the delta reads nothing
      // outside the row's enumeration footprint.
      const std::vector<std::size_t> reads = gcl::footprint(delta, cards.size());
      if (!std::includes(row.fp->begin(), row.fp->end(), reads.begin(), reads.end())) {
        rejected = true;
        break;
      }
      const auto d = gcl::eval(delta, *row.state);
      if (d > 0) rejected = true;
      if (d < 0) {
        row_decreased[k] = 1;
        any_strict = true;
      }
    }
    if (rejected) continue;
    if (!any_strict) {
      // A component that provably never moves for anyone adds no
      // information — require a possible decrease for some obligation
      // still owed one.
      bool useful = false;
      for (const Eval& e : evals) {
        if (!obligations[e.obligation].strict) continue;
        if (!decide(e.obligation, make_binary(Op::Eq, e.delta, make_const(0))).proved) {
          useful = true;
          break;
        }
      }
      if (!useful) continue;
    }

    const std::size_t comp = out.components.size();
    out.components.push_back({RankComponent::Kind::Template, cand.pretty, cand.expr, {}});
    std::vector<std::size_t> still_open;
    for (Eval& e : evals) {
      out.steps.push_back({e.obligation, comp, e.strict, e.outcome});
      if (e.strict) continue;
      ties[e.obligation].push_back(make_binary(Op::Eq, std::move(e.delta), make_const(0)));
      still_open.push_back(e.obligation);
    }
    open = std::move(still_open);
    std::vector<const PointRow*> still_rows;
    for (std::size_t k = 0; k < open_rows.size(); ++k)
      if (!row_decreased[k]) still_rows.push_back(open_rows[k]);
    open_rows = std::move(still_rows);
  }
  for (std::size_t o : open)
    if (obligations[o].strict) out.unranked.push_back(o);
  out.rows_left = open_rows.size();
  return out;
}

}  // namespace cref::prover

#include "prover/obligations.hpp"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "gcl/compile.hpp"
#include "prover/rank.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

ExprRange expr_range(const Expr& e, const std::vector<int>& cards) {
  auto bool_range = [] { return ExprRange{0, 1}; };
  switch (e.op) {
    case Op::Const:
      return {e.value, e.value};
    case Op::Var: {
      const int k = e.var_index < cards.size() ? cards[e.var_index] : 2;
      return {0, k - 1};
    }
    case Op::Not:
    case Op::Eq:
    case Op::Ne:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::And:
    case Op::Or:
      return bool_range();
    case Op::Neg: {
      const ExprRange r = expr_range(e.children[0], cards);
      return {-r.hi, -r.lo};
    }
    case Op::Add: {
      const ExprRange a = expr_range(e.children[0], cards);
      const ExprRange b = expr_range(e.children[1], cards);
      return {a.lo + b.lo, a.hi + b.hi};
    }
    case Op::Sub: {
      const ExprRange a = expr_range(e.children[0], cards);
      const ExprRange b = expr_range(e.children[1], cards);
      return {a.lo - b.hi, a.hi - b.lo};
    }
    case Op::Mul: {
      const ExprRange a = expr_range(e.children[0], cards);
      const ExprRange b = expr_range(e.children[1], cards);
      const std::int64_t p[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
      return {*std::min_element(p, p + 4), *std::max_element(p, p + 4)};
    }
    case Op::Mod: {
      // Euclidean: 0 <= a % b < |b| for b != 0 (eval_mod(a, 0) == 0).
      const ExprRange a = expr_range(e.children[0], cards);
      const ExprRange b = expr_range(e.children[1], cards);
      const std::int64_t mag = std::max(std::abs(b.lo), std::abs(b.hi));
      if (b.lo <= 0 && b.hi >= 0)  // divisor may be 0: a % 0 == 0, inside the range
        return {std::min<std::int64_t>(0, a.lo), std::max(a.hi, mag - 1)};
      return {0, mag - 1};
    }
    case Op::Div: {
      const ExprRange a = expr_range(e.children[0], cards);
      const std::int64_t mag = std::max(std::abs(a.lo), std::abs(a.hi));
      return {-mag, mag};
    }
  }
  return {0, 0};
}

Expr wrap_mod(Expr e, int k, const std::vector<int>& cards) {
  const ExprRange r = expr_range(e, cards);
  if (r.lo >= 0 && r.hi < k) return e;
  return make_binary(Op::Mod, std::move(e), make_const(k));
}

Expr conj(std::vector<Expr> terms) {
  if (terms.empty()) return make_const(1);
  Expr e = std::move(terms[0]);
  for (std::size_t i = 1; i < terms.size(); ++i)
    e = make_binary(Op::And, std::move(e), std::move(terms[i]));
  return e;
}

Expr disj(std::vector<Expr> terms) {
  if (terms.empty()) return make_const(0);
  Expr e = std::move(terms[0]);
  for (std::size_t i = 1; i < terms.size(); ++i)
    e = make_binary(Op::Or, std::move(e), std::move(terms[i]));
  return e;
}

AlphaCtx::AlphaCtx(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                   const gcl::AlphaSpec& spec)
    : c(c_ast), a(a_ast), alpha(spec) {
  c_cards = gcl::cardinalities(c_ast);
  a_cards = gcl::cardinalities(a_ast);
  img.resize(a_ast.vars.size(), make_const(0));
  for (const gcl::AlphaAssign& d : spec.defs)
    img[d.a_index] = wrap_mod(d.value, a_cards[d.a_index], c_cards);
}

Expr alpha_subst(const AlphaCtx& ctx, const Expr& e_over_a) {
  if (e_over_a.op == Op::Var) return ctx.img[e_over_a.var_index];
  Expr out = e_over_a;
  out.children.clear();
  for (const Expr& child : e_over_a.children)
    out.children.push_back(alpha_subst(ctx, child));
  return out;
}

std::vector<Expr> stutter_conjuncts(const AlphaCtx& ctx, std::size_t ai) {
  const gcl::ActionAst& act = ctx.c.actions[ai];
  std::vector<Expr> out;
  for (const Expr& img_t : ctx.img) {
    Expr post = post_expr(img_t, act, ctx.c_cards);
    if (expr_equal(post, img_t)) continue;  // action writes nothing of img_t
    out.push_back(make_binary(Op::Eq, std::move(post), img_t));
  }
  return out;
}

std::vector<Expr> match_conjuncts(const AlphaCtx& ctx, std::size_t ai, std::size_t bi) {
  const gcl::ActionAst& act = ctx.c.actions[ai];
  const gcl::ActionAst& b = ctx.a.actions[bi];
  std::vector<Expr> out;
  out.push_back(alpha_subst(ctx, b.guard));
  out.push_back(alpha_subst(ctx, changed_expr(b, ctx.a_cards)));
  for (std::size_t t = 0; t < ctx.img.size(); ++t) {
    // b's effect on abstract variable t, evaluated at the image (last
    // assignment wins, matching the compiler).
    const Expr* rhs = nullptr;
    for (const gcl::AssignmentAst& asg : b.assignments)
      if (asg.var_index == t) rhs = &asg.value;
    Expr target = rhs ? wrap_mod(alpha_subst(ctx, *rhs), ctx.a_cards[t], ctx.c_cards)
                      : ctx.img[t];
    Expr post = post_expr(ctx.img[t], act, ctx.c_cards);
    if (expr_equal(post, target)) continue;
    out.push_back(make_binary(Op::Eq, std::move(post), std::move(target)));
  }
  return out;
}

Expr a_action_fires_expr(const AlphaCtx& ctx, std::size_t bi) {
  return make_binary(Op::And, alpha_subst(ctx, ctx.a.actions[bi].guard),
                     alpha_subst(ctx, changed_expr(ctx.a.actions[bi], ctx.a_cards)));
}

Expr not_a_deadlock_expr(const AlphaCtx& ctx) {
  std::vector<Expr> fires;
  for (std::size_t bi = 0; bi < ctx.a.actions.size(); ++bi)
    fires.push_back(a_action_fires_expr(ctx, bi));
  return disj(std::move(fires));
}

bool a_is_deadlock(const AlphaCtx& ctx, const StateVec& as) {
  StateVec post;
  for (const gcl::ActionAst& b : ctx.a.actions) {
    if (gcl::eval(b.guard, as) == 0) continue;
    apply_action_state(b, ctx.a_cards, as, post);
    if (post != as) return false;
  }
  return true;
}

std::ptrdiff_t find_direct_match(const AlphaCtx& ctx, const StateVec& as,
                                 const StateVec& at) {
  StateVec post;
  for (std::size_t bi = 0; bi < ctx.a.actions.size(); ++bi) {
    if (gcl::eval(ctx.a.actions[bi].guard, as) == 0) continue;
    apply_action_state(ctx.a.actions[bi], ctx.a_cards, as, post);
    if (post != as && post == at) return static_cast<std::ptrdiff_t>(bi);
  }
  return -1;
}

std::optional<std::vector<std::size_t>> find_a_path(const AlphaCtx& ctx,
                                                    const StateVec& as,
                                                    const StateVec& at,
                                                    std::size_t max_nodes,
                                                    bool* exhausted) {
  if (exhausted) *exhausted = true;
  const Packing pack(ctx.a_cards);

  // Parent links for path reconstruction: visited id -> (parent id,
  // action). The start state is re-enterable (a length >= 1 cycle back
  // to it is a valid path), so it is NOT pre-marked visited.
  std::unordered_set<std::size_t> visited;
  std::vector<std::size_t> order;        // visit order (= BFS queue)
  std::vector<std::ptrdiff_t> parent;    // index into `order`, -1 for roots
  std::vector<std::size_t> via;          // action taken into this node

  StateVec cur, post;
  const std::size_t target = pack.encode(at);
  std::size_t head = 0;

  auto expand = [&](const StateVec& s, std::ptrdiff_t from)
      -> std::optional<std::size_t> {
    for (std::size_t bi = 0; bi < ctx.a.actions.size(); ++bi) {
      if (gcl::eval(ctx.a.actions[bi].guard, s) == 0) continue;
      apply_action_state(ctx.a.actions[bi], ctx.a_cards, s, post);
      if (post == s) continue;
      const std::size_t id = pack.encode(post);
      if (id == target) {
        order.push_back(id);
        parent.push_back(from);
        via.push_back(bi);
        return order.size() - 1;
      }
      if (visited.insert(id).second) {
        order.push_back(id);
        parent.push_back(from);
        via.push_back(bi);
      }
    }
    return std::nullopt;
  };

  if (auto hit = expand(as, -1)) {
    std::vector<std::size_t> path;
    for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(*hit); i >= 0; i = parent[i])
      path.push_back(via[i]);
    std::reverse(path.begin(), path.end());
    return path;
  }
  while (head < order.size()) {
    if (order.size() > max_nodes) {
      if (exhausted) *exhausted = false;
      return std::nullopt;
    }
    const std::size_t idx = head++;
    pack.decode(order[idx], ctx.a_cards, cur);
    if (auto hit = expand(cur, static_cast<std::ptrdiff_t>(idx))) {
      std::vector<std::size_t> path;
      for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(*hit); i >= 0; i = parent[i])
        path.push_back(via[i]);
      std::reverse(path.begin(), path.end());
      return path;
    }
  }
  return std::nullopt;
}

}  // namespace cref::prover

#include "absint/transfer.hpp"

namespace cref::absint {

using gcl::Expr;
using gcl::Op;

std::vector<std::string> names_of(const gcl::SystemAst& ast) {
  std::vector<std::string> names;
  names.reserve(ast.vars.size());
  for (const auto& v : ast.vars) names.push_back(v.name);
  return names;
}

AbsValue abs_eval(const Expr& e, const AbsBox& box) {
  if (box.is_bottom()) return AbsValue::bottom();
  auto child = [&](std::size_t i) { return abs_eval(e.children[i], box); };
  switch (e.op) {
    case Op::Const: return AbsValue::constant(e.value);
    case Op::Var: return box.vars[e.var_index];
    case Op::Not: {
      AbsValue a = child(0);
      if (a.is_bottom()) return AbsValue::bottom();
      if (a.surely_false()) return AbsValue::constant(1);
      if (a.surely_true()) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
    case Op::Neg: return abs_neg(child(0));
    case Op::Add: return abs_add(child(0), child(1));
    case Op::Sub: return abs_sub(child(0), child(1));
    case Op::Mul: return abs_mul(child(0), child(1));
    case Op::Mod: return abs_mod(child(0), child(1));
    case Op::Div: return abs_div(child(0), child(1));
    case Op::Eq: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.is_constant() && b.is_constant())
        return AbsValue::constant(a.iv.lo == b.iv.lo ? 1 : 0);
      if (AbsValue::meet(a, b).is_bottom()) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
    case Op::Ne: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.is_constant() && b.is_constant())
        return AbsValue::constant(a.iv.lo != b.iv.lo ? 1 : 0);
      if (AbsValue::meet(a, b).is_bottom()) return AbsValue::constant(1);
      return AbsValue::boolean();
    }
    case Op::Lt: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.iv.hi < b.iv.lo) return AbsValue::constant(1);
      if (a.iv.lo >= b.iv.hi) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
    case Op::Le: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.iv.hi <= b.iv.lo) return AbsValue::constant(1);
      if (a.iv.lo > b.iv.hi) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
    case Op::Gt: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.iv.lo > b.iv.hi) return AbsValue::constant(1);
      if (a.iv.hi <= b.iv.lo) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
    case Op::Ge: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.iv.lo >= b.iv.hi) return AbsValue::constant(1);
      if (a.iv.hi < b.iv.lo) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
    case Op::And: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.surely_false() || b.surely_false()) return AbsValue::constant(0);
      if (a.surely_true() && b.surely_true()) return AbsValue::constant(1);
      return AbsValue::boolean();
    }
    case Op::Or: {
      AbsValue a = child(0), b = child(1);
      if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
      if (a.surely_true() || b.surely_true()) return AbsValue::constant(1);
      if (a.surely_false() && b.surely_false()) return AbsValue::constant(0);
      return AbsValue::boolean();
    }
  }
  return AbsValue::boolean();
}

namespace {

/// The relation `rel` holds under negation-normalization: !(a < b) is
/// (a >= b), and so on. Only called with comparison operators.
Op negate_rel(Op rel) {
  switch (rel) {
    case Op::Eq: return Op::Ne;
    case Op::Ne: return Op::Eq;
    case Op::Lt: return Op::Ge;
    case Op::Le: return Op::Gt;
    case Op::Gt: return Op::Le;
    case Op::Ge: return Op::Lt;
    default: return rel;
  }
}

bool is_comparison(Op op) {
  switch (op) {
    case Op::Eq:
    case Op::Ne:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
      return true;
    default:
      return false;
  }
}

/// Shaves `c` off `v` when it sits on an interval endpoint (interior
/// points cannot be carved out of a convex interval).
AbsValue exclude_point(const AbsValue& v, std::int64_t c) {
  if (!v.contains(c)) return v;
  if (v.iv.lo == c) return AbsValue::meet(v, AbsValue::range(sat_add(c, 1), kInf));
  if (v.iv.hi == c) return AbsValue::meet(v, AbsValue::range(-kInf, sat_sub(c, 1)));
  return v;
}

/// Refines box by `lhs rel rhs`. Narrowed values are written back only
/// when a side is a bare variable reference; anything deeper keeps the
/// box unchanged (sound — refinement only ever shrinks).
bool refine_cmp(AbsBox& box, const Expr& lhs, const Expr& rhs, Op rel) {
  AbsValue va = abs_eval(lhs, box);
  AbsValue vb = abs_eval(rhs, box);
  if (va.is_bottom() || vb.is_bottom()) return false;
  AbsValue na = va, nb = vb;
  switch (rel) {
    case Op::Eq:
      na = nb = AbsValue::meet(va, vb);
      break;
    case Op::Ne:
      if (va.is_constant() && vb.is_constant() && va.iv.lo == vb.iv.lo) return false;
      if (vb.is_constant()) na = exclude_point(va, vb.iv.lo);
      if (va.is_constant()) nb = exclude_point(vb, va.iv.lo);
      break;
    case Op::Lt:
      na = AbsValue::meet(va, AbsValue::range(-kInf, sat_sub(vb.iv.hi, 1)));
      nb = AbsValue::meet(vb, AbsValue::range(sat_add(va.iv.lo, 1), kInf));
      break;
    case Op::Le:
      na = AbsValue::meet(va, AbsValue::range(-kInf, vb.iv.hi));
      nb = AbsValue::meet(vb, AbsValue::range(va.iv.lo, kInf));
      break;
    case Op::Gt:
      na = AbsValue::meet(va, AbsValue::range(sat_add(vb.iv.lo, 1), kInf));
      nb = AbsValue::meet(vb, AbsValue::range(-kInf, sat_sub(va.iv.hi, 1)));
      break;
    case Op::Ge:
      na = AbsValue::meet(va, AbsValue::range(vb.iv.lo, kInf));
      nb = AbsValue::meet(vb, AbsValue::range(-kInf, va.iv.hi));
      break;
    default:
      return true;
  }
  if (na.is_bottom() || nb.is_bottom()) return false;
  if (lhs.op == Op::Var) box.vars[lhs.var_index] = na;
  if (rhs.op == Op::Var) box.vars[rhs.var_index] = nb;
  return !box.is_bottom();
}

}  // namespace

bool refine_by_guard(AbsBox& box, const Expr& e, bool truth) {
  AbsValue v = abs_eval(e, box);
  if (v.is_bottom()) return false;
  if (truth && v.surely_false()) return false;
  if (!truth && v.surely_true()) return false;
  switch (e.op) {
    case Op::Not:
      return refine_by_guard(box, e.children[0], !truth);
    case Op::And:
    case Op::Or: {
      // `a && b` under truth (dually `a || b` under falsity) constrains
      // both conjuncts; the other polarity is a disjunction of the two
      // branch refinements, folded back into one box by join.
      bool conjunctive = (e.op == Op::And) == truth;
      if (conjunctive) {
        return refine_by_guard(box, e.children[0], truth) &&
               refine_by_guard(box, e.children[1], truth);
      }
      AbsBox left = box, right = box;
      bool ok_left = refine_by_guard(left, e.children[0], truth);
      bool ok_right = refine_by_guard(right, e.children[1], truth);
      if (!ok_left && !ok_right) return false;
      if (ok_left && ok_right) {
        box = AbsBox::join(left, right);
      } else {
        box = ok_left ? left : right;
      }
      return true;
    }
    case Op::Var: {
      // A bare variable as a guard: truthy excludes 0, falsy pins to 0.
      AbsValue& slot = box.vars[e.var_index];
      slot = truth ? exclude_point(slot, 0)
                   : AbsValue::meet(slot, AbsValue::constant(0));
      return !slot.is_bottom();
    }
    default:
      if (is_comparison(e.op)) {
        Op rel = truth ? e.op : negate_rel(e.op);
        return refine_cmp(box, e.children[0], e.children[1], rel);
      }
      // Const was decided by the surely_* cut; arithmetic guards carry
      // no cheap refinement.
      return true;
  }
}

std::optional<AbsBox> apply_action(const AbsBox& box, const gcl::ActionAst& action,
                                   const std::vector<int>& cards) {
  AbsBox pre = box;
  if (pre.is_bottom() || !refine_by_guard(pre, action.guard, true)) {
    return std::nullopt;
  }
  // Multiple assignment: all right-hand sides see the pre-state.
  std::vector<AbsValue> values;
  values.reserve(action.assignments.size());
  for (const auto& asg : action.assignments) {
    values.push_back(abs_eval(asg.value, pre));
  }
  AbsBox post = pre;
  for (std::size_t i = 0; i < action.assignments.size(); ++i) {
    std::size_t tgt = action.assignments[i].var_index;
    post.vars[tgt] =
        abs_mod(values[i], AbsValue::constant(cards[tgt]));  // compile.cpp wrap
  }
  if (post.is_bottom()) return std::nullopt;
  return post;
}

}  // namespace cref::absint

#include "gcl/compile.hpp"

#include <limits>
#include <memory>

#include "gcl/parser.hpp"

namespace cref::gcl {

std::int64_t eval_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  std::int64_t r = a % b;
  return r < 0 ? r + (b > 0 ? b : -b) : r;
}

std::int64_t eval_div(std::int64_t a, std::int64_t b) {
  // Euclidean: (a - eval_mod(a, b)) is an exact multiple of b, so the
  // pair satisfies a == eval_div(a,b)*b + eval_mod(a,b) for every b != 0.
  if (b == 0) return 0;
  return (a - eval_mod(a, b)) / b;
}

std::int64_t eval(const Expr& e, const StateVec& s) {
  switch (e.op) {
    case Op::Const: return e.value;
    case Op::Var: return static_cast<std::int64_t>(s[e.var_index]);
    case Op::Not: return eval(e.children[0], s) == 0 ? 1 : 0;
    case Op::Neg: return -eval(e.children[0], s);
    case Op::Add: return eval(e.children[0], s) + eval(e.children[1], s);
    case Op::Sub: return eval(e.children[0], s) - eval(e.children[1], s);
    case Op::Mul: return eval(e.children[0], s) * eval(e.children[1], s);
    case Op::Mod:
      return eval_mod(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Div:
      return eval_div(eval(e.children[0], s), eval(e.children[1], s));
    case Op::Eq: return eval(e.children[0], s) == eval(e.children[1], s);
    case Op::Ne: return eval(e.children[0], s) != eval(e.children[1], s);
    case Op::Lt: return eval(e.children[0], s) < eval(e.children[1], s);
    case Op::Le: return eval(e.children[0], s) <= eval(e.children[1], s);
    case Op::Gt: return eval(e.children[0], s) > eval(e.children[1], s);
    case Op::Ge: return eval(e.children[0], s) >= eval(e.children[1], s);
    case Op::And:
      return eval(e.children[0], s) != 0 && eval(e.children[1], s) != 0;
    case Op::Or:
      return eval(e.children[0], s) != 0 || eval(e.children[1], s) != 0;
  }
  return 0;
}

std::vector<int> cardinalities(const SystemAst& ast) {
  std::vector<int> cards;
  cards.reserve(ast.vars.size());
  for (const VarDeclAst& v : ast.vars) cards.push_back(v.cardinality);
  return cards;
}

void mark_footprint(const Expr& e, std::vector<char>& used) {
  if (e.op == Op::Var && e.var_index < used.size()) used[e.var_index] = 1;
  for (const Expr& c : e.children) mark_footprint(c, used);
}

std::vector<std::size_t> marked_vars(const std::vector<char>& used) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < used.size(); ++i)
    if (used[i]) out.push_back(i);
  return out;
}

std::vector<std::size_t> footprint(const Expr& e, std::size_t num_vars) {
  std::vector<char> used(num_vars, 0);
  mark_footprint(e, used);
  return marked_vars(used);
}

std::vector<std::size_t> all_vars(std::size_t n) {
  std::vector<std::size_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

std::size_t valuation_count(const std::vector<std::size_t>& vars,
                            const std::vector<int>& cards, std::size_t cap) {
  std::size_t count = 1;
  for (std::size_t v : vars) {
    const auto card = static_cast<std::size_t>(cards[v]);
    if (card == 0) return 0;
    if (count > cap / card) return std::numeric_limits<std::size_t>::max();
    count *= card;
  }
  return count;
}

void step(const ActionAst& action, const std::vector<int>& cards, const StateVec& s,
          StateVec& out) {
  out = s;
  for (const AssignmentAst& asg : action.assignments) {
    if (asg.var_index >= out.size()) continue;
    out[asg.var_index] =
        static_cast<Value>(eval_mod(eval(asg.value, s), cards[asg.var_index]));
  }
}

std::string format_valuation(const SystemAst& ast, const StateVec& s,
                             const std::vector<std::size_t>& vars) {
  std::string out;
  for (std::size_t v : vars) {
    if (!out.empty()) out += ", ";
    out += ast.vars[v].name + "=" + std::to_string(s[v]);
  }
  return out;
}

System compile(const SystemAst& ast) {
  std::vector<VarSpec> vars;
  vars.reserve(ast.vars.size());
  for (const VarDeclAst& v : ast.vars)
    vars.push_back({v.name, static_cast<Value>(v.cardinality)});
  const std::vector<int> cards = cardinalities(ast);
  auto space = std::make_shared<Space>(std::move(vars));

  std::vector<Action> actions;
  for (const ActionAst& a : ast.actions) {
    Action action;
    action.name = a.name;
    action.process = a.process;
    // Share the AST between guard and effect closures.
    auto guard_ast = std::make_shared<Expr>(a.guard);
    auto assigns = std::make_shared<std::vector<AssignmentAst>>(a.assignments);
    auto cards_ptr = std::make_shared<std::vector<int>>(cards);
    action.guard = [guard_ast](const StateVec& s) { return eval(*guard_ast, s) != 0; };
    action.effect = [assigns, cards_ptr](StateVec& s) {
      // Guarded-command multiple assignment: all right-hand sides are
      // evaluated against the old state first.
      std::vector<std::int64_t> values;
      values.reserve(assigns->size());
      for (const AssignmentAst& asg : *assigns) values.push_back(eval(asg.value, s));
      for (std::size_t i = 0; i < assigns->size(); ++i) {
        std::int64_t card = (*cards_ptr)[(*assigns)[i].var_index];
        std::int64_t v = values[i] % card;
        if (v < 0) v += card;
        s[(*assigns)[i].var_index] = static_cast<Value>(v);
      }
    };
    actions.push_back(std::move(action));
  }

  std::optional<StatePredicate> init;
  if (ast.init) {
    auto init_ast = std::make_shared<Expr>(*ast.init);
    init = [init_ast](const StateVec& s) { return eval(*init_ast, s) != 0; };
  }
  return System(ast.name, std::move(space), std::move(actions), std::move(init));
}

System load_system(const std::string& source) { return compile(parse(source)); }

}  // namespace cref::gcl

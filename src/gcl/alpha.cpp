#include "gcl/alpha.hpp"

#include <sstream>
#include <stdexcept>

#include "gcl/compile.hpp"
#include "gcl/pretty.hpp"

namespace cref::gcl {

AlphaSpec identity_alpha(const SystemAst& c_ast, const SystemAst& a_ast) {
  AlphaSpec spec;
  spec.name = "identity";
  for (std::size_t j = 0; j < a_ast.vars.size(); ++j) {
    std::size_t ci = c_ast.vars.size();
    for (std::size_t i = 0; i < c_ast.vars.size(); ++i)
      if (c_ast.vars[i].name == a_ast.vars[j].name) {
        ci = i;
        break;
      }
    if (ci == c_ast.vars.size())
      throw std::runtime_error("alpha: identity map undefined — concrete system '" +
                               c_ast.name + "' has no variable '" + a_ast.vars[j].name +
                               "'");
    AlphaAssign def;
    def.var = a_ast.vars[j].name;
    def.a_index = j;
    Expr v;
    v.op = Op::Var;
    v.name = c_ast.vars[ci].name;
    v.var_index = ci;
    def.value = std::move(v);
    spec.defs.push_back(std::move(def));
  }
  return spec;
}

std::string print_alpha(const AlphaSpec& spec) {
  std::ostringstream out;
  out << "alpha " << spec.name << " {\n";
  for (const AlphaAssign& d : spec.defs)
    out << "  " << d.var << " := " << print_expr(d.value) << ";\n";
  if (spec.invariant)
    out << "  invariant : " << print_expr(*spec.invariant) << ";\n";
  out << "}\n";
  return out.str();
}

void alpha_image(const AlphaSpec& spec, const SystemAst& a_ast, const StateVec& s,
                 StateVec& out) {
  out.assign(a_ast.vars.size(), 0);
  for (const AlphaAssign& d : spec.defs)
    out[d.a_index] = static_cast<Value>(
        eval_mod(eval(d.value, s), a_ast.vars[d.a_index].cardinality));
}

}  // namespace cref::gcl

#pragma once

// Syntactic abstraction maps (the alpha of [C curlypreceq A]) as a GCL
// AST form: each abstract variable is defined by an expression over the
// CONCRETE program's variables, plus an optional invariant restricting
// where the map is meant to be applied (the static refinement prover
// must re-establish the invariant inductively before relying on it).
//
//   alpha privilege_image {
//     t0 := c0 == c3;
//     t1 := c1 != c0;
//     invariant : (c0 == c3) + (c1 != c0) == 1;
//   }
//
// Every abstract variable must be defined exactly once; the value is
// reduced into the abstract domain with the same Euclidean eval_mod the
// compiler applies to assignments, so alpha_image is total on Sigma_C.
//
// The text is read by the system grammar of parser.hpp — its
// expressions, `true`/`false` and depth bound included — with right-hand
// sides resolved over the concrete program's variables and left-hand
// sides over the abstract one's; errors read "alpha: line L:C: ...".

#include <memory>
#include <string>
#include <vector>

#include "core/space.hpp"
#include "gcl/ast.hpp"

namespace cref::gcl {

/// `avar := expr;` — one abstract-variable definition. `value` is
/// resolved over the concrete program's variables.
struct AlphaAssign {
  std::string var;
  std::size_t a_index = 0;  // index into the abstract program's vars
  Expr value;
  SourceLoc loc;  // the abstract variable token
};

/// A whole `alpha NAME { ... }` declaration.
struct AlphaSpec {
  std::string name;
  std::vector<AlphaAssign> defs;  // exactly one per abstract variable
  std::unique_ptr<Expr> invariant;  // over concrete vars; null if absent
  SourceLoc invariant_loc;

  AlphaSpec() = default;
  AlphaSpec(AlphaSpec&&) = default;
  AlphaSpec& operator=(AlphaSpec&&) = default;
  AlphaSpec(const AlphaSpec& o) { *this = o; }
  AlphaSpec& operator=(const AlphaSpec& o) {
    name = o.name;
    defs = o.defs;
    invariant = o.invariant ? std::make_unique<Expr>(*o.invariant) : nullptr;
    invariant_loc = o.invariant_loc;
    return *this;
  }
};

/// Parses an alpha spec, resolving right-hand sides over `c_ast`'s
/// variables and left-hand sides over `a_ast`'s. Requires every
/// abstract variable to be defined exactly once and at most one
/// invariant clause. Throws std::runtime_error with an
/// "alpha: line L:C: ..." message on any violation.
AlphaSpec parse_alpha(const std::string& source, const SystemAst& c_ast,
                      const SystemAst& a_ast);

/// The by-name identity map: every abstract variable must exist in
/// `c_ast` under the same name with cardinality >= the abstract one is
/// NOT required — the image is reduced mod the abstract cardinality —
/// but the name must resolve. Throws std::runtime_error when it
/// cannot.
AlphaSpec identity_alpha(const SystemAst& c_ast, const SystemAst& a_ast);

/// Re-parseable rendering of the spec (concrete variable names from the
/// expressions' display names).
std::string print_alpha(const AlphaSpec& spec);

/// Image of concrete state `s` under the map: per definition,
/// eval(value, s) reduced with eval_mod into the abstract domain.
/// `out` is resized to the abstract variable count.
void alpha_image(const AlphaSpec& spec, const SystemAst& a_ast, const StateVec& s,
                 StateVec& out);

/// Parses one expression over `ast`'s variables (refinement
/// certificates store their expressions as re-parseable GCL text).
/// Throws std::runtime_error on any syntax or resolution error, an
/// expression deeper than kMaxExprDepth included.
Expr parse_expr_over(const std::string& text, const SystemAst& ast);

}  // namespace cref::gcl

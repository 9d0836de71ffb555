#pragma once

// Recursive-descent parser for the guarded-command language. Grammar:
//
//   file    := "system" IDENT "{" decl* "}"
//   decl    := "var" IDENT ":" ("bool" | NUMBER ".." NUMBER) ";"
//            | "action" IDENT ["@" NUMBER] ":" expr "->" assigns ";"
//            | "init" ":" expr ";"
//   assigns := IDENT ":=" expr ("," IDENT ":=" expr)*
//   expr    := or-expression with C precedence:
//              ||  <  &&  <  == != < <= > >=  <  + -  <  * % /  <  ! - (unary)
//
// Variable domains must start at 0 ("0..k"); `bool` is sugar for 0..1.
// Variables must be declared before use; every name resolves to its
// declaration index; `true` and `false` are the constants 1 and 0.
// Comments run from '#' or '//' to end of line.
//
// The same grammar reads every GCL text form: alpha maps and the
// expressions stored in refinement certificates (alpha.hpp) use this
// expression grammar, resolved over a given program's variables.
// Expression depth is bounded: parentheses, unary operators and the
// operator tree together nest at most kMaxExprDepth levels, so no input
// can exhaust the stack of the parser or of the recursive walks over
// the tree (eval, hashing, the destructor).
//
// Example (Dijkstra's 3-state ring, n = 2):
//
//   system dijkstra3 {
//     var c0 : 0..2;  var c1 : 0..2;  var c2 : 0..2;
//     action top    @2 : c1 == c0 && (c1 + 1) % 3 != c2 -> c2 := (c1 + 1) % 3;
//     action bottom @0 : c1 == (c0 + 1) % 3            -> c0 := (c1 + 1) % 3;
//     action up1    @1 : c0 == (c1 + 1) % 3            -> c1 := c0;
//     action down1  @1 : c2 == (c1 + 1) % 3            -> c1 := c2;
//     init : c0 == 1 && c1 == 0 && c2 == 0;
//   }

#include <string>

#include "gcl/ast.hpp"

namespace cref::gcl {

/// Deepest expression the grammar accepts: an expression nested deeper
/// (counting open parentheses, unary operators and operator-tree levels)
/// is a "line L:C" parse error at the token that crosses the bound.
inline constexpr int kMaxExprDepth = 256;

/// Parses a GCL source text into an AST. Throws std::runtime_error with
/// a "line L:C" source position on any lexical, syntactic, or resolution
/// error (unknown variable, duplicate declaration, non-zero domain base,
/// empty or out-of-range domain, an expression deeper than
/// kMaxExprDepth, ...). Every AST node carries its
/// SourceLoc so downstream diagnostics (see analyze.hpp) can point at
/// the offending token.
SystemAst parse(const std::string& source);

}  // namespace cref::gcl

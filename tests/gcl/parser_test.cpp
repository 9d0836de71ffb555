#include "gcl/parser.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "gcl/alpha.hpp"

namespace cref::gcl {
namespace {

constexpr const char* kTiny = R"(
system tiny {
  var x : 0..2;
  var b : bool;
  action flip @0 : x == 2 && !b -> b := 1, x := 0;
  init : x == 0;
}
)";

TEST(ParserTest, ParsesDeclarations) {
  SystemAst ast = parse(kTiny);
  EXPECT_EQ(ast.name, "tiny");
  ASSERT_EQ(ast.vars.size(), 2u);
  EXPECT_EQ(ast.vars[0].name, "x");
  EXPECT_EQ(ast.vars[0].cardinality, 3);
  EXPECT_EQ(ast.vars[1].cardinality, 2);
  ASSERT_EQ(ast.actions.size(), 1u);
  EXPECT_EQ(ast.actions[0].name, "flip");
  EXPECT_EQ(ast.actions[0].process, 0);
  EXPECT_EQ(ast.actions[0].assignments.size(), 2u);
  EXPECT_EQ(ast.actions[0].assignments[0].var, "b");
  ASSERT_TRUE(ast.init != nullptr);
}

TEST(ParserTest, ResolvesVariableIndices) {
  SystemAst ast = parse(kTiny);
  // The guard is (x == 2) && (!b); walk to the var nodes.
  const Expr& guard = ast.actions[0].guard;
  ASSERT_EQ(guard.op, Op::And);
  EXPECT_EQ(guard.children[0].children[0].op, Op::Var);
  EXPECT_EQ(guard.children[0].children[0].var_index, 0u);
  EXPECT_EQ(guard.children[1].children[0].var_index, 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  SystemAst ast = parse(
      "system p { var a : 0..9; action t : a + 2 * 3 == 7 -> a := a; }");
  const Expr& guard = ast.actions[0].guard;
  ASSERT_EQ(guard.op, Op::Eq);
  ASSERT_EQ(guard.children[0].op, Op::Add);
  EXPECT_EQ(guard.children[0].children[1].op, Op::Mul);
}

TEST(ParserTest, ActionsWithoutProcessDefaultToMinusOne) {
  SystemAst ast = parse("system p { var a : bool; action t : a -> a := 0; }");
  EXPECT_EQ(ast.actions[0].process, -1);
}

TEST(ParserTest, MissingInitIsAllowed) {
  SystemAst ast = parse("system w { var a : bool; action t : a -> a := 0; }");
  EXPECT_TRUE(ast.init == nullptr);
}

TEST(ParserTest, Errors) {
  // unknown variable
  EXPECT_THROW(parse("system p { var a : bool; action t : z == 0 -> a := 1; }"),
               std::runtime_error);
  // duplicate variable
  EXPECT_THROW(parse("system p { var a : bool; var a : bool; }"), std::runtime_error);
  // domain must start at 0
  EXPECT_THROW(parse("system p { var a : 1..3; }"), std::runtime_error);
  // duplicate init
  EXPECT_THROW(parse("system p { var a : bool; init : a; init : !a; }"),
               std::runtime_error);
  // missing semicolon
  EXPECT_THROW(parse("system p { var a : bool }"), std::runtime_error);
  // garbage after the system
  EXPECT_THROW(parse("system p { } trailing"), std::runtime_error);
}

// Expects parse(src) to throw and the message to contain every needle.
void expect_parse_error(const std::string& src,
                        std::initializer_list<const char*> needles) {
  try {
    parse(src);
    FAIL() << "expected throw for: " << src;
  } catch (const std::runtime_error& e) {
    for (const char* needle : needles)
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << e.what();
  }
}

TEST(ParserTest, DomainDeclarationsAreValidatedAtParseTime) {
  // cardinality 0
  expect_parse_error("system p {\n  var a : 0..-1;\n}",
                     {"line 2:14", "empty domain 0..-1", "cardinality 0"});
  // negative cardinality
  expect_parse_error("system p { var a : 0..-3; }", {"empty domain 0..-3"});
  // negative base
  expect_parse_error("system p {\n  var a : -1..3;\n}",
                     {"line 2:11", "must start at 0", "-1"});
  // beyond the Value range
  expect_parse_error("system p { var a : 0..300; }",
                     {"out of range (0..254), got 300"});
  // 0..0 is a legal singleton domain
  EXPECT_EQ(parse("system p { var a : 0..0; }").vars[0].cardinality, 1);
}

TEST(ParserTest, ErrorMessagesNameTheLine) {
  try {
    parse("system p {\n var a : bool;\n action t : q -> a := 1;\n}");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown variable 'q'"), std::string::npos);
  }
}

TEST(ParserTest, ErrorMessagesNameLineAndColumn) {
  // unknown variable 'q' at line 3, column 13
  expect_parse_error("system p {\n var a : bool;\n action t : q -> a := 1;\n}",
                     {"line 3:13", "unknown variable 'q'"});
  // unterminated ':=' (assignment with no right-hand side)
  expect_parse_error("system p {\n var a : bool;\n action t : a -> a := ;\n}",
                     {"line 3:23", "expected an expression, found ';'"});
  // unexpected token where a declaration must start, at its column
  expect_parse_error("system p {\n  37\n}", {"line 2:3", "expected 'var'"});
  // duplicate variable points at the redeclaration
  expect_parse_error("system p {\n  var a : bool;\n  var a : bool;\n}",
                     {"line 3:7", "duplicate variable 'a'"});
}

TEST(ParserTest, AstNodesCarrySourceLocations) {
  SystemAst ast = parse(kTiny);  // kTiny starts with a leading newline
  EXPECT_EQ(ast.vars[0].loc.line, 3);
  EXPECT_EQ(ast.vars[0].loc.column, 7);
  EXPECT_EQ(ast.actions[0].loc.line, 5);
  EXPECT_EQ(ast.actions[0].loc.column, 10);
  EXPECT_EQ(ast.actions[0].assignments[0].loc.line, 5);
  EXPECT_EQ(ast.init_loc.line, 6);
  EXPECT_EQ(ast.init_loc.column, 3);
  // The guard `x == 2 && !b`: the And operator carries its own position.
  EXPECT_GT(ast.actions[0].guard.loc.column, 0);
  EXPECT_EQ(ast.actions[0].guard.children[0].children[0].loc.line, 5);
}

TEST(ParserTest, TrueFalseLiterals) {
  SystemAst ast =
      parse("system p { var a : bool; action t : true && !false -> a := 1; }");
  EXPECT_EQ(ast.actions[0].guard.op, Op::And);
}

// A system whose one guard is `expr == 0`; the expression starts at
// line 3, column 14.
std::string with_guard(const std::string& expr) {
  return "system p {\n  var x : 0..3;\n  action t : " + expr + " == 0 -> x := 0;\n}\n";
}

std::string nested_parens(int n) { return std::string(n, '(') + "x" + std::string(n, ')'); }

std::string sum_of(int terms) {
  std::string sum = "x";
  for (int i = 1; i < terms; ++i) sum += " + x";
  return sum;
}

TEST(ParserTest, DeepExpressionsAreParseErrorsNotStackOverflows) {
  // Each shape used to overflow the stack (SIGSEGV) instead of failing
  // to parse: the 257th '(' or unary '-' crosses the bound, and so does
  // the 256th '+' of a left-deep sum, which the parser builds without
  // recursion but eval and the destructor walk recursively.
  expect_parse_error(with_guard(nested_parens(5000)),
                     {"gcl: line 3:270", "nested deeper than 256 levels"});
  expect_parse_error(with_guard(std::string(50000, '-') + "x"),
                     {"gcl: line 3:270", "nested deeper than 256 levels"});
  expect_parse_error(with_guard(sum_of(20000)),
                     {"gcl: line 3:1036", "nested deeper than 256 levels"});
}

TEST(ParserTest, DepthBoundAdmitsEveryShallowerExpression) {
  // Open parentheses, unary operators and tree levels add up: a leaf
  // inside 255 parentheses sits at depth 256, and so does the root of a
  // 256-term sum or of 255 minuses over a leaf.
  const SystemAst sys = parse("system c { var x : 0..3; }");
  EXPECT_NO_THROW(parse_expr_over(nested_parens(kMaxExprDepth - 1), sys));
  EXPECT_NO_THROW(parse_expr_over(std::string(kMaxExprDepth - 1, '-') + "x", sys));
  EXPECT_NO_THROW(parse_expr_over(sum_of(kMaxExprDepth), sys));
  EXPECT_THROW(parse_expr_over(nested_parens(kMaxExprDepth), sys), std::runtime_error);
  EXPECT_THROW(parse_expr_over(std::string(kMaxExprDepth, '-') + "x", sys),
               std::runtime_error);
  EXPECT_THROW(parse_expr_over(sum_of(kMaxExprDepth + 1), sys), std::runtime_error);
  // The comparison around a full-depth sum is one level too many.
  EXPECT_THROW(parse(with_guard(sum_of(kMaxExprDepth))), std::runtime_error);
  EXPECT_NO_THROW(parse(with_guard(sum_of(kMaxExprDepth - 1))));
}

TEST(ParserTest, AlphaTextSharesTheSystemGrammar) {
  const SystemAst c = parse("system c { var x : 0..3; }");
  const SystemAst a = parse("system a { var t : bool; }");
  // true/false are constants in alpha text as in system text.
  const AlphaSpec spec =
      parse_alpha("alpha m { t := x == 3 || false; invariant : true; }", c, a);
  ASSERT_EQ(spec.defs.size(), 1u);
  EXPECT_EQ(spec.defs[0].value.op, Op::Or);
  ASSERT_TRUE(spec.invariant != nullptr);
  EXPECT_EQ(spec.invariant->op, Op::Const);
  EXPECT_EQ(spec.invariant->value, 1);
  // The depth bound holds for alpha maps and certificate expressions.
  try {
    parse_alpha("alpha m { t := " + nested_parens(5000) + "; }", c, a);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("alpha: line 1:272: expression nested deeper"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(parse_expr_over(sum_of(kMaxExprDepth), c).op, Op::Add);
  EXPECT_THROW(parse_expr_over(sum_of(20000), c), std::runtime_error);
  EXPECT_THROW(parse_expr_over(std::string(50000, '!') + "x", c), std::runtime_error);
}

}  // namespace
}  // namespace cref::gcl

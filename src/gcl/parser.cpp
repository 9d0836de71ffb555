#include "gcl/parser.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "gcl/alpha.hpp"
#include "gcl/lexer.hpp"

namespace cref::gcl {

namespace {

SourceLoc loc_of(const Token& t) { return {t.line, t.column}; }

/// The one GCL grammar: a token cursor, the expression grammar, and the
/// two declaration forms built on it — `system` files and `alpha` maps.
/// Expression variables resolve through `var_index_`: the system's own
/// declarations as they are read, or a given program's variables. Errors
/// read "PREFIX: line L:C: what", PREFIX naming the text being parsed.
class Parser {
 public:
  Parser(const std::string& source, std::string prefix)
      : tokens_(lex(source)), prefix_(std::move(prefix)) {}

  SystemAst parse_file() {
    expect_keyword("system");
    ast_.name = expect(Tok::Ident).text;
    expect(Tok::LBrace);
    while (!at(Tok::RBrace)) parse_decl();
    expect(Tok::RBrace);
    expect(Tok::End);
    return std::move(ast_);
  }

  /// `alpha NAME { t := expr; ... invariant : expr; }`: each t names a
  /// variable of `a_ast`, every expression reads `c_ast`'s variables.
  AlphaSpec parse_alpha(const SystemAst& c_ast, const SystemAst& a_ast) {
    scope(c_ast);
    std::map<std::string, std::size_t> a_index;
    for (std::size_t i = 0; i < a_ast.vars.size(); ++i) a_index[a_ast.vars[i].name] = i;
    AlphaSpec spec;
    expect_keyword("alpha");
    spec.name = expect(Tok::Ident).text;
    expect(Tok::LBrace);
    std::vector<char> defined(a_ast.vars.size(), 0);
    while (!at(Tok::RBrace)) {
      if (at_keyword("invariant")) {
        const Token kw = advance();
        if (spec.invariant) fail_at(kw, "duplicate invariant clause");
        expect(Tok::Colon);
        spec.invariant = std::make_unique<Expr>(parse_expr());
        spec.invariant_loc = loc_of(kw);
        expect(Tok::Semi);
        continue;
      }
      const Token name = expect(Tok::Ident);
      const auto it = a_index.find(name.text);
      if (it == a_index.end())
        fail_at(name, "'" + name.text + "' is not a variable of abstract system '" +
                          a_ast.name + "'");
      if (defined[it->second])
        fail_at(name, "abstract variable '" + name.text + "' defined twice");
      defined[it->second] = 1;
      expect(Tok::Assign);
      spec.defs.push_back({name.text, it->second, parse_expr(), loc_of(name)});
      expect(Tok::Semi);
    }
    expect(Tok::RBrace);
    expect(Tok::End);
    for (std::size_t i = 0; i < a_ast.vars.size(); ++i)
      if (!defined[i])
        throw std::runtime_error(prefix_ + ": abstract variable '" + a_ast.vars[i].name +
                                 "' has no definition in alpha '" + spec.name + "'");
    return spec;
  }

  /// The whole input as one expression over `ast`'s variables.
  Expr parse_lone_expr(const SystemAst& ast) {
    scope(ast);
    Expr e = parse_expr();
    expect(Tok::End);
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& what) { fail_at(cur(), what); }

  [[noreturn]] void fail_at(const Token& t, const std::string& what) {
    throw std::runtime_error(prefix_ + ": line " + std::to_string(t.line) + ":" +
                             std::to_string(t.column) + ": " + what);
  }

  const Token& cur() const { return tokens_[pos_]; }
  bool at(Tok kind) const { return cur().kind == kind; }
  bool at_keyword(const char* kw) const { return at(Tok::Ident) && cur().text == kw; }
  Token advance() { return tokens_[pos_++]; }

  Token expect(Tok kind) {
    if (!at(kind))
      fail(std::string("expected ") + tok_name(kind) + ", found " + tok_name(cur().kind) +
           (cur().kind == Tok::Ident ? " '" + cur().text + "'" : ""));
    return advance();
  }

  void expect_keyword(const char* kw) {
    if (!at_keyword(kw)) fail(std::string("expected '") + kw + "'");
    advance();
  }

  /// Expressions read the variables of `ast` (alpha maps, certificates).
  void scope(const SystemAst& ast) {
    scope_system_ = &ast;
    for (std::size_t i = 0; i < ast.vars.size(); ++i) var_index_[ast.vars[i].name] = i;
  }

  void parse_decl() {
    if (at_keyword("var")) {
      parse_var();
    } else if (at_keyword("action")) {
      parse_action();
    } else if (at_keyword("init")) {
      Token kw = advance();
      expect(Tok::Colon);
      if (ast_.init) fail_at(kw, "duplicate init declaration");
      ast_.init = std::make_unique<Expr>(parse_expr());
      ast_.init_loc = loc_of(kw);
      expect(Tok::Semi);
    } else {
      fail("expected 'var', 'action' or 'init'");
    }
  }

  // Domain bound: NUMBER with an optional leading '-', so that
  // `var x : 0..-1;` is rejected by domain validation (clear message)
  // rather than by the grammar.
  std::int64_t parse_bound() {
    bool negative = false;
    if (at(Tok::Minus)) {
      advance();
      negative = true;
    }
    std::int64_t v = expect(Tok::Number).number;
    return negative ? -v : v;
  }

  void parse_var() {
    advance();  // var
    Token name = expect(Tok::Ident);
    if (var_index_.count(name.text)) fail_at(name, "duplicate variable '" + name.text + "'");
    expect(Tok::Colon);
    int cardinality;
    if (at_keyword("bool")) {
      advance();
      cardinality = 2;
    } else {
      Token lo_tok = cur();
      std::int64_t lo = parse_bound();
      if (lo != 0)
        fail_at(lo_tok, "variable domains must start at 0 (got " + std::to_string(lo) +
                            ".. for '" + name.text + "')");
      expect(Tok::DotDot);
      Token hi_tok = cur();
      std::int64_t hi = parse_bound();
      if (hi < 0)
        fail_at(hi_tok, "empty domain 0.." + std::to_string(hi) + " for '" + name.text +
                            "' (cardinality " + std::to_string(hi + 1) +
                            "); the upper bound must be >= 0");
      if (hi > 254)
        fail_at(hi_tok, "domain upper bound out of range (0..254), got " +
                            std::to_string(hi));
      cardinality = static_cast<int>(hi) + 1;
    }
    expect(Tok::Semi);
    var_index_[name.text] = ast_.vars.size();
    ast_.vars.push_back({name.text, cardinality, loc_of(name)});
  }

  void parse_action() {
    advance();  // action
    ActionAst action;
    Token name = expect(Tok::Ident);
    action.name = name.text;
    action.loc = loc_of(name);
    if (at(Tok::At)) {
      advance();
      action.process = static_cast<int>(expect(Tok::Number).number);
    }
    expect(Tok::Colon);
    action.guard = parse_expr();
    expect(Tok::Arrow);
    while (true) {
      AssignmentAst assign;
      Token var = expect(Tok::Ident);
      assign.var = var.text;
      assign.var_index = resolve(var);
      assign.loc = loc_of(var);
      expect(Tok::Assign);
      assign.value = parse_expr();
      action.assignments.push_back(std::move(assign));
      if (!at(Tok::Comma)) break;
      advance();
    }
    expect(Tok::Semi);
    ast_.actions.push_back(std::move(action));
  }

  std::size_t resolve(const Token& name) {
    auto it = var_index_.find(name.text);
    if (it != var_index_.end()) return it->second;
    if (scope_system_)
      fail_at(name, "'" + name.text + "' is not a variable of concrete system '" +
                        scope_system_->name + "'");
    fail_at(name, "unknown variable '" + name.text + "'");
  }

  // --- expression grammar, lowest precedence first -------------------
  //
  // Depth bound: `open_` counts the parentheses and unary operators
  // around the token being read, `height_` is the height of the tree the
  // last parse_* call returned. A subtree deeper than kMaxExprDepth
  // (open_ + height_) is a parse error at its operator, so neither this
  // recursion nor the recursive walks over the tree (eval, hashing, the
  // destructor) can exhaust the stack — a left-deep `+` chain needs no
  // parser recursion but still builds a deep tree.
  Expr parse_expr() { return parse_or(); }

  [[noreturn]] void too_deep(const Token& t) {
    fail_at(t, "expression nested deeper than " + std::to_string(kMaxExprDepth) +
                   " levels");
  }

  void open(const Token& t) {
    if (++open_ > kMaxExprDepth) too_deep(t);
  }

  Expr node(Op op, const Token& t, int height) {
    if (open_ + height > kMaxExprDepth) too_deep(t);
    height_ = height;
    Expr e;
    e.op = op;
    e.loc = loc_of(t);
    return e;
  }

  /// `lhs op rhs`; the rhs was parsed last, so height_ is its height.
  Expr binary(Op op, const Token& t, Expr lhs, int lhs_height, Expr rhs) {
    Expr e = node(op, t, 1 + std::max(lhs_height, height_));
    e.children.push_back(std::move(lhs));
    e.children.push_back(std::move(rhs));
    return e;
  }

  Expr parse_or() {
    Expr lhs = parse_and();
    while (at(Tok::OrOr)) {
      const Token t = advance();
      const int h = height_;
      Expr rhs = parse_and();
      lhs = binary(Op::Or, t, std::move(lhs), h, std::move(rhs));
    }
    return lhs;
  }

  Expr parse_and() {
    Expr lhs = parse_cmp();
    while (at(Tok::AndAnd)) {
      const Token t = advance();
      const int h = height_;
      Expr rhs = parse_cmp();
      lhs = binary(Op::And, t, std::move(lhs), h, std::move(rhs));
    }
    return lhs;
  }

  Expr parse_cmp() {
    Expr lhs = parse_add();
    while (true) {
      Op op;
      switch (cur().kind) {
        case Tok::Eq: op = Op::Eq; break;
        case Tok::Ne: op = Op::Ne; break;
        case Tok::Lt: op = Op::Lt; break;
        case Tok::Le: op = Op::Le; break;
        case Tok::Gt: op = Op::Gt; break;
        case Tok::Ge: op = Op::Ge; break;
        default: return lhs;
      }
      const Token t = advance();
      const int h = height_;
      Expr rhs = parse_add();
      lhs = binary(op, t, std::move(lhs), h, std::move(rhs));
    }
  }

  Expr parse_add() {
    Expr lhs = parse_mul();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      const Op op = at(Tok::Plus) ? Op::Add : Op::Sub;
      const Token t = advance();
      const int h = height_;
      Expr rhs = parse_mul();
      lhs = binary(op, t, std::move(lhs), h, std::move(rhs));
    }
    return lhs;
  }

  Expr parse_mul() {
    Expr lhs = parse_unary();
    while (at(Tok::Star) || at(Tok::Percent) || at(Tok::Slash)) {
      const Op op = at(Tok::Star) ? Op::Mul : at(Tok::Percent) ? Op::Mod : Op::Div;
      const Token t = advance();
      const int h = height_;
      Expr rhs = parse_unary();
      lhs = binary(op, t, std::move(lhs), h, std::move(rhs));
    }
    return lhs;
  }

  Expr parse_unary() {
    if (!at(Tok::Bang) && !at(Tok::Minus)) return parse_atom();
    const Token t = advance();
    open(t);
    Expr operand = parse_unary();
    --open_;
    Expr e = node(t.kind == Tok::Bang ? Op::Not : Op::Neg, t, height_ + 1);
    e.children.push_back(std::move(operand));
    return e;
  }

  Expr parse_atom() {
    if (at(Tok::Number)) {
      const Token t = advance();
      Expr e = node(Op::Const, t, 1);
      e.value = t.number;
      return e;
    }
    if (at(Tok::LParen)) {
      open(advance());
      Expr e = parse_expr();
      expect(Tok::RParen);
      --open_;
      return e;
    }
    if (at(Tok::Ident)) {
      if (at_keyword("true") || at_keyword("false")) {
        const Token t = advance();
        Expr e = node(Op::Const, t, 1);
        e.value = t.text == "true" ? 1 : 0;
        return e;
      }
      const Token name = advance();
      Expr e = node(Op::Var, name, 1);
      e.name = name.text;
      e.var_index = resolve(name);
      return e;
    }
    fail(std::string("expected an expression, found ") + tok_name(cur().kind));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  std::string prefix_;
  SystemAst ast_;
  std::map<std::string, std::size_t> var_index_;
  const SystemAst* scope_system_ = nullptr;  // set by scope()
  int open_ = 0;
  int height_ = 0;
};

}  // namespace

SystemAst parse(const std::string& source) { return Parser(source, "gcl").parse_file(); }

AlphaSpec parse_alpha(const std::string& source, const SystemAst& c_ast,
                      const SystemAst& a_ast) {
  return Parser(source, "alpha").parse_alpha(c_ast, a_ast);
}

Expr parse_expr_over(const std::string& text, const SystemAst& ast) {
  return Parser(text, "alpha").parse_lone_expr(ast);
}

}  // namespace cref::gcl

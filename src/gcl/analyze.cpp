#include "gcl/analyze.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>

#include "gcl/compile.hpp"

namespace cref::gcl {

namespace {

// --- interval analysis (fallback above the exact budget) -------------

struct Interval {
  std::int64_t lo = 0, hi = 0;
  bool surely_true() const { return lo > 0 || hi < 0; }  // 0 not in range
  bool surely_false() const { return lo == 0 && hi == 0; }
};

Interval interval_eval(const Expr& e, const std::vector<int>& cards) {
  auto iv = [&](int i) { return interval_eval(e.children[i], cards); };
  switch (e.op) {
    case Op::Const: return {e.value, e.value};
    case Op::Var: return {0, cards[e.var_index] - 1};
    case Op::Not: {
      Interval a = iv(0);
      if (a.surely_false()) return {1, 1};
      if (a.surely_true()) return {0, 0};
      return {0, 1};
    }
    case Op::Neg: {
      Interval a = iv(0);
      return {-a.hi, -a.lo};
    }
    case Op::Add: {
      Interval a = iv(0), b = iv(1);
      return {a.lo + b.lo, a.hi + b.hi};
    }
    case Op::Sub: {
      Interval a = iv(0), b = iv(1);
      return {a.lo - b.hi, a.hi - b.lo};
    }
    case Op::Mul: {
      Interval a = iv(0), b = iv(1);
      std::int64_t c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
      return {*std::min_element(c, c + 4), *std::max_element(c, c + 4)};
    }
    case Op::Mod: {
      Interval a = iv(0), b = iv(1);
      std::int64_t m = std::max(std::llabs(b.lo), std::llabs(b.hi));
      if (m == 0) return {0, 0};  // divisor surely 0: eval yields 0
      // Already-reduced operand: a in [0, k) for every possible k.
      if (b.lo > 0 && a.lo >= 0 && a.hi < b.lo) return a;
      return {0, m - 1};
    }
    case Op::Div: {
      Interval a = iv(0), b = iv(1);
      std::vector<std::int64_t> cand;
      if (b.lo <= 0 && 0 <= b.hi) cand.push_back(0);  // zero divisor -> 0
      for (std::int64_t d : {b.lo, b.hi, std::int64_t{1}, std::int64_t{-1}}) {
        if (d == 0 || d < b.lo || d > b.hi) continue;
        cand.push_back(eval_div(a.lo, d));
        cand.push_back(eval_div(a.hi, d));
      }
      if (cand.empty()) return {0, 0};
      return {*std::min_element(cand.begin(), cand.end()),
              *std::max_element(cand.begin(), cand.end())};
    }
    case Op::Eq: {
      Interval a = iv(0), b = iv(1);
      if (a.lo == a.hi && a.lo == b.lo && b.lo == b.hi) return {1, 1};
      if (a.hi < b.lo || b.hi < a.lo) return {0, 0};
      return {0, 1};
    }
    case Op::Ne: {
      Interval a = iv(0), b = iv(1);
      if (a.lo == a.hi && a.lo == b.lo && b.lo == b.hi) return {0, 0};
      if (a.hi < b.lo || b.hi < a.lo) return {1, 1};
      return {0, 1};
    }
    case Op::Lt: {
      Interval a = iv(0), b = iv(1);
      if (a.hi < b.lo) return {1, 1};
      if (a.lo >= b.hi) return {0, 0};
      return {0, 1};
    }
    case Op::Le: {
      Interval a = iv(0), b = iv(1);
      if (a.hi <= b.lo) return {1, 1};
      if (a.lo > b.hi) return {0, 0};
      return {0, 1};
    }
    case Op::Gt: {
      Interval a = iv(0), b = iv(1);
      if (a.lo > b.hi) return {1, 1};
      if (a.hi <= b.lo) return {0, 0};
      return {0, 1};
    }
    case Op::Ge: {
      Interval a = iv(0), b = iv(1);
      if (a.lo >= b.hi) return {1, 1};
      if (a.hi < b.lo) return {0, 0};
      return {0, 1};
    }
    case Op::And: {
      Interval a = iv(0), b = iv(1);
      if (a.surely_false() || b.surely_false()) return {0, 0};
      if (a.surely_true() && b.surely_true()) return {1, 1};
      return {0, 1};
    }
    case Op::Or: {
      Interval a = iv(0), b = iv(1);
      if (a.surely_true() || b.surely_true()) return {1, 1};
      if (a.surely_false() && b.surely_false()) return {0, 0};
      return {0, 1};
    }
  }
  return {0, 0};
}

std::string domain_str(int card) { return "0.." + std::to_string(card - 1); }

}  // namespace

// --- pass 1: guard satisfiability -----------------------------------

std::vector<Diagnostic> check_guards(const SystemAst& ast, const AnalyzeOptions& opts) {
  std::vector<Diagnostic> out;
  std::vector<int> cards = cardinalities(ast);
  StateVec s(cards.size(), 0);
  for (const ActionAst& a : ast.actions) {
    std::vector<char> used(cards.size(), 0);
    mark_footprint(a.guard, used);
    std::vector<std::size_t> vars = marked_vars(used);
    bool any_true = false, any_false = false;
    if (valuation_count(vars, cards, opts.exact_budget) <= opts.exact_budget) {
      for_each_valuation(vars, cards, s, [&](const StateVec& st) {
        (eval(a.guard, st) != 0 ? any_true : any_false) = true;
        return !(any_true && any_false);
      });
    } else {
      Interval g = interval_eval(a.guard, cards);
      if (!g.surely_false() && !g.surely_true()) continue;  // undecided
      any_true = !g.surely_false();
      any_false = !g.surely_true();
    }
    if (!any_true) {
      out.push_back({Rule::GuardAlwaysFalse, Severity::Warning, a.loc,
                     "guard of action '" + a.name +
                         "' is always false: the action can never fire (dead action)",
                     "check the comparisons against the declared domains, or delete "
                     "the action"});
    } else if (!any_false) {
      out.push_back({Rule::GuardAlwaysTrue, Severity::Note, a.loc,
                     "guard of action '" + a.name +
                         "' is always true: the action is enabled in every state",
                     "fine for an unconditional step; otherwise strengthen the guard"});
    }
  }
  return out;
}

// --- pass 2: domain flow (silent wrap on assignment) -----------------

std::vector<Diagnostic> check_domain_flow(const SystemAst& ast,
                                          const AnalyzeOptions& opts) {
  std::vector<Diagnostic> out;
  std::vector<int> cards = cardinalities(ast);
  StateVec s(cards.size(), 0);
  for (const ActionAst& a : ast.actions) {
    for (const AssignmentAst& asg : a.assignments) {
      int card = cards[asg.var_index];
      std::vector<char> used(cards.size(), 0);
      mark_footprint(a.guard, used);  // guard-aware: only enabled states matter
      mark_footprint(asg.value, used);
      std::vector<std::size_t> vars = marked_vars(used);
      if (valuation_count(vars, cards, opts.exact_budget) <= opts.exact_budget) {
        bool any = false;
        std::int64_t mn = 0, mx = 0;
        for_each_valuation(vars, cards, s, [&](const StateVec& st) {
          if (eval(a.guard, st) == 0) return true;
          std::int64_t v = eval(asg.value, st);
          if (!any) {
            mn = mx = v;
            any = true;
          } else {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
          return true;
        });
        if (!any) continue;  // dead action: reported by check_guards
        if (mn >= 0 && mx < card) continue;
        out.push_back(
            {Rule::AssignWraps, Severity::Warning, asg.loc,
             "assignment to '" + asg.var + "' (domain " + domain_str(card) +
                 ") evaluates to values in [" + std::to_string(mn) + ".." +
                 std::to_string(mx) + "] when enabled; out-of-domain values "
                 "silently wrap modulo " + std::to_string(card),
             "write the reduction explicitly ('" + asg.var + " := (...) % " +
                 std::to_string(card) +
                 "') if a mod-" + std::to_string(card) +
                 " counter is intended, or tighten the guard"});
      } else {
        Interval v = interval_eval(asg.value, cards);
        if (v.lo >= 0 && v.hi < card) continue;
        out.push_back(
            {Rule::AssignWraps, Severity::Warning, asg.loc,
             "assignment to '" + asg.var + "' (domain " + domain_str(card) +
                 ") may evaluate outside the domain (interval bound [" +
                 std::to_string(v.lo) + ".." + std::to_string(v.hi) +
                 "]) and silently wrap modulo " + std::to_string(card),
             "write the reduction explicitly with '% " + std::to_string(card) + "'"});
      }
    }
  }
  return out;
}

// --- pass 3: possibly-zero divisors ---------------------------------

namespace {

struct DivisorScan {
  const SystemAst& ast;
  const AnalyzeOptions& opts;
  std::vector<int> cards;
  StateVec s;
  std::vector<Diagnostic> out;

  explicit DivisorScan(const SystemAst& a, const AnalyzeOptions& o)
      : ast(a), opts(o), cards(cardinalities(a)), s(cards.size(), 0) {}

  // Walks `e`; `guard` (may be null) restricts RHS checks to states
  // where the enclosing action is enabled.
  void walk(const Expr& e, const Expr* guard, const std::string& ctx) {
    for (const Expr& c : e.children) walk(c, guard, ctx);
    if (e.op != Op::Div && e.op != Op::Mod) return;
    const Expr& divisor = e.children[1];
    const char* sym = e.op == Op::Div ? "/" : "%";
    std::vector<char> used(cards.size(), 0);
    mark_footprint(divisor, used);
    if (guard) mark_footprint(*guard, used);
    std::vector<std::size_t> vars = marked_vars(used);
    if (valuation_count(vars, cards, opts.exact_budget) <= opts.exact_budget) {
      bool any_zero = false, any_nonzero = false, any_enabled = false;
      std::string witness;
      for_each_valuation(vars, cards, s, [&](const StateVec& st) {
        if (guard && eval(*guard, st) == 0) return true;
        any_enabled = true;
        if (eval(divisor, st) == 0) {
          if (!any_zero) witness = format_valuation(ast, st, vars);
          any_zero = true;
        } else {
          any_nonzero = true;
        }
        return !(any_zero && any_nonzero);
      });
      if (!any_enabled || !any_zero) return;
      if (!any_nonzero) {
        out.push_back({Rule::DivByZero, Severity::Error, e.loc,
                       "divisor of '" + std::string(sym) + "' in " + ctx +
                           " is always 0; the operation evaluates to 0 by convention",
                       "fix the divisor expression — a constant-zero divisor is "
                       "never what was meant"});
      } else {
        std::string where = witness.empty() ? "" : " (e.g. when " + witness + ")";
        out.push_back({Rule::DivMaybeZero, Severity::Warning, e.loc,
                       "divisor of '" + std::string(sym) + "' in " + ctx +
                           " can be 0" + where +
                           "; the operation then silently evaluates to 0",
                       "guard the division (add 'd != 0' to the guard) or shift "
                       "the divisor's domain away from 0"});
      }
    } else {
      Interval d = interval_eval(divisor, cards);
      if (d.surely_false()) {
        out.push_back({Rule::DivByZero, Severity::Error, e.loc,
                       "divisor of '" + std::string(sym) + "' in " + ctx +
                           " is always 0; the operation evaluates to 0 by convention",
                       "fix the divisor expression"});
      } else if (d.lo <= 0 && 0 <= d.hi) {
        out.push_back({Rule::DivMaybeZero, Severity::Warning, e.loc,
                       "divisor of '" + std::string(sym) + "' in " + ctx +
                           " may be 0 (interval bound [" + std::to_string(d.lo) +
                           ".." + std::to_string(d.hi) +
                           "]); the operation then silently evaluates to 0",
                       "guard the division or shift the divisor's domain away "
                       "from 0"});
      }
    }
  }
};

}  // namespace

std::vector<Diagnostic> check_divisors(const SystemAst& ast, const AnalyzeOptions& opts) {
  DivisorScan scan(ast, opts);
  for (const ActionAst& a : ast.actions) {
    scan.walk(a.guard, nullptr, "the guard of action '" + a.name + "'");
    for (const AssignmentAst& asg : a.assignments)
      scan.walk(asg.value, &a.guard,
                "the assignment to '" + asg.var + "' in action '" + a.name + "'");
  }
  if (ast.init) scan.walk(*ast.init, nullptr, "the init predicate");
  return scan.out;
}

// --- pass 4: variable liveness --------------------------------------

namespace {

/// True when the action's guard is provably unsatisfiable (same
/// decision procedure as check_guards' guard-always-false: exhaustive
/// under the budget, interval bound above it).
bool guard_provably_false(const ActionAst& a, const std::vector<int>& cards,
                          const AnalyzeOptions& opts, StateVec& s) {
  std::vector<char> used(cards.size(), 0);
  mark_footprint(a.guard, used);
  std::vector<std::size_t> vars = marked_vars(used);
  if (valuation_count(vars, cards, opts.exact_budget) <= opts.exact_budget) {
    bool any_true = false;
    for_each_valuation(vars, cards, s, [&](const StateVec& st) {
      any_true = eval(a.guard, st) != 0;
      return !any_true;
    });
    return !any_true;
  }
  return interval_eval(a.guard, cards).surely_false();
}

}  // namespace

std::vector<Diagnostic> check_liveness(const SystemAst& ast, const AnalyzeOptions& opts) {
  std::vector<Diagnostic> out;
  std::vector<int> cards = cardinalities(ast);
  StateVec scratch(cards.size(), 0);
  std::vector<char> read(ast.vars.size(), 0), written(ast.vars.size(), 0);
  for (const ActionAst& a : ast.actions) {
    // A provably-dead action (guard-always-false, reported by
    // check_guards) contributes no reads or writes: a variable
    // referenced only there is as unused as if the action were deleted.
    if (guard_provably_false(a, cards, opts, scratch)) continue;
    mark_footprint(a.guard, read);
    for (const AssignmentAst& asg : a.assignments) {
      mark_footprint(asg.value, read);
      if (asg.var_index < written.size()) written[asg.var_index] = 1;
    }
  }
  if (ast.init) mark_footprint(*ast.init, read);
  for (std::size_t i = 0; i < ast.vars.size(); ++i) {
    const VarDeclAst& v = ast.vars[i];
    if (!read[i] && !written[i]) {
      out.push_back({Rule::VarUnused, Severity::Warning, v.loc,
                     "variable '" + v.name + "' is never read or written",
                     "delete the declaration (each variable multiplies the state "
                     "space by its cardinality)"});
    } else if (written[i] && !read[i]) {
      out.push_back({Rule::VarWriteOnly, Severity::Warning, v.loc,
                     "variable '" + v.name +
                         "' is written but never read; its value cannot influence "
                         "any guard, assignment, or init",
                     "read it somewhere, or remove the writes and the declaration"});
    } else if (read[i] && !written[i]) {
      out.push_back({Rule::VarNeverWritten, Severity::Note, v.loc,
                     "variable '" + v.name +
                         "' is read but never assigned by any action; it is frozen "
                         "at whatever value the initial state gives it",
                     "fine for a constant parameter; otherwise add a writer"});
    }
  }
  return out;
}

// --- pass 5: action hygiene -----------------------------------------

std::vector<Diagnostic> check_actions(const SystemAst& ast, const AnalyzeOptions& opts) {
  std::vector<Diagnostic> out;
  std::vector<int> cards = cardinalities(ast);
  StateVec s(cards.size(), 0);

  // Duplicate names.
  std::map<std::string, const ActionAst*> first_decl;
  for (const ActionAst& a : ast.actions) {
    auto [it, inserted] = first_decl.emplace(a.name, &a);
    if (!inserted) {
      out.push_back({Rule::ActionDuplicateName, Severity::Warning, a.loc,
                     "duplicate action name '" + a.name + "' (first declared at line " +
                         std::to_string(it->second->loc.line) + ")",
                     "rename one of the actions; names identify actions in traces "
                     "and reports"});
    }
  }

  // Stutter and self-disabling, decided by one exhaustive walk each.
  for (const ActionAst& a : ast.actions) {
    std::vector<char> used(cards.size(), 0);
    mark_footprint(a.guard, used);
    for (const AssignmentAst& asg : a.assignments) {
      mark_footprint(asg.value, used);
      if (asg.var_index < used.size()) used[asg.var_index] = 1;
    }
    std::vector<std::size_t> vars = marked_vars(used);
    if (valuation_count(vars, cards, opts.exact_budget) > opts.exact_budget)
      continue;  // above the exact budget: these two rules stay silent

    bool any_enabled = false, all_identity = true;
    std::string re_witness;
    StateVec post;
    for_each_valuation(vars, cards, s, [&](const StateVec& st) {
      if (eval(a.guard, st) == 0) return true;
      any_enabled = true;
      step(a, cards, st, post);
      if (post != st) all_identity = false;
      if (re_witness.empty() && eval(a.guard, post) != 0)
        re_witness = format_valuation(ast, st, vars);
      return !(!all_identity && !re_witness.empty());  // both facts known
    });

    if (!any_enabled) continue;  // dead action: reported by check_guards
    if (all_identity) {
      out.push_back({Rule::ActionStutter, Severity::Warning, a.loc,
                     "action '" + a.name +
                         "' is a stutter: its effect is provably the identity in "
                         "every state where the guard holds",
                     "the action never changes the state; remove it or fix its "
                     "assignments"});
    } else if (!re_witness.empty()) {
      out.push_back({Rule::ActionNotSelfDisabling, Severity::Warning, a.loc,
                     "action '" + a.name +
                         "' does not disable itself: the guard still holds "
                         "immediately after its own effect (e.g. from " +
                         re_witness + "); under an unfair daemon it can be "
                         "scheduled forever and starve every other action",
                     "make each firing falsify the guard, or confirm the "
                     "potential livelock is intended"});
    }
  }

  // Cross-process write interference, keyed on @process annotations.
  ReadWriteReport rw = read_write_report(ast);
  for (const VarInterference& vi : rw.vars) {
    if (vi.writer_processes.size() < 2) continue;
    std::ostringstream procs;
    for (std::size_t i = 0; i < vi.writer_processes.size(); ++i)
      procs << (i ? ", " : "") << vi.writer_processes[i];
    const VarDeclAst& v = ast.vars[vi.var_index];
    out.push_back({Rule::VarMultiWriter, Severity::Warning, v.loc,
                   "variable '" + v.name + "' is written by actions of " +
                       std::to_string(vi.writer_processes.size()) +
                       " distinct processes ({" + procs.str() +
                       "}); cross-process write interference",
                   "give each variable a single owner process (cross-process "
                   "reads are the normal communication pattern; writes are not)"});
  }
  return out;
}

// --- pass 6: init satisfiability ------------------------------------

std::vector<Diagnostic> check_init(const SystemAst& ast, const AnalyzeOptions& opts) {
  std::vector<Diagnostic> out;
  if (!ast.init) return out;  // wrapper: no initial states by design
  std::vector<int> cards = cardinalities(ast);
  StateVec s(cards.size(), 0);
  std::vector<char> used(cards.size(), 0);
  mark_footprint(*ast.init, used);
  std::vector<std::size_t> vars = marked_vars(used);
  bool any_true = false;
  if (valuation_count(vars, cards, opts.exact_budget) <= opts.exact_budget) {
    for_each_valuation(vars, cards, s, [&](const StateVec& st) {
      any_true = eval(*ast.init, st) != 0;
      return !any_true;
    });
  } else {
    Interval g = interval_eval(*ast.init, cards);
    if (!g.surely_false()) return out;  // undecided or satisfiable
  }
  if (!any_true) {
    out.push_back({Rule::InitUnsatisfiable, Severity::Error, ast.init_loc,
                   "the init predicate is unsatisfiable: no state satisfies it, so "
                   "the system has no initial states",
                   "fix the predicate; for a wrapper (no initial states) delete "
                   "the init declaration instead"});
  }
  return out;
}

// --- all passes ------------------------------------------------------

std::vector<Diagnostic> analyze(const SystemAst& ast, const AnalyzeOptions& opts) {
  std::vector<Diagnostic> out = check_guards(ast, opts);
  auto append = [&out](std::vector<Diagnostic> v) {
    out.insert(out.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  };
  append(check_domain_flow(ast, opts));
  append(check_divisors(ast, opts));
  append(check_liveness(ast, opts));
  append(check_actions(ast, opts));
  append(check_init(ast, opts));
  sort_diagnostics(out);
  return out;
}

// --- read/write sets and interference -------------------------------

ReadWriteReport read_write_report(const SystemAst& ast) {
  ReadWriteReport report;
  std::vector<std::set<int>> writers(ast.vars.size()), readers(ast.vars.size());
  for (const ActionAst& a : ast.actions) {
    std::vector<char> reads(ast.vars.size(), 0), writes(ast.vars.size(), 0);
    mark_footprint(a.guard, reads);
    for (const AssignmentAst& asg : a.assignments) {
      mark_footprint(asg.value, reads);
      if (asg.var_index < writes.size()) writes[asg.var_index] = 1;
    }
    ActionRW rw;
    rw.action = a.name;
    rw.process = a.process;
    rw.loc = a.loc;
    rw.reads = marked_vars(reads);
    rw.writes = marked_vars(writes);
    if (a.process >= 0) {
      for (std::size_t v : rw.reads) readers[v].insert(a.process);
      for (std::size_t v : rw.writes) writers[v].insert(a.process);
    }
    report.actions.push_back(std::move(rw));
  }
  for (std::size_t v = 0; v < ast.vars.size(); ++v) {
    VarInterference vi;
    vi.var_index = v;
    vi.writer_processes.assign(writers[v].begin(), writers[v].end());
    vi.reader_processes.assign(readers[v].begin(), readers[v].end());
    report.vars.push_back(std::move(vi));
  }
  return report;
}

std::string format_read_write_report(const SystemAst& ast) {
  ReadWriteReport report = read_write_report(ast);
  std::ostringstream out;
  auto names = [&](const std::vector<std::size_t>& vars) {
    std::ostringstream ss;
    for (std::size_t i = 0; i < vars.size(); ++i)
      ss << (i ? ", " : "") << ast.vars[vars[i]].name;
    return ss.str();
  };
  auto procs = [](const std::vector<int>& ps) {
    std::ostringstream ss;
    for (std::size_t i = 0; i < ps.size(); ++i) ss << (i ? ", " : "") << ps[i];
    return ss.str();
  };
  out << "read/write sets (" << report.actions.size() << " action(s), "
      << report.vars.size() << " variable(s)):\n";
  for (const ActionRW& rw : report.actions) {
    out << "  action " << rw.action;
    if (rw.process >= 0) out << " @" << rw.process;
    out << ": reads {" << names(rw.reads) << "} writes {" << names(rw.writes) << "}\n";
  }
  bool interference = false;
  for (const VarInterference& vi : report.vars) {
    out << "  var " << ast.vars[vi.var_index].name << ": writer processes {"
        << procs(vi.writer_processes) << "} reader processes {"
        << procs(vi.reader_processes) << "}\n";
    interference |= vi.writer_processes.size() >= 2;
  }
  out << (interference
              ? "  cross-process write interference: YES (see var-multi-writer)\n"
              : "  cross-process write interference: none\n");
  return out.str();
}

std::string render_read_write_report_json(const SystemAst& ast) {
  ReadWriteReport report = read_write_report(ast);
  std::ostringstream out;
  auto names = [&](const std::vector<std::size_t>& vars) {
    std::ostringstream ss;
    for (std::size_t i = 0; i < vars.size(); ++i)
      ss << (i ? ", " : "") << '"' << json_escape(ast.vars[vars[i]].name) << '"';
    return ss.str();
  };
  auto procs = [](const std::vector<int>& ps) {
    std::ostringstream ss;
    for (std::size_t i = 0; i < ps.size(); ++i) ss << (i ? ", " : "") << ps[i];
    return ss.str();
  };
  out << "\"sets\": {\"actions\": [";
  for (std::size_t i = 0; i < report.actions.size(); ++i) {
    const ActionRW& rw = report.actions[i];
    if (i) out << ", ";
    out << "{\"action\": \"" << json_escape(rw.action)
        << "\", \"process\": " << rw.process << ", \"line\": " << rw.loc.line
        << ", \"column\": " << rw.loc.column << ", \"reads\": [" << names(rw.reads)
        << "], \"writes\": [" << names(rw.writes) << "]}";
  }
  out << "], \"vars\": [";
  bool interference = false;
  for (std::size_t i = 0; i < report.vars.size(); ++i) {
    const VarInterference& vi = report.vars[i];
    if (i) out << ", ";
    out << "{\"var\": \"" << json_escape(ast.vars[vi.var_index].name)
        << "\", \"writer_processes\": [" << procs(vi.writer_processes)
        << "], \"reader_processes\": [" << procs(vi.reader_processes) << "]}";
    interference |= vi.writer_processes.size() >= 2;
  }
  out << "], \"cross_process_write_interference\": " << (interference ? "true" : "false")
      << "}";
  return out.str();
}

}  // namespace cref::gcl

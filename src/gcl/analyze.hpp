#pragma once

// Semantic analyzer (lint) for parsed GCL systems: six diagnostic
// passes over a SystemAst, run before any state-space exploration.
// Because every variable ranges over a declared finite domain, the
// passes are EXACT, not heuristic: each property is decided by
// exhaustive evaluation over the (usually tiny) product of the domains
// of the variables an expression actually references. Expressions that
// reference more than `AnalyzeOptions::exact_budget` valuations fall
// back to a sound interval analysis and only report what the intervals
// prove.
//
// The passes, and the rules they emit (see diag.hpp for ids):
//   1. check_guards       guard-always-false (dead action),
//                         guard-always-true
//   2. check_domain_flow  assign-wraps (RHS can leave the target's
//                         domain and silently wrap; an RHS that is
//                         already reduced, e.g. by an explicit `% k`,
//                         never fires this)
//   3. check_divisors     div-by-zero, div-maybe-zero (eval() yields 0
//                         on a zero divisor — silently)
//   4. check_liveness     var-unused, var-write-only, var-never-written
//   5. check_actions      action-duplicate-name, action-stutter,
//                         action-not-self-disabling, var-multi-writer
//   6. check_init         init-unsatisfiable
//
// `analyze()` runs all six and returns the findings in reporting
// order. Tests exercise passes individually; the `gcl_lint` tool
// drives `analyze()`.

#include <string>
#include <vector>

#include "gcl/ast.hpp"
#include "gcl/diag.hpp"

namespace cref::gcl {

struct AnalyzeOptions {
  /// Maximum number of valuations an exhaustive per-expression check
  /// may enumerate (product of the referenced variables' domain
  /// cardinalities). Above this, passes use interval analysis instead.
  std::size_t exact_budget = std::size_t{1} << 20;
};

std::vector<Diagnostic> check_guards(const SystemAst& ast, const AnalyzeOptions& opts = {});
std::vector<Diagnostic> check_domain_flow(const SystemAst& ast,
                                          const AnalyzeOptions& opts = {});
std::vector<Diagnostic> check_divisors(const SystemAst& ast,
                                       const AnalyzeOptions& opts = {});
std::vector<Diagnostic> check_liveness(const SystemAst& ast,
                                       const AnalyzeOptions& opts = {});
std::vector<Diagnostic> check_actions(const SystemAst& ast, const AnalyzeOptions& opts = {});
std::vector<Diagnostic> check_init(const SystemAst& ast, const AnalyzeOptions& opts = {});

/// All six passes, merged and sorted into reporting order.
std::vector<Diagnostic> analyze(const SystemAst& ast, const AnalyzeOptions& opts = {});

// --- read/write sets and cross-process interference -----------------

/// Per-action data-flow summary: which variables the action reads
/// (guard or any assignment RHS) and writes (assignment targets).
struct ActionRW {
  std::string action;
  int process = -1;
  SourceLoc loc;
  std::vector<std::size_t> reads;   // var indices, sorted ascending
  std::vector<std::size_t> writes;  // var indices, sorted ascending
};

/// Per-variable view keyed on the `@process` annotations: the distinct
/// processes whose actions write / read the variable (unannotated
/// actions, process == -1, are excluded). More than one writer process
/// is cross-process write interference (rule var-multi-writer).
struct VarInterference {
  std::size_t var_index = 0;
  std::vector<int> writer_processes;  // distinct, sorted
  std::vector<int> reader_processes;  // distinct, sorted
};

struct ReadWriteReport {
  std::vector<ActionRW> actions;     // one per action, declaration order
  std::vector<VarInterference> vars; // one per declared variable
};

ReadWriteReport read_write_report(const SystemAst& ast);

/// Human-readable rendering of the report (the `gcl_lint --sets` output).
std::string format_read_write_report(const SystemAst& ast);

/// Machine-readable rendering, as a `"sets": {...}` JSON object member
/// for splicing into diag.hpp's render_json document:
///   "sets": {"actions": [{"action", "process", "line", "column",
///            "reads", "writes"}, ...],
///            "vars": [{"var", "writer_processes",
///            "reader_processes"}, ...],
///            "cross_process_write_interference": bool}
/// reads/writes hold variable NAMES (declaration order); process is -1
/// for unannotated actions.
std::string render_read_write_report_json(const SystemAst& ast);

}  // namespace cref::gcl

// gcl_lint — semantic analyzer (lint) for GCL protocol files.
//
//   $ gcl_lint protocol.gcl [more.gcl ...]     # human-readable findings
//   $ gcl_lint --format=json protocol.gcl      # machine-readable, one
//                                              #   JSON document per file
//   $ gcl_lint --werror examples/gcl/*.gcl     # warnings fail the run
//   $ gcl_lint --sets protocol.gcl             # + read/write-set report
//
// Runs the six analyze.hpp passes (guard satisfiability, domain flow,
// zero divisors, liveness, action hygiene, init satisfiability) on each
// file; files that do not parse are reported as parse-error
// diagnostics through the same renderers. See README "gcl_lint" for
// the rule catalog and the JSON schema.
//
// --absint additionally runs the abstract-interpretation rules
// (src/absint/lint.hpp): statically-unreachable actions, guard
// conjuncts dead under the reachable region, variables constant under
// R#, and init regions not provably closed. Opt-in because the rules
// reason from an over-approximation of reachability — see the header
// for the per-rule caveats.
//
// --prove runs the superposition side-condition rules
// (src/prover/superposition.hpp) on every init-free file (the repo's
// wrapper convention): wrapper-nonterminating when the wrapper's own
// computation is not provably finite (a proof is reported as a Note
// naming the ranking), and — with `--base FILE` — wrapper-writes-
// foreign-var for wrapper actions writing base variables owned by a
// different @process. Files WITH an init get no --prove findings.
//
// Exit codes: 0 clean (notes allowed), 1 findings at failure level
// (any error; any warning under --werror), 2 usage error. The exit
// code is computed from the findings alone (should_fail), never from
// the renderer: text, json and sarif output of the same run always
// exit identically (pinned by tests/cli/lint_exit_codes.sh).

#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "absint/lint.hpp"
#include "gcl/analyze.hpp"
#include "gcl/diag.hpp"
#include "gcl/parser.hpp"
#include "gcl/sarif.hpp"
#include "prover/superposition.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace cref;

namespace {

enum class Format { Text, Json, Sarif };

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"werror", "sets", "absint", "prove"});
  const std::optional<std::size_t> budget =
      cli.get_count("budget", gcl::AnalyzeOptions{}.exact_budget);
  if (!budget) std::fprintf(stderr, "gcl_lint: --budget takes a whole number of at least 1\n");
  if (!budget || cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: gcl_lint [--format=text|json|sarif] [--werror] [--sets] "
                 "[--absint] [--prove [--base FILE]] [--budget N] FILE.gcl...\n"
                 "  --format=json  machine-readable output (one document per file)\n"
                 "  --format=sarif SARIF 2.1.0 (for CI code-scanning upload)\n"
                 "  --werror       treat warnings as errors (notes never fail)\n"
                 "  --sets         also report per-action read/write sets and the\n"
                 "                 cross-process interference summary\n"
                 "  --absint       also run the abstract-interpretation rules\n"
                 "                 (absint-unreachable-action, absint-guard-dead,\n"
                 "                 absint-var-constant, absint-init-not-closed)\n"
                 "  --prove        also run the superposition rules on init-free\n"
                 "                 files (wrapper-nonterminating, and with --base\n"
                 "                 the wrapper-writes-foreign-var check)\n"
                 "  --base FILE    the base system the wrappers superpose on\n"
                 "  --budget N     max valuations per exact check (default 2^20)\n");
    return 2;
  }
  const std::string format_name = cli.get("format", "text");
  Format format;
  if (format_name == "text") {
    format = Format::Text;
  } else if (format_name == "json") {
    format = Format::Json;
  } else if (format_name == "sarif") {
    format = Format::Sarif;
  } else {
    std::fprintf(stderr, "gcl_lint: unknown --format '%s' (use text, json or sarif)\n",
                 format_name.c_str());
    return 2;
  }
  const bool werror = cli.has("werror");
  gcl::AnalyzeOptions opts;
  opts.exact_budget = *budget;

  gcl::SystemAst base_ast;
  bool have_base = false;
  const std::string base_path = cli.get("base", "");
  if (!base_path.empty()) {
    try {
      base_ast = gcl::parse(util::read_file(base_path));
      have_base = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gcl_lint: --base %s: %s\n", base_path.c_str(), e.what());
      return 2;
    }
  }

  bool failed = false;
  for (const std::string& path : cli.positional()) {
    std::vector<gcl::Diagnostic> diags;
    bool parsed = false;
    gcl::SystemAst ast;
    try {
      ast = gcl::parse(util::read_file(path));
      parsed = true;
    } catch (const std::exception& e) {
      diags.push_back(gcl::parse_error_diagnostic(e.what()));
    }
    if (parsed) diags = gcl::analyze(ast, opts);
    if (parsed && cli.has("absint")) {
      absint::AbsintLintOptions aopts;
      aopts.exact_budget = opts.exact_budget;
      auto extra = absint::check_absint(ast, aopts);
      diags.insert(diags.end(), extra.begin(), extra.end());
      gcl::sort_diagnostics(diags);
    }
    if (parsed && cli.has("prove") && !ast.init) {
      prover::SuperpositionOptions sopts;
      sopts.prove.budget = opts.exact_budget;
      try {
        auto extra =
            prover::check_superposition(ast, have_base ? &base_ast : nullptr, sopts);
        diags.insert(diags.end(), extra.begin(), extra.end());
        gcl::sort_diagnostics(diags);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "gcl_lint: %s: %s\n", path.c_str(), e.what());
        return 2;
      }
    }
    // The failure decision is renderer-independent by construction:
    // it is taken here, before the format switch.
    failed |= gcl::should_fail(diags, werror);
    switch (format) {
      case Format::Sarif:
        std::fputs(gcl::render_sarif(diags, "gcl_lint", path).c_str(), stdout);
        break;
      case Format::Json: {
        const std::string extra =
            parsed && cli.has("sets") ? gcl::render_read_write_report_json(ast) : "";
        std::fputs(gcl::render_json(diags, path, extra).c_str(), stdout);
        break;
      }
      case Format::Text:
        std::fputs(gcl::render_text(diags, path).c_str(), stdout);
        if (parsed && cli.has("sets"))
          std::fputs(gcl::format_read_write_report(ast).c_str(), stdout);
        break;
    }
  }
  return failed ? 1 : 0;
}

// gcl_refine — static convergence-refinement prover for GCL files.
//
//   $ gcl_refine ABSTRACT.gcl CONCRETE.gcl            # identity alpha
//   $ gcl_refine --alpha MAP.alpha A.gcl C.gcl        # explicit alpha
//
// Decides the paper's [C curlypreceq A] WITHOUT building either state
// space: per-action simulation obligations, a stutter-ranking
// certificate for the divergence side condition, and (when needed) a
// visible ranking plus the alpha invariant for the compressed-edge side
// conditions — see src/prover/refine.hpp and DESIGN.md Section 15.
// Every certificate is re-checked by the INDEPENDENT validator before
// the tool reports success.
//
// Verdicts are three-valued: `proved` (exit 0), `refuted` (exit 1, the
// relation definitely fails, with the invalid edge), and `unknown`
// (exit 1, the prover ran out of budget/templates — the explicit
// engines may still decide it).
//
// --format=json prints one certificate (or failure) document;
// --format=sarif emits a SARIF 2.1.0 run (rules refine-refuted /
// refine-unknown; a proved refinement has zero results).
//
// Exit codes: 0 proved (and validated), 1 refuted or unknown, 2 usage
// (an unknown option or an unreadable file included).

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "gcl/alpha.hpp"
#include "gcl/diag.hpp"
#include "gcl/parser.hpp"
#include "gcl/sarif.hpp"
#include "prover/refine.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace cref;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {});
  const std::string unknown = cli.unknown_option({"alpha", "budget", "format"});
  if (!unknown.empty()) std::fprintf(stderr, "gcl_refine: unknown option --%s\n", unknown.c_str());
  if (!unknown.empty() || cli.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: gcl_refine [--alpha FILE] [--budget N] "
                 "[--format text|json|sarif] ABSTRACT.gcl CONCRETE.gcl\n"
                 "  --alpha FILE   abstraction map (alpha NAME { t := expr; ... });\n"
                 "                 defaults to the by-name identity projection\n"
                 "  --budget N     max valuations per obligation (default 2^20)\n"
                 "  --format=json  machine-readable certificate documents\n"
                 "  --format=sarif SARIF 2.1.0 (for CI code-scanning upload)\n");
    return 2;
  }
  const std::string format = cli.get("format", "text");
  if (format != "text" && format != "json" && format != "sarif") {
    std::fprintf(stderr, "gcl_refine: unknown --format '%s' (use text, json or sarif)\n",
                 format.c_str());
    return 2;
  }
  const std::string a_path = cli.positional()[0];
  const std::string c_path = cli.positional()[1];

  gcl::SystemAst a_ast, c_ast;
  gcl::AlphaSpec alpha;
  try {
    a_ast = gcl::parse(util::read_file(a_path));
    c_ast = gcl::parse(util::read_file(c_path));
    const std::string alpha_path = cli.get("alpha", "");
    alpha = alpha_path.empty() ? gcl::identity_alpha(c_ast, a_ast)
                               : gcl::parse_alpha(util::read_file(alpha_path), c_ast, a_ast);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcl_refine: %s\n", e.what());
    return 2;
  }

  prover::RefineOptions opts;
  opts.budget = cli.get_size("budget", opts.budget);
  prover::RefineResult result = prover::prove_refinement(c_ast, a_ast, alpha, opts);

  // Never report an unvalidated proof.
  if (result.verdict == prover::RefineVerdict::Proved) {
    std::string why;
    if (!prover::validate_refinement_certificate(c_ast, a_ast, alpha,
                                                 *result.certificate, &why)) {
      result.verdict = prover::RefineVerdict::Unknown;
      result.failures.push_back("validator rejected the certificate: " + why);
    }
  }
  const bool proved = result.verdict == prover::RefineVerdict::Proved;
  const char* verdict = prover::refine_verdict_name(result.verdict);

  if (format == "sarif") {
    std::vector<gcl::Diagnostic> diags;
    if (!proved) {
      const bool refuted = result.verdict == prover::RefineVerdict::Refuted;
      for (const std::string& f : result.failures) {
        gcl::Diagnostic d;
        d.rule = refuted ? gcl::Rule::RefineRefuted : gcl::Rule::RefineUnknown;
        d.severity = refuted ? gcl::Severity::Error : gcl::Severity::Warning;
        d.message = "[" + c_ast.name + " refines " + a_ast.name + "] " + verdict +
                    ": " + f;
        diags.push_back(std::move(d));
      }
    }
    std::fputs(gcl::render_sarif(diags, "gcl_refine", c_path).c_str(), stdout);
  } else if (format == "json") {
    if (proved) {
      std::fputs(
          prover::render_refinement_certificate_json(*result.certificate).c_str(),
          stdout);
    } else {
      std::ostringstream out;
      out << "{\"type\": \"refine_failure\", \"concrete\": \""
          << gcl::json_escape(c_path) << "\", \"abstract\": \""
          << gcl::json_escape(a_path) << "\", \"verdict\": \"" << verdict
          << "\", \"failures\": [";
      for (std::size_t i = 0; i < result.failures.size(); ++i)
        out << (i ? ", " : "") << '"' << gcl::json_escape(result.failures[i]) << '"';
      out << "]}\n";
      std::fputs(out.str().c_str(), stdout);
    }
  } else {
    if (proved) {
      std::printf("[%s refines %s]: proved in %.2f ms (validated)\n",
                  c_ast.name.c_str(), a_ast.name.c_str(), result.prove_ms);
      std::fputs(prover::format_refinement_certificate(c_ast, a_ast,
                                                       *result.certificate)
                     .c_str(),
                 stdout);
    } else {
      std::printf("[%s refines %s]: %s\n", c_ast.name.c_str(), a_ast.name.c_str(),
                  verdict);
      for (const std::string& f : result.failures) std::printf("  %s\n", f.c_str());
    }
  }
  return proved ? 0 : 1;
}

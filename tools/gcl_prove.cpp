// gcl_prove — static stabilization prover for GCL protocol files.
//
//   $ gcl_prove --target 'x1 == 0 && x2 == x1' chain.gcl   # convergence
//   $ gcl_prove --enabled-one ring.gcl       # the paper's unique-privilege
//                                            #   target: exactly one guard
//   $ gcl_prove --terminates wrapper.gcl     # every computation finite
//   $ gcl_prove wrapper.gcl                  # init-free file: --terminates
//
// Synthesizes a lexicographic ranking function (src/prover/prove.hpp)
// and prints the resulting ConvergenceCertificate; every certificate is
// re-checked by the INDEPENDENT validator before the tool reports
// success, so a prover bug cannot silently certify a non-stabilizing
// system. For a convergence goal, exit 0 additionally requires the
// closure leg (stabilization = convergence + closure); a
// convergence-only proof is reported as such and exits 1.
//
// Convergence refinement between two files is gcl_refine's job.
//
// --format=json prints one certificate document per file (or a
// prove_failure document); --format=sarif one SARIF 2.1.0 run per file
// (rule prove-not-proved). --budget caps both the per-obligation
// enumeration and the residual-table size (default 2^20).
//
// Exit codes: 0 every file proved (and validated), 1 some proof or
// validation failed, 2 usage error (an unknown option included).

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "absint/closure.hpp"
#include "gcl/diag.hpp"
#include "gcl/parser.hpp"
#include "gcl/sarif.hpp"
#include "prover/prove.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

using namespace cref;

namespace {

void print_failure_json(const std::string& path, const std::string& goal,
                        const std::vector<std::string>& failures) {
  std::ostringstream out;
  out << "{\"type\": \"prove_failure\", \"file\": \"" << gcl::json_escape(path)
      << "\", \"goal\": \"" << goal << "\", \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i)
    out << (i ? ", " : "") << '"' << gcl::json_escape(failures[i]) << '"';
  out << "]}\n";
  std::fputs(out.str().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"enabled-one", "terminates"});
  const std::string target_text = cli.get("target", "");
  const int goals = (!target_text.empty() ? 1 : 0) + (cli.has("enabled-one") ? 1 : 0) +
                    (cli.has("terminates") ? 1 : 0);
  const std::string unknown =
      cli.unknown_option({"target", "enabled-one", "terminates", "budget", "format"});
  if (!unknown.empty()) std::fprintf(stderr, "gcl_prove: unknown option --%s\n", unknown.c_str());
  if (!unknown.empty() || cli.positional().empty() || goals > 1) {
    std::fprintf(stderr,
                 "usage: gcl_prove [--target PRED | --enabled-one | --terminates] "
                 "[--budget N] [--format text|json|sarif] FILE.gcl...\n"
                 "  --target PRED  prove convergence to the predicate (quoted GCL\n"
                 "                 expression over the file's variables)\n"
                 "  --enabled-one  prove convergence to 'exactly one guard holds'\n"
                 "                 (the paper's unique-privilege target)\n"
                 "  --terminates   prove every computation finite (the default for\n"
                 "                 init-free wrapper files)\n"
                 "  --budget N     max valuations per obligation and table states\n"
                 "                 (default 2^20)\n"
                 "  --format=json  machine-readable certificates\n"
                 "  --format=sarif SARIF 2.1.0 (for CI code-scanning upload)\n");
    return 2;
  }
  const std::string format = cli.get("format", "text");
  if (format != "text" && format != "json" && format != "sarif") {
    std::fprintf(stderr, "gcl_prove: unknown --format '%s' (use text, json or sarif)\n",
                 format.c_str());
    return 2;
  }
  prover::ProveOptions opts;
  opts.budget = cli.get_size("budget", opts.budget);

  bool all_proved = true;
  for (const std::string& path : cli.positional()) {
    gcl::SystemAst ast;
    try {
      ast = gcl::parse(util::read_file(path));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gcl_prove: %s: %s\n", path.c_str(), e.what());
      return 2;
    }

    // Resolve the goal: an explicit flag wins; otherwise init-free files
    // get the wrapper termination check and init files need a target.
    bool termination = cli.has("terminates") || (goals == 0 && !ast.init);
    std::optional<gcl::Expr> target;
    if (!termination) {
      if (!target_text.empty()) {
        std::string err;
        target = absint::parse_predicate(ast, target_text, &err);
        if (!target) {
          std::fprintf(stderr, "gcl_prove: %s: bad --target: %s\n", path.c_str(),
                       err.c_str());
          return 2;
        }
      } else if (cli.has("enabled-one")) {
        target = prover::enabled_one_predicate(ast);
      } else {
        std::fprintf(stderr,
                     "gcl_prove: %s declares init; pick --target, --enabled-one or "
                     "--terminates\n",
                     path.c_str());
        return 2;
      }
    }

    const prover::ProveResult result =
        termination ? prover::prove_termination(ast, opts)
                    : prover::prove_convergence(ast, *target, opts);
    const std::string goal_name = termination ? "termination" : "convergence";

    std::vector<std::string> failures = result.failures;
    bool proved = result.proved;
    if (proved) {
      // Never report an unvalidated proof: the independent validator
      // must accept the certificate it just produced.
      std::string why;
      if (!prover::validate_certificate(ast, termination ? nullptr : &*target,
                                        *result.certificate, &why)) {
        proved = false;
        failures.push_back("validator rejected the certificate: " + why);
      } else if (!termination && !result.certificate->closure_proved) {
        proved = false;
        failures.push_back(
            "convergence proved but closure was not: no stabilization certificate");
      }
    }

    if (format == "sarif") {
      std::vector<gcl::Diagnostic> diags;
      for (const std::string& f : failures) {
        gcl::Diagnostic d;
        d.rule = gcl::Rule::ProveNotProved;
        d.severity = gcl::Severity::Error;
        d.message = goal_name + " not proved: " + f;
        diags.push_back(std::move(d));
      }
      std::fputs(gcl::render_sarif(diags, "gcl_prove", path).c_str(), stdout);
    } else if (format == "json") {
      if (proved)
        std::fputs(prover::render_certificate_json(*result.certificate).c_str(),
                   stdout);
      else
        print_failure_json(path, goal_name, failures);
    } else {
      if (proved) {
        std::printf("%s: %s proved in %.2f ms (validated)\n", path.c_str(),
                    termination ? "termination"
                    : result.certificate->closure_proved ? "stabilization"
                                                         : "convergence",
                    result.prove_ms);
        std::fputs(prover::format_certificate(ast, *result.certificate).c_str(),
                   stdout);
      } else {
        std::printf("%s: %s NOT proved\n", path.c_str(), goal_name.c_str());
        for (const std::string& f : failures) std::printf("  %s\n", f.c_str());
      }
    }
    all_proved &= proved;
  }
  return all_proved ? 0 : 1;
}

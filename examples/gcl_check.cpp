// Command-line front end for the guarded-command language: write a
// system the way the paper does, then analyze it without recompiling.
//
//   $ ./gcl_check protocol.gcl                     # stats + self-stabilization
//   $ ./gcl_check protocol.gcl --absint            # abstract reachability R#
//   $ ./gcl_check protocol.gcl --closure 'x == 0'  # static closure proof
//   $ ./gcl_check concrete.gcl --a abstract.gcl    # all refinement relations
//
// Lint a file with tools/gcl_lint before exploring it.
//
// --absint computes the abstract over-approximation R# of the states
// reachable from init (src/absint/absint.hpp) and reports how much of
// Sigma the engine's R#-pruned build would skip. --closure EXPR
// attempts the static proof that EXPR is closed under every action
// (the Theorem 1/3 precondition) and, when the proof succeeds,
// cross-checks it edge-by-edge on the explicit transition graph.
//
// Systems in different files must share the same variable declarations
// (same state space) — cross-space abstraction functions are a C++-level
// feature (see examples/refinement_explorer for the built-in zoo).

#include <cstdio>

#include "absint/absint.hpp"
#include "absint/closure.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "refinement/checker.hpp"
#include "refinement/convergence_time.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace cref;

namespace {

void describe(const System& sys) {
  TransitionGraph g = TransitionGraph::build(sys);
  std::size_t deadlocks = 0;
  for (StateId s = 0; s < g.num_states(); ++s) deadlocks += g.is_deadlock(s);
  std::printf("system %s: %llu states, %zu transitions, %zu deadlock state(s), "
              "%zu initial state(s), %zu action(s)\n",
              sys.name().c_str(), static_cast<unsigned long long>(g.num_states()),
              g.num_edges(), deadlocks, sys.initial_states().size(),
              sys.actions().size());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"absint"});
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: gcl_check FILE.gcl [--a ABSTRACT.gcl] [--absint] [--closure EXPR]\n"
                 "       (see examples/gcl/*.gcl for the syntax)\n");
    return 2;
  }
  try {
    const gcl::SystemAst ast = gcl::parse(util::read_file(cli.positional()[0]));
    System c = gcl::compile(ast);
    describe(c);

    if (cli.has("absint")) {
      absint::AbsintResult res = absint::analyze_reachable(ast);
      const Space& space = c.space();
      StateVec decoded;
      unsigned long long kept = 0;
      for (StateId s = 0; s < space.size(); ++s) {
        space.decode_into(s, decoded);
        kept += res.region.contains(decoded);
      }
      std::printf("abstract reachability R#: %zu box(es) after %zu iteration(s), "
                  "%.2f ms%s\n",
                  res.region.boxes.size(), res.iterations, res.analysis_ms,
                  res.collapsed ? " (collapsed to hull)" : "");
      std::printf("  |R#| = %llu of %llu states (%.1f%%) — an R#-pruned build "
                  "skips the other %.1f%%\n",
                  kept, static_cast<unsigned long long>(space.size()),
                  space.size() ? 100.0 * static_cast<double>(kept) /
                                     static_cast<double>(space.size())
                               : 100.0,
                  space.size() ? 100.0 - 100.0 * static_cast<double>(kept) /
                                             static_cast<double>(space.size())
                               : 0.0);
    }

    if (cli.has("closure")) {
      const std::string text = cli.get("closure");
      std::string err;
      auto pred = absint::parse_predicate(ast, text, &err);
      if (!pred) {
        std::fprintf(stderr, "error: --closure: %s\n", err.c_str());
        return 2;
      }
      if (auto cert = absint::make_closure_certificate(ast, *pred)) {
        std::printf("closure: PROVED — '%s' is closed under all %zu action(s) "
                    "(%zu obligation(s))\n",
                    cert->predicate.c_str(), ast.actions.size(),
                    cert->obligations.size());
        ClosedRegionCertificate crc =
            absint::to_closed_region_certificate(c.space(), cert->region);
        CheckResult r = validate_closed_region(TransitionGraph::build(c), crc);
        std::printf("  explicit edge-level cross-check: %s\n",
                    r.holds ? "confirmed" : ("REFUTED — " + r.reason).c_str());
        if (!r.holds) return 1;
      } else {
        std::printf("closure: NOT PROVED — no abstract proof that '%s' is "
                    "closed (it may still be: the abstraction only "
                    "over-approximates)\n",
                    text.c_str());
      }
    }

    if (!cli.has("a")) {
      // Single system: check self-stabilization (C stabilizing to C).
      RefinementChecker rc(c, c);
      auto r = rc.stabilizing_to();
      std::printf("self-stabilizing (every computation converges to the behaviour\n"
                  "reachable from its initial states): %s\n",
                  r.holds ? "YES" : "NO");
      if (!r.holds) {
        std::printf("  why: %s\n  witness:\n%s", r.reason.c_str(),
                    r.witness.format(c.space()).c_str());
      } else {
        auto ct = convergence_time(rc);
        if (ct.bounded)
          std::printf("worst-case convergence: %zu steps; legitimate states: %zu\n",
                      ct.worst_steps, ct.locked_count);
      }
      return r.holds ? 0 : 1;
    }

    System a = gcl::compile(gcl::parse(util::read_file(cli.get("a"))));
    describe(a);
    if (!c.space().same_shape_as(a.space())) {
      std::fprintf(stderr, "error: the two systems declare different variables\n");
      return 2;
    }
    RefinementChecker rc(c, a);
    util::Table t({"relation", "verdict", "note"});
    auto add = [&](const char* name, const CheckResult& r) {
      t.add_row({name, r.holds ? "HOLDS" : "FAILS", r.holds ? "" : r.reason});
    };
    add("[C (= A]_init", rc.refinement_init());
    add("[C (= A] everywhere", rc.everywhere_refinement());
    add("[C <~ A] convergence", rc.convergence_refinement());
    add("everywhere-eventually", rc.everywhere_eventually_refinement());
    add("C stabilizing to A", rc.stabilizing_to());
    std::printf("\n%s", t.to_string().c_str());
    auto st = rc.edge_stats();
    std::printf("\nC's edges vs A: %zu exact, %zu stutter, %zu compressed, %zu invalid\n",
                st.exact, st.stutter, st.compressed, st.invalid);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

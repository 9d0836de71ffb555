#pragma once

// Explicit-state ground truth for the prover: the semantic properties
// the static certificates claim — closure of the target, no deadlock
// outside it, and acyclicity of the outside-target subrelation (which
// over a finite Sigma IS convergence) — decided by materializing the
// transition relation. This is the prover's oracle: the fuzzer and the
// benches compare prove_convergence/prove_termination verdicts against
// these on every space small enough to explore. A "proved" verdict that
// any of these refutes is a prover soundness bug, full stop; the
// converse (ground truth converges, prover fails) is mere incompleteness.

#include <cstddef>

#include "gcl/alpha.hpp"
#include "gcl/ast.hpp"

namespace cref::prover {

struct GroundTruth {
  bool applicable = false;           // Sigma fit the cap and was explored
  bool closed = false;               // no transition leaves the target
  bool no_deadlock_outside = false;  // every state outside has a successor
  bool acyclic_outside = false;      // outside-target subrelation is a DAG
  std::size_t states = 0;
  std::size_t edges = 0;

  /// Finite Sigma: convergence == no rest-state and no loop outside P.
  bool converges() const {
    return applicable && no_deadlock_outside && acyclic_outside;
  }
  bool stabilizes() const { return converges() && closed; }
};

/// Ground truth via a materialized TransitionGraph (CSR; parallel
/// build). applicable == false when |Sigma| exceeds `max_states`.
GroundTruth explicit_check(const gcl::SystemAst& ast, const gcl::Expr& target,
                           std::size_t max_states = std::size_t{1} << 22);

/// Every computation finite == the WHOLE transition relation is acyclic.
/// `applicable` (if non-null) reports whether Sigma fit the cap; the
/// return value is meaningful only when it did.
bool explicit_terminates(const gcl::SystemAst& ast, bool* applicable = nullptr,
                         std::size_t max_states = std::size_t{1} << 22);

/// Ground truth for the static refinement prover (prover/refine.hpp):
/// [C <~ A] through `alpha`, decided by the relation engine
/// (RefinementChecker) on the explored state spaces. A static Proved
/// that `holds` refutes (or a Refuted that it confirms) is a soundness
/// bug.
struct RefineGroundTruth {
  bool applicable = false;  // both spaces fit the cap and were explored
  bool holds = false;       // convergence_refinement verdict
  std::size_t c_states = 0;
  std::size_t a_states = 0;
};

RefineGroundTruth explicit_refinement(const gcl::SystemAst& c_ast,
                                      const gcl::SystemAst& a_ast,
                                      const gcl::AlphaSpec& alpha,
                                      std::size_t max_states = std::size_t{1} << 22);

}  // namespace cref::prover

#pragma once

#include <vector>

#include "core/graph.hpp"
#include "refinement/check_result.hpp"

namespace cref {

/// A closed-region certificate: a membership vector over Sigma claimed
/// closed under the system's transitions — the Theorem 1/3 precondition
/// ("B is closed under T") in graph form. Generators are the static
/// closure prover (src/absint/closure.hpp, which derives the claim from
/// the program text without enumerating Sigma) or any explicit
/// computation; validate_closed_region re-checks the claim edge by edge
/// and shares no code with either.
struct ClosedRegionCertificate {
  std::vector<char> members;  // indexed by StateId; nonzero = in B
};

CheckResult validate_closed_region(const TransitionGraph& g,
                                   const ClosedRegionCertificate& cert);

}  // namespace cref

#include "refinement/certificate.hpp"

#include <string>

namespace cref {

CheckResult validate_closed_region(const TransitionGraph& g,
                                   const ClosedRegionCertificate& cert) {
  const StateId n = g.num_states();
  if (cert.members.size() != n)
    return CheckResult::fail("closed-region certificate: member vector has " +
                             std::to_string(cert.members.size()) + " entries for " +
                             std::to_string(n) + " states");
  for (StateId s = 0; s < n; ++s) {
    if (!cert.members[s]) continue;
    for (StateId t : g.successors(s)) {
      if (!cert.members[t])
        return CheckResult::fail("closed-region certificate: transition leaves the region",
                                 Trace{{s, t}});
    }
  }
  return CheckResult::ok();
}

}  // namespace cref

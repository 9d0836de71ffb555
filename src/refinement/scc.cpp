#include "refinement/scc.hpp"

namespace cref {

util::BitMatrix condensation_closure(const TransitionGraph& g, const Scc& scc) {
  util::BitMatrix reach(scc.count(), scc.count());
  // Bucket states by component so each row is closed in one visit.
  std::vector<std::vector<StateId>> members(scc.count());
  for (StateId s = 0; s < g.num_states(); ++s) members[scc.component(s)].push_back(s);
  for (std::size_t comp = 0; comp < scc.count(); ++comp) {
    if (scc.nontrivial(comp)) reach.set(comp, comp);
    for (StateId s : members[comp]) {
      for (StateId t : g.successors(s)) {
        std::size_t ct = scc.component(t);
        // Setting the bit unconditionally also marks a singleton
        // component self-reachable when its state has a self-loop.
        reach.set(comp, ct);
        if (ct == comp) continue;
        reach.or_row(comp, ct);
      }
    }
  }
  return reach;
}

}  // namespace cref

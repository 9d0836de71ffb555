#include "refinement/certificate.hpp"

#include <deque>

#include "refinement/scc.hpp"

namespace cref {

std::optional<StabilizationCertificate> make_certificate(const RefinementChecker& rc) {
  if (!rc.stabilizing_to().holds) return std::nullopt;
  const TransitionGraph& a = rc.a_graph();
  const StateId cn = rc.num_states();
  const StateId an = a.num_states();

  StabilizationCertificate cert;

  // Exact reachable set of A with a BFS forest as the witness.
  cert.a_reachable.assign(an, 0);
  cert.a_parent.assign(an, StabilizationCertificate::kNoParent);
  cert.a_depth.assign(an, 0);
  std::deque<StateId> queue;
  for (StateId s : rc.a_initial()) {
    if (cert.a_reachable[s]) continue;
    cert.a_reachable[s] = 1;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (StateId t : a.successors(s)) {
      if (cert.a_reachable[t]) continue;
      cert.a_reachable[t] = 1;
      cert.a_parent[t] = s;
      cert.a_depth[t] = cert.a_depth[s] + 1;
      queue.push_back(t);
    }
  }

  // rho: Tarjan component index of C. Cross-component edges go from a
  // higher to a lower id; intra-component (cycle) edges keep it equal,
  // and the stabilization verdict guarantees those are all good.
  const Scc& scc = rc.c_scc();
  cert.rho.resize(cn);
  for (StateId s = 0; s < cn; ++s) cert.rho[s] = scc.component(s);

  // sigma: longest-path index of the global subgraph of stutter edges
  // with non-A-deadlock images (acyclic by the stabilization verdict).
  auto sigma = rc.stutter_rank();
  if (!sigma) return std::nullopt;
  cert.sigma = std::move(*sigma);
  return cert;
}

CheckResult validate_certificate(const TransitionGraph& c, const TransitionGraph& a,
                                 const std::vector<StateId>& a_init,
                                 const std::vector<StateId>& alpha_table,
                                 const StabilizationCertificate& cert) {
  const StateId cn = c.num_states();
  const StateId an = a.num_states();
  if (cert.a_reachable.size() != an || cert.a_parent.size() != an ||
      cert.a_depth.size() != an || cert.rho.size() != cn || cert.sigma.size() != cn)
    return CheckResult::fail("certificate: component sizes do not match the graphs");
  if (!alpha_table.empty() && alpha_table.size() != cn)
    return CheckResult::fail("certificate: alpha table size mismatch");
  auto image = [&](StateId s) { return alpha_table.empty() ? s : alpha_table[s]; };

  // 1. a_reachable is an under-approximation of A's reachable set: every
  //    member is either initial or has a parent one BFS level up.
  for (StateId s = 0; s < an; ++s) {
    if (!cert.a_reachable[s]) continue;
    StateId p = cert.a_parent[s];
    if (p == StabilizationCertificate::kNoParent) {
      bool is_init = false;
      for (StateId i : a_init) is_init |= i == s;
      if (!is_init)
        return CheckResult::fail("certificate: reachable state with no parent is not initial",
                                 Trace{{s}});
    } else {
      if (p >= an || !cert.a_reachable[p] || !a.has_edge(p, s) ||
          cert.a_depth[s] != cert.a_depth[p] + 1)
        return CheckResult::fail("certificate: broken reachability witness", Trace{{s}});
    }
  }

  // 2. Per-edge rank conditions and per-state deadlock conditions.
  for (StateId s = 0; s < cn; ++s) {
    if (image(s) >= an) return CheckResult::fail("certificate: image out of range");
    for (StateId t : c.successors(s)) {
      StateId is = image(s), it = image(t);
      bool stutter = is == it;
      bool good = cert.a_reachable[is] && cert.a_reachable[it] &&
                  (stutter || a.has_edge(is, it));
      if (!good) {
        if (cert.rho[t] >= cert.rho[s])
          return CheckResult::fail("certificate: bad transition does not decrease rho",
                                   Trace{{s, t}});
        continue;
      }
      if (cert.rho[t] > cert.rho[s])
        return CheckResult::fail("certificate: good transition increases rho",
                                 Trace{{s, t}});
      if (stutter && !a.is_deadlock(is)) {
        // The image must not stall forever: strict progress in (rho, sigma).
        if (cert.rho[t] == cert.rho[s] && cert.sigma[t] >= cert.sigma[s])
          return CheckResult::fail(
              "certificate: stutter transition does not decrease (rho, sigma)",
              Trace{{s, t}});
      }
    }
    if (c.is_deadlock(s)) {
      StateId is = image(s);
      if (!cert.a_reachable[is] || !a.is_deadlock(is))
        return CheckResult::fail(
            "certificate: C deadlock does not map to a reachable A deadlock", Trace{{s}});
    }
  }
  return CheckResult::ok();
}

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

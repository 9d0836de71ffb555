#pragma once

// The rules of a positive certificate, stated once (DESIGN.md Section
// 14). A positive certificate of "C refines A" carries, over C's
// states, a stutter rank sigma and, as its relation needs them, a rank
// rho, a region and one A-path per edge off A. Three validators check
// such certificates, each as a VIEW that answers the rules' questions:
//
//   - the job-certificate validator (service/certify.cpp) reads C's
//     CSR, the stored tables and A's graph;
//   - refinement mode A (prover/refine.cpp) replays Sigma_C from the
//     GCL text: images through alpha, rho and sigma the certificate's
//     tuples, the region reach(I_C) when C declares init;
//   - stabilization mode A (prover/prove.cpp) replays Sigma the same
//     way. Converging to P is refining the two-state system
//     (!P -> P) under s |-> [s in P]: a step outside P is a stutter
//     that must strictly decrease the tuple, and a step out of P fails
//     to follow A exactly when closure is claimed.
//
// Write u, v for the images of an edge s -> t. The rules:
//
//   1. With rho, every edge has rho(t) <= rho(s), and one that does not
//      follow A has rho(t) < rho(s) (with A-paths: and its A-path).
//      Without rho, every edge follows A.
//   2. From a region state, t is in the region and the edge follows A.
//   3. A stutter edge (u == v) at a live image has sigma(t) < sigma(s).
//   4. A deadlock of C maps to an image where C may end.
//
// A view V answers, for states s, t and images u, v:
//   static constexpr bool kRanked, kAPaths   the components it carries
//   static constexpr bool kStoredRegion      its region is the
//                             certificate's, so rule 2 checks that it is
//                             closed (a region the view searches itself
//                             is closed by construction)
//   bool in_region(s)         s is in the region; of an edge's source it
//                             is asked only where a rule reads it, so a
//                             view may search its region on first use
//   int  rho(s, t)            -1, 0 or +1: strict decrease, tie, increase;
//                             0 without rho, so that every edge must
//                             follow A
//   int  sigma(s, t)          the same for sigma
//   bool follows(u, v)        u == v, or (u, v) is a step of A
//   bool a_path(s, t, u, v)   the edge off A has its A-path (kAPaths)
//   bool live(u)              a stutter at u owes a sigma decrease
//   bool may_end(u)           a deadlock of C may map to u
// "Follows A" and the A-path are searches on the A side, so the rules
// ask for them only where a rule needs the answer.

#include <cstdint>
#include <vector>

#include "core/space.hpp"

namespace cref::rules {

/// The rule an edge or a state breaks.
enum class Breach : std::uint8_t {
  kNone,
  kLeavesRegion,  // rule 2: t is outside the region
  kRhoIncrease,   // rule 1: rho(t) > rho(s)
  kNoAPath,       // rule 1: an edge off A that decreases rho lacks its A-path
  kKeepsRho,      // rule 1: an edge off A outside the region keeps rho
  kOffA,          // rules 1 and 2: an edge that must follow A does not
  kSigma,         // rule 3
  kDeadlock,      // rule 4
};

/// rho or sigma read from a stored per-state table, as a view answers it.
inline int compare(const std::vector<std::uint64_t>& rank, StateId s, StateId t) {
  return rank[t] < rank[s] ? -1 : rank[t] > rank[s] ? 1 : 0;
}

/// Rules 1-3 on the edge s -> t with images u and v.
template <class V, class S, class I>
Breach check_edge(V& view, const S& s, const S& t, const I& u, const I& v) {
  if constexpr (V::kStoredRegion)
    if (view.in_region(s) && !view.in_region(t)) return Breach::kLeavesRegion;
  const int d = view.rho(s, t);
  if (d > 0) return Breach::kRhoIncrease;
  // An edge that does not follow A must start outside the region and
  // decrease rho, and with A-paths have its A-path; so without A-paths
  // a decrease outside the region need not ask "follows A" at all.
  const bool settled = d < 0 && !V::kAPaths && !view.in_region(s);
  if (!settled && !view.follows(u, v)) {
    if (view.in_region(s)) return Breach::kOffA;
    if (d == 0) return V::kRanked ? Breach::kKeepsRho : Breach::kOffA;
    if constexpr (V::kAPaths)
      if (!view.a_path(s, t, u, v)) return Breach::kNoAPath;
  }
  if (u == v && view.live(u) && view.sigma(s, t) >= 0) return Breach::kSigma;
  return Breach::kNone;
}

/// Rule 4 at a state with image u; `dead` when it has no successor.
template <class V, class I>
Breach check_deadlock(V& view, const I& u, bool dead) {
  return dead && !view.may_end(u) ? Breach::kDeadlock : Breach::kNone;
}

}  // namespace cref::rules

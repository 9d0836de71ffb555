#pragma once

#include "core/abstraction.hpp"
#include "core/system.hpp"
#include "ring/kstate.hpp"

namespace cref::ring {

/// Layout of the "K-state with local work" ring: Dijkstra's counters
/// c_j in 0..K-1 plus a per-process work counter w_j in 0..m-1 for
/// processes 0..n. The state space has (K * m)^(n+1) states — the
/// generated source's scale instance: n=4, K=5, m=8 is 40^5 = 1.024e8
/// states, far past what a materialized CSR fits in memory, while the
/// abstract side (K-state, UTR) stays tiny.
///
/// The refinement story mirrors the paper's derivation pattern: each
/// process must perform m-1 units of local work under its privilege
/// before passing it on. Work steps leave the c-part (and hence the
/// K-state image) unchanged — pure stutter; privilege passes exactly as
/// in the K-state protocol — Exact images. Work strictly increases w_j,
/// so no stutter cycle exists and [WorkRing curlypreceq KState] holds;
/// chaining through K-state's stabilization to UTR (K >= n) gives the
/// Theorem 1 leg checked at full scale by bench_onthefly.
class WorkRingLayout {
 public:
  WorkRingLayout(int n, int k, int m);

  int n() const { return n_; }
  int k() const { return k_; }
  int m() const { return m_; }
  const SpacePtr& space() const { return space_; }

  /// Variable indices: c_0..c_n first, then w_0..w_n.
  std::size_t c(int j) const;
  std::size_t w(int j) const;

  /// Privilege image of the c-part, exactly KStateLayout's:
  /// t_0 = (c_0 == c_n), t_j = (c_j != c_{j-1}).
  bool token_image(const StateVec& s, int j) const;
  int image_token_count(const StateVec& s) const;

  /// Initial states: a single privilege and no work done anywhere. The
  /// all-zero w constraint keeps I_C a thin slice of Sigma, which is
  /// what makes the lazy reachable-region sweep meaningful at scale.
  StatePredicate initial_predicate() const;

 private:
  int n_;
  int k_;
  int m_;
  SpacePtr space_;
};

/// The work ring: process j passes the privilege only after finishing
/// its work quota (w_j == m-1, reset on passing); under a privilege it
/// may take one work step (w_j < m-1 -> w_j + 1).
System make_work_ring(const WorkRingLayout& l);

/// Negative control: the work step loops (w_j := (w_j + 1) mod m, guard
/// only requires the privilege). A privileged process can now cycle its
/// work counter forever without moving the K-state image — a reachable
/// pure-stutter cycle, so convergence refinement to K-state FAILS with a
/// divergence witness. Pins that the divergence search over a generated
/// source actually bites.
System make_work_ring_looping(const WorkRingLayout& l);

/// Work-skip wrapper W' (the Theorem 3 leg): a privileged process jumps
/// its work counter straight to the quota (w_j := m-1 when w_j < m-1).
/// Its image under the forget-work abstraction is a no-op, and it
/// strictly increases w_j, so box(WorkRing, W') still converges to
/// K-state — wrappers that refine skip preserve the refinement.
System make_work_skip(const WorkRingLayout& l);

/// Forget-work abstraction onto the K-state ring (c-part projection).
/// LAZY: at 10^8 concrete states an eager table would dwarf the engine.
Abstraction make_alpha_forget_work(const WorkRingLayout& l, const KStateLayout& ks);

/// Composed abstraction straight onto UTR token states (privilege image
/// of the c-part). Lazy, same reason.
Abstraction make_alpha_work_to_utr(const WorkRingLayout& l, const UtrLayout& utr);

}  // namespace cref::ring

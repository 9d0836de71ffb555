#include "service/certify.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "refinement/checker.hpp"
#include "refinement/positive_rules.hpp"
#include "refinement/reachability.hpp"
#include "refinement/scc.hpp"
#include "util/bitset.hpp"

namespace cref::service {

namespace {

std::vector<char> to_chars(const util::DenseBitset& b) {
  std::vector<char> v(b.size(), 0);
  b.for_each_set([&](std::size_t i) { v[i] = 1; });
  return v;
}

// ---------------------------------------------------------------- generation

std::vector<std::uint64_t> scc_rho(const RefinementChecker& rc) {
  const StateId cn = rc.num_states();
  const Scc& scc = rc.c_scc();
  std::vector<std::uint64_t> rho(cn);
  for (StateId s = 0; s < cn; ++s) rho[s] = scc.component(s);
  return rho;
}

constexpr bool init_scoped(Relation r) {
  return r == Relation::kRefinementInit || r == Relation::kConvergence ||
         r == Relation::kEventually;
}

constexpr bool has_rho(Relation r) {
  return r == Relation::kConvergence || r == Relation::kEventually ||
         r == Relation::kStabilizing;
}

std::optional<JobCertificate> make_positive(const RefinementChecker& rc, Relation r,
                                            const CertifyOptions& opts) {
  JobCertificate cert;
  cert.positive = true;

  util::DenseBitset region;
  if (init_scoped(r)) {
    region = reachable_from(rc.c_graph(), rc.c_initial());
    cert.c_region = to_chars(region);
  }

  // sigma: global for the relations whose stutter condition is global;
  // region-restricted for refinement_init (a stutter cycle outside the
  // reachable region does not matter there).
  auto sigma = rc.stutter_rank(r == Relation::kRefinementInit ? &region : nullptr);
  if (!sigma) return std::nullopt;
  cert.sigma = std::move(*sigma);

  // rho: C's Tarjan component ids. Cross-component edges go from a
  // higher to a lower id and cycle edges keep it equal, and the verdict
  // guarantees that every cycle edge follows A.
  if (has_rho(r)) cert.rho = scc_rho(rc);

  if (r == Relation::kConvergence) {
    // Every non-exact, non-stutter edge must be Compressed; store the
    // dropped A-path proving it.
    const TransitionGraph& c = rc.c_graph();
    const TransitionGraph& a = rc.a_graph();
    for (StateId s = 0; s < c.num_states(); ++s) {
      const StateId is = rc.image(s);
      for (StateId t : c.successors(s)) {
        const StateId it = rc.image(t);
        if (is == it || a.has_edge(is, it)) continue;
        if (cert.compressed.size() >= opts.max_compressed_witnesses) return std::nullopt;
        auto path = find_path(a, {is}, it);
        if (!path) return std::nullopt;  // Invalid edge: the verdict cannot be positive
        cert.compressed.push_back({s, t, std::move(path->states)});
      }
    }
  }
  return cert;
}

std::optional<JobCertificate> make_negative(const RefinementChecker& rc, Relation r,
                                            const CheckResult& result) {
  const TransitionGraph& c = rc.c_graph();
  const TransitionGraph& a = rc.a_graph();
  const std::vector<StateId>& w = result.witness.states;
  JobCertificate cert;
  cert.positive = false;

  if (r == Relation::kStabilizing && rc.a_initial().empty()) {
    cert.kind = ViolationKind::kNoAInit;
    return cert;
  }
  if (w.empty()) return std::nullopt;

  // Evidence for the init-scoped component must be rooted at I_C; the
  // path is omitted when the witness itself starts there.
  auto rooted = [&](StateId target) -> bool {
    for (StateId i : rc.c_initial())
      if (i == target) return true;
    auto p = find_path(c, rc.c_initial(), target);
    if (!p) return false;
    cert.init_path = std::move(p->states);
    return true;
  };

  if (w.size() == 1) {
    const StateId s = w[0];
    if (!c.is_deadlock(s)) return std::nullopt;
    const StateId is = rc.image(s);
    if (r == Relation::kStabilizing) {
      if (!a.is_deadlock(is)) {
        cert.kind = ViolationKind::kDeadlock;
      } else {
        if (rc.a_reachable().test(is)) return std::nullopt;
        cert.kind = ViolationKind::kUnreachableImage;
      }
    } else {
      if (a.is_deadlock(is)) return std::nullopt;
      cert.kind = ViolationKind::kDeadlock;
      if (r == Relation::kRefinementInit && !rooted(s)) return std::nullopt;
    }
    return cert;
  }

  bool has_non_ta = false;  // some edge with differing images not in T_A
  bool all_stutter = true;
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    const StateId iu = rc.image(w[i]), iv = rc.image(w[i + 1]);
    if (iu != iv) {
      all_stutter = false;
      if (!a.has_edge(iu, iv)) has_non_ta = true;
    }
  }

  if (w.front() == w.back()) {  // cycle witness
    if (has_non_ta) {
      cert.kind = ViolationKind::kBadCycle;
      if (r == Relation::kRefinementInit && !rooted(w.front())) return std::nullopt;
    } else if (all_stutter && !a.is_deadlock(rc.image(w.front()))) {
      cert.kind = ViolationKind::kStutterCycle;
      if (r == Relation::kRefinementInit && !rooted(w.front())) return std::nullopt;
    } else {
      // Every edge follows A (or stutters at a deadlock image): only
      // stabilization can still fail here, via an unreachable image.
      if (r != Relation::kStabilizing) return std::nullopt;
      bool outside = false;
      for (StateId u : w) outside |= !rc.a_reachable().test(rc.image(u));
      if (!outside) return std::nullopt;
      cert.kind = ViolationKind::kUnreachableImage;
    }
    return cert;
  }

  // Path witness ending at the violating edge.
  if (r == Relation::kStabilizing) return std::nullopt;
  const StateId u = w[w.size() - 2], v = w.back();
  const StateId iu = rc.image(u), iv = rc.image(v);
  if (iu == iv || a.has_edge(iu, iv)) return std::nullopt;
  if (r == Relation::kConvergence) {
    // Distinguish the global Invalid-edge violation from the
    // init-scoped Compressed-edge one (needs rooting).
    if (!reachable_from(a, {iu}).test(iv)) {
      cert.kind = ViolationKind::kInvalidEdge;
      return cert;
    }
  }
  cert.kind = ViolationKind::kBadEdge;
  if (r != Relation::kEverywhere && !rooted(w.front())) return std::nullopt;
  return cert;
}

// ---------------------------------------------------------------- validation

struct Ctx {
  const TransitionGraph& c;
  const TransitionGraph& a;
  const std::vector<StateId>& c_init;
  const std::vector<StateId>& a_init;
  const std::vector<StateId>& alpha;
  StateId cn, an;

  StateId img(StateId s) const { return alpha.empty() ? s : alpha[s]; }
};

bool is_path(const TransitionGraph& g, const std::vector<StateId>& states) {
  for (StateId s : states)
    if (s >= g.num_states()) return false;
  for (std::size_t i = 0; i + 1 < states.size(); ++i)
    if (!g.has_edge(states[i], states[i + 1])) return false;
  return true;
}

/// The job certificate as the rules of refinement/positive_rules.hpp
/// read it: stored tables over C, A's graph, and R_A for stabilizing.
template <Relation r>
struct StoredView {
  static constexpr bool kRanked = has_rho(r);
  static constexpr bool kAPaths = r == Relation::kConvergence;
  static constexpr bool kStab = r == Relation::kStabilizing;
  static constexpr bool kStoredRegion = init_scoped(r);
  const Ctx& x;
  const JobCertificate& cert;
  util::DenseBitset ra;       // R_A, stabilizing only
  std::size_t next_path = 0;  // convergence: the k-th edge off A owns path k

  bool in_region(StateId s) const { return kStoredRegion && cert.c_region[s]; }
  int rho(StateId s, StateId t) const { return kRanked ? rules::compare(cert.rho, s, t) : 0; }
  int sigma(StateId s, StateId t) const { return rules::compare(cert.sigma, s, t); }
  bool follows(StateId u, StateId v) const {
    return (!kStab || (ra[u] && ra[v])) && (u == v || x.a.has_edge(u, v));
  }
  bool a_path(StateId s, StateId t, StateId u, StateId v) {
    if (next_path >= cert.compressed.size()) return false;
    const JobCertificate::APath& p = cert.compressed[next_path++];
    return p.s == s && p.t == t && p.path.size() >= 2 && p.path.front() == u &&
           p.path.back() == v && is_path(x.a, p.path);
  }
  bool live(StateId u) const { return !x.a.is_deadlock(u); }
  bool may_end(StateId u) const { return x.a.is_deadlock(u) && (!kStab || ra[u]); }
};

const char* breach_message(rules::Breach b, Relation r) {
  switch (b) {
    case rules::Breach::kLeavesRegion: return "certificate: region is not closed under T_C";
    case rules::Breach::kRhoIncrease: return "certificate: edge increases rho";
    case rules::Breach::kNoAPath: return "certificate: compressed edge lacks its A-path";
    case rules::Breach::kKeepsRho: return "certificate: edge off A does not decrease rho";
    case rules::Breach::kOffA: return "certificate: edge does not follow A";
    case rules::Breach::kSigma: return "certificate: stutter edge does not decrease sigma";
    default:  // rule 4
      return r == Relation::kStabilizing
                 ? "certificate: C deadlock image is not an A deadlock in R_A"
                 : "certificate: C deadlock image is not an A deadlock";
  }
}

/// The one positive validator: a single pass over C's edges puts each
/// to the rules, with whichever components `r` carries. Instantiated
/// per relation so the loop carries no relation tests.
template <Relation r>
CheckResult validate_positive(const Ctx& x, const JobCertificate& cert) {
  if (cert.sigma.size() != x.cn)
    return CheckResult::fail("certificate: sigma size does not match C");
  if (has_rho(r) && cert.rho.size() != x.cn)
    return CheckResult::fail("certificate: rho size does not match C");
  if (init_scoped(r)) {
    if (cert.c_region.size() != x.cn)
      return CheckResult::fail("certificate: region size does not match C");
    for (StateId i : x.c_init)
      if (!cert.c_region[i])
        return CheckResult::fail("certificate: region omits an initial state", Trace{{i}});
  }
  StoredView<r> view{x, cert, {}};
  if (r == Relation::kStabilizing) {
    if (x.a_init.empty())
      return CheckResult::fail("certificate: stabilizing claim with empty I_A");
    view.ra = reachable_from(x.a, x.a_init);
  }

  for (StateId s = 0; s < x.cn; ++s) {
    if (r == Relation::kRefinementInit && !view.in_region(s)) continue;
    const StateId u = x.img(s);
    for (StateId t : x.c.successors(s))
      if (const rules::Breach b = rules::check_edge(view, s, t, u, x.img(t));
          b != rules::Breach::kNone)
        return CheckResult::fail(breach_message(b, r), Trace{{s, t}});
    if (const rules::Breach b = rules::check_deadlock(view, u, x.c.is_deadlock(s));
        b != rules::Breach::kNone)
      return CheckResult::fail(breach_message(b, r), Trace{{s}});
  }
  return CheckResult::ok();
}

bool in_c_init(const Ctx& x, StateId s) {
  for (StateId i : x.c_init)
    if (i == s) return true;
  return false;
}

/// Init-scoped evidence must reach the witness from I_C: either the
/// witness starts there, or `init_path` is a C-path from I_C to it.
CheckResult check_rooted(const Ctx& x, const std::vector<StateId>& w,
                         const JobCertificate& cert) {
  if (in_c_init(x, w.front())) return CheckResult::ok();
  if (cert.init_path.empty() || !is_path(x.c, cert.init_path) ||
      !in_c_init(x, cert.init_path.front()) || cert.init_path.back() != w.front())
    return CheckResult::fail("certificate: witness is not rooted at an initial state of C");
  return CheckResult::ok();
}

CheckResult validate_negative(const Ctx& x, Relation r, const Trace& witness,
                              const JobCertificate& cert) {
  const std::vector<StateId>& w = witness.states;

  if (cert.kind == ViolationKind::kNoAInit) {
    if (r == Relation::kStabilizing && x.a_init.empty()) return CheckResult::ok();
    return CheckResult::fail("certificate: no-a-init evidence for a relation with I_A");
  }

  if (w.empty() || !is_path(x.c, w))
    return CheckResult::fail("certificate: witness is not a path of C");
  const bool cycle = w.size() >= 2 && w.front() == w.back();

  switch (cert.kind) {
    case ViolationKind::kDeadlock: {
      if (w.size() != 1 || !x.c.is_deadlock(w[0]))
        return CheckResult::fail("certificate: deadlock evidence is not a C deadlock");
      if (x.a.is_deadlock(x.img(w[0])))
        return CheckResult::fail("certificate: deadlock image IS an A deadlock");
      if (r == Relation::kRefinementInit) return check_rooted(x, w, cert);
      return CheckResult::ok();  // the deadlock condition is global elsewhere
    }
    case ViolationKind::kBadEdge: {
      if (r == Relation::kStabilizing)
        return CheckResult::fail("certificate: a bad edge alone does not refute stabilization");
      if (w.size() < 2) return CheckResult::fail("certificate: bad-edge evidence too short");
      const StateId iu = x.img(w[w.size() - 2]), iv = x.img(w.back());
      if (iu == iv || x.a.has_edge(iu, iv))
        return CheckResult::fail("certificate: final edge is exact or stutter after all");
      if (r == Relation::kEverywhere) return CheckResult::ok();
      // For the init-scoped relations (and the init component of
      // convergence/eventually, where off-cycle non-T_A edges may be
      // legal globally) the edge must be reachable from I_C.
      return check_rooted(x, w, cert);
    }
    case ViolationKind::kBadCycle: {
      if (!cycle) return CheckResult::fail("certificate: bad-cycle evidence is not a cycle");
      bool found = false;
      for (std::size_t i = 0; i + 1 < w.size(); ++i) {
        const StateId iu = x.img(w[i]), iv = x.img(w[i + 1]);
        found |= iu != iv && !x.a.has_edge(iu, iv);
      }
      if (!found)
        return CheckResult::fail("certificate: cycle has no edge outside T_A");
      if (r == Relation::kRefinementInit) return check_rooted(x, w, cert);
      return CheckResult::ok();
    }
    case ViolationKind::kStutterCycle: {
      if (!cycle)
        return CheckResult::fail("certificate: stutter-cycle evidence is not a cycle");
      const StateId i0 = x.img(w.front());
      for (StateId u : w)
        if (x.img(u) != i0)
          return CheckResult::fail("certificate: cycle is not pure stutter");
      if (x.a.is_deadlock(i0))
        return CheckResult::fail("certificate: stutter-cycle image IS an A deadlock");
      if (r == Relation::kRefinementInit) return check_rooted(x, w, cert);
      return CheckResult::ok();
    }
    case ViolationKind::kInvalidEdge: {
      if (r == Relation::kStabilizing)
        return CheckResult::fail(
            "certificate: an invalid edge alone does not refute stabilization");
      if (w.size() < 2)
        return CheckResult::fail("certificate: invalid-edge evidence too short");
      const StateId iu = x.img(w[w.size() - 2]), iv = x.img(w.back());
      if (iu == iv)
        return CheckResult::fail("certificate: invalid-edge endpoints stutter");
      if (reachable_from(x.a, {iu}).test(iv))
        return CheckResult::fail("certificate: target image is reachable in A after all");
      if (r == Relation::kRefinementInit || r == Relation::kEventually)
        return check_rooted(x, w, cert);
      return CheckResult::ok();
    }
    case ViolationKind::kUnreachableImage: {
      if (r != Relation::kStabilizing)
        return CheckResult::fail(
            "certificate: unreachable-image evidence only refutes stabilization");
      const util::DenseBitset ra = reachable_from(x.a, x.a_init);
      if (w.size() == 1) {
        if (!x.c.is_deadlock(w[0]))
          return CheckResult::fail("certificate: single-state evidence is not a C deadlock");
        if (ra[x.img(w[0])])
          return CheckResult::fail("certificate: deadlock image is reachable in A");
        return CheckResult::ok();
      }
      if (!cycle)
        return CheckResult::fail("certificate: unreachable-image evidence is not a cycle");
      for (StateId u : w)
        if (!ra[x.img(u)]) return CheckResult::ok();
      return CheckResult::fail("certificate: every cycle image is reachable in A");
    }
    case ViolationKind::kNoAInit:
      break;  // handled above
  }
  return CheckResult::fail("certificate: unknown violation kind");
}

}  // namespace

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kDeadlock:
      return "deadlock";
    case ViolationKind::kBadEdge:
      return "bad-edge";
    case ViolationKind::kBadCycle:
      return "bad-cycle";
    case ViolationKind::kStutterCycle:
      return "stutter-cycle";
    case ViolationKind::kInvalidEdge:
      return "invalid-edge";
    case ViolationKind::kNoAInit:
      return "no-a-init";
    case ViolationKind::kUnreachableImage:
      return "unreachable-image";
  }
  return "?";
}

ViolationKind violation_kind_from_string(const std::string& name) {
  for (ViolationKind k :
       {ViolationKind::kDeadlock, ViolationKind::kBadEdge, ViolationKind::kBadCycle,
        ViolationKind::kStutterCycle, ViolationKind::kInvalidEdge, ViolationKind::kNoAInit,
        ViolationKind::kUnreachableImage})
    if (name == to_string(k)) return k;
  throw std::runtime_error("unknown violation kind: " + name);
}

std::optional<JobCertificate> make_job_certificate(const RefinementChecker& rc, Relation r,
                                                   const CheckResult& result,
                                                   const CertifyOptions& opts) {
  return result.holds ? make_positive(rc, r, opts) : make_negative(rc, r, result);
}

CheckResult validate_job_certificate(Relation r, bool claimed_holds, const Trace& witness,
                                     const JobCertificate& cert, const TransitionGraph& c,
                                     const TransitionGraph& a,
                                     const std::vector<StateId>& c_init,
                                     const std::vector<StateId>& a_init,
                                     const std::vector<StateId>& alpha) {
  Ctx x{c, a, c_init, a_init, alpha, c.num_states(), a.num_states()};
  if (alpha.empty() && x.cn != x.an)
    return CheckResult::fail("certificate: identity alpha requires equal state counts");
  if (!alpha.empty() && alpha.size() != x.cn)
    return CheckResult::fail("certificate: alpha table size mismatch");
  if (cert.positive != claimed_holds)
    return CheckResult::fail("certificate: polarity does not match the stored verdict");
  if (!claimed_holds) return validate_negative(x, r, witness, cert);
  switch (r) {
    case Relation::kRefinementInit:
      return validate_positive<Relation::kRefinementInit>(x, cert);
    case Relation::kEverywhere:
      return validate_positive<Relation::kEverywhere>(x, cert);
    case Relation::kConvergence:
      return validate_positive<Relation::kConvergence>(x, cert);
    case Relation::kEventually:
      return validate_positive<Relation::kEventually>(x, cert);
    case Relation::kStabilizing:
      return validate_positive<Relation::kStabilizing>(x, cert);
  }
  return CheckResult::fail("certificate: unknown relation");
}

}  // namespace cref::service

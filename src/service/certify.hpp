#pragma once

// Trust-free certification of cached verdicts, for ALL five relations
// and BOTH polarities. A cache entry is served only after its
// certificate re-proves the stored verdict against graphs rebuilt
// locally from the request — the entry itself is never trusted, so a
// corrupted, stale, or even key-colliding entry can only cause a
// recompute, never a wrong answer.
//
// A positive certificate is at most four components, each indexed by
// C-state: `sigma` (always), `rho` (convergence, eventually,
// stabilizing), `region` (the three init-scoped relations) and one
// A-path per compressed edge (convergence). The validator checks them
// in ONE pass over C's edges. Write u, v for the images of an edge
// s -> t; the edge FOLLOWS A when u == v or (u, v) is in T_A, and for
// stabilizing also u, v are in R_A = reachable(A, I_A), which the
// validator computes itself. The rules:
//
//   1. With rho, every edge has rho(t) <= rho(s), and one that does not
//      follow A has rho(t) < rho(s) (convergence: and its A-path).
//      Without rho, every edge follows A.
//   2. From a region state, t is in the region and the edge follows A;
//      refinement-init checks nothing outside its region.
//   3. A stutter edge whose image is not an A-deadlock has
//      sigma(t) < sigma(s).
//   4. A deadlock of C maps to a deadlock of A (stabilizing: in R_A).
//
// Why each accepted certificate is sound:
//
//   everywhere      every edge follows A, sigma strictly decreases on
//                   each stutter edge at a non-deadlock image, and C's
//                   deadlocks map to A's: every computation's image is a
//                   computation of A, up to finitely many stutters.
//   refinement-init the same, checked only inside `region`, which holds
//                   I_C and is closed under T_C, so it holds every state
//                   a computation from I_C can visit.
//   convergence     the region conditions, plus: rho never increases
//                   and strictly decreases on every edge that does not
//                   follow A, so no cycle holds such an edge; the stored
//                   A-path makes each one Compressed, not Invalid.
//   eventually      as convergence without the A-paths: cycles follow A,
//                   off-cycle edges are unconstrained.
//   stabilizing     rho as above, with R_A in "follows": every cycle
//                   runs inside R_A along A, stutters cannot stall at a
//                   non-final image, and deadlocks map to reachable A
//                   deadlocks, so every computation ends in a suffix of
//                   one of A.
//
// Negative certificates are replayable evidence: the stored witness is
// re-walked edge by edge through T_C and a locally-checkable violation
// condition is re-established on it (ViolationKind). Claims of
// NON-reachability in A are re-decided by the validator's own search
// of T_A, from I_A or from the source image.
//
// Validators use only graph primitives (successors, has_edge,
// is_deadlock) and share no analysis code with the engine.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "refinement/check_result.hpp"
#include "service/relation.hpp"

namespace cref {
class RefinementChecker;
}

namespace cref::service {

/// The locally-checkable violation condition a negative certificate
/// re-establishes on the stored witness.
enum class ViolationKind : std::uint8_t {
  kDeadlock,          // single-state witness: C-deadlock with a non-A-deadlock image
  kBadEdge,           // path witness: last edge has differing images not in T_A
  kBadCycle,          // cycle witness containing an edge with differing images not in T_A
  kStutterCycle,      // pure-stutter cycle whose image is not an A-deadlock
  kInvalidEdge,       // path witness: last edge's target image not reachable in A
                      // from its source image
  kNoAInit,           // stabilizing: A has no initial states
  kUnreachableImage,  // stabilizing: cycle/deadlock witness with an image outside R_A
};

const char* to_string(ViolationKind k);
ViolationKind violation_kind_from_string(const std::string& name);

/// Certificate of one cached (relation, verdict) pair. Positive and
/// negative components share the struct so cache entries serialize one
/// shape; unused components stay empty.
struct JobCertificate {
  bool positive = true;

  // Positive components.
  std::vector<std::uint64_t> rho;    // convergence / eventually / stabilizing
  std::vector<std::uint64_t> sigma;  // every relation
  std::vector<char> c_region;        // init-scoped relations: superset of reachable(I_C)
  struct APath {
    StateId s = 0, t = 0;         // the compressed concrete edge
    std::vector<StateId> path;    // A-path image(s) -> image(t), length >= 1
  };
  std::vector<APath> compressed;     // convergence, in C's edge order

  // Negative components (the witness itself lives in the cached
  // CheckResult and is passed to the validator alongside).
  ViolationKind kind = ViolationKind::kDeadlock;
  std::vector<StateId> init_path;    // C-path from I_C to the witness (init-scoped evidence)

  // Static refinement certificate (GCL convergence jobs proved by the
  // static prover, src/prover/refine.hpp): the serialized
  // RefinementCertificate ("refine-cert" text). When present, warm hits
  // revalidate it against the request's ASTs alone — no graph is ever
  // built. Empty for graph-certified entries.
  std::string refine;
};

struct CertifyOptions {
  /// Convergence certificates store one A-path per compressed edge;
  /// above this many the instance is not certified (the entry is cached
  /// without a certificate and warm hits recompute).
  std::size_t max_compressed_witnesses = 4096;
};

/// Builds the certificate for `result` == run_relation(rc, r). Returns
/// nullopt when the instance is not certifiable (witness shape outside
/// the evidence vocabulary, or over the compressed-witness cap) — never
/// a wrong certificate. A positive stabilizing certificate reads only
/// rho and sigma, so `rc` may generate C; the rest need its CSR.
std::optional<JobCertificate> make_job_certificate(const RefinementChecker& rc, Relation r,
                                                   const CheckResult& result,
                                                   const CertifyOptions& opts = {});

/// Independently re-proves `claimed_holds` (and, for negatives, that
/// `witness` is genuine evidence) against the given graphs. ok() iff
/// the certificate establishes the verdict; any failure names the
/// broken condition. Accepting is SOUND: a validated positive implies
/// the relation holds, a validated negative implies it fails with the
/// given witness. `alpha` (empty = identity) must map C's states into
/// A's: it comes from the request, never from the entry.
CheckResult validate_job_certificate(Relation r, bool claimed_holds, const Trace& witness,
                                     const JobCertificate& cert, const TransitionGraph& c,
                                     const TransitionGraph& a,
                                     const std::vector<StateId>& c_init,
                                     const std::vector<StateId>& a_init,
                                     const std::vector<StateId>& alpha);

}  // namespace cref::service

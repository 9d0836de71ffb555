#include "service/certify.hpp"

#include <gtest/gtest.h>

#include "refinement/checker.hpp"
#include "service/relation.hpp"

namespace cref::service {
namespace {

struct Inst {
  TransitionGraph c, a;
  std::vector<StateId> ci, ai;
  std::vector<StateId> alpha;
};

// Round-trips one (instance, relation): runs the real checker, builds
// the certificate, validates it, and hands both back for tampering.
struct RoundTrip {
  CheckResult result;
  JobCertificate cert;
};

RoundTrip round_trip(const Inst& in, Relation r, bool expect_holds) {
  RefinementChecker rc(in.c, in.a, in.ci, in.ai, in.alpha);
  CheckResult res = run_relation(rc, r);
  EXPECT_EQ(res.holds, expect_holds) << res.reason;
  auto cert = make_job_certificate(rc, r, res);
  EXPECT_TRUE(cert.has_value()) << "instance not certified";
  CheckResult v = validate_job_certificate(r, res.holds, res.witness, *cert, in.c, in.a, in.ci,
                                           in.ai, in.alpha);
  EXPECT_TRUE(v.holds) << v.reason;
  return {std::move(res), std::move(*cert)};
}

CheckResult revalidate(const Inst& in, Relation r, const RoundTrip& rt,
                       const JobCertificate& cert) {
  return validate_job_certificate(r, rt.result.holds, rt.result.witness, cert, in.c, in.a,
                                  in.ci, in.ai, in.alpha);
}

// C == A: every relation holds; the baseline positive instance.
Inst identical() {
  Inst in;
  in.c = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  in.a = in.c;
  in.ci = in.ai = {0};
  return in;
}

// Convergence-but-not-everywhere: C compresses A's path 0 -> 1 -> 2.
// I_C = {1} keeps the compressed edge outside the init region (inside
// it, even convergence forbids compression).
Inst compressed() {
  Inst in;
  in.a = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  in.c = TransitionGraph::from_edges(3, {{0, 2}, {1, 2}});
  in.ci = {1};
  in.ai = {0};
  return in;
}

// refinement_init-but-not-everywhere: the bad edge 2 -> 3 is
// unreachable from I_C = {0}.
Inst init_scoped() {
  Inst in;
  in.a = TransitionGraph::from_edges(4, {{0, 1}});
  in.c = TransitionGraph::from_edges(4, {{0, 1}, {2, 3}});
  in.ci = in.ai = {0};
  return in;
}

// eventually-but-not-convergence: off-cycle edge 2 -> 0 is Invalid
// (state 0 is not reachable from state 2 in A).
Inst eventually_only() {
  Inst in;
  in.a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  in.c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}, {2, 0}});
  in.ci = in.ai = {0};
  return in;
}

// Stabilizing: C adds recovery edges into A's legit cycle.
Inst stabilizing() {
  Inst in;
  in.a = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}});
  in.c = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 0}, {3, 2}});
  in.ci = in.ai = {0};
  return in;
}

// --------------------------------------------------------- positive round trips

TEST(CertifyTest, PositiveRoundTripsAcrossRelations) {
  for (Relation r : kAllRelations) round_trip(identical(), r, true);
  round_trip(compressed(), Relation::kConvergence, true);
  round_trip(compressed(), Relation::kEventually, true);
  round_trip(init_scoped(), Relation::kRefinementInit, true);
  round_trip(eventually_only(), Relation::kEventually, true);
  round_trip(stabilizing(), Relation::kStabilizing, true);
}

TEST(CertifyTest, NegativeRoundTripsAcrossRelations) {
  round_trip(compressed(), Relation::kEverywhere, false);       // bad edge
  round_trip(init_scoped(), Relation::kEverywhere, false);      // bad edge (global)
  round_trip(eventually_only(), Relation::kConvergence, false); // invalid edge
  Inst dead;  // C deadlocks at 0; A keeps moving there
  dead.a = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  dead.c = TransitionGraph::from_edges(2, {{1, 0}});
  dead.ci = dead.ai = {1};
  for (Relation r : kAllRelations) round_trip(dead, r, false);
  Inst bad_cycle;  // C cycles through an edge A lacks
  bad_cycle.a = TransitionGraph::from_edges(2, {{0, 1}});
  bad_cycle.c = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  bad_cycle.ci = bad_cycle.ai = {0};
  round_trip(bad_cycle, Relation::kEventually, false);
  round_trip(bad_cycle, Relation::kStabilizing, false);
  Inst stutter;  // alpha collapses C's 2-cycle onto a non-deadlock A state
  stutter.c = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  stutter.a = TransitionGraph::from_edges(2, {{0, 1}});
  stutter.ci = stutter.ai = {0};
  stutter.alpha = {0, 0};
  round_trip(stutter, Relation::kEverywhere, false);
}

// ----------------------------------------------------------------- tampering

TEST(CertifyTest, TamperedPositiveEverywhereIsRejected) {
  Inst in = identical();
  RoundTrip rt = round_trip(in, Relation::kEverywhere, true);
  JobCertificate bad = rt.cert;
  bad.sigma.pop_back();  // size mismatch
  EXPECT_FALSE(revalidate(in, Relation::kEverywhere, rt, bad).holds);
}

TEST(CertifyTest, TamperedStutterSigmaIsRejected) {
  // A positive instance that actually NEEDS sigma: C stutters (via
  // alpha) along 0 -> 1 while A sits at the non-deadlock image 0.
  Inst in;
  in.c = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  in.a = TransitionGraph::from_edges(3, {{0, 2}});
  in.alpha = {0, 0, 2};
  in.ci = in.ai = {0};
  RoundTrip rt = round_trip(in, Relation::kEverywhere, true);
  JobCertificate bad = rt.cert;
  bad.sigma.assign(bad.sigma.size(), 7);  // constant sigma: no strict decrease
  EXPECT_FALSE(revalidate(in, Relation::kEverywhere, rt, bad).holds);
}

TEST(CertifyTest, TamperedConvergenceCertificateIsRejected) {
  Inst in = compressed();
  RoundTrip rt = round_trip(in, Relation::kConvergence, true);
  {
    JobCertificate bad = rt.cert;
    bad.compressed.clear();  // drop the A-path witnesses
    EXPECT_FALSE(revalidate(in, Relation::kConvergence, rt, bad).holds);
  }
  {
    JobCertificate bad = rt.cert;
    ASSERT_FALSE(bad.compressed.empty());
    bad.compressed[0].path = {0, 2};  // not a path of A
    EXPECT_FALSE(revalidate(in, Relation::kConvergence, rt, bad).holds);
  }
  {
    JobCertificate bad = rt.cert;
    bad.rho.assign(bad.rho.size(), 0);  // compressed edge no longer decreases rho
    EXPECT_FALSE(revalidate(in, Relation::kConvergence, rt, bad).holds);
  }
}

TEST(CertifyTest, APathFiledUnderAnotherEdgeIsRejected) {
  // The stored path 0 -> 1 -> 2 is a genuine A-path for the compressed
  // edge 0 -> 2, but filed under C's edge 1 -> 2: path k must name the
  // k-th edge off A.
  Inst in = compressed();
  RoundTrip rt = round_trip(in, Relation::kConvergence, true);
  JobCertificate bad = rt.cert;
  ASSERT_EQ(bad.compressed.size(), 1u);
  ASSERT_EQ(bad.compressed[0].s, 0u);
  bad.compressed[0].s = 1;
  const CheckResult v = revalidate(in, Relation::kConvergence, rt, bad);
  EXPECT_FALSE(v.holds);
  EXPECT_EQ(v.reason, "certificate: compressed edge lacks its A-path");
}

TEST(CertifyTest, TamperedRegionIsRejected) {
  Inst in = init_scoped();
  RoundTrip rt = round_trip(in, Relation::kRefinementInit, true);
  {
    JobCertificate bad = rt.cert;
    bad.c_region.assign(bad.c_region.size(), 0);  // omits the initial state
    EXPECT_FALSE(revalidate(in, Relation::kRefinementInit, rt, bad).holds);
  }
  {
    JobCertificate bad = rt.cert;
    bad.c_region.assign(bad.c_region.size(), 1);  // now includes the bad edge 2 -> 3
    EXPECT_FALSE(revalidate(in, Relation::kRefinementInit, rt, bad).holds);
  }
}

TEST(CertifyTest, TruncatedRegionIsRejected) {
  // C = 0 -> 1 -> 2 against A = 0 -> 1 from I_C = {0}: the reachable
  // edge 1 -> 2 is off A, so refinement-init fails. A forged positive
  // certificate whose region stops at {0} holds I_C and checks nothing
  // past it: only the region's closure under T_C rejects it.
  Inst in;
  in.c = TransitionGraph::from_edges(3, {{0, 1}, {1, 2}});
  in.a = TransitionGraph::from_edges(3, {{0, 1}});
  in.ci = in.ai = {0};
  RefinementChecker rc(in.c, in.a, in.ci, in.ai, in.alpha);
  ASSERT_FALSE(run_relation(rc, Relation::kRefinementInit).holds);
  JobCertificate forged;
  forged.sigma = {0, 0, 0};
  forged.c_region = {1, 0, 0};
  const CheckResult v = validate_job_certificate(Relation::kRefinementInit, true, Trace{},
                                                 forged, in.c, in.a, in.ci, in.ai, in.alpha);
  EXPECT_FALSE(v.holds);
  EXPECT_EQ(v.reason, "certificate: region is not closed under T_C");
}

TEST(CertifyTest, RegionEdgeOffADespiteRhoDropIsRejected) {
  // C = 0 -> 1 against A's two deadlocks from I_C = {0}: the reachable
  // edge is off A, so eventually fails. A forged positive certificate
  // lets rho drop along it; outside the region that would excuse the
  // edge, but from a region state every edge must follow A.
  Inst in;
  in.c = TransitionGraph::from_edges(2, {{0, 1}});
  in.a = TransitionGraph::from_edges(2, {});
  in.ci = in.ai = {0};
  RefinementChecker rc(in.c, in.a, in.ci, in.ai, in.alpha);
  ASSERT_FALSE(run_relation(rc, Relation::kEventually).holds);
  JobCertificate forged;
  forged.sigma = {0, 0};
  forged.rho = {1, 0};
  forged.c_region = {1, 1};
  const CheckResult v = validate_job_certificate(Relation::kEventually, true, Trace{}, forged,
                                                 in.c, in.a, in.ci, in.ai, in.alpha);
  EXPECT_FALSE(v.holds);
  EXPECT_EQ(v.reason, "certificate: edge does not follow A");
}

TEST(CertifyTest, RhoIncreaseIsRejected) {
  // rho rises along A's cycle edge 0 -> 1: the edge follows A, so only
  // the non-increase every edge owes rejects it.
  Inst in = stabilizing();
  RoundTrip rt = round_trip(in, Relation::kStabilizing, true);
  JobCertificate bad = rt.cert;
  bad.rho[1] = bad.rho[0] + 1;
  const CheckResult v = revalidate(in, Relation::kStabilizing, rt, bad);
  EXPECT_FALSE(v.holds);
  EXPECT_EQ(v.reason, "certificate: edge increases rho");
}

TEST(CertifyTest, DeadlockAtLiveImageIsRejected) {
  // C = 0 -> 1 with 1 stuck, against A's cycle 0 <-> 1: the edge
  // follows A, but C's deadlock maps to a live state of A, so everywhere
  // fails. A forged positive certificate fails only rule 4.
  Inst in;
  in.c = TransitionGraph::from_edges(2, {{0, 1}});
  in.a = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  in.ci = in.ai = {0};
  RefinementChecker rc(in.c, in.a, in.ci, in.ai, in.alpha);
  ASSERT_FALSE(run_relation(rc, Relation::kEverywhere).holds);
  JobCertificate forged;
  forged.sigma = {0, 0};
  const CheckResult v = validate_job_certificate(Relation::kEverywhere, true, Trace{}, forged,
                                                 in.c, in.a, in.ci, in.ai, in.alpha);
  EXPECT_FALSE(v.holds);
  EXPECT_EQ(v.reason, "certificate: C deadlock image is not an A deadlock");
}

TEST(CertifyTest, TamperedStabilizingCertificateIsRejected) {
  Inst in = stabilizing();
  RoundTrip rt = round_trip(in, Relation::kStabilizing, true);
  JobCertificate bad = rt.cert;
  ASSERT_FALSE(bad.rho.empty());
  bad.rho.assign(bad.rho.size(), 0);  // recovery edges no longer rank down
  EXPECT_FALSE(revalidate(in, Relation::kStabilizing, rt, bad).holds);
}

TEST(CertifyTest, PolarityMismatchIsRejected) {
  Inst in = identical();
  RoundTrip rt = round_trip(in, Relation::kEverywhere, true);
  EXPECT_FALSE(validate_job_certificate(Relation::kEverywhere, /*claimed_holds=*/false,
                                        Trace{{0}}, rt.cert, in.c, in.a, in.ci, in.ai, in.alpha)
                   .holds);
}

TEST(CertifyTest, TamperedNegativeWitnessIsRejected) {
  Inst in = compressed();
  RoundTrip rt = round_trip(in, Relation::kEverywhere, false);
  // Not a path of C.
  EXPECT_FALSE(validate_job_certificate(Relation::kEverywhere, false, Trace{{1, 0}}, rt.cert,
                                        in.c, in.a, in.ci, in.ai, in.alpha)
                   .holds);
  // Out-of-range state.
  EXPECT_FALSE(validate_job_certificate(Relation::kEverywhere, false, Trace{{99}}, rt.cert,
                                        in.c, in.a, in.ci, in.ai, in.alpha)
                   .holds);
  // A genuine path of C whose final edge is legal (1 -> 2 is exact).
  EXPECT_FALSE(validate_job_certificate(Relation::kEverywhere, false, Trace{{1, 2}}, rt.cert,
                                        in.c, in.a, in.ci, in.ai, in.alpha)
                   .holds);
}

TEST(CertifyTest, MislabeledViolationKindIsRejected) {
  Inst dead;
  dead.a = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  dead.c = TransitionGraph::from_edges(2, {{1, 0}});
  dead.ci = dead.ai = {1};
  RoundTrip rt = round_trip(dead, Relation::kEverywhere, false);
  EXPECT_EQ(rt.cert.kind, ViolationKind::kDeadlock);
  JobCertificate bad = rt.cert;
  bad.kind = ViolationKind::kBadCycle;  // single state is no cycle
  EXPECT_FALSE(revalidate(dead, Relation::kEverywhere, rt, bad).holds);
}

TEST(CertifyTest, InvalidEdgeReachabilityIsRecomputed) {
  // The invalid-edge claim "image 0 is unreachable from image 2 in A"
  // is decided by the validator's own search: against an A that does
  // reach 0 from 2, the same certificate is rejected.
  Inst in = eventually_only();
  RoundTrip rt = round_trip(in, Relation::kConvergence, false);
  ASSERT_EQ(rt.cert.kind, ViolationKind::kInvalidEdge);
  Inst reaching = in;
  reaching.a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}, {2, 1}});
  EXPECT_FALSE(revalidate(reaching, Relation::kConvergence, rt, rt.cert).holds);
}

TEST(CertifyTest, UnreachableImageEvidenceIsChecked) {
  // Stabilizing fails because C cycles on 2 <-> 3, outside A's reachable
  // set R_A = {0, 1}. States 0 and 1 behave legally (0 -> 1 is an A edge
  // and 1 is a reachable A deadlock), so the cycle is the only violation.
  Inst in;
  in.a = TransitionGraph::from_edges(4, {{0, 1}, {2, 3}, {3, 2}});
  in.c = TransitionGraph::from_edges(4, {{0, 1}, {2, 3}, {3, 2}});
  in.ci = {2};
  in.ai = {0};
  RoundTrip rt = round_trip(in, Relation::kStabilizing, false);
  EXPECT_EQ(rt.cert.kind, ViolationKind::kUnreachableImage);
  // Against an A that reaches the cycle (1 -> 2), the claim is false.
  Inst reaching = in;
  reaching.a = TransitionGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 2}});
  EXPECT_FALSE(revalidate(reaching, Relation::kStabilizing, rt, rt.cert).holds);
}

}  // namespace
}  // namespace cref::service

// The stabilizing job certificate — rho (C's Tarjan ids) and sigma (the
// stutter rank) — on hand automata and the ring protocols: it
// validates, tampering is caught, and the validator decides A's
// reachable set itself instead of trusting the entry.

#include <gtest/gtest.h>

#include "refinement/checker.hpp"
#include "ring/btr.hpp"
#include "ring/three_state.hpp"
#include "service/certify.hpp"

namespace cref::service {
namespace {

std::vector<StateId> alpha_table_of(const Abstraction& a) {
  std::vector<StateId> t(a.from().size());
  for (StateId s = 0; s < a.from().size(); ++s) t[s] = a.apply(s);
  return t;
}

std::optional<JobCertificate> certify(const RefinementChecker& rc) {
  return make_job_certificate(rc, Relation::kStabilizing, rc.stabilizing_to());
}

CheckResult validate(const RefinementChecker& rc, const JobCertificate& cert,
                     const std::vector<StateId>& a_init,
                     const std::vector<StateId>& alpha = {}) {
  return validate_job_certificate(Relation::kStabilizing, true, Trace{}, cert, rc.c_graph(),
                                  rc.a_graph(), rc.c_initial(), a_init, alpha);
}

TEST(CertificateTest, HandAutomatonRoundTrip) {
  // A: legit cycle 0 <-> 1; C adds recovery 2 -> 0 and a garbage chain.
  TransitionGraph a = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}});
  TransitionGraph c =
      TransitionGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 0}, {3, 2}});
  RefinementChecker rc(c, a, {0}, {0});
  ASSERT_TRUE(rc.stabilizing_to().holds);
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  auto v = validate(rc, *cert, {0});
  EXPECT_TRUE(v.holds) << v.reason;
  // Two ranks over C and nothing else: no region, paths or A-side set.
  EXPECT_TRUE(cert->positive);
  EXPECT_EQ(cert->rho.size(), 4u);
  EXPECT_EQ(cert->sigma.size(), 4u);
  EXPECT_TRUE(cert->c_region.empty());
  EXPECT_TRUE(cert->compressed.empty());
}

TEST(CertificateTest, NonStabilizingSystemHasNoCertificate) {
  // State 2 deadlocks outside R_A: not stabilizing, so the certificate
  // is negative evidence, and no positive claim about it validates.
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  RefinementChecker rc(c, a, {0}, {0});
  ASSERT_FALSE(rc.stabilizing_to().holds);
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  EXPECT_FALSE(cert->positive);
  EXPECT_EQ(cert->kind, ViolationKind::kUnreachableImage);
  JobCertificate forged;
  forged.rho = {1, 1, 0};
  forged.sigma = {0, 0, 0};
  EXPECT_FALSE(validate(rc, forged, {0}).holds);
}

TEST(CertificateTest, ValidatorRejectsTamperedRho) {
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}, {2, 0}});
  RefinementChecker rc(c, a, {0}, {0});
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  // Claim the recovery state already converged: the bad edge (2, 0) no
  // longer decreases rho.
  cert->rho[2] = cert->rho[0];
  auto v = validate(rc, *cert, {0});
  EXPECT_FALSE(v.holds);
  EXPECT_NE(v.reason.find("rho"), std::string::npos);
}

TEST(CertificateTest, ValidatorRejectsInflatedReachableSet) {
  // The certificate treats the cycle 0 <-> 1 as inside R_A. Against an A
  // whose initial state is the garbage state 2, R_A = {2}: the claim is
  // false, and the validator's own search catches it.
  TransitionGraph a = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}});
  TransitionGraph c = TransitionGraph::from_edges(3, {{0, 1}, {1, 0}, {2, 0}});
  RefinementChecker rc(c, a, {0}, {0});
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  ASSERT_TRUE(validate(rc, *cert, {0}).holds);
  auto v = validate(rc, *cert, {2});
  EXPECT_FALSE(v.holds);
  EXPECT_NE(v.reason.find("rho"), std::string::npos);
}

TEST(CertificateTest, ValidatorRejectsSizeMismatch) {
  TransitionGraph a = TransitionGraph::from_edges(2, {{0, 1}, {1, 0}});
  TransitionGraph c = a;
  RefinementChecker rc(c, a, {0}, {0});
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  cert->rho.pop_back();
  EXPECT_FALSE(validate(rc, *cert, {0}).holds);
}

class RingCertificateTest : public ::testing::TestWithParam<int> {};

TEST_P(RingCertificateTest, Dijkstra3CertificateValidates) {
  int n = GetParam();
  ring::ThreeStateLayout l(n);
  ring::BtrLayout bl(n);
  Abstraction a3 = ring::make_alpha3(l, bl);
  RefinementChecker rc(ring::make_dijkstra3(l), ring::make_btr(bl), a3);
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  auto v = validate(rc, *cert, rc.a_initial(), alpha_table_of(a3));
  EXPECT_TRUE(v.holds) << v.reason;
}

TEST_P(RingCertificateTest, WrappedC3CertificateValidates) {
  // The stutter-sigma component is exercised by C3's dynamics.
  int n = GetParam();
  ring::ThreeStateLayout l(n);
  ring::BtrLayout bl(n);
  Abstraction a3 = ring::make_alpha3(l, bl);
  System c3w = box_priority(ring::make_c3(l),
                            box(ring::make_w1_dprime(l), ring::make_w2_prime3(l)));
  RefinementChecker rc(c3w, ring::make_btr(bl), a3);
  auto cert = certify(rc);
  ASSERT_TRUE(cert.has_value());
  auto v = validate(rc, *cert, rc.a_initial(), alpha_table_of(a3));
  EXPECT_TRUE(v.holds) << v.reason;
}

TEST(CertificateTest, GeneratedSourceYieldsTheSameCertificate) {
  // rho (C's Tarjan ids) and sigma (the stutter rank) come from the
  // successor source, so a generated C certifies exactly like the
  // materialized one — and the certificate validates against the CSR.
  ring::ThreeStateLayout l(3);
  ring::BtrLayout bl(3);
  Abstraction a3 = ring::make_alpha3(l, bl);
  System c3w = box_priority(ring::make_c3(l),
                            box(ring::make_w1_dprime(l), ring::make_w2_prime3(l)));
  const RefinementChecker mat(c3w, ring::make_btr(bl), a3);
  const RefinementChecker gen = RefinementChecker::generated(c3w, ring::make_btr(bl), a3);
  ASSERT_FALSE(gen.materialized());
  auto expected = certify(mat);
  auto cert = certify(gen);
  ASSERT_TRUE(expected.has_value());
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->rho, expected->rho);
  EXPECT_EQ(cert->sigma, expected->sigma);
  auto v = validate(mat, *cert, mat.a_initial(), alpha_table_of(a3));
  EXPECT_TRUE(v.holds) << v.reason;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingCertificateTest, ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace cref::service

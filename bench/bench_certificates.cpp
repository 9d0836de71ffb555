// E17 (extension) — certifying verification: for every stabilizing
// system in the reproduction, generate the service's locally-checkable
// stabilization certificate (ranking functions rho and sigma over C)
// and re-validate it with the independent validator, which computes
// A's reachable set itself. Reports certificate sizes and
// generation/validation times.

#include <cstdio>

#include "common.hpp"
#include "refinement/checker.hpp"
#include "ring/btr.hpp"
#include "ring/four_state.hpp"
#include "ring/kstate.hpp"
#include "ring/three_state.hpp"
#include "service/certify.hpp"
#include "util/strings.hpp"

using namespace cref;
using namespace cref::bench;
using namespace cref::ring;

namespace {

std::vector<StateId> table_of(const Abstraction& a) {
  std::vector<StateId> t(a.from().size());
  for (StateId s = 0; s < a.from().size(); ++s) t[s] = a.apply(s);
  return t;
}

void row(util::Table& t, const char* name, int n, RefinementChecker rc,
         const Abstraction* alpha) {
  const CheckResult verdict = rc.stabilizing_to();
  if (!verdict.holds) {
    t.add_row({name, std::to_string(n), "-", "-", "-", "not stabilizing"});
    return;
  }
  Timer gen_timer;
  auto cert = service::make_job_certificate(rc, service::Relation::kStabilizing, verdict);
  double gen_ms = gen_timer.ms();
  if (!cert) {
    t.add_row({name, std::to_string(n), "-", "-", "-", "no certificate"});
    return;
  }
  std::vector<StateId> table = alpha ? table_of(*alpha) : std::vector<StateId>{};
  Timer val_timer;
  auto verdict_result = service::validate_job_certificate(
      service::Relation::kStabilizing, true, Trace{}, *cert, rc.c_graph(), rc.a_graph(),
      rc.c_initial(), rc.a_initial(), table);
  double val_ms = val_timer.ms();
  std::size_t bytes = (cert->rho.size() + cert->sigma.size()) * sizeof(std::uint64_t);
  t.add_row({name, std::to_string(n), std::to_string(bytes / 1024) + " KiB",
             util::format_double(gen_ms, 1) + " ms", util::format_double(val_ms, 1) + " ms",
             verdict_result.holds ? "VALID" : ("INVALID: " + verdict_result.reason)});
}

}  // namespace

int main() {
  header("E17", "certifying checks: generate + independently validate");

  util::Table t({"system", "n", "cert size", "generate", "validate", "verdict"});
  for (int n = 3; n <= 6; ++n) {
    BtrLayout bl(n);
    System btr = make_btr(bl);
    {
      ThreeStateLayout l(n);
      Abstraction a3 = make_alpha3(l, bl);
      row(t, "Dijkstra3", n, RefinementChecker(make_dijkstra3(l), btr, a3), &a3);
    }
    {
      FourStateLayout l(n);
      Abstraction a4 = make_alpha4(l, bl);
      row(t, "Dijkstra4", n, RefinementChecker(make_dijkstra4(l), btr, a4), &a4);
    }
    {
      ThreeStateLayout l(n);
      Abstraction a3 = make_alpha3(l, bl);
      System c3w = box_priority(make_c3(l), box(make_w1_dprime(l), make_w2_prime3(l)));
      row(t, "C3<|(W1''[]W2')", n, RefinementChecker(c3w, btr, a3), &a3);
    }
    {
      KStateLayout kl(n, n + 1);
      UtrLayout ul(n);
      Abstraction ak = make_alpha_k(kl, ul);
      row(t, "KState(K=n+1)", n, RefinementChecker(make_kstate(kl), make_utr(ul), ak), &ak);
    }
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "the validator shares no analysis code with the checker: it checks\n"
      "rho and sigma in one pass over C's edges and computes A's reachable\n"
      "set with its own search. Trusting the verdicts above requires\n"
      "trusting that pass, not the SCC machinery — and tampering with any\n"
      "component is caught (tests/service/certify_test.cpp).\n");
  return 0;
}

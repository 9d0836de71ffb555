#include <chrono>
#include <optional>

#include "gcl/alpha.hpp"
#include "gcl/parser.hpp"
#include "prover/refine.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace prover = cref::prover;
namespace gcl = cref::gcl;
using Clock = std::chrono::steady_clock;

namespace {

/// Opens a span when tracing, nothing otherwise.
class MaybeScope {
 public:
  MaybeScope(Tracer* t, const char* name, std::size_t request) {
    if (t) scope_.emplace(*t, name, request);
  }

 private:
  std::optional<Scope> scope_;
};

void count(Tracer* t, const char* counter, double amount) {
  if (t) t->count(counter, amount);
}

}  // namespace

Answer refine_request(const Request& q, Tracer* tr) {
  MaybeScope root(tr, "request", q.id);
  Answer a;
  try {
    count(tr, "gcl.source_bytes", double(q.c_text.size() + q.a_text.size() + q.alpha_text.size()));
    // gcl_refine's order: abstract, concrete, then the map.
    std::optional<gcl::SystemAst> a_ast, c_ast;
    {
      MaybeScope s(tr, "gcl.parse", q.id);
      a_ast.emplace(gcl::parse(q.a_text));
    }
    {
      MaybeScope s(tr, "gcl.parse", q.id);
      c_ast.emplace(gcl::parse(q.c_text));
    }
    std::optional<gcl::AlphaSpec> alpha;
    if (q.alpha_text.empty()) {
      alpha.emplace(gcl::identity_alpha(*c_ast, *a_ast));
    } else {
      MaybeScope s(tr, "gcl.parse_alpha", q.id);
      alpha.emplace(gcl::parse_alpha(q.alpha_text, *c_ast, *a_ast));
    }
    std::optional<prover::RefineResult> r;
    {
      MaybeScope s(tr, "prover.prove", q.id);
      r.emplace(prover::prove_refinement(*c_ast, *a_ast, *alpha));
    }
    count(tr, "prover.attempts", 1);
    if (r->verdict != prover::RefineVerdict::Unknown) count(tr, "prover.decided", 1);
    bool validated = false;
    if (r->verdict == prover::RefineVerdict::Proved) {
      const std::size_t states = space_size(*c_ast);
      const bool mode_a = states <= r->certificate->budget;
      if (mode_a) {
        count(tr, "prover.mode_a_validations", 1);
        count(tr, "prover.replayed_states", double(states));
      }
      MaybeScope s(tr, mode_a ? "prover.validate_a" : "prover.validate_b", q.id);
      validated = prover::validate_refinement_certificate(*c_ast, *a_ast, *alpha,
                                                          *r->certificate, nullptr);
    }
    a.verdict = prover::refine_verdict_name(r->verdict);
    a.validated = validated;
    a.holds = r->verdict == prover::RefineVerdict::Proved && validated;
  } catch (const std::exception& e) {
    a = Answer{};
    a.threw = true;
    a.error = e.what();
  }
  return a;
}

Rep refine_cycle(const Session& cycle, Tracer* tracer) {
  Rep rep;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (const Request& q : cycle) {
    const auto r0 = Clock::now();
    rep.answers.push_back(refine_request(q, tracer));
    rep.latency_ms.push_back(ms_since(r0));
    rep.requests.push_back(&q);
  }
  rep.wall_s = ms_since(t0) / 1000;
  rep.cpu_s = process_cpu_s() - cpu0;
  return rep;
}

}  // namespace perfbench

#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "gcl/alpha.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "prover/refine.hpp"
#include "refinement/checker.hpp"
#include "stats.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = cref::service;
using Clock = std::chrono::steady_clock;

namespace {

/// Runs fn(i) for i in [0, n) on `clients` threads pulling the next index.
template <class Fn>
void on_clients(std::size_t n, std::size_t clients, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  auto client = [&](std::size_t tid) {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) fn(tid, i);
  };
  if (clients <= 1) {
    client(0);
    return;
  }
  std::vector<std::jthread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
}

}  // namespace

bool Answer::same_as(const Answer& o) const {
  return threw == o.threw && holds == o.holds && reason == o.reason && witness == o.witness &&
         cache_hit == o.cache_hit && verdict == o.verdict && validated == o.validated;
}

std::size_t space_size(const cref::gcl::SystemAst& ast) {
  std::size_t total = 1;
  for (const auto& v : ast.vars) {
    const auto card = static_cast<std::size_t>(v.cardinality);
    if (card != 0 && total > std::numeric_limits<std::size_t>::max() / card)
      return std::numeric_limits<std::size_t>::max();
    total *= card;
  }
  return total;
}

svc::ServiceOptions serve_options(std::size_t threads, const std::string& cache_dir) {
  svc::ServiceOptions o;
  o.engine.num_threads = cref::resolve_thread_count(threads);
  o.cache_dir = cache_dir;
  return o;
}

Answer serve_request(svc::CheckService& service, const Request& q) {
  Answer a;
  try {
    std::vector<svc::Job> jobs;
    jobs.push_back(svc::Job::from_gcl(q.relation, q.c_text, q.a_text));
    const svc::JobOutcome o = service.run_batch(jobs).front();
    a.holds = o.result.holds;
    a.reason = o.result.reason;
    a.witness = o.result.witness.states;
    a.cache_hit = o.cache_hit;
    a.revalidated = o.revalidated;
    a.certificate_stored = o.certificate_stored;
    // run_batch turns a thrown job into a failed verdict with this prefix.
    if (!a.holds && a.reason.rfind("service: ", 0) == 0) {
      a.threw = true;
      a.error = a.reason;
    }
  } catch (const std::exception& e) {
    a.threw = true;
    a.error = e.what();
  }
  return a;
}

// ---- traced ----------------------------------------------------------------

TracedService::TracedService(svc::ServiceOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cache_capacity, opts_.cache_dir) {
  inner_ = opts_.engine;
  inner_.num_threads = 1;
}

std::shared_ptr<const TracedService::Side> TracedService::side_for(
    const svc::Digest& digest, const cref::gcl::SystemAst& ast, Tracer& tr,
    std::size_t request) {
  const std::string hex = digest.hex();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = sides_.find(hex); it != sides_.end()) return it->second;
  }
  std::optional<cref::System> sys;
  {
    Scope s(tr, "gcl.compile", request);
    sys.emplace(cref::gcl::compile(ast));
  }
  auto side = std::make_shared<Side>();
  {
    // As CheckService::side_for builds at this commit: with the service's
    // engine options, not run_batch's single-threaded ones. This copy has
    // to follow run_with when the service changes.
    Scope s(tr, "core.build", request);
    side->graph = cref::TransitionGraph::build(*sys, opts_.engine, opts_.max_states);
  }
  {
    Scope s(tr, "core.initial_states", request);
    side->init = sys->initial_states();
  }
  tr.count("core.builds", 1);
  tr.count("core.states", double(side->graph.num_states()));
  tr.count("core.edges", double(side->graph.num_edges()));
  std::lock_guard<std::mutex> lk(mu_);
  return sides_.emplace(hex, std::move(side)).first->second;
}

void TracedService::store(const svc::Digest& key, const svc::CacheEntry& entry, Tracer& tr,
                          std::size_t request) {
  const std::string hex = key.hex();
  {
    std::lock_guard<std::mutex> lk(mu_);
    Scope s(tr, "service.cache.store", request);
    cache_.store(key, entry);
    in_memory_.insert(hex);
  }
  std::error_code ec;
  const auto bytes =
      std::filesystem::file_size(std::filesystem::path(opts_.cache_dir) / (hex + ".entry"), ec);
  tr.count("service.cache.stores", 1);
  tr.count("service.cache.entry_bytes", ec ? 0.0 : double(bytes));
}

Answer TracedService::run(const Request& q, Tracer& tr) {
  const std::size_t id = q.id;
  Scope root(tr, "request", id);
  Answer out;
  try {
    tr.count("gcl.source_bytes", double(q.c_text.size() + q.a_text.size()));
    std::optional<cref::gcl::SystemAst> c_ast, a_ast;
    {
      Scope s(tr, "gcl.parse", id);
      c_ast.emplace(cref::gcl::parse(q.c_text));
    }
    {
      Scope s(tr, "gcl.parse", id);
      a_ast.emplace(cref::gcl::parse(q.a_text));
    }
    svc::Digest c_digest, a_digest, key;
    {
      Scope s(tr, "service.hash", id);
      c_digest = svc::hash_gcl(*c_ast);
      a_digest = svc::hash_gcl(*a_ast);
      key = svc::job_key(c_digest, a_digest, svc::hash_alpha({}), q.relation);
    }
    const std::string hex = key.hex();

    std::optional<svc::CacheEntry> cached;
    bool from_disk = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      Scope s(tr, "service.cache.lookup", id);
      from_disk = in_memory_.count(hex) == 0;
      cached = cache_.lookup(key);
      if (cached) in_memory_.insert(hex);
    }
    tr.count("service.cache.lookups", 1);
    auto hit = [&](const svc::CacheEntry& e) {
      tr.count("service.cache.hits", 1);
      if (from_disk) tr.count("service.cache.disk_hits", 1);
      out.holds = e.holds;
      out.reason = e.reason;
      out.witness = e.witness;
      out.cache_hit = true;
      out.revalidated = true;
      return out;
    };
    const std::size_t c_states = space_size(*c_ast);
    auto validate_static = [&](const cref::prover::RefinementCertificate& cert,
                               const cref::gcl::AlphaSpec& alpha) {
      const bool mode_a = c_states <= cert.budget;
      if (mode_a) {
        tr.count("prover.mode_a_validations", 1);
        tr.count("prover.replayed_states", double(c_states));
      }
      Scope s(tr, mode_a ? "prover.validate_a" : "prover.validate_b", id);
      return cref::prover::validate_refinement_certificate(*c_ast, *a_ast, alpha, cert, nullptr);
    };

    // The static-first path for convergence jobs.
    if (q.relation == svc::Relation::kConvergence && opts_.static_refine) {
      if (cached && cached->relation == q.relation && cached->holds && cached->certificate &&
          !cached->certificate->refine.empty()) {
        bool ok = false;
        try {
          std::optional<cref::prover::RefinementCertificate> cert;
          {
            Scope s(tr, "prover.cert_parse", id);
            cert = cref::prover::parse_refinement_certificate(cached->certificate->refine,
                                                              *c_ast);
          }
          if (cert) ok = validate_static(*cert, cref::gcl::identity_alpha(*c_ast, *a_ast));
        } catch (const std::exception&) {
          ok = false;
        }
        if (ok) return hit(*cached);
        tr.count("service.validation_failures", 1);
        cached.reset();
      }
      if (!cached) {
        tr.count("prover.static_attempts", 1);
        try {
          const cref::gcl::AlphaSpec alpha = cref::gcl::identity_alpha(*c_ast, *a_ast);
          std::optional<cref::prover::RefineResult> sr;
          {
            Scope s(tr, "prover.prove", id);
            sr.emplace(cref::prover::prove_refinement(*c_ast, *a_ast, alpha));
          }
          tr.count("prover.attempts", 1);
          if (sr->verdict != cref::prover::RefineVerdict::Unknown) tr.count("prover.decided", 1);
          if (sr->verdict == cref::prover::RefineVerdict::Proved &&
              validate_static(*sr->certificate, alpha)) {
            svc::CacheEntry fresh;
            fresh.relation = q.relation;
            fresh.holds = true;
            fresh.reason =
                "statically certified: [" + c_ast->name + " <~ " + a_ast->name + "]";
            fresh.certificate = svc::JobCertificate{};
            fresh.certificate->refine =
                cref::prover::serialize_refinement_certificate(*sr->certificate);
            tr.count("service.cache.misses", 1);
            store(key, fresh, tr, id);
            out.holds = true;
            out.reason = fresh.reason;
            out.certificate_stored = true;
            out.stored = "static";
            return out;
          }
        } catch (const std::exception&) {
          // the explicit engine decides
        }
        tr.count("prover.static_fallbacks", 1);
      }
    }

    static const std::vector<cref::StateId> kIdentity;
    const auto cs = side_for(c_digest, *c_ast, tr, id);
    const auto as = side_for(a_digest, *a_ast, tr, id);
    if (cs->graph.num_states() != as->graph.num_states())
      throw std::invalid_argument(
          "service: GCL job sides have different state-space sizes (identity alpha)");

    if (cached && cached->relation == q.relation && cached->certificate) {
      cref::CheckResult verdict;
      {
        Scope s(tr, "service.validate", id);
        verdict = svc::validate_job_certificate(q.relation, cached->holds,
                                                cref::Trace{cached->witness},
                                                *cached->certificate, cs->graph, as->graph,
                                                cs->init, as->init, kIdentity);
      }
      if (verdict.holds) return hit(*cached);
      tr.count("service.validation_failures", 1);
    }

    tr.count("service.cache.misses", 1);
    std::optional<cref::RefinementChecker> rc;
    {
      Scope s(tr, "refinement.relation", id);
      rc.emplace(cs->graph, as->graph, cs->init, as->init, kIdentity);
      rc->set_engine_options(inner_);
    }
    {
      Scope s(tr, "refinement.scc", id);
      tr.count("refinement.components", double(rc->c_scc().count()));
    }
    tr.count("refinement.checks", 1);
    cref::CheckResult res;
    {
      Scope s(tr, "refinement.relation", id);
      res = svc::run_relation(*rc, q.relation);
    }
    svc::CacheEntry fresh;
    fresh.relation = q.relation;
    fresh.holds = res.holds;
    fresh.reason = res.reason;
    fresh.witness = res.witness.states;
    if (cs->graph.num_states() <= opts_.max_cert_states) {
      svc::CertifyOptions co;
      co.max_compressed_witnesses = opts_.max_compressed_witnesses;
      Scope s(tr, "service.certify", id);
      fresh.certificate = svc::make_job_certificate(*rc, q.relation, res, co);
    }
    out.certificate_stored = fresh.certificate.has_value();
    out.stored = out.certificate_stored ? "graph" : "none";
    store(key, fresh, tr, id);
    out.holds = res.holds;
    out.reason = res.reason;
    out.witness = res.witness.states;
  } catch (const std::exception& e) {
    out = Answer{};
    out.threw = true;
    out.error = e.what();
  }
  return out;
}

Rep cold_session(const Session& s, std::size_t clients, std::size_t threads,
                 const std::string& cache_dir, const std::vector<Tracer*>* tracers) {
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  Rep rep;
  rep.answers.resize(s.size());
  rep.latency_ms.resize(s.size());
  for (const Request& q : s) rep.requests.push_back(&q);
  const svc::ServiceOptions opts = serve_options(threads, cache_dir);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  if (tracers) {
    TracedService service(opts);
    on_clients(s.size(), clients, [&](std::size_t tid, std::size_t i) {
      const auto r0 = Clock::now();
      rep.answers[i] = service.run(s[i], *(*tracers)[tid]);
      rep.latency_ms[i] = ms_since(r0);
    });
  } else {
    svc::CheckService service(opts);
    on_clients(s.size(), clients, [&](std::size_t, std::size_t i) {
      const auto r0 = Clock::now();
      rep.answers[i] = serve_request(service, s[i]);
      rep.latency_ms[i] = ms_since(r0);
    });
  }
  rep.wall_s = ms_since(t0) / 1000;
  rep.cpu_s = process_cpu_s() - cpu0;
  return rep;
}

Rep warm_session(const WarmSet& set, std::size_t s, const std::string& cache_dir,
                 Tracer* tracer) {
  Rep rep;
  const svc::ServiceOptions opts = serve_options(1, cache_dir);
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::optional<TracedService> traced;
  std::optional<svc::CheckService> service;  // shares only the disk cache
  if (tracer)
    traced.emplace(opts);
  else
    service.emplace(opts);
  for (std::size_t idx : set.sessions[s]) {
    const Request& q = set.pool[idx];
    const auto r0 = Clock::now();
    rep.answers.push_back(tracer ? traced->run(q, *tracer) : serve_request(*service, q));
    rep.latency_ms.push_back(ms_since(r0));
    rep.requests.push_back(&q);
  }
  traced.reset();
  service.reset();
  rep.wall_s = ms_since(t0) / 1000;
  rep.cpu_s = process_cpu_s() - cpu0;
  return rep;
}

}  // namespace perfbench

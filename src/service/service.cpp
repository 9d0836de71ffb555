#include "service/service.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "gcl/alpha.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "prover/refine.hpp"
#include "refinement/checker.hpp"

namespace cref::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

Job Job::from_graphs(Relation r, TransitionGraph c, std::vector<StateId> c_init,
                     TransitionGraph a, std::vector<StateId> a_init,
                     std::vector<StateId> alpha) {
  const auto t0 = Clock::now();
  Job j;
  j.relation = r;
  j.c = std::move(c);
  j.a = std::move(a);
  j.c_init = std::move(c_init);
  j.a_init = std::move(a_init);
  j.alpha = std::move(alpha);
  j.c_digest = hash_side(j.c, j.c_init);
  j.a_digest = hash_side(j.a, j.a_init);
  j.key = job_key(j.c_digest, j.a_digest, hash_alpha(j.alpha), r);
  j.hash_ms = ms_since(t0);
  return j;
}

Job Job::from_gcl(Relation r, const std::string& c_source, const std::string& a_source) {
  const auto t0 = Clock::now();
  Job j;
  j.relation = r;
  j.is_gcl = true;
  j.c_ast = std::make_shared<const gcl::SystemAst>(gcl::parse(c_source));
  j.a_ast = std::make_shared<const gcl::SystemAst>(gcl::parse(a_source));
  j.c_digest = hash_gcl(*j.c_ast);
  j.a_digest = hash_gcl(*j.a_ast);
  j.key = job_key(j.c_digest, j.a_digest, hash_alpha({}), r);
  j.hash_ms = ms_since(t0);
  return j;
}

CheckService::CheckService(ServiceOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cache_capacity, opts_.cache_dir) {}

std::shared_ptr<const CheckService::BuiltSide> CheckService::side_for(
    const Digest& digest, const std::shared_ptr<const gcl::SystemAst>& ast, double& build_ms) {
  const std::string hex = digest.hex();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (auto it = sides_.find(hex); it != sides_.end()) return it->second;
  }
  const auto t0 = Clock::now();
  System sys = gcl::compile(*ast);
  auto side = std::make_shared<BuiltSide>();
  side->graph = TransitionGraph::build(sys, opts_.engine, opts_.max_states);
  side->init = sys.initial_states();
  build_ms += ms_since(t0);
  std::lock_guard<std::mutex> lk(mu_);
  return sides_.emplace(hex, std::move(side)).first->second;  // first stored copy wins
}

JobOutcome CheckService::run(const Job& job) { return run_with(job, opts_.engine); }

std::vector<JobOutcome> CheckService::run_batch(const std::vector<Job>& jobs) {
  std::vector<JobOutcome> out(jobs.size());
  // One job per grab across the pool; each job's inner check runs
  // single-threaded so a batch of B jobs uses ~B-way, not B*T-way,
  // parallelism.
  EngineOptions sched = opts_.engine;
  sched.chunk_size = 1;
  EngineOptions inner = opts_.engine;
  inner.num_threads = 1;
  parallel_chunks(jobs.size(), sched, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        out[i] = run_with(jobs[i], inner);
      } catch (const std::exception& e) {
        out[i].key = jobs[i].key;
        out[i].result = CheckResult::fail(std::string("service: ") + e.what());
      }
    }
  });
  return out;
}

CheckService::Stats CheckService::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

JobOutcome CheckService::run_with(const Job& job, const EngineOptions& engine) {
  JobOutcome out;
  out.key = job.key;
  out.hash_ms = job.hash_ms;

  std::optional<CacheEntry> cached;
  {
    std::lock_guard<std::mutex> lk(mu_);
    cached = cache_.lookup(job.key);
  }

  // Static refinement path for GCL convergence jobs: prove — and, on
  // warm hits, revalidate — [C <~ A] from the ASTs alone, so neither
  // state space is ever materialized (build_ms stays 0).
  if (job.is_gcl && job.relation == Relation::kConvergence && opts_.static_refine) {
    if (cached && cached->relation == job.relation && cached->holds &&
        cached->certificate && !cached->certificate->refine.empty()) {
      const auto t0 = Clock::now();
      bool ok = false;
      try {
        std::optional<prover::RefinementCertificate> cert =
            prover::parse_refinement_certificate(cached->certificate->refine,
                                                 *job.c_ast);
        // The budget sizes every enumeration of the validator, so a
        // stored one other than the service's own is a failure, not a
        // bill the entry may run up.
        if (cert && cert->budget == prover::RefineOptions{}.budget) {
          gcl::AlphaSpec alpha = gcl::identity_alpha(*job.c_ast, *job.a_ast);
          ok = prover::validate_refinement_certificate(*job.c_ast, *job.a_ast, alpha,
                                                       *cert, nullptr);
        }
      } catch (const std::exception&) {
        ok = false;  // malformed blob = validation failure = recompute
      }
      out.validate_ms = ms_since(t0);
      if (ok) {
        out.result = CheckResult{cached->holds, cached->reason, Trace{cached->witness}};
        out.cache_hit = true;
        out.revalidated = true;
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.hits;
        return out;
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.validation_failures;
      }
      cached.reset();  // fall through; the fresh result overwrites the entry
    }
    if (!cached) {
      const auto t0 = Clock::now();
      try {
        gcl::AlphaSpec alpha = gcl::identity_alpha(*job.c_ast, *job.a_ast);
        prover::RefineResult sr =
            prover::prove_refinement(*job.c_ast, *job.a_ast, alpha);
        if (sr.verdict == prover::RefineVerdict::Proved &&
            prover::validate_refinement_certificate(*job.c_ast, *job.a_ast, alpha,
                                                    *sr.certificate, nullptr)) {
          out.check_ms = ms_since(t0);
          CacheEntry fresh;
          fresh.relation = job.relation;
          fresh.holds = true;
          fresh.reason = "statically certified: [" + job.c_ast->name + " <~ " +
                         job.a_ast->name + "]";
          fresh.certificate = JobCertificate{};
          fresh.certificate->refine =
              prover::serialize_refinement_certificate(*sr.certificate);
          out.certificate_stored = true;
          out.result = CheckResult{fresh.holds, fresh.reason, Trace{}};
          std::lock_guard<std::mutex> lk(mu_);
          ++stats_.misses;
          cache_.store(job.key, fresh);
          ++stats_.stores;
          return out;
        }
      } catch (const std::exception&) {
        // identity map undefined, etc. — the explicit engine decides
      }
      out.check_ms = ms_since(t0);  // unknown/refuted: static time still counts
    }
  }

  static const std::vector<StateId> kIdentity;
  const TransitionGraph* c = &job.c;
  const TransitionGraph* a = &job.a;
  const std::vector<StateId>* c_init = &job.c_init;
  const std::vector<StateId>* a_init = &job.a_init;
  const std::vector<StateId>* alpha = &job.alpha;
  std::shared_ptr<const BuiltSide> cs, as;
  if (job.is_gcl) {
    cs = side_for(job.c_digest, job.c_ast, out.build_ms);
    as = side_for(job.a_digest, job.a_ast, out.build_ms);
    c = &cs->graph;
    a = &as->graph;
    c_init = &cs->init;
    a_init = &as->init;
    alpha = &kIdentity;
    if (c->num_states() != a->num_states())
      throw std::invalid_argument(
          "GCL job sides have different state-space sizes (identity alpha)");
  }

  const std::optional<CacheEntry>& entry = cached;
  if (entry && entry->relation == job.relation && entry->certificate) {
    const auto t0 = Clock::now();
    CheckResult verdict =
        validate_job_certificate(job.relation, entry->holds, Trace{entry->witness},
                                 *entry->certificate, *c, *a, *c_init, *a_init, *alpha);
    out.validate_ms = ms_since(t0);
    if (verdict.holds) {
      // Serve the stored bytes unchanged: warm == cold, byte for byte.
      out.result = CheckResult{entry->holds, entry->reason, Trace{entry->witness}};
      out.cache_hit = true;
      out.revalidated = true;
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.hits;
      return out;
    }
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.validation_failures;
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
  }
  const auto t0 = Clock::now();
  RefinementChecker rc(*c, *a, *c_init, *a_init, *alpha);
  rc.set_engine_options(engine);
  CheckResult res = run_relation(rc, job.relation);
  out.check_ms += ms_since(t0);  // += keeps a failed static attempt's time

  CacheEntry fresh;
  fresh.relation = job.relation;
  fresh.holds = res.holds;
  fresh.reason = res.reason;
  fresh.witness = res.witness.states;
  if (c->num_states() <= opts_.max_cert_states) {
    CertifyOptions co;
    co.max_compressed_witnesses = opts_.max_compressed_witnesses;
    fresh.certificate = make_job_certificate(rc, job.relation, res, co);
    out.certificate_stored = fresh.certificate.has_value();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    cache_.store(job.key, fresh);
    ++stats_.stores;
  }
  out.result = std::move(res);
  return out;
}

}  // namespace cref::service

#pragma once

// The two front doors the benchmark drives, untraced and traced:
//
//  * serve: service::CheckService configured as cref_serve configures it,
//    one request per run_batch call (cref_serve --threads T submits its
//    batch through run_batch; each client here is one such caller);
//  * refine: the prover calls gcl_refine makes (parse, prove, validate).
//
// The traced versions make the same public calls in the same order, each
// inside a span, and never read the library's own timing fields.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/graph.hpp"
#include "requests.hpp"
#include "service/service.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one request returned, as compared across runs and to its known
/// answer.
struct Answer {
  bool threw = false;  // an exception, or the service's "service: " failure
  std::string error;
  bool holds = false;
  std::string reason;
  std::vector<cref::StateId> witness;
  bool cache_hit = false;
  bool revalidated = false;
  bool certificate_stored = false;
  std::string verdict;     // refine: proved / refuted / unknown
  bool validated = false;  // refine: the proved certificate validated
  std::string stored;      // traced serve miss: static / graph / none

  /// Equal verdict, reason and witness bytes, and cache outcome.
  bool same_as(const Answer& o) const;
};

/// One fresh answer of every request of one session.
struct Rep {
  std::vector<const Request*> requests;
  std::vector<Answer> answers;
  std::vector<double> latency_ms;
  double wall_s = 0;
  double cpu_s = 0;
};

/// The timed phase. The run's sessions are answered in passes; every pass
/// answers every session afresh (fresh services; serve_cold an emptied
/// cache), so a request's repetitions lie a pass apart and spread over the
/// whole run. A request's latency is its fastest answer, and a session's
/// wall and CPU time its fastest repetition's: contention from outside
/// the process only ever slows a repetition, so the fastest one is the
/// steadiest estimate of the program's own cost.
struct Timed {
  std::vector<const Request*> requests;  // every answer's request, repetitions included
  std::vector<Answer> answers;
  std::vector<const Request*> distinct;  // each request once
  std::vector<double> latency_ms;        // per distinct request: its fastest answer
  double wall_s = 0;                     // sums of the per-session fastest repetitions
  double cpu_s = 0;
  double elapsed_s = 0;                  // the whole phase
  std::vector<double> pass_wall_s;       // each pass's summed session walls, in order
};

/// Passes every untraced timed phase makes at least.
inline constexpr std::size_t kMinPasses = 3;

/// Answers sessions 0 .. sessions-1 through `rep` in passes: at least
/// `min_passes`, then more while the next pass is expected to end within
/// `seconds` of the start (the mean pass so far is the expectation).
Timed measure(std::size_t sessions, std::size_t min_passes, double seconds,
              const std::function<Rep(std::size_t)>& rep);

// ---- serve ---------------------------------------------------------------

/// CheckService options of `cref_serve --threads T --cache-dir dir`.
cref::service::ServiceOptions serve_options(std::size_t threads, const std::string& cache_dir);

/// One request through CheckService::run_batch.
Answer serve_request(cref::service::CheckService& svc, const Request& q);

/// CheckService::run_with at this commit, one public call per span. A
/// session-scoped stand-in: a fresh instance per session, like the
/// service it mirrors. It is a hand copy: a change to run_with's calls,
/// their order or its counters must be made here too, or the per-layer
/// metrics measure the copy (the TracedPass self-test compares the two
/// request by request).
class TracedService {
 public:
  explicit TracedService(cref::service::ServiceOptions opts);

  Answer run(const Request& q, Tracer& tr);

 private:
  struct Side {
    cref::TransitionGraph graph;
    std::vector<cref::StateId> init;
  };

  std::shared_ptr<const Side> side_for(const cref::service::Digest& digest,
                                       const cref::gcl::SystemAst& ast, Tracer& tr,
                                       std::size_t request);
  void store(const cref::service::Digest& key, const cref::service::CacheEntry& entry,
             Tracer& tr, std::size_t request);

  cref::service::ServiceOptions opts_;
  cref::EngineOptions inner_;  // run_batch's single-threaded per-job check
  std::mutex mu_;              // guards cache_, in_memory_, sides_
  cref::service::VerdictCache cache_;
  std::set<std::string> in_memory_;  // keys the session's LRU holds
  std::unordered_map<std::string, std::shared_ptr<const Side>> sides_;
};

/// serve_cold / serve_parallel: session `s` answered from an emptied
/// `cache_dir` by one fresh service shared by `clients` callers; traced
/// when `tracers` is given (one per client).
Rep cold_session(const Session& s, std::size_t clients, std::size_t threads,
                 const std::string& cache_dir, const std::vector<Tracer*>* tracers);

/// serve_warm: the draws of one session answered by one fresh service on
/// the filled cache; traced when `tracer` is given.
Rep warm_session(const WarmSet& set, std::size_t s, const std::string& cache_dir,
                 Tracer* tracer);

// ---- refine ----------------------------------------------------------------

/// One request as gcl_refine answers it; traced when `tracer` is given.
Answer refine_request(const Request& q, Tracer* tracer = nullptr);

/// refine_static: one cycle, request after request.
Rep refine_cycle(const Session& cycle, Tracer* tracer);

/// |Sigma_C| of a parsed program, saturating.
std::size_t space_size(const cref::gcl::SystemAst& ast);

}  // namespace perfbench

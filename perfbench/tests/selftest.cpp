// Self-tests of the benchmark: the tail rule, seed determinism, the
// theory answers against the independent reference checker, and the
// traced pass against CheckService itself.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/graph.hpp"
#include "fuzzing/reference.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "requests.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;
namespace fs = std::filesystem;
namespace svc = cref::service;

namespace {

std::vector<double> shuffled_range(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(double(i));
  std::mt19937_64 rng(n);
  std::shuffle(v.begin(), v.end(), rng);
  return v;
}

fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(PERFBENCH_TEST_DIR) / (name + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool same_requests(const Session& a, const Session& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].c_text != b[i].c_text || a[i].a_text != b[i].a_text ||
        a[i].alpha_text != b[i].alpha_text || a[i].relation != b[i].relation ||
        a[i].expect_holds != b[i].expect_holds)
      return false;
  return true;
}

/// A (C, A) pair under the given relations, built the way the cold
/// generator builds it.
Session pair(const std::string& family, const std::string& c, const std::string& a,
             int n, int k, std::vector<Relation> relations, std::size_t& id) {
  Session out;
  for (Relation r : relations) {
    Request q;
    q.id = id++;
    q.family = family;
    q.relation = r;
    q.c_text = c;
    q.a_text = a;
    q.expect_holds = theory_holds(family, r, n, k);
    out.push_back(q);
  }
  return out;
}

const std::vector<Relation> kAll(std::begin(svc::kAllRelations), std::end(svc::kAllRelations));

}  // namespace

TEST(TailRule, TenSamplesBeyondTheReportedPercentile) {
  // Nearest rank: p97.5 of 400 samples is the 390th, leaving 10 beyond.
  EXPECT_EQ(samples_beyond(400, 97.5), 10u);
  EXPECT_EQ(tail_percentile(400), 97.5);
  EXPECT_EQ(tail_percentile(399), 95);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(99), 75);
  EXPECT_EQ(tail_percentile(5), 50);
  EXPECT_EQ(tail_percentile(100000), 99.9);
  // The workloads' fixed request counts.
  EXPECT_EQ(tail_percentile(2 * cold_session_size()), 95);
  EXPECT_EQ(samples_beyond(2 * cold_session_size(), 95), 10u);
  EXPECT_EQ(tail_percentile(216), 95);
  EXPECT_EQ(tail_percentile(8 * kWarmSessionSize), 99);

  const std::vector<double> lat = shuffled_range(400);
  EXPECT_EQ(percentile(lat, 97.5), 390.0);
  EXPECT_EQ(percentile(lat, 50), 200.0);
  std::size_t beyond = 0;
  for (double x : lat) beyond += x > percentile(lat, tail_percentile(lat.size())) ? 1 : 0;
  EXPECT_EQ(beyond, 10u);

  const std::vector<double> small = {5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(small, 50), 3.0);
  EXPECT_EQ(percentile(small, 99.9), 5.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(SeedDeterminism, SameSeedSameRequestsOtherSeedOtherRequests) {
  const ColdSet c1 = make_cold_set(7, 2), c2 = make_cold_set(7, 2), c3 = make_cold_set(8, 2);
  ASSERT_EQ(c1.sessions.size(), 2u);
  EXPECT_EQ(c1.sessions[0].size(), cold_session_size());
  EXPECT_TRUE(same_requests(c1.warmup, c2.warmup));
  for (std::size_t i = 0; i < 2; ++i) EXPECT_TRUE(same_requests(c1.sessions[i], c2.sessions[i]));
  EXPECT_FALSE(same_requests(c1.sessions[0], c3.sessions[0]));

  const WarmSet w1 = make_warm_set(7, 5), w2 = make_warm_set(7, 5), w3 = make_warm_set(8, 5);
  EXPECT_TRUE(same_requests(w1.pool, w2.pool));
  EXPECT_EQ(w1.sessions, w2.sessions);
  EXPECT_FALSE(same_requests(w1.pool, w3.pool));
  EXPECT_NE(w1.sessions, w3.sessions);
  // Every session asks the same Zipf-shaped multiset of pool ranks, each
  // rank at least once, and rank 1 most often.
  auto sorted = [](std::vector<std::size_t> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(w1.sessions[0].size(), kWarmSessionSize);
  EXPECT_EQ(sorted(w1.sessions[0]), sorted(w1.sessions[4]));
  EXPECT_EQ(sorted(w1.sessions[0]), sorted(w3.sessions[0]));
  EXPECT_EQ(std::set<std::size_t>(w1.sessions[0].begin(), w1.sessions[0].end()).size(),
            w1.pool.size());
  EXPECT_GT(std::count(w1.sessions[0].begin(), w1.sessions[0].end(), 0u),
            std::count(w1.sessions[0].begin(), w1.sessions[0].end(), 1u));
  // Pool ranks hold the same classes under every seed.
  for (std::size_t i = 0; i < w1.pool.size(); ++i) {
    EXPECT_EQ(w1.pool[i].family, w3.pool[i].family);
    EXPECT_EQ(w1.pool[i].c_states, w3.pool[i].c_states);
  }

  const RefineSet r1 = make_refine_set(7, 2), r2 = make_refine_set(7, 2);
  const RefineSet r3 = make_refine_set(8, 2);
  EXPECT_EQ(r1.cycles[0].size(), refine_cycle_size());
  EXPECT_TRUE(same_requests(r1.cycles[1], r2.cycles[1]));
  EXPECT_FALSE(same_requests(r1.cycles[1], r3.cycles[1]));
}

TEST(SeedDeterminism, ColdKeysNeverRepeat) {
  const ColdSet set = make_cold_set(3, 4);
  std::set<std::string> keys;
  std::size_t total = 0;
  auto add = [&](const Session& s) {
    for (const Request& q : s) {
      const auto c = cref::gcl::parse(q.c_text), a = cref::gcl::parse(q.a_text);
      keys.insert(svc::job_key(svc::hash_gcl(c), svc::hash_gcl(a), svc::hash_alpha({}),
                               q.relation).hex());
      ++total;
    }
  };
  add(set.warmup);
  for (const Session& s : set.sessions) add(s);
  EXPECT_EQ(keys.size(), total);
}

TEST(KnownAnswers, TheoryAgreesWithTheReferenceChecker) {
  // Every serve shape of at most a few hundred states, both families.
  std::mt19937_64 rng(11);
  for (auto [n, k] : std::vector<std::pair<int, int>>{{4, 2}, {4, 3}, {4, 4}, {5, 3}, {3, 2}}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<int> c_init(static_cast<std::size_t>(n));
      for (int& x : c_init) x = int(rng() % std::uint64_t(k));
      const int holder = int(rng() % std::uint64_t(n)), v = int(rng() % std::uint64_t(k));
      const std::string a_text = kstate_text(n, k, legit_state(n, k, 0, v));
      for (const std::string family : {"kstate", "ablated"}) {
        const std::string c_text =
            family == "kstate" ? kstate_text(n, k, c_init)
                               : kstate_text(n, k, legit_state(n, k, holder, v), holder);
        const cref::System c = cref::gcl::load_system(c_text), a = cref::gcl::load_system(a_text);
        const auto ref = cref::fuzz::reference_check(cref::TransitionGraph::build(c),
                                                     cref::TransitionGraph::build(a),
                                                     c.initial_states(), a.initial_states(), {});
        const bool verdicts[] = {ref.refinement_init, ref.everywhere, ref.convergence,
                                 ref.eventually, ref.stabilizing};
        for (std::size_t i = 0; i < 5; ++i)
          EXPECT_EQ(verdicts[i], theory_holds(family, svc::kAllRelations[i], n, k))
              << family << " n=" << n << " K=" << k << " " << svc::to_string(svc::kAllRelations[i]);
      }
    }
  }
}

TEST(KnownAnswers, RefineNegativeIsRefutedByTheReferenceChecker) {
  const RefineSet set = make_refine_set(1, 1);
  for (const Request& q : set.cycles[0]) {
    if (q.family != "negative" && q.family != "wrapper") continue;
    const cref::System c = cref::gcl::load_system(q.c_text), a = cref::gcl::load_system(q.a_text);
    const auto ref = cref::fuzz::reference_check(cref::TransitionGraph::build(c),
                                                 cref::TransitionGraph::build(a),
                                                 c.initial_states(), a.initial_states(), {});
    EXPECT_EQ(ref.convergence, q.expect_holds) << q.family;
  }
}

TEST(TracedPass, PerRequestOutcomesAndCountersAgreeWithCheckService) {
  // Small pairs covering all five relations, both polarities, and both
  // certificate kinds (static refine-cert and graph certificates). After
  // every request, the service's own counters and the traced mirror's
  // must have moved alike.
  std::size_t id = 0;
  Session s;
  auto add = [&](Session g) { s.insert(s.end(), g.begin(), g.end()); };
  add(pair("kstate", kstate_text(4, 3, {2, 0, 1, 1}), kstate_text(4, 3, legit_state(4, 3, 1, 0)),
           4, 3, kAll, id));
  add(pair("kstate", kstate_text(4, 2, {1, 0, 1, 1}), kstate_text(4, 2, legit_state(4, 2, 0, 1)),
           4, 2, kAll, id));
  add(pair("ablated", kstate_text(4, 3, legit_state(4, 3, 2, 1), 2),
           kstate_text(4, 3, legit_state(4, 3, 1, 0)), 4, 3, kAll, id));
  add(pair("workring", work_ring_text(3, 5, 2, {1, 2, 3}, {0, 1, 0}),
           kstate_text(3, 5, legit_state(3, 5, 0, 0)), 3, 5, {Relation::kConvergence}, id));

  const fs::path real_dir = test_dir("real"), traced_dir = test_dir("traced");
  const auto opts_real = serve_options(1, real_dir.string());
  const auto opts_traced = serve_options(1, traced_dir.string());
  Tracer tr(std::chrono::steady_clock::now(), 0);
  auto traced_stats = [&] {
    const auto& c = tr.counters();
    auto get = [&](const char* name) {
      const auto it = c.find(name);
      return it == c.end() ? std::size_t{0} : static_cast<std::size_t>(it->second);
    };
    return svc::CheckService::Stats{get("service.cache.hits"), get("service.cache.misses"),
                                    get("service.validation_failures"),
                                    get("service.cache.stores")};
  };

  std::set<Relation> relations;
  std::set<bool> polarities;
  std::set<std::string> stored;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then warm from disk
    svc::CheckService real(opts_real);
    TracedService traced(opts_traced);
    const svc::CheckService::Stats traced0 = traced_stats();
    for (const Request& q : s) {
      const svc::CheckService::Stats real_before = real.stats();
      const svc::CheckService::Stats traced_before = traced_stats();
      const Answer want = serve_request(real, q);
      const Answer got = traced.run(q, tr);
      const svc::CheckService::Stats real_after = real.stats();
      const svc::CheckService::Stats traced_after = traced_stats();
      const std::string at = "request " + std::to_string(q.id) + " pass " + std::to_string(pass);
      EXPECT_TRUE(got.same_as(want)) << at;
      EXPECT_EQ(got.certificate_stored, want.certificate_stored) << at;
      EXPECT_FALSE(got.threw) << got.error;
      EXPECT_EQ(got.holds, q.expect_holds) << at;
      EXPECT_EQ(got.cache_hit, pass == 1) << at;
      EXPECT_EQ(traced_after.hits - traced_before.hits, real_after.hits - real_before.hits) << at;
      EXPECT_EQ(traced_after.misses - traced_before.misses,
                real_after.misses - real_before.misses)
          << at;
      EXPECT_EQ(traced_after.stores - traced_before.stores,
                real_after.stores - real_before.stores)
          << at;
      EXPECT_EQ(traced_after.validation_failures - traced_before.validation_failures,
                real_after.validation_failures - real_before.validation_failures)
          << at;
      relations.insert(q.relation);
      polarities.insert(got.holds);
      if (pass == 0) stored.insert(got.stored);
    }
    const svc::CheckService::Stats traced1 = traced_stats();
    EXPECT_EQ(real.stats().hits, pass == 1 ? s.size() : 0u);
    EXPECT_EQ(traced1.hits - traced0.hits, real.stats().hits);
    EXPECT_EQ(real.stats().validation_failures, 0u);
  }
  const TraceTotals totals = merge({&tr});
  EXPECT_EQ(totals.counter("service.cache.disk_hits"), double(s.size()));
  EXPECT_EQ(relations.size(), 5u);
  EXPECT_EQ(polarities.size(), 2u);
  EXPECT_TRUE(stored.count("static"));
  EXPECT_TRUE(stored.count("graph"));
  EXPECT_GT(totals.self("core.build"), 0.0);
  EXPECT_GT(totals.self("prover.cert_parse"), 0.0);
  EXPECT_GT(totals.self("service.validate"), 0.0);
  fs::remove_all(real_dir);
  fs::remove_all(traced_dir);
}

TEST(TracedPass, RefineAnswersAgreeWithTheUntracedPass) {
  const RefineSet set = make_refine_set(5, 1);
  Tracer tr(std::chrono::steady_clock::now(), 0);
  std::size_t answered = 0;
  for (const Request& q : set.cycles[0]) {
    // Skip the costly mode-A replays; keep the cheap mode-B instances.
    if (q.c_states > 20000 && q.c_states <= (std::uint64_t{1} << 20)) continue;
    const Answer traced = refine_request(q, &tr);
    EXPECT_TRUE(traced.same_as(refine_request(q))) << q.family;
    EXPECT_EQ(traced.verdict, q.expect_holds ? "proved" : "refuted") << q.family;
    ++answered;
  }
  const TraceTotals totals = merge({&tr});
  EXPECT_EQ(totals.counter("prover.attempts"), double(answered));
  EXPECT_GT(totals.self("prover.prove"), 0.0);
  EXPECT_GT(totals.self("prover.validate_a"), 0.0);
  EXPECT_GT(totals.self("prover.validate_b"), 0.0);
  EXPECT_GT(totals.self("gcl.parse_alpha"), 0.0);
}

TEST(Measure, FastestRepetitionPerRequestOverPasses) {
  const Session s(2);
  int calls = 0;
  std::vector<std::size_t> order;
  auto rep = [&](std::size_t session) {
    ++calls;
    order.push_back(session);
    Rep r;
    r.requests = {&s[0], &s[1]};
    r.answers.resize(2);
    r.latency_ms = {double(100 - calls), double(calls)};
    r.wall_s = double(calls);
    r.cpu_s = 1.0 / calls;
    return r;
  };
  // No time limit: exactly the minimum passes over sessions 0, 1, 2.
  const Timed t = measure(3, 4, 0, rep);
  EXPECT_EQ(calls, 12);
  EXPECT_EQ(t.pass_wall_s.size(), 4u);
  EXPECT_EQ(t.answers.size(), 24u);
  EXPECT_EQ(t.distinct.size(), 6u);
  // Session s is call s + 1 + 3j of pass j.
  for (int i = 0; i < calls; ++i) EXPECT_EQ(order[std::size_t(i)], std::size_t(i % 3));
  EXPECT_EQ(t.pass_wall_s[0], 1.0 + 2.0 + 3.0);
  ASSERT_EQ(t.latency_ms.size(), 6u);
  EXPECT_EQ(t.latency_ms[0], double(100 - 10));  // session 0's last call is call 10
  EXPECT_EQ(t.latency_ms[1], 1.0);
  EXPECT_EQ(t.wall_s, 1.0 + 2.0 + 3.0);
  EXPECT_DOUBLE_EQ(t.cpu_s, 1.0 / 10 + 1.0 / 11 + 1.0 / 12);

  // With a time limit, passes continue while the next one fits.
  calls = 0;
  const Timed timed = measure(1, 1, 0.03, [&](std::size_t) {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Rep r;
    r.wall_s = 0.002;
    return r;
  });
  EXPECT_GT(timed.pass_wall_s.size(), 1u);
  EXPECT_EQ(timed.pass_wall_s.size(), std::size_t(calls));
}

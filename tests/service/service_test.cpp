#include "service/service.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "refinement/random_systems.hpp"

namespace cref::service {
namespace {

std::string temp_dir(const char* name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// A small pool of jobs across relations and verdicts.
std::vector<Job> sample_jobs() {
  std::vector<Job> jobs;
  auto a = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}});
  auto c = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 0}, {3, 2}});
  auto bad = TransitionGraph::from_edges(4, {{1, 0}, {2, 0}});
  for (Relation r : kAllRelations) {
    jobs.push_back(Job::from_graphs(r, c, {0}, a, {0}));
    jobs.push_back(Job::from_graphs(r, bad, {1}, a, {0}));
  }
  return jobs;
}

void expect_same_answer(const JobOutcome& x, const JobOutcome& y) {
  EXPECT_EQ(x.result.holds, y.result.holds);
  EXPECT_EQ(x.result.reason, y.result.reason);
  EXPECT_EQ(x.result.witness.states, y.result.witness.states);
  EXPECT_EQ(x.key.hex(), y.key.hex());
}

TEST(ServiceBatchTest, WarmAnswersAreValidatedAndByteIdentical) {
  CheckService svc{{}};
  const std::vector<Job> jobs = sample_jobs();
  std::vector<JobOutcome> cold, warm;
  for (const Job& j : jobs) cold.push_back(svc.run(j));
  for (const Job& j : jobs) warm.push_back(svc.run(j));
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_FALSE(cold[i].cache_hit) << i;
    EXPECT_TRUE(cold[i].certificate_stored) << i;
    EXPECT_TRUE(warm[i].cache_hit) << i;
    EXPECT_TRUE(warm[i].revalidated) << i;
    expect_same_answer(cold[i], warm[i]);
  }
  auto st = svc.stats();
  EXPECT_EQ(st.misses, jobs.size());
  EXPECT_EQ(st.hits, jobs.size());
  EXPECT_EQ(st.validation_failures, 0u);
}

TEST(ServiceBatchTest, RunBatchMatchesSerialRunsAtAnyThreadCount) {
  const std::vector<Job> jobs = sample_jobs();
  ServiceOptions serial_opts;
  serial_opts.engine.num_threads = 1;
  CheckService serial(serial_opts);
  std::vector<JobOutcome> want;
  for (const Job& j : jobs) want.push_back(serial.run(j));
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ServiceOptions o;
    o.engine.num_threads = threads;
    CheckService svc(o);
    std::vector<JobOutcome> got = svc.run_batch(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) expect_same_answer(want[i], got[i]);
  }
}

TEST(ServiceBatchTest, DuplicateJobsInOneBatchAgree) {
  std::vector<Job> jobs = sample_jobs();
  const std::size_t base = jobs.size();
  jobs.insert(jobs.end(), jobs.begin(), jobs.begin() + 4);  // resubmit a few
  ServiceOptions o;
  o.engine.num_threads = 4;
  CheckService svc(o);
  std::vector<JobOutcome> got = svc.run_batch(jobs);
  for (std::size_t i = 0; i < 4; ++i) expect_same_answer(got[i], got[base + i]);
}

TEST(ServiceBatchTest, CanonicalGclKeysHitAcrossRenamings) {
  const char* original = R"(system s {
    var x : 0..2; var y : 0..2;
    action a @0 : x == y -> x := (x + 1) % 3;
    action b @1 : y != x -> y := x;
    init : x == 0 && y == 0;
  })";
  const char* renamed = R"(system t {
    var p : 0..2; var q : 0..2;
    action second @1 : q != p -> q := p;
    action first  @0 : p == q -> p := (p + 1) % 3;
    init : p == 0 && q == 0;
  })";
  Job j1 = Job::from_gcl(Relation::kStabilizing, original, original);
  Job j2 = Job::from_gcl(Relation::kStabilizing, renamed, renamed);
  EXPECT_EQ(j1.key.hex(), j2.key.hex());
  CheckService svc{{}};
  JobOutcome first = svc.run(j1);
  JobOutcome second = svc.run(j2);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(second.revalidated);
  expect_same_answer(first, second);
}

TEST(ServiceBatchTest, TamperedDiskEntryFallsBackToFullCheck) {
  ServiceOptions o;
  o.cache_dir = temp_dir("cref-service-tamper");
  const Job job = sample_jobs().front();
  CheckResult honest;
  {
    CheckService svc(o);
    honest = svc.run(job).result;
  }
  // Flip the stored verdict on disk; the certificate now has the wrong
  // polarity, so a fresh service must reject it and recompute.
  const auto file = std::filesystem::path(o.cache_dir) / (job.key.hex() + ".entry");
  ASSERT_TRUE(std::filesystem::exists(file));
  std::ostringstream text;
  text << std::ifstream(file).rdbuf();
  std::string tampered = text.str();
  const std::string from = honest.holds ? "holds 1" : "holds 0";
  const std::string to = honest.holds ? "holds 0" : "holds 1";
  tampered.replace(tampered.find(from), from.size(), to);
  std::ofstream(file, std::ios::trunc) << tampered;

  CheckService fresh(o);
  JobOutcome out = fresh.run(job);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(out.result.holds, honest.holds);
  EXPECT_EQ(out.result.reason, honest.reason);
  EXPECT_EQ(fresh.stats().validation_failures, 1u);
  // The overwrite healed the entry: the next fresh instance hits again.
  CheckService healed(o);
  JobOutcome back = healed.run(job);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_TRUE(back.revalidated);
  EXPECT_EQ(back.result.reason, honest.reason);
}

TEST(ServiceBatchTest, TamperedCertificatePayloadIsRejected) {
  ServiceOptions o;
  o.cache_dir = temp_dir("cref-service-tamper2");
  // A positive stabilizing instance whose certificate carries real rho.
  auto a = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}});
  auto c = TransitionGraph::from_edges(4, {{0, 1}, {1, 0}, {2, 0}, {3, 2}});
  const Job job = Job::from_graphs(Relation::kStabilizing, c, {0}, a, {0});
  {
    CheckService svc(o);
    ASSERT_TRUE(svc.run(job).result.holds);
  }
  const auto file = std::filesystem::path(o.cache_dir) / (job.key.hex() + ".entry");
  std::ostringstream text;
  text << std::ifstream(file).rdbuf();
  std::string tampered = text.str();
  const std::size_t at = tampered.find("\nrho 4 ");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at + 1, tampered.find('\n', at + 1) - at - 1, "rho 4 0 0 0 0");
  std::ofstream(file, std::ios::trunc) << tampered;

  CheckService fresh(o);
  JobOutcome out = fresh.run(job);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_TRUE(out.result.holds);
  EXPECT_EQ(fresh.stats().validation_failures, 1u);
}

TEST(ServiceBatchTest, MismatchedGclSpacesThrow) {
  const char* two_vars = R"(system s {
    var x : 0..2; var y : 0..2;
    action a @0 : x == y -> x := (x + 1) % 3;
  })";
  const char* one_var = R"(system s {
    var x : 0..2;
    action a @0 : x == 0 -> x := 1;
  })";
  CheckService svc{{}};
  EXPECT_THROW(svc.run(Job::from_gcl(Relation::kEverywhere, two_vars, one_var)),
               std::invalid_argument);
  // In a batch the failure is contained, not thrown.
  auto outs = svc.run_batch({Job::from_gcl(Relation::kEverywhere, two_vars, one_var)});
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_FALSE(outs[0].result.holds);
  EXPECT_NE(outs[0].result.reason.find("service:"), std::string::npos);
}

TEST(ServiceBatchTest, OversizedSystemsAreCachedWithoutCertificates) {
  ServiceOptions o;
  o.max_cert_states = 2;  // everything below is "too big" to certify
  CheckService svc(o);
  const Job job = sample_jobs().front();
  JobOutcome cold = svc.run(job);
  EXPECT_FALSE(cold.certificate_stored);
  JobOutcome warm = svc.run(job);  // entry exists but has no certificate
  EXPECT_FALSE(warm.cache_hit);    // honest recompute, never a blind trust
  expect_same_answer(cold, warm);
}

}  // namespace
}  // namespace cref::service

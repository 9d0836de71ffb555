#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "service/cache.hpp"
#include "service/service.hpp"

// The static-first path for GCL convergence jobs: a refinement proved
// from the ASTs alone is served — and its warm hits revalidated — with
// NO graph ever built (build_ms stays 0). The cached entry carries the
// serialized RefinementCertificate ("cref-cache 3" refine blob), so a
// fresh service instance sharing only the on-disk store revalidates
// statically too, and a tampered blob falls back to an honest check.

namespace cref::service {
namespace {

std::string temp_dir(const char* name) {
  auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

// A convergence refinement the static prover settles instantly: the
// wrapper constrains the permissive counter, every action Exact under
// the by-name identity alpha.
const char* kConcrete = R"(system stepper {
  var x : 0..3;
  action down @0 : x > 0 -> x := x - 1;
  init : x == 3;
})";

const char* kAbstract = R"(system walker {
  var x : 0..3;
  action down @0 : x != 0 -> x := x - 1;
})";

Job convergence_job() {
  return Job::from_gcl(Relation::kConvergence, kConcrete, kAbstract);
}

TEST(ServiceStaticRefine, ColdConvergenceJobIsCertifiedWithoutAGraph) {
  CheckService svc{{}};
  const JobOutcome out = svc.run(convergence_job());
  EXPECT_TRUE(out.result.holds);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_TRUE(out.certificate_stored);
  EXPECT_EQ(out.build_ms, 0) << "static path must not materialize a graph";
  EXPECT_NE(out.result.reason.find("statically certified"), std::string::npos)
      << out.result.reason;
}

TEST(ServiceStaticRefine, WarmHitRevalidatesStaticallyAndBytesMatch) {
  CheckService svc{{}};
  const Job job = convergence_job();
  const JobOutcome cold = svc.run(job);
  const JobOutcome warm = svc.run(job);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.revalidated);
  EXPECT_EQ(warm.build_ms, 0);
  EXPECT_EQ(warm.result.holds, cold.result.holds);
  EXPECT_EQ(warm.result.reason, cold.result.reason);
  const auto st = svc.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.validation_failures, 0u);
}

TEST(ServiceStaticRefine, RefineBlobRoundTripsThroughTheDiskStore) {
  ServiceOptions o;
  o.cache_dir = temp_dir("cref-static-refine-disk");
  const Job job = convergence_job();
  CheckResult honest;
  {
    CheckService svc(o);
    honest = svc.run(job).result;
  }
  // The on-disk entry is a version-3 document with the refine blob.
  const auto file = std::filesystem::path(o.cache_dir) / (job.key.hex() + ".entry");
  ASSERT_TRUE(std::filesystem::exists(file));
  std::ostringstream text;
  text << std::ifstream(file).rdbuf();
  EXPECT_NE(text.str().find("cref-cache 3"), std::string::npos);
  EXPECT_NE(text.str().find("refine "), std::string::npos);
  EXPECT_NE(text.str().find("refine-cert 1"), std::string::npos);
  // A fresh instance sharing only the store serves it statically.
  CheckService fresh(o);
  const JobOutcome warm = fresh.run(job);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.revalidated);
  EXPECT_EQ(warm.build_ms, 0);
  EXPECT_EQ(warm.result.reason, honest.reason);
}

TEST(ServiceStaticRefine, TamperedRefineBlobFallsBackToAnHonestCheck) {
  ServiceOptions o;
  o.cache_dir = temp_dir("cref-static-refine-tamper");
  const Job job = convergence_job();
  CheckResult honest;
  {
    CheckService svc(o);
    honest = svc.run(job).result;
  }
  // Corrupt the blob's version header: the strict parser treats the
  // entry as unusable, the service counts a validation failure, and the
  // job is recomputed honestly.
  const auto file = std::filesystem::path(o.cache_dir) / (job.key.hex() + ".entry");
  std::ostringstream text;
  text << std::ifstream(file).rdbuf();
  std::string tampered = text.str();
  const std::size_t at = tampered.find("refine-cert 1");
  ASSERT_NE(at, std::string::npos) << tampered;
  tampered.replace(at, std::strlen("refine-cert 1"), "refine-cert 9");
  std::ofstream(file, std::ios::trunc) << tampered;

  CheckService fresh(o);
  const JobOutcome out = fresh.run(job);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(out.result.holds, honest.holds);
  EXPECT_GE(fresh.stats().validation_failures, 1u);
}

TEST(ServiceStaticRefine, ForeignBudgetIsAValidationFailure) {
  // The stored budget sizes the validator's enumerations, so an entry
  // may not choose it: any budget but the service's own is a validation
  // failure, and the recompute serves the same answer bytes.
  ServiceOptions o;
  o.cache_dir = temp_dir("cref-static-refine-budget");
  const Job job = convergence_job();
  CheckResult honest;
  {
    CheckService svc(o);
    honest = svc.run(job).result;
  }
  const auto file = std::filesystem::path(o.cache_dir) / (job.key.hex() + ".entry");
  std::ostringstream text;
  text << std::ifstream(file).rdbuf();
  std::string tampered = text.str();
  const std::size_t at = tampered.find("\nbudget ");
  ASSERT_NE(at, std::string::npos) << tampered;
  tampered.replace(at + 1, tampered.find('\n', at + 1) - at - 1, "budget 1000000000");
  std::ofstream(file, std::ios::trunc) << tampered;

  CheckService fresh(o);
  const JobOutcome out = fresh.run(job);
  EXPECT_FALSE(out.cache_hit);
  EXPECT_EQ(fresh.stats().validation_failures, 1u);
  EXPECT_EQ(out.result.holds, honest.holds);
  EXPECT_EQ(out.result.reason, honest.reason);
  EXPECT_EQ(out.result.witness.states, honest.witness.states);
}

TEST(ServiceStaticRefine, DisablingStaticRefineForcesTheGraphPath) {
  ServiceOptions o;
  o.static_refine = false;
  CheckService svc(o);
  const JobOutcome out = svc.run(convergence_job());
  EXPECT_TRUE(out.result.holds);
  EXPECT_GT(out.build_ms, 0) << "graph path must materialize both sides";
  EXPECT_EQ(out.result.reason.find("statically certified"), std::string::npos);
}

TEST(ServiceStaticRefine, StaticAndGraphVerdictsAgree) {
  // The same job through both paths: the static certificate and the
  // explicit engine must tell the same story.
  ServiceOptions graph_only;
  graph_only.static_refine = false;
  CheckService stat{{}}, expl(graph_only);
  const Job job = convergence_job();
  EXPECT_EQ(stat.run(job).result.holds, expl.run(job).result.holds);
}

TEST(ServiceStaticRefine, UnprovableJobFallsThroughToTheExplicitEngine) {
  // C loops where A cannot: the static prover refutes or punts, and the
  // service must still answer through the graph engine.
  const char* looping = R"(system stepper {
    var x : 0..3;
    action down @0 : x > 0 -> x := x - 1;
    action wrap @0 : x == 0 -> x := 3;
    init : x == 3;
  })";
  CheckService svc{{}};
  const JobOutcome out = svc.run(Job::from_gcl(Relation::kConvergence, looping, kAbstract));
  EXPECT_FALSE(out.result.holds);
  EXPECT_GT(out.build_ms, 0) << "fallback must build the graphs";
}

}  // namespace
}  // namespace cref::service

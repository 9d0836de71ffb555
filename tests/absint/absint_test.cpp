#include "absint/absint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/graph.hpp"
#include "gcl/compile.hpp"
#include "gcl/parser.hpp"
#include "refinement/reachability.hpp"
#include "util/strings.hpp"

// Fixpoint engine: termination and soundness on every shipped example
// program, exactness on the K-state ring (the disjunctive domain's
// raison d'être), budget-collapse behaviour, and the engine-pruning
// contract — an R#-filtered build is bit-identical to the unpruned one
// on every member state and empty elsewhere.

namespace cref::absint {
namespace {

std::vector<std::filesystem::path> example_programs() {
  std::vector<std::filesystem::path> out;
  for (const auto& e :
       std::filesystem::directory_iterator(CREF_SOURCE_DIR "/examples/gcl")) {
    if (e.path().extension() == ".gcl") out.push_back(e.path());
  }
  return out;
}

/// Asserts the full soundness + pruning contract for one program.
void check_program(const gcl::SystemAst& ast, const AbsintOptions& opts = {}) {
  const AbsintResult res = analyze_reachable(ast, opts);
  System sys = gcl::compile(ast);
  const TransitionGraph full = TransitionGraph::build(sys);
  const StateId n = full.num_states();

  std::vector<StateId> sources;
  if (sys.has_initial()) {
    sources = sys.initial_states();
  } else {
    for (StateId s = 0; s < n; ++s) sources.push_back(s);
  }
  const util::DenseBitset reach = reachable_from(full, sources);

  StateVec decoded;
  for (StateId s = 0; s < n; ++s) {
    if (!reach.test(s)) continue;
    sys.space().decode_into(s, decoded);
    EXPECT_TRUE(res.region.contains(decoded))
        << ast.name << ": reachable state " << s << " outside R#";
  }

  sys.set_state_filter(make_state_filter(res.region));
  const TransitionGraph pruned =
      TransitionGraph::build(sys, EngineOptions{/*num_threads=*/1, /*chunk_size=*/0});
  EngineOptions par;
  par.num_threads = 3;
  par.chunk_size = 7;
  EXPECT_EQ(TransitionGraph::build(sys, par), pruned)
      << ast.name << ": parallel pruned build differs from serial";
  for (StateId s = 0; s < n; ++s) {
    sys.space().decode_into(s, decoded);
    auto ps = pruned.successors(s);
    if (res.region.contains(decoded)) {
      auto fs = full.successors(s);
      EXPECT_TRUE(std::equal(ps.begin(), ps.end(), fs.begin(), fs.end()))
          << ast.name << ": member state " << s << " slice differs";
    } else {
      EXPECT_TRUE(ps.empty()) << ast.name << ": non-member " << s << " kept edges";
    }
  }

  sys.clear_state_filter();
  EXPECT_EQ(TransitionGraph::build(sys), full)
      << ast.name << ": clearing the filter must restore the unpruned build";
}

TEST(AbsintTest, ExamplesTerminateSoundlyAndPruneBitIdentically) {
  const auto programs = example_programs();
  ASSERT_FALSE(programs.empty());
  for (const auto& p : programs) {
    SCOPED_TRACE(p.filename().string());
    check_program(gcl::parse(util::read_file(p)));
  }
}

const char* kRing = R"(
system kring {
  var c0 : 0..3;
  var c1 : 0..3;
  var c2 : 0..3;
  var c3 : 0..3;
  action top : c0 == c3 -> c0 := (c0 + 1) % 4;
  action up1 : c1 != c0 -> c1 := c0;
  action up2 : c2 != c1 -> c2 := c1;
  action up3 : c3 != c2 -> c3 := c2;
  init : c0 == 0 && c1 == 0 && c2 == 0 && c3 == 0;
}
)";

TEST(AbsintTest, KStateRingIsExact) {
  // From the all-zeros legitimate state, Dijkstra's K-state ring reaches
  // exactly K * (n + 1) = 4 * 4 = 16 of the 256 states, each a single
  // point — the disjunctive region must track them exactly, not hull
  // them into a box that saturates to the whole space.
  gcl::SystemAst ast = gcl::parse(kRing);
  const AbsintResult res = analyze_reachable(ast);
  EXPECT_FALSE(res.collapsed);

  System sys = gcl::compile(ast);
  const TransitionGraph g = TransitionGraph::build(sys);
  const util::DenseBitset reach = reachable_from(g, sys.initial_states());
  EXPECT_EQ(reach.count(), 16u);

  StateVec decoded;
  StateId members = 0;
  for (StateId s = 0; s < g.num_states(); ++s) {
    sys.space().decode_into(s, decoded);
    const bool in_region = res.region.contains(decoded);
    members += in_region;
    EXPECT_EQ(in_region, reach.test(s)) << "state " << s;
  }
  EXPECT_EQ(members, 16u);  // zero over-approximation on this family
  check_program(ast);
}

TEST(AbsintTest, BudgetOverflowCollapsesButStaysSound) {
  gcl::SystemAst ast = gcl::parse(kRing);
  AbsintOptions opts;
  opts.max_disjuncts = 2;
  opts.max_steps = 3;
  const AbsintResult res = analyze_reachable(ast, opts);
  EXPECT_TRUE(res.collapsed);
  check_program(ast, opts);  // soundness + pruning contract still hold
}

TEST(AbsintTest, NoInitMeansWholeDomainIsReachable) {
  gcl::SystemAst ast = gcl::parse(R"(
system open {
  var a : 0..2;
  var b : 0..1;
  action flip : a == b -> b := 1 - b;
}
)");
  const AbsintResult res = analyze_reachable(ast);
  System sys = gcl::compile(ast);
  StateVec decoded;
  for (StateId s = 0; s < sys.space().size(); ++s) {
    sys.space().decode_into(s, decoded);
    EXPECT_TRUE(res.region.contains(decoded)) << "state " << s;
  }
}

TEST(AbsintTest, InitRegionSplitsTopLevelDisjuncts) {
  gcl::SystemAst ast = gcl::parse(R"(
system split {
  var x : 0..5;
  action stay : x == x -> x := x;
  init : x == 1 || x == 4;
}
)");
  const AbsRegion r = init_region(ast);
  ASSERT_EQ(r.boxes.size(), 2u);
  EXPECT_TRUE(r.contains(StateVec{1}));
  EXPECT_TRUE(r.contains(StateVec{4}));
  EXPECT_FALSE(r.contains(StateVec{2}));
}

TEST(AbsintTest, StateFilterMatchesRegionMembership) {
  AbsRegion r;
  AbsBox box;
  box.vars = {AbsValue::range(1, 2), AbsValue::constant(0)};
  r.add(std::move(box));
  const StatePredicate f = make_state_filter(r);
  EXPECT_TRUE(f(StateVec{1, 0}));
  EXPECT_TRUE(f(StateVec{2, 0}));
  EXPECT_FALSE(f(StateVec{0, 0}));
  EXPECT_FALSE(f(StateVec{1, 1}));
}

TEST(AbsintTest, UnsatisfiableInitYieldsBottomRegion) {
  gcl::SystemAst ast = gcl::parse(R"(
system empty {
  var x : 0..3;
  action inc : x < 3 -> x := x + 1;
  init : x > 5;
}
)");
  const AbsintResult res = analyze_reachable(ast);
  EXPECT_TRUE(res.region.is_bottom());
}

}  // namespace
}  // namespace cref::absint

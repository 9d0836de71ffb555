#include "absint/transfer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gcl/compile.hpp"
#include "gcl/parser.hpp"

// Transformer soundness against the concrete gcl::eval semantics,
// checked exhaustively: for every concrete state in gamma(box),
//   eval(e, s)        is in gamma(abs_eval(e, box)),
//   refine_by_guard   retains every state of the right truthiness, and
//   apply_action      covers the concrete post-state of every enabled
//                     state (multiple assignment + wrap-around).
// The program below deliberately routes through every operator the
// domain models: +, -, *, /, %, all six comparisons, &&, ||, !.

namespace cref::absint {
namespace {

const char* kProgram = R"(
system arith {
  var x : 0..7;
  var y : 0..4;
  var z : 0..2;
  action mix   : x < 7 && y > 0        -> x := x + y * 2;
  action quot  : x % 2 == 0 || z == 1  -> y := x / (z + 1), z := z + 1;
  action diff  : !(x == y) && z >= 1   -> z := (x - y) * 2;
  action wrap  : x != 3                -> x := x - 5;
  action gate  : x <= y                -> y := y % (z + 1);
  action never : x > 7                 -> z := 0;
}
)";

std::vector<StateVec> states_of(const std::vector<int>& cards) {
  std::vector<StateVec> out;
  StateVec s(cards.size(), 0);
  while (true) {
    out.push_back(s);
    std::size_t i = 0;
    for (; i < cards.size(); ++i) {
      if (++s[i] < cards[i]) break;
      s[i] = 0;
    }
    if (i == cards.size()) return out;
  }
}

/// Concrete post-state mirroring gcl::compile's action semantics.
StateVec concrete_post(const StateVec& s, const gcl::ActionAst& a,
                       const std::vector<int>& cards) {
  std::vector<std::int64_t> rhs;
  rhs.reserve(a.assignments.size());
  for (const auto& asg : a.assignments) rhs.push_back(gcl::eval(asg.value, s));
  StateVec post = s;
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    const int tgt = a.assignments[i].var_index;
    post[tgt] = static_cast<Value>(gcl::eval_mod(rhs[i], cards[tgt]));
  }
  return post;
}

/// A handful of boxes of varying tightness, all sub-boxes of top.
std::vector<AbsBox> sample_boxes(const std::vector<int>& cards) {
  std::vector<AbsBox> out;
  out.push_back(AbsBox::top(cards));
  AbsBox even = AbsBox::top(cards);
  even.vars[0] = AbsValue{Interval::range(0, 7), Congruence::residue(2, 0)}.reduced();
  out.push_back(even);
  AbsBox tight = AbsBox::top(cards);
  tight.vars[0] = AbsValue::range(2, 5);
  tight.vars[1] = AbsValue::constant(1);
  out.push_back(tight);
  AbsBox odd = AbsBox::top(cards);
  odd.vars[1] = AbsValue{Interval::range(1, 4), Congruence::residue(2, 1)}.reduced();
  odd.vars[2] = AbsValue::range(1, 2);
  out.push_back(odd);
  return out;
}

class TransferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ast_ = gcl::parse(kProgram);
    cards_ = gcl::cardinalities(ast_);
    states_ = states_of(cards_);
  }

  gcl::SystemAst ast_;
  std::vector<int> cards_;
  std::vector<StateVec> states_;
};

TEST_F(TransferTest, AbsEvalCoversConcreteEval) {
  for (const AbsBox& box : sample_boxes(cards_)) {
    for (const gcl::ActionAst& a : ast_.actions) {
      const AbsValue g = abs_eval(a.guard, box);
      std::vector<AbsValue> rhs;
      for (const auto& asg : a.assignments) rhs.push_back(abs_eval(asg.value, box));
      for (const StateVec& s : states_) {
        if (!box.contains(s)) continue;
        EXPECT_TRUE(g.contains(gcl::eval(a.guard, s)))
            << a.name << " guard at state, abs " << g.format();
        for (std::size_t i = 0; i < a.assignments.size(); ++i) {
          EXPECT_TRUE(rhs[i].contains(gcl::eval(a.assignments[i].value, s)))
              << a.name << " rhs#" << i << ", abs " << rhs[i].format();
        }
      }
    }
  }
}

TEST_F(TransferTest, RefineByGuardRetainsMatchingStates) {
  for (const AbsBox& box : sample_boxes(cards_)) {
    for (const gcl::ActionAst& a : ast_.actions) {
      for (bool truth : {true, false}) {
        AbsBox refined = box;
        const bool feasible = refine_by_guard(refined, a.guard, truth);
        for (const StateVec& s : states_) {
          if (!box.contains(s)) continue;
          if ((gcl::eval(a.guard, s) != 0) != truth) continue;
          ASSERT_TRUE(feasible)
              << a.name << " truth=" << truth << ": refined to bottom but a "
              << "matching state exists";
          EXPECT_TRUE(refined.contains(s)) << a.name << " truth=" << truth;
        }
      }
    }
  }
}

TEST_F(TransferTest, ApplyActionCoversConcretePosts) {
  for (const AbsBox& box : sample_boxes(cards_)) {
    for (const gcl::ActionAst& a : ast_.actions) {
      const std::optional<AbsBox> post = apply_action(box, a, cards_);
      for (const StateVec& s : states_) {
        if (!box.contains(s) || gcl::eval(a.guard, s) == 0) continue;
        ASSERT_TRUE(post.has_value())
            << a.name << ": guard satisfiable in the box but apply_action "
            << "returned nullopt";
        EXPECT_TRUE(post->contains(concrete_post(s, a, cards_))) << a.name;
      }
    }
  }
}

TEST_F(TransferTest, UnsatisfiableGuardYieldsNullopt) {
  // `never` has guard x > 7 over x : 0..7 — unsatisfiable even in top.
  const gcl::ActionAst& never = ast_.actions.back();
  ASSERT_EQ(never.name, "never");
  EXPECT_FALSE(apply_action(AbsBox::top(cards_), never, cards_).has_value());
}

TEST_F(TransferTest, CardsAndNamesFollowDeclarationOrder) {
  EXPECT_EQ(cards_, (std::vector<int>{8, 5, 3}));
  EXPECT_EQ(names_of(ast_), (std::vector<std::string>{"x", "y", "z"}));
}

}  // namespace
}  // namespace cref::absint

#pragma once

// Abstract transformers for GCL expressions and actions over the
// interval x congruence domain (domain.hpp). These mirror gcl::eval /
// gcl::compile exactly — Euclidean mod/div, total division by zero,
// 0/1 comparisons, assignment wrap-around modulo the declared
// cardinality — so gamma(abs_eval(e, box)) always covers eval(e, s)
// for every concrete state s in gamma(box). The absint-soundness fuzz
// oracle and tests/absint/transfer_test.cpp enforce that contract
// mechanically.

#include <optional>
#include <vector>

#include "absint/domain.hpp"
#include "gcl/ast.hpp"

namespace cref::absint {

/// Variable names of `ast.vars` for box formatting.
std::vector<std::string> names_of(const gcl::SystemAst& ast);

/// Abstract value of `e` over all concrete states in gamma(box).
/// Sound: eval(e, s) is in gamma(abs_eval(e, box)) for every s in
/// gamma(box). Returns bottom iff box has a bottom component.
AbsValue abs_eval(const gcl::Expr& e, const AbsBox& box);

/// Narrows `box` to (an over-approximation of) the states where `e`
/// evaluates truthy (`truth` = true) or falsy (`truth` = false).
/// Returns false when the refined box is bottom — i.e. `e` provably has
/// no `truth`-valued state in gamma(box); `box` is unspecified then.
/// Sound: every s in gamma(box) with truthiness(eval(e, s)) == truth is
/// retained.
bool refine_by_guard(AbsBox& box, const gcl::Expr& e, bool truth);

/// Abstract post-state of one action: refine by the guard, evaluate all
/// right-hand sides against the OLD box (multiple assignment), then
/// write each target reduced modulo its cardinality. nullopt when the
/// guard is provably unsatisfiable in gamma(box).
std::optional<AbsBox> apply_action(const AbsBox& box, const gcl::ActionAst& action,
                                   const std::vector<int>& cards);

}  // namespace cref::absint

#include "absint/absint.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>

#include "gcl/compile.hpp"

namespace cref::absint {
namespace {

/// Collects the top-level `||` disjuncts of a predicate. Nested
/// disjunctions under negation/conjunction are handled (soundly, by
/// join) inside refine_by_guard instead.
void split_or(const gcl::Expr& e, std::vector<const gcl::Expr*>& out) {
  if (e.op == gcl::Op::Or) {
    split_or(e.children[0], out);
    split_or(e.children[1], out);
  } else {
    out.push_back(&e);
  }
}

/// Two refinement passes per disjunct: the second pass re-runs the
/// comparisons against the values narrowed by the first, which matters
/// for chained constraints like `x == y && y == 2`.
bool refine_twice(AbsBox& box, const gcl::Expr& e) {
  return refine_by_guard(box, e, true) && refine_by_guard(box, e, true);
}

/// Single-box ascending-chain fixpoint from `start` — the collapse
/// fallback when the disjunctive worklist overruns its budgets. The
/// chain length is bounded by the summed per-variable lattice heights
/// (each strict growth widens some interval endpoint or coarsens some
/// congruence); if the conservative cap is ever exceeded the result
/// degrades to the top box, which is trivially sound.
AbsBox hull_fixpoint(const gcl::SystemAst& ast, AbsBox start,
                     const std::vector<int>& cards) {
  std::size_t cap = 64;
  for (int card : cards) {
    cap += static_cast<std::size_t>(std::min(2 * card + 8, 1024));
  }
  AbsBox h = std::move(start);
  for (std::size_t iter = 0; iter < cap; ++iter) {
    AbsBox next = h;
    for (const auto& action : ast.actions) {
      if (auto post = apply_action(h, action, cards)) {
        next = AbsBox::join(next, *post);
      }
    }
    if (next == h) return h;
    h = std::move(next);
  }
  return AbsBox::top(cards);
}

}  // namespace

AbsRegion region_from_predicate(const gcl::SystemAst& ast, const gcl::Expr& pred,
                                std::size_t max_disjuncts) {
  std::vector<int> cards = gcl::cardinalities(ast);
  std::vector<const gcl::Expr*> disjuncts;
  split_or(pred, disjuncts);
  AbsRegion region;
  if (disjuncts.size() > max_disjuncts) {
    // Too many top-level disjuncts to keep separate: refine the whole
    // predicate over one box (refine_by_guard joins branches itself).
    AbsBox box = AbsBox::top(cards);
    if (refine_twice(box, pred)) region.add(std::move(box));
    return region;
  }
  for (const gcl::Expr* d : disjuncts) {
    AbsBox box = AbsBox::top(cards);
    if (refine_twice(box, *d)) region.add(std::move(box));
  }
  return region;
}

AbsRegion init_region(const gcl::SystemAst& ast, std::size_t max_disjuncts) {
  if (ast.init) return region_from_predicate(ast, *ast.init, max_disjuncts);
  AbsRegion region;
  region.add(AbsBox::top(gcl::cardinalities(ast)));
  return region;
}

AbsintResult analyze_reachable_from(const gcl::SystemAst& ast, const AbsRegion& init,
                                    const AbsintOptions& opts) {
  auto t0 = std::chrono::steady_clock::now();
  std::vector<int> cards = gcl::cardinalities(ast);
  AbsintResult res;
  std::deque<AbsBox> work;
  for (const AbsBox& b : init.boxes) {
    if (res.region.add(b)) work.push_back(b);
  }
  while (!work.empty()) {
    if (res.iterations >= opts.max_steps ||
        res.region.boxes.size() > opts.max_disjuncts) {
      res.collapsed = true;
      break;
    }
    ++res.iterations;
    AbsBox b = std::move(work.front());
    work.pop_front();
    // b may have been subsumed out of the region meanwhile; processing
    // it anyway is sound (its posts are below the superseding box's).
    for (const auto& action : ast.actions) {
      if (auto post = apply_action(b, action, cards)) {
        if (res.region.add(*post)) work.push_back(std::move(*post));
      }
    }
  }
  if (res.collapsed) {
    AbsBox start = res.region.is_bottom() ? AbsBox::top(cards) : res.region.hull();
    res.region.boxes.clear();
    res.region.add(hull_fixpoint(ast, std::move(start), cards));
  }
  auto t1 = std::chrono::steady_clock::now();
  res.analysis_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return res;
}

AbsintResult analyze_reachable(const gcl::SystemAst& ast, const AbsintOptions& opts) {
  return analyze_reachable_from(ast, init_region(ast, opts.max_disjuncts), opts);
}

StatePredicate make_state_filter(AbsRegion region) {
  auto shared = std::make_shared<const AbsRegion>(std::move(region));
  return [shared](const StateVec& s) { return shared->contains(s); };
}

}  // namespace cref::absint

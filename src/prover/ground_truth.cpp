#include "prover/ground_truth.hpp"

#include <cstdint>
#include <vector>

#include "core/abstraction.hpp"
#include "core/graph.hpp"
#include "core/system.hpp"
#include "gcl/compile.hpp"
#include "refinement/checker.hpp"

namespace cref::prover {
namespace {

/// in_p[s] for every packed state, by decoded evaluation of the target.
std::vector<char> target_mask(const System& sys, const gcl::Expr& target) {
  const Space& sp = sys.space();
  std::vector<char> in_p(sp.size(), 0);
  StateVec decoded;
  for (StateId s = 0; s < sp.size(); ++s) {
    sp.decode_into(s, decoded);
    in_p[s] = gcl::eval(target, decoded) != 0 ? 1 : 0;
  }
  return in_p;
}

}  // namespace

GroundTruth explicit_check(const gcl::SystemAst& ast, const gcl::Expr& target,
                           std::size_t max_states) {
  GroundTruth gt;
  const System sys = gcl::compile(ast);
  const std::size_t total = sys.space().size();
  if (total > max_states) return gt;
  gt.applicable = true;
  gt.states = total;

  const TransitionGraph g = TransitionGraph::build(sys, max_states);
  gt.edges = g.num_edges();
  const std::vector<char> in_p = target_mask(sys, target);

  gt.closed = true;
  gt.no_deadlock_outside = true;
  std::vector<std::uint32_t> indeg(total, 0);
  std::size_t outside = 0;
  for (StateId s = 0; s < total; ++s) {
    if (in_p[s]) {
      for (StateId t : g.successors(s))
        if (!in_p[t]) gt.closed = false;
    } else {
      ++outside;
      if (g.is_deadlock(s)) gt.no_deadlock_outside = false;
      for (StateId t : g.successors(s))
        if (!in_p[t]) ++indeg[t];
    }
  }

  // Kahn over the outside-target subrelation.
  std::vector<StateId> queue;
  for (StateId s = 0; s < total; ++s)
    if (!in_p[s] && indeg[s] == 0) queue.push_back(s);
  std::size_t processed = 0;
  while (processed < queue.size()) {
    const StateId s = queue[processed++];
    for (StateId t : g.successors(s))
      if (!in_p[t] && --indeg[t] == 0) queue.push_back(t);
  }
  gt.acyclic_outside = processed == outside;
  return gt;
}

bool explicit_terminates(const gcl::SystemAst& ast, bool* applicable,
                         std::size_t max_states) {
  const System sys = gcl::compile(ast);
  const std::size_t total = sys.space().size();
  if (applicable) *applicable = total <= max_states;
  if (total > max_states) return false;

  const TransitionGraph g = TransitionGraph::build(sys, max_states);
  std::vector<std::uint32_t> indeg(total, 0);
  for (StateId s = 0; s < total; ++s)
    for (StateId t : g.successors(s)) ++indeg[t];
  std::vector<StateId> queue;
  for (StateId s = 0; s < total; ++s)
    if (indeg[s] == 0) queue.push_back(s);
  std::size_t processed = 0;
  while (processed < queue.size()) {
    const StateId s = queue[processed++];
    for (StateId t : g.successors(s))
      if (--indeg[t] == 0) queue.push_back(t);
  }
  return processed == total;
}

RefineGroundTruth explicit_refinement(const gcl::SystemAst& c_ast,
                                      const gcl::SystemAst& a_ast,
                                      const gcl::AlphaSpec& alpha,
                                      std::size_t max_states) {
  RefineGroundTruth gt;
  const System c = gcl::compile(c_ast);
  const System a = gcl::compile(a_ast);
  gt.c_states = c.space().size();
  gt.a_states = a.space().size();
  if (gt.c_states > max_states || gt.a_states > max_states) return gt;
  gt.applicable = true;

  // The map function borrows alpha/a_ast from the caller; the
  // abstraction dies before this function returns.
  Abstraction::MapFn map = [&alpha, &a_ast](const StateVec& s, StateVec& out) {
    gcl::alpha_image(alpha, a_ast, s, out);
  };
  RefinementChecker rc(c, a,
                       Abstraction("alpha", c.space_ptr(), a.space_ptr(), map));
  gt.holds = rc.convergence_refinement().holds;
  return gt;
}

}  // namespace cref::prover

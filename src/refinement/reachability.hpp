#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/trace.hpp"
#include "util/bitset.hpp"

namespace cref {

// Each search runs over states [0, n) whose successor lists `succ(s)`
// returns (a CSR slice, or a list generated on demand that only has to
// stay valid until the next call). The TransitionGraph overloads below
// are the same searches over a materialized graph.

/// Reachable set from the states set in `visited` (inclusive), as a dense
/// bitset indexed by StateId. A FIFO search with the bitset as its seen
/// set: O(states + edges) at any depth, and the queue holds only the
/// states found but not yet expanded.
template <typename Succ>
util::DenseBitset reachable_from(util::DenseBitset visited, Succ&& succ) {
  std::deque<StateId> queue;
  visited.for_each_set([&](std::size_t s) { queue.push_back(static_cast<StateId>(s)); });
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    for (StateId t : succ(s)) {
      if (visited.test(t)) continue;
      visited.set(t);
      queue.push_back(t);
    }
  }
  return visited;
}

/// Reachable set from `sources` (inclusive) over states [0, n).
template <typename Succ>
util::DenseBitset reachable_from(StateId n, const std::vector<StateId>& sources, Succ&& succ) {
  util::DenseBitset seeds(n);
  for (StateId s : sources) seeds.set(s);
  return reachable_from(std::move(seeds), std::forward<Succ>(succ));
}

/// Shortest path from any state in `sources` to `target` (inclusive of
/// both endpoints) through states for which `allowed(s)` holds; sources
/// it rejects are skipped. std::nullopt if unreachable; if `target` is
/// itself a source, the path is the single state. Level-order FIFO with
/// a bitset seen set: sources seed the queue in the given order and
/// successors are expanded in list order, so the path is deterministic.
template <typename Succ, typename Allowed>
std::optional<Trace> bfs_path(StateId n, const std::vector<StateId>& sources, StateId target,
                              Succ&& succ, Allowed&& allowed) {
  constexpr StateId kNone = ~StateId{0};
  std::vector<StateId> parent(n, kNone);
  util::DenseBitset seen(n);
  std::deque<StateId> queue;
  for (StateId s : sources) {
    if (!allowed(s) || seen.test(s)) continue;
    seen.set(s);
    queue.push_back(s);
    if (s == target) return Trace{{s}};
  }
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (StateId t : succ(s)) {
      if (seen.test(t) || !allowed(t)) continue;
      seen.set(t);
      parent[t] = s;
      if (t == target) {
        Trace tr;
        for (StateId cur = t; cur != kNone; cur = parent[cur]) tr.states.push_back(cur);
        std::reverse(tr.states.begin(), tr.states.end());
        return tr;
      }
      queue.push_back(t);
    }
  }
  return std::nullopt;
}

inline util::DenseBitset reachable_from(const TransitionGraph& g,
                                        const std::vector<StateId>& sources) {
  return reachable_from(g.num_states(), sources, [&g](StateId s) { return g.successors(s); });
}

/// Shortest path from any state in `sources` to `target` in `g`.
inline std::optional<Trace> find_path(const TransitionGraph& g,
                                      const std::vector<StateId>& sources, StateId target) {
  return bfs_path(
      g.num_states(), sources, target, [&g](StateId s) { return g.successors(s); },
      [](StateId) { return true; });
}

/// Shortest path from `source` to `target` in `g` restricted to states
/// for which `allowed.test(s)`; both endpoints must be allowed.
inline std::optional<Trace> find_path_within(const TransitionGraph& g, StateId source,
                                             StateId target, const util::DenseBitset& allowed) {
  return bfs_path(
      g.num_states(), {source}, target, [&g](StateId s) { return g.successors(s); },
      [&allowed](StateId s) { return allowed.test(s); });
}

}  // namespace cref

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/graph.hpp"
#include "util/bitmatrix.hpp"
#include "util/bitset.hpp"

namespace cref {

/// Strongly-connected-component decomposition (iterative Tarjan — state
/// spaces run to 10^8 states, so no recursion), over any successor
/// source: a CSR graph, or a callable that generates each state's list
/// on demand so the transition relation is never materialized.
///
/// The cycle structure of the concrete system is what every relation in
/// the paper reduces to on finite automata: an infinite computation of a
/// finite system eventually traverses only edges that lie on cycles, so
/// "finitely many omissions on every computation" (convergence
/// isomorphism) and "has a suffix that ..." (stabilization) are both
/// conditions on intra-SCC edges.
///
/// Storage is one 4-byte word per state plus a bit per component:
///
/// - `data_[s]` is the DFS index while s is gray (on the Tarjan stack)
///   and is overwritten with the component id when its SCC pops — the two
///   uses never overlap, and `on_stack` disambiguates them during lowlink
///   updates.
/// - Lowlinks live in the DFS frames, not a per-state array: only states
///   on the current DFS path need one.
/// - Each state's successor list is requested exactly once (at frame
///   push) and parked on a shared edge stack holding the lists of the
///   current DFS path only; it is truncated as frames pop.
/// - Component sizes are not kept (the relations only ever ask "size >=
///   2"): a `nontrivial` bitset over components answers that.
///
/// Roots are visited in ascending order and successors in list order, so
/// ids are in reverse topological order of the condensation: an edge
/// between different components goes from a higher id to a lower id.
class Scc {
 public:
  /// Width of the per-state word. The top value is reserved as the
  /// "unvisited" sentinel, so graphs must have fewer than 2^32 - 1
  /// states; the constructor throws std::length_error beyond that,
  /// before allocating anything.
  using CompId = std::uint32_t;

  /// Decomposes the graph with states [0, n) whose successor lists
  /// `succ(s)` returns (a range of StateId, distinct, no self-loops
  /// needed). The range only has to stay valid until the next call: it is
  /// copied onto the edge stack immediately, so a generator may return a
  /// view of a reused scratch buffer. Serial — Tarjan's invariants are
  /// inherently DFS-ordered.
  template <typename Succ>
  Scc(StateId n, Succ&& succ);

  /// Decomposition of a materialized graph.
  explicit Scc(const TransitionGraph& g)
      : Scc(g.num_states(), [&g](StateId s) { return g.successors(s); }) {}

  /// Component id of state `s`.
  std::size_t component(StateId s) const { return data_[s]; }

  /// Number of components.
  std::size_t count() const { return count_; }

  /// True iff component `c` has >= 2 states.
  bool nontrivial(std::size_t c) const { return nontrivial_.test(c); }
  std::size_t nontrivial_count() const { return nontrivial_.count(); }

  /// True iff the edge (s, t) lies on some cycle, i.e. both endpoints are
  /// in the same component of size >= 2. (Self-loops cannot occur: the
  /// transition semantics excludes no-op steps.)
  bool edge_on_cycle(StateId s, StateId t) const {
    return data_[s] == data_[t] && nontrivial_.test(data_[s]);
  }

  /// Peak depth of the DFS frame stack / entries on the path edge stack —
  /// the run's working set beyond the fixed 4 bytes per state.
  std::size_t peak_frames() const { return peak_frames_; }
  std::size_t peak_edges() const { return peak_edges_; }

 private:
  static constexpr CompId kUnvisited = std::numeric_limits<CompId>::max();

  std::vector<CompId> data_;      // DFS index while gray, then component id
  util::DenseBitset nontrivial_;  // indexed by component id
  std::size_t count_ = 0;
  std::size_t peak_frames_ = 0;
  std::size_t peak_edges_ = 0;
};

template <typename Succ>
Scc::Scc(StateId n, Succ&& succ) {
  if (n >= kUnvisited)
    throw std::length_error("Scc: graph exceeds the 2^32 - 1 state CompId budget");
  data_.assign(n, kUnvisited);
  nontrivial_.assign(n);
  util::DenseBitset on_stack(n);
  std::vector<CompId> stack;
  CompId next_index = 0;

  // Explicit DFS frame. The state's successor list occupies
  // [ebase, ebase + nsucc) of the shared `edges` stack.
  struct Frame {
    CompId s;
    CompId lowlink;
    std::uint32_t child;
    std::uint32_t nsucc;
    std::size_t ebase;
  };
  std::vector<Frame> frames;
  std::vector<CompId> edges;

  auto push_frame = [&](StateId s) {
    const CompId idx = next_index++;
    data_[s] = idx;
    stack.push_back(static_cast<CompId>(s));
    on_stack.set(s);
    const std::size_t ebase = edges.size();
    for (StateId t : succ(s)) edges.push_back(static_cast<CompId>(t));
    frames.push_back({static_cast<CompId>(s), idx, 0,
                      static_cast<std::uint32_t>(edges.size() - ebase), ebase});
    peak_frames_ = std::max(peak_frames_, frames.size());
    peak_edges_ = std::max(peak_edges_, edges.size());
  };

  for (StateId root = 0; root < n; ++root) {
    if (data_[root] != kUnvisited) continue;
    push_frame(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < f.nsucc) {
        const StateId t = edges[f.ebase + f.child++];
        if (data_[t] == kUnvisited) {
          push_frame(t);  // may reallocate `frames`: f is dead past here
        } else if (on_stack.test(t)) {
          f.lowlink = std::min(f.lowlink, data_[t]);
        }
      } else {
        const CompId low = f.lowlink;
        if (low == data_[f.s]) {  // f.s is still gray: data_ holds its index
          const CompId c = static_cast<CompId>(count_++);
          std::size_t members = 0;
          CompId w;
          do {
            w = stack.back();
            stack.pop_back();
            on_stack.reset(w);
            data_[w] = c;
            ++members;
          } while (w != f.s);
          if (members >= 2) nontrivial_.set(c);
        }
        edges.resize(f.ebase);
        frames.pop_back();
        if (!frames.empty()) frames.back().lowlink = std::min(frames.back().lowlink, low);
      }
    }
  }
}

/// Transitive closure of the condensation of `g` under `scc` (which must
/// be `Scc(g)`): bit `(c, d)` is set iff some state of component c has a
/// path of length >= 1 to some state of component d. In particular the
/// diagonal bit (c, c) is set exactly for components that contain a cycle
/// — size >= 2, or a singleton whose state has a self-loop — matching the
/// per-query BFS fallback's path-of-length->=1 semantics.
///
/// Tarjan ids are in reverse topological order (cross edges go from
/// higher to lower id), so a single pass in increasing id order sees
/// every successor component's row already closed; each union is a
/// word-parallel or_row.
util::BitMatrix condensation_closure(const TransitionGraph& g, const Scc& scc);

}  // namespace cref

#include "refinement/checker.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>

#include "refinement/reachability.hpp"
#include "refinement/scan.hpp"

namespace cref {

using detail::PhaseTimer;

namespace {

std::vector<StateId> build_alpha_table(const Abstraction& alpha) {
  if (alpha.is_identity()) return {};
  // apply_into with shared buffers: lazy abstractions stay allocation-free.
  std::vector<StateId> table(alpha.from().size());
  StateVec c, a;
  for (StateId s = 0; s < alpha.from().size(); ++s) table[s] = alpha.apply_into(s, c, a);
  return table;
}

}  // namespace

/// Per-worker read access to C: CSR slices and the alpha table when C is
/// materialized; otherwise successor lists generated from the System
/// (a state failing its absint filter gets an EMPTY list, exactly as in
/// TransitionGraph::build, and is therefore a deadlock to unfiltered
/// scans) and images through the Abstraction. A span returned by a method
/// lives until that method's next call on the same cursor. Padded to a
/// cache line: workers write their own scratch buffers.
class alignas(64) RefinementChecker::Cursor {
 public:
  explicit Cursor(const RefinementChecker& rc)
      : a_(&rc.a_),
        csr_(rc.gen_ ? nullptr : &rc.c_),
        table_(rc.alpha_.empty() ? nullptr : rc.alpha_.data()),
        gen_(rc.gen_ ? &*rc.gen_ : nullptr),
        lazy_alpha_(rc.gen_ && !rc.gen_->alpha.is_identity()) {}

  std::span<const StateId> successors(StateId s) {
    if (csr_) return csr_->successors(s);
    scratch_.out.clear();
    if (gen_->sys.has_state_filter() && !gen_->sys.passes_filter(s, scratch_)) return {};
    gen_->sys.successors_into(s, scratch_);
    return scratch_.out;
  }

  StateId image(StateId s) {
    if (table_) return table_[s];
    return lazy_alpha_ ? gen_->alpha.apply_into(s, cbuf_, abuf_) : s;
  }

  /// The stutter subgraph's list for `s`: successors t inside `c_region`
  /// (all of Sigma_C when null) with image(t) == image(s), unless that
  /// image is an A-deadlock inside `a_region` (all of Sigma_A when null)
  /// — infinite stuttering there collapses to a maximal finite
  /// computation of A and is permitted.
  std::span<const StateId> stutter_successors(StateId s, const util::DenseBitset* c_region,
                                              const util::DenseBitset* a_region) {
    stutter_.clear();
    if (c_region && !c_region->test(s)) return {};
    const auto succs = successors(s);
    if (succs.empty()) return {};
    const StateId is = image(s);
    for (StateId t : succs)
      if ((!c_region || c_region->test(t)) && image(t) == is) stutter_.push_back(t);
    if (!stutter_.empty() && a_->is_deadlock(is) && (!a_region || a_region->test(is)))
      stutter_.clear();
    return stutter_;
  }

  /// I_C membership of `s` (generated source only).
  bool initial(StateId s) { return gen_->sys.is_initial(s, scratch_); }

 private:
  const TransitionGraph* a_;
  const TransitionGraph* csr_;  // null: generated source
  const StateId* table_;        // null: identity, or the generated source's alpha
  const Generator* gen_;
  bool lazy_alpha_;
  SuccessorScratch scratch_;
  StateVec cbuf_, abuf_;
  std::vector<StateId> stutter_;
};

RefinementChecker::RefinementChecker(const System& c, const System& a, Abstraction alpha,
                                     const EngineOptions& opts)
    : RefinementChecker(c, a, std::move(alpha), opts,
                        /*generate=*/c.space().size() > TransitionGraph::kDefaultMaxStates) {}

RefinementChecker RefinementChecker::generated(const System& c, const System& a,
                                               Abstraction alpha, const EngineOptions& opts) {
  return RefinementChecker(c, a, std::move(alpha), opts, /*generate=*/true);
}

RefinementChecker::RefinementChecker(const System& c, const System& a, Abstraction alpha,
                                     const EngineOptions& opts, bool generate)
    : n_(c.space().size()),
      a_init_(a.initial_states()),
      c_name_(c.name()),
      a_name_(a.name()),
      opts_(opts) {
  if (&alpha.from() != &c.space() && alpha.from().size() != c.space().size())
    throw std::invalid_argument("RefinementChecker: alpha domain does not match C");
  if (&alpha.to() != &a.space() && alpha.to().size() != a.space().size())
    throw std::invalid_argument("RefinementChecker: alpha codomain does not match A");
  if (generate) {
    if (!c.space().dense())
      throw std::invalid_argument("RefinementChecker: C space overflows StateId (sparse)");
    if (n_ >= std::numeric_limits<Scc::CompId>::max())
      throw std::length_error("RefinementChecker: C exceeds the 2^32 - 1 state budget");
    gen_.emplace(Generator{c, std::move(alpha)});
  } else {
    alpha_ = build_alpha_table(alpha);
    c_init_ = c.initial_states();
  }
  // The materialization of the graphs lands in the graph-build phase.
  PhaseTimer timer(graph_build_ms_);
  if (!generate) c_ = TransitionGraph::build(c, opts_);
  a_ = TransitionGraph::build(a, opts_);
}

RefinementChecker::RefinementChecker(const System& c, const System& a, const EngineOptions& opts)
    : RefinementChecker(c, a, Abstraction::identity(c.space_ptr()), opts) {
  if (!c.space().same_shape_as(a.space()))
    throw std::invalid_argument("RefinementChecker: same-space check needs equal spaces");
}

RefinementChecker::RefinementChecker(TransitionGraph c, TransitionGraph a,
                                     std::vector<StateId> c_init, std::vector<StateId> a_init,
                                     std::vector<StateId> alpha_table)
    : c_(std::move(c)),
      alpha_(std::move(alpha_table)),
      n_(c_.num_states()),
      a_(std::move(a)),
      a_init_(std::move(a_init)),
      c_init_(std::move(c_init)) {
  if (!alpha_.empty() && alpha_.size() != n_)
    throw std::invalid_argument("RefinementChecker: alpha table size mismatch");
  if (alpha_.empty() && n_ != a_.num_states())
    throw std::invalid_argument("RefinementChecker: identity alpha needs equal state counts");
  std::sort(c_init_.begin(), c_init_.end());
  std::sort(a_init_.begin(), a_init_.end());
}

const TransitionGraph& RefinementChecker::c_graph() const {
  if (gen_) throw std::logic_error("RefinementChecker: C is generated on demand, not a CSR");
  return c_;
}

const std::vector<StateId>& RefinementChecker::c_initial() const {
  std::call_once(c_init_once_, [&] {
    if (!gen_ || !gen_->sys.has_initial()) return;  // materialized: set at construction
    // Workers fill private bitsets — chunk boundaries are not
    // word-aligned, so writing one shared bitset would race — merged with
    // word-parallel ORs after the scan.
    const std::size_t threads = opts_.resolved_threads(n_);
    std::vector<util::DenseBitset> partial(threads, util::DenseBitset(n_));
    std::vector<Cursor> curs(threads, Cursor(*this));
    parallel_chunks(n_, opts_, [&](std::size_t tid, std::size_t begin, std::size_t end) {
      for (StateId s = static_cast<StateId>(begin); s < end; ++s)
        if (curs[tid].initial(s)) partial[tid].set(s);
    });
    for (std::size_t i = 1; i < threads; ++i) partial[0] |= partial[i];
    partial[0].for_each_set([&](std::size_t s) { c_init_.push_back(s); });
  });
  return c_init_;
}

std::vector<StateId> RefinementChecker::c_successors(StateId s) const {
  Cursor cur(*this);
  const auto succs = cur.successors(s);
  return {succs.begin(), succs.end()};
}

const util::DenseBitset& RefinementChecker::a_reachable() const {
  std::call_once(a_reach_once_, [&] { a_reach_ = reachable_from(a_, a_init_); });
  return *a_reach_;
}

const TransitionGraph& RefinementChecker::c_reversed() const {
  std::call_once(c_rev_once_, [&] { c_rev_ = c_graph().reversed(); });
  return *c_rev_;
}

const Scc& RefinementChecker::c_scc() const {
  std::call_once(c_scc_once_, [&] {
    PhaseTimer timer(c_scc_ms_);
    Cursor cur(*this);
    c_scc_.emplace(n_, [&cur](StateId s) { return cur.successors(s); });
  });
  return *c_scc_;
}

void RefinementChecker::ensure_a_closure() const {
  std::call_once(a_closure_once_, [&] {
    {
      PhaseTimer timer(a_scc_ms_);
      a_scc_.emplace(a_);
    }
    const Scc& scc = *a_scc_;
    if (scc.count() > opts_.max_comps_for_closure) {
      a_closure_.emplace(AClosure{{}, /*too_big=*/true});
      return;
    }
    PhaseTimer timer(closure_ms_);
    a_closure_.emplace(AClosure{condensation_closure(a_, scc), /*too_big=*/false});
  });
}

bool RefinementChecker::reachable_in_a(StateId src, StateId dst) const {
  ensure_a_closure();
  if (!a_closure_->too_big) {
    const Scc& scc = *a_scc_;
    return a_closure_->reach.test(scc.component(src), scc.component(dst));
  }
  // Fallback: plain BFS (rare: only for very large A graphs). Purely
  // local state, so concurrent queries are safe.
  util::DenseBitset seen(a_.num_states());
  std::deque<StateId> queue{src};
  seen.set(src);
  while (!queue.empty()) {
    StateId s = queue.front();
    queue.pop_front();
    for (StateId t : a_.successors(s)) {
      if (t == dst) return true;
      if (!seen.test(t)) {
        seen.set(t);
        queue.push_back(t);
      }
    }
  }
  return false;
}

EdgeClass RefinementChecker::classify(StateId is, StateId it) const {
  if (is == it) return EdgeClass::Stutter;
  if (a_.has_edge(is, it)) return EdgeClass::Exact;
  if (reachable_in_a(is, it)) return EdgeClass::Compressed;
  return EdgeClass::Invalid;
}

EdgeClass RefinementChecker::classify_edge(StateId s, StateId t) const {
  Cursor cur(*this);
  return classify(cur.image(s), cur.image(t));
}

/// Runs `scan` and adds its wall-clock to the edge-scan phase, minus the
/// SCC and closure builds it triggered on first read (those land in their
/// own phases).
template <typename Scan>
auto RefinementChecker::timed_scan(Scan&& scan) const {
  auto built_ms = [&] {
    return c_scc_ms_.load(std::memory_order_relaxed) + a_scc_ms_.load(std::memory_order_relaxed) +
           closure_ms_.load(std::memory_order_relaxed);
  };
  const double built_before = built_ms();
  const auto start = std::chrono::steady_clock::now();
  auto result = scan();
  const double elapsed =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  detail::add_ms(edge_scan_ms_, elapsed - (built_ms() - built_before));
  return result;
}

EdgeStats RefinementChecker::edge_stats() const {
  const std::size_t threads = opts_.resolved_threads(n_);
  std::vector<EdgeStats> partial(threads);
  std::vector<Cursor> curs(threads, Cursor(*this));
  return timed_scan([&] {
    parallel_chunks(n_, opts_, [&](std::size_t tid, std::size_t begin, std::size_t end) {
      EdgeStats& st = partial[tid];
      Cursor& cur = curs[tid];
      for (StateId s = static_cast<StateId>(begin); s < end; ++s) {
        const auto succs = cur.successors(s);
        if (succs.empty()) continue;
        const StateId is = cur.image(s);
        for (StateId t : succs) {
          switch (classify(is, cur.image(t))) {
            case EdgeClass::Exact: ++st.exact; break;
            case EdgeClass::Stutter: ++st.stutter; break;
            case EdgeClass::Compressed: ++st.compressed; break;
            case EdgeClass::Invalid: ++st.invalid; break;
          }
        }
      }
    });
    EdgeStats total;
    for (const EdgeStats& st : partial) {
      total.exact += st.exact;
      total.stutter += st.stutter;
      total.compressed += st.compressed;
      total.invalid += st.invalid;
    }
    return total;
  });
}

bool RefinementChecker::initial_states_match() const {
  for (StateId s : c_initial())
    if (!std::binary_search(a_init_.begin(), a_init_.end(), image(s))) return false;
  return true;
}

std::optional<Scc> RefinementChecker::stutter_scc(Cursor& cur, const util::DenseBitset* c_region,
                                                  const util::DenseBitset* a_region) const {
  // Most checks have no stutter edge at all: one scan, no Tarjan.
  StateId first = 0;
  while (first < n_ && cur.stutter_successors(first, c_region, a_region).empty()) ++first;
  if (first == n_) return std::nullopt;
  return Scc(n_, [&](StateId s) { return cur.stutter_successors(s, c_region, a_region); });
}

std::optional<Trace> RefinementChecker::find_stutter_cycle(
    const util::DenseBitset* c_region, const util::DenseBitset* a_region) const {
  Cursor cur(*this);
  const std::optional<Scc> scc = stutter_scc(cur, c_region, a_region);
  if (!scc || scc->nontrivial_count() == 0) return std::nullopt;
  auto succ = [&](StateId s) { return cur.stutter_successors(s, c_region, a_region); };
  for (StateId s = 0; s < n_; ++s) {
    const std::size_t comp = scc->component(s);
    if (!scc->nontrivial(comp)) continue;
    // Close the cycle s -> t -> ... -> s inside s's component. The list
    // is copied: the path search re-enters succ, which reuses the buffer.
    const auto span = succ(s);
    const std::vector<StateId> firsts(span.begin(), span.end());
    auto in_comp = [&](StateId u) { return scc->component(u) == comp; };
    for (StateId t : firsts) {
      if (!in_comp(t)) continue;
      if (auto back = bfs_path(n_, {t}, s, succ, in_comp)) {
        Trace cycle{{s}};
        cycle.states.insert(cycle.states.end(), back->states.begin(), back->states.end());
        return cycle;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::vector<std::uint64_t>> RefinementChecker::stutter_rank(
    const util::DenseBitset* c_region) const {
  Cursor cur(*this);
  std::vector<std::uint64_t> sigma(n_, 0);
  const std::optional<Scc> order = stutter_scc(cur, c_region, nullptr);
  if (!order) return sigma;
  if (order->nontrivial_count() > 0) return std::nullopt;
  // Acyclic: every component is one state and ids are reverse
  // topological, so each successor's rank is final before its
  // predecessors are visited.
  std::vector<StateId> by_comp(n_);
  for (StateId s = 0; s < n_; ++s) by_comp[order->component(s)] = s;
  for (StateId s : by_comp)
    for (StateId t : cur.stutter_successors(s, c_region, nullptr))
      sigma[s] = std::max(sigma[s], sigma[t] + 1);
  return sigma;
}

Trace RefinementChecker::cycle_witness(StateId s, StateId t) const {
  // Present the cycle as s -> t -> ... -> s, the back path found inside
  // s's component.
  const Scc& scc = c_scc();
  Cursor cur(*this);
  const std::size_t comp = scc.component(s);
  Trace cycle{{s}};
  if (auto back = bfs_path(
          n_, {t}, s, [&](StateId u) { return cur.successors(u); },
          [&](StateId u) { return scc.component(u) == comp; }))
    cycle.states.insert(cycle.states.end(), back->states.begin(), back->states.end());
  else
    cycle.states.push_back(t);
  return cycle;
}

CheckResult RefinementChecker::check_region(const util::DenseBitset* filter,
                                            bool allow_compressed_off_cycle,
                                            bool allow_invalid_off_cycle,
                                            const char* relation_name) const {
  // A state's first violation in serial scan order: edges in ascending
  // target order, then the deadlock condition. t is meaningless for
  // deadlock violations.
  struct Violation {
    StateId s, t;
    EdgeClass cls;
    bool on_cycle;
    bool deadlock;
  };
  std::vector<Cursor> curs(opts_.resolved_threads(n_), Cursor(*this));
  auto per_state = [&](std::size_t tid, StateId s) -> std::optional<Violation> {
    if (filter && !filter->test(s)) return std::nullopt;
    Cursor& cur = curs[tid];
    const auto succs = cur.successors(s);
    const StateId is = cur.image(s);
    if (succs.empty()) {
      if (a_.is_deadlock(is)) return std::nullopt;
      return Violation{s, 0, EdgeClass::Exact, false, true};
    }
    for (StateId t : succs) {
      EdgeClass cls = classify(is, cur.image(t));
      if (cls == EdgeClass::Exact || cls == EdgeClass::Stutter) continue;
      // Only Compressed and Invalid edges read C's SCC; it is built on
      // the first such edge.
      bool on_cycle = c_scc().edge_on_cycle(s, t);
      bool allowed_off_cycle =
          cls == EdgeClass::Compressed ? allow_compressed_off_cycle : allow_invalid_off_cycle;
      if (on_cycle || !allowed_off_cycle) return Violation{s, t, cls, on_cycle, false};
    }
    return std::nullopt;
  };

  const std::optional<Violation> viol =
      timed_scan([&] { return detail::min_state_scan<Violation>(n_, opts_, per_state); });

  if (viol) {
    auto edge_witness = [&](StateId s, StateId t) {
      // For init-scoped checks, exhibit a run from the initial states.
      if (filter) {
        Cursor cur(*this);
        if (auto path = bfs_path(
                n_, c_initial(), s, [&](StateId u) { return cur.successors(u); },
                [](StateId) { return true; })) {
          path->states.push_back(t);
          return *path;
        }
      }
      return Trace{{s, t}};
    };
    if (viol->deadlock)
      return CheckResult::fail(std::string(relation_name) +
                                   ": C deadlocks but A must keep moving (final states differ)",
                               Trace{{viol->s}});
    if (viol->cls == EdgeClass::Compressed) {
      if (viol->on_cycle)
        return CheckResult::fail(std::string(relation_name) +
                                     ": compressed edge on a cycle (a computation looping "
                                     "through it drops infinitely many states of A)",
                                 cycle_witness(viol->s, viol->t));
      return CheckResult::fail(std::string(relation_name) +
                                   ": transition is not a transition of A (it compresses "
                                   "an A-path)",
                               edge_witness(viol->s, viol->t));
    }
    return CheckResult::fail(std::string(relation_name) +
                                 ": transition's image is not even reachable in A",
                             viol->on_cycle ? cycle_witness(viol->s, viol->t)
                                            : edge_witness(viol->s, viol->t));
  }
  if (auto cyc = timed_scan([&] { return find_stutter_cycle(filter, nullptr); }))
    return CheckResult::fail(std::string(relation_name) +
                                 ": divergence — a cycle of pure-stutter transitions whose "
                                 "image is not a deadlock of A",
                             *cyc);
  return CheckResult::ok();
}

CheckResult RefinementChecker::refinement_init() const {
  const std::vector<StateId>& init = c_initial();
  if (init.empty()) return CheckResult::ok();  // vacuous
  Cursor cur(*this);
  const util::DenseBitset reach =
      reachable_from(n_, init, [&](StateId s) { return cur.successors(s); });
  return check_region(&reach, /*allow_compressed_off_cycle=*/false,
                      /*allow_invalid_off_cycle=*/false, "[C (= A]_init");
}

CheckResult RefinementChecker::everywhere_refinement() const {
  return check_region(nullptr, /*allow_compressed_off_cycle=*/false,
                      /*allow_invalid_off_cycle=*/false, "[C (= A]");
}

CheckResult RefinementChecker::convergence_refinement() const {
  if (auto init = refinement_init(); !init) return init;
  return check_region(nullptr, /*allow_compressed_off_cycle=*/true,
                      /*allow_invalid_off_cycle=*/false, "[C <~ A]");
}

CheckResult RefinementChecker::everywhere_eventually_refinement() const {
  if (auto init = refinement_init(); !init) return init;
  return check_region(nullptr, /*allow_compressed_off_cycle=*/true,
                      /*allow_invalid_off_cycle=*/true, "[C ee A]");
}

CheckResult RefinementChecker::stabilizing_to() const {
  if (a_init_.empty())
    return CheckResult::fail("stabilizing-to: A has no initial states, so no computation of A "
                             "starts at one");
  const util::DenseBitset& ra = a_reachable();
  const Scc& scc = c_scc();  // every edge asks whether it lies on a cycle

  struct Violation {
    StateId s, t;
    bool deadlock;
  };
  std::vector<Cursor> curs(opts_.resolved_threads(n_), Cursor(*this));
  auto per_state = [&](std::size_t tid, StateId s) -> std::optional<Violation> {
    Cursor& cur = curs[tid];
    const auto succs = cur.successors(s);
    const StateId is = cur.image(s);
    if (succs.empty()) {
      if (!ra.test(is) || !a_.is_deadlock(is)) return Violation{s, 0, true};
      return std::nullopt;
    }
    for (StateId t : succs) {
      if (!scc.edge_on_cycle(s, t)) continue;
      StateId it = cur.image(t);
      bool good = ra.test(is) && ra.test(it) && (is == it || a_.has_edge(is, it));
      if (!good) return Violation{s, t, false};
    }
    return std::nullopt;
  };

  const std::optional<Violation> viol =
      timed_scan([&] { return detail::min_state_scan<Violation>(n_, opts_, per_state); });
  if (viol) {
    if (viol->deadlock)
      return CheckResult::fail(
          "stabilizing-to: C deadlocks in a state whose image is not a reachable deadlock "
          "of A",
          Trace{{viol->s}});
    return CheckResult::fail(
        "stabilizing-to: a cycle of C contains a transition that does not follow A within "
        "A's reachable states — some computation never settles into a suffix of A",
        cycle_witness(viol->s, viol->t));
  }
  // Divergence: a pure-stutter cycle collapses to a finite image of an
  // infinite computation; that image can only be a suffix of an
  // A-computation if it is a reachable deadlock of A.
  if (auto cyc = timed_scan([&] { return find_stutter_cycle(nullptr, &ra); }))
    return CheckResult::fail(
        "stabilizing-to: divergence — an infinite computation whose image stalls at a "
        "non-final state of A",
        *cyc);
  return CheckResult::ok();
}

std::optional<std::pair<Trace, Trace>> RefinementChecker::example_compression() const {
  Cursor cur(*this);
  for (StateId s = 0; s < n_; ++s) {
    const StateId is = cur.image(s);
    for (StateId t : cur.successors(s)) {
      const StateId it = cur.image(t);
      if (classify(is, it) == EdgeClass::Compressed)
        if (auto path = find_path(a_, {is}, it)) return std::make_pair(Trace{{s, t}}, *path);
    }
  }
  return std::nullopt;
}

PhaseTimings RefinementChecker::phase_timings() const {
  PhaseTimings t;
  t.graph_build_ms = graph_build_ms_.load(std::memory_order_relaxed);
  t.c_scc_ms = c_scc_ms_.load(std::memory_order_relaxed);
  t.a_scc_ms = a_scc_ms_.load(std::memory_order_relaxed);
  t.closure_ms = closure_ms_.load(std::memory_order_relaxed);
  t.edge_scan_ms = edge_scan_ms_.load(std::memory_order_relaxed);
  return t;
}

const char* to_string(EdgeClass c) {
  switch (c) {
    case EdgeClass::Exact: return "exact";
    case EdgeClass::Stutter: return "stutter";
    case EdgeClass::Compressed: return "compressed";
    case EdgeClass::Invalid: return "invalid";
  }
  return "?";
}

}  // namespace cref

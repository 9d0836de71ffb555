#include "prover/prove.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "absint/closure.hpp"
#include "absint/transfer.hpp"
#include "gcl/compile.hpp"
#include "gcl/diag.hpp"
#include "gcl/pretty.hpp"
#include "prover/templates.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

namespace {

/// Per-action synthesis state.
struct ActionState {
  Expr guard;
  Expr changed;
  Expr not_p;       // Const 1 for Termination
  Expr not_p_post;  // Const 1 for Termination
};

/// Every action's state, built once by the prover and once by mode B
/// (`target` null for Termination).
std::vector<ActionState> action_states(const gcl::SystemAst& ast, const Expr* target) {
  const std::vector<int> cards = gcl::cardinalities(ast);
  const Expr not_p = target ? make_unary(Op::Not, *target) : make_const(1);
  std::vector<ActionState> st;
  st.reserve(ast.actions.size());
  for (const gcl::ActionAst& a : ast.actions)
    st.push_back({a.guard, changed_expr(a, cards), not_p,
                  target ? post_expr(not_p, a, cards) : make_const(1)});
  return st;
}

/// Obligation context for one action: {guard, changed, !P, !P'}.
/// guard/changed are mandatory; the rest may be dropped (sound
/// strengthening: prove the decrease on MORE states).
SymbolicObligation action_context(std::size_t action, const ActionState& st) {
  return {action, {&st.guard, &st.changed, &st.not_p, &st.not_p_post},
          {false, false, true, true}, true};
}

/// The progress leg of one target conjunct: the first action proved to
/// fire (guard && changed) wherever `conjunct` fails, with the outcome
/// that proved it; nullopt when there is none. The prover and mode B
/// both decide it here.
std::optional<std::pair<std::size_t, DecideOutcome>> progress_witness(
    const gcl::SystemAst& ast, const std::vector<ActionState>& st, const Expr& conjunct,
    const DecideOptions& dopts) {
  const Expr neg = make_unary(Op::Not, conjunct);
  const std::vector<const Expr*> ctx = {&neg};
  const std::vector<bool> drop = {false};
  for (std::size_t i = 0; i < st.size(); ++i) {
    const Expr witness = make_binary(Op::And, st[i].guard, st[i].changed);
    const DecideOutcome r = decide_always(ast, witness, ctx, drop, dopts);
    if (r.proved) return std::pair{i, r};
  }
  return std::nullopt;
}

/// Closure discharge ladder for one action; appends obligations on
/// success. `absint_ok` caches the global absint fallback verdict
/// (-1 unknown, 0 invalid, 1 valid).
bool discharge_closure_action(const gcl::SystemAst& ast, const gcl::Expr& target,
                              const std::vector<const Expr*>& p_conjuncts,
                              std::size_t action_index, const Expr& guard,
                              const Expr& changed, const DecideOptions& dopts,
                              int* absint_ok, std::vector<Obligation>& obligations) {
  const gcl::ActionAst& a = ast.actions[action_index];
  const std::vector<int> cards = gcl::cardinalities(ast);
  // guard && changed, with the P conjuncts droppable: an unsatisfiable
  // subset witnesses the whole, and footprints stay local.
  std::vector<const Expr*> ctx = {&guard, &changed};
  std::vector<bool> drop = {false, false};
  for (const Expr* p : p_conjuncts) {
    ctx.push_back(p);
    drop.push_back(true);
  }

  // (a) Vacuity: guard && changed && P unsatisfiable (an action that
  // cannot fire inside P preserves it trivially).
  DecideOutcome r = decide_unsat(ast, ctx, drop, dopts);
  if (r.proved) {
    obligations.push_back({Obligation::Kind::Closure, a.name, 0, Discharge::Vacuous,
                           r.valuations, "never fires inside target"});
    return true;
  }

  // (b) Per-conjunct preservation: P && guard && changed => P_i(post).
  std::vector<Expr> posts;
  posts.reserve(p_conjuncts.size());
  for (const Expr* pi : p_conjuncts) posts.push_back(post_expr(*pi, a, cards));
  r = decide_all(ast, posts, ctx, drop, dopts);
  if (r.proved) {
    obligations.push_back({Obligation::Kind::Closure, a.name, 0, r.method, r.valuations,
                           std::to_string(p_conjuncts.size()) + " conjunct(s) preserved"});
    return true;
  }

  // (c) Global absint fallback — sound for P ONLY when the abstraction
  // is exact: every region box must surely satisfy P, so gamma(region)
  // equals P and closure of the region is closure of P. (Without the
  // equality check the certificate proves closure of a SUPERSET, which
  // is what engine pruning wants but not what stabilization needs.)
  if (*absint_ok < 0) {
    *absint_ok = 0;
    if (auto cert = absint::make_closure_certificate(ast, target)) {
      bool exact = !cert->region.is_bottom();
      for (const absint::AbsBox& b : cert->region.boxes)
        exact = exact && absint::abs_eval(target, b).surely_true();
      if (exact) *absint_ok = 1;
    }
  }
  if (*absint_ok == 1) {
    obligations.push_back({Obligation::Kind::Closure, a.name, 0,
                           Discharge::AbstractInterpretation, 0,
                           "exact absint region closed"});
    return true;
  }
  return false;
}

}  // namespace

const char* obligation_kind_name(Obligation::Kind k) {
  switch (k) {
    case Obligation::Kind::StrictDecrease:
      return "strict-decrease";
    case Obligation::Kind::NonIncrease:
      return "non-increase";
    case Obligation::Kind::Vacuous:
      return "vacuous";
    case Obligation::Kind::TableDecrease:
      return "table-decrease";
    case Obligation::Kind::Progress:
      return "progress";
    case Obligation::Kind::Closure:
      return "closure";
  }
  return "?";
}

gcl::Expr enabled_one_predicate(const gcl::SystemAst& ast) {
  std::vector<Expr> ind;
  ind.reserve(ast.actions.size());
  for (const gcl::ActionAst& a : ast.actions)
    ind.push_back(make_binary(Op::Ne, a.guard, make_const(0)));
  return make_binary(Op::Eq, make_sum(std::move(ind)), make_const(1));
}

namespace {

ProveResult prove_impl(const gcl::SystemAst& ast, const Expr* target,
                       const ProveOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  ProveResult result;
  ConvergenceCertificate cert;
  cert.goal = target ? Goal::Convergence : Goal::Termination;
  cert.system = ast.name;
  cert.predicate = target ? gcl::print_expr(*target) : "";
  cert.budget = opts.budget;
  cert.ranked_at.assign(ast.actions.size(), kUnranked);

  const std::vector<int> cards = gcl::cardinalities(ast);
  const std::size_t n = ast.vars.size();
  const DecideOptions dopts{opts.budget};
  const InterferenceGraph ig = build_interference(ast);

  const Expr not_p = target ? make_unary(Op::Not, *target) : make_const(1);

  // Per-action contexts + vacuity (no transition with both ends in !P).
  const std::vector<ActionState> st = action_states(ast, target);
  std::vector<SymbolicObligation> owed;
  for (std::size_t i = 0; i < ast.actions.size(); ++i) {
    const gcl::ActionAst& a = ast.actions[i];
    SymbolicObligation ob = action_context(i, st[i]);
    const DecideOutcome r = decide_unsat(ast, ob.context, ob.droppable, dopts);
    if (r.proved) {
      cert.obligations.push_back({Obligation::Kind::Vacuous, a.name, 0, r.method,
                                  r.valuations,
                                  target ? "no transition outside target"
                                         : "no state-changing execution"});
    } else {
      owed.push_back(std::move(ob));
    }
  }

  // Greedy lexicographic synthesis over the template pool.
  LexSynthesis syn = synthesize_ranking(ast, template_pool(ast, ig), owed, {}, dopts);
  for (const LexSynthesis::Step& step : syn.steps) {
    const std::size_t action = owed[step.obligation].action;
    if (step.strict) cert.ranked_at[action] = step.component;
    cert.obligations.push_back(
        {step.strict ? Obligation::Kind::StrictDecrease : Obligation::Kind::NonIncrease,
         ast.actions[action].name, step.component, step.outcome.method,
         step.outcome.valuations,
         ast.actions[action].name + " vs " + syn.components[step.component].pretty});
  }
  cert.components = std::move(syn.components);
  std::vector<std::size_t> unranked;
  unranked.reserve(syn.unranked.size());
  for (std::size_t o : syn.unranked) unranked.push_back(owed[o].action);

  // Enumerated-table final component for whatever the templates missed.
  if (!unranked.empty()) {
    const Packing pack(cards);
    const std::size_t total = gcl::valuation_count(gcl::all_vars(n), cards, opts.budget);
    if (total > opts.budget) {
      std::string names;
      for (std::size_t i : unranked) names += (names.empty() ? "" : ", ") + ast.actions[i].name;
      result.failures.push_back("no template ranks {" + names +
                                "} and |Sigma| exceeds the budget for a table (" +
                                std::to_string(opts.budget) + ")");
    } else {
      // Residual relation: unranked-action transitions with both ends
      // outside P on which every template component ties.
      auto residual_succ = [&](const StateVec& s, StateVec& scratch,
                               const std::function<void(std::size_t)>& emit) {
        if (target && !truthy(not_p, s)) return;
        for (std::size_t i : unranked) {
          const gcl::ActionAst& a = ast.actions[i];
          if (!truthy(a.guard, s)) continue;
          gcl::step(a, cards, s, scratch);
          if (scratch == s) continue;
          if (target && !truthy(not_p, scratch)) continue;
          bool tied = true;
          for (const RankComponent& c : cert.components)
            tied = tied && gcl::eval(c.expr, s) == gcl::eval(c.expr, scratch);
          if (tied) emit(pack.encode(scratch));
        }
      };

      std::vector<std::uint32_t> indeg(total, 0);
      StateVec s, post;
      gcl::for_each_valuation(gcl::all_vars(n), cards, s, [&](const StateVec& sv) {
        residual_succ(sv, post, [&](std::size_t t) { ++indeg[t]; });
        return true;
      });
      // Kahn topological order, then longest path in reverse order.
      std::vector<std::uint32_t> order;
      order.reserve(total);
      for (std::size_t id = 0; id < total; ++id)
        if (indeg[id] == 0) order.push_back(static_cast<std::uint32_t>(id));
      StateVec decoded;
      for (std::size_t head = 0; head < order.size(); ++head) {
        pack.decode(order[head], cards, decoded);
        residual_succ(decoded, post, [&](std::size_t t) {
          if (--indeg[t] == 0) order.push_back(static_cast<std::uint32_t>(t));
        });
      }
      if (order.size() != total) {
        result.failures.push_back(
            "residual relation has a cycle outside the target: no ranking extends the "
            "templates");
      } else {
        std::vector<std::uint32_t> table(total, 0);
        for (std::size_t idx = order.size(); idx-- > 0;) {
          const std::size_t id = order[idx];
          pack.decode(id, cards, decoded);
          std::uint32_t best = 0;
          residual_succ(decoded, post, [&](std::size_t t) {
            best = std::max(best, table[t] + 1);
          });
          table[id] = best;
        }
        const std::size_t comp = cert.components.size();
        cert.components.push_back({RankComponent::Kind::Table,
                                   "residual-table[" + std::to_string(total) + "]",
                                   make_const(0), std::move(table)});
        for (std::size_t i : unranked) {
          cert.ranked_at[i] = comp;
          cert.obligations.push_back({Obligation::Kind::TableDecrease,
                                      ast.actions[i].name, comp, Discharge::Table, total,
                                      "longest-path rank over residual DAG"});
        }
        unranked.clear();
      }
    }
  }

  // Progress: no deadlock outside P.
  bool progress_ok = true;
  if (target && result.failures.empty()) {
    const std::vector<const Expr*> p_conjuncts = conjuncts_of(*target);
    std::vector<Obligation> progress_obs;
    bool local_ok = true;
    for (std::size_t ci = 0; ci < p_conjuncts.size() && local_ok; ++ci) {
      const auto w = progress_witness(ast, st, *p_conjuncts[ci], dopts);
      local_ok = w.has_value();
      if (local_ok)
        progress_obs.push_back({Obligation::Kind::Progress, ast.actions[w->first].name, 0,
                                w->second.method, w->second.valuations,
                                "witness for violated conjunct " + std::to_string(ci)});
    }
    if (local_ok) {
      cert.obligations.insert(cert.obligations.end(), progress_obs.begin(),
                              progress_obs.end());
    } else {
      const std::size_t total = gcl::valuation_count(gcl::all_vars(n), cards, opts.budget);
      if (total > opts.budget) {
        progress_ok = false;
        result.failures.push_back(
            "no per-conjunct progress witness and |Sigma| exceeds the budget");
      } else {
        StateVec s, post;
        bool deadlock = false;
        gcl::for_each_valuation(gcl::all_vars(n), cards, s, [&](const StateVec& sv) {
          if (!truthy(not_p, sv)) return true;
          deadlock = gcl::for_each_move(ast, cards, sv, post,
                                        [](std::size_t, const StateVec&) { return false; });
          return !deadlock;
        });
        if (deadlock) {
          progress_ok = false;
          result.failures.push_back("a state outside the target is a deadlock");
        } else {
          cert.obligations.push_back({Obligation::Kind::Progress, "", 0,
                                      Discharge::Enumeration, total,
                                      "exhaustive deadlock scan outside target"});
        }
      }
    }
  }

  // Closure (stabilization = convergence + closure); failure here keeps
  // the convergence proof, it only clears closure_proved.
  if (target && result.failures.empty() && progress_ok) {
    const std::vector<const Expr*> p_conjuncts = conjuncts_of(*target);
    int absint_ok = -1;
    bool all = true;
    std::vector<Obligation> closure_obs;
    for (std::size_t i = 0; i < ast.actions.size() && all; ++i)
      all = discharge_closure_action(ast, *target, p_conjuncts, i, st[i].guard,
                                     st[i].changed, dopts, &absint_ok, closure_obs);
    if (all) {
      cert.closure_proved = true;
      cert.obligations.insert(cert.obligations.end(), closure_obs.begin(),
                              closure_obs.end());
    }
  }

  result.proved = unranked.empty() && progress_ok && result.failures.empty();
  if (result.proved) result.certificate = std::move(cert);
  result.prove_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return result;
}

}  // namespace

ProveResult prove_convergence(const gcl::SystemAst& ast, const gcl::Expr& target,
                              const ProveOptions& opts) {
  return prove_impl(ast, &target, opts);
}

ProveResult prove_termination(const gcl::SystemAst& ast, const ProveOptions& opts) {
  return prove_impl(ast, nullptr, opts);
}

// --- independent validation -------------------------------------------

namespace {

/// Mode A's answers to the rules of refinement/positive_rules.hpp:
/// convergence to P as the refinement of the two-state system
/// (!P -> P) under s |-> [s in P]. A step outside P is a stutter owing
/// a strict decrease of the tuple, a step out of P follows A only when
/// closure is not claimed, and a deadlock may lie only in P (anywhere
/// for termination, whose images are all !P).
struct TargetView {
  using Image = bool;  // [s in P]
  static constexpr bool kRanked = false, kAPaths = false, kStoredRegion = false;
  const Expr* target;
  const ConvergenceCertificate& cert;
  const Packing pack;

  void image(const StateVec& s, bool& in_p) const { in_p = target && truthy(*target, s); }
  bool in_region(const StateVec&) const { return false; }
  int rho(const StateVec&, const StateVec&) const { return 0; }
  int sigma(const StateVec& s, const StateVec& t) const {
    return lex_compare(cert.components, s, t, &pack);
  }
  bool follows(bool u, bool v) const { return u == v || !u || !cert.closure_proved; }
  bool live(bool u) const { return !u; }
  bool may_end(bool u) const { return u || !target; }
  std::string message(rules::Breach b, const std::string& action) const {
    switch (b) {
      case rules::Breach::kOffA: return "closure violated by " + action;
      case rules::Breach::kSigma:
        return "transition by " + action + " does not decrease the ranking";
      default: return "deadlock outside the target";
    }
  }
};

/// Symbolic re-derivation for state spaces beyond the enumeration
/// budget: every template obligation implied by ranked_at is
/// re-discharged from validator-recomputed contexts (guard, changed,
/// !P, !P', earlier-component ties); progress and closure re-run their
/// local ladders. Table components cannot be audited without the very
/// enumeration that is out of budget, so they are rejected here.
bool validate_mode_b(const gcl::SystemAst& ast, const Expr* target,
                     const ConvergenceCertificate& cert, std::string* why) {
  const DecideOptions dopts{cert.budget};

  for (const RankComponent& c : cert.components)
    if (c.kind == RankComponent::Kind::Table)
      return reject(why, "table component is not auditable beyond the budget");

  const std::vector<ActionState> st = action_states(ast, target);
  for (std::size_t i = 0; i < ast.actions.size(); ++i) {
    const gcl::ActionAst& a = ast.actions[i];
    const SymbolicObligation ob = action_context(i, st[i]);
    if (cert.ranked_at[i] == kUnranked) {
      if (!decide_unsat(ast, ob.context, ob.droppable, dopts).proved)
        return reject(why, "vacuity of " + a.name + " cannot be re-established");
      continue;
    }
    if (cert.ranked_at[i] >= cert.components.size())
      return reject(why, "rank site of " + a.name + " is out of range");
    if (!recheck_rank_site(ast, i, cert.components, cert.ranked_at[i] + 1, true,
                           ob.context, ob.droppable, "", dopts, why))
      return false;
  }

  if (target) {
    const std::vector<const Expr*> p_conjuncts = conjuncts_of(*target);
    for (const Expr* pi : p_conjuncts)
      if (!progress_witness(ast, st, *pi, dopts))
        return reject(why, "no progress witness for a violated conjunct");
    if (cert.closure_proved) {
      int absint_ok = -1;
      std::vector<Obligation> scratch;
      for (std::size_t i = 0; i < ast.actions.size(); ++i) {
        if (!discharge_closure_action(ast, *target, p_conjuncts, i, st[i].guard, st[i].changed,
                                      dopts, &absint_ok, scratch))
          return reject(why, "closure under " + ast.actions[i].name +
                                 " cannot be re-established");
      }
    }
  }
  return true;
}

}  // namespace

bool validate_certificate(const gcl::SystemAst& ast, const gcl::Expr* target,
                          const ConvergenceCertificate& cert, std::string* why) {
  if (target) {
    if (cert.goal != Goal::Convergence)
      return reject(why, "certificate goal is not convergence");
    if (cert.predicate != gcl::print_expr(*target))
      return reject(why, "certificate predicate does not match the requested target");
  } else {
    if (cert.goal != Goal::Termination)
      return reject(why, "certificate goal is not termination");
    if (!cert.predicate.empty())
      return reject(why, "termination certificate carries a predicate");
  }
  if (cert.budget == 0) return reject(why, "certificate has no budget");
  if (cert.ranked_at.size() != ast.actions.size())
    return reject(why, "certificate action count does not match the system");
  for (std::size_t i = 0; i < cert.components.size(); ++i)
    if (cert.components[i].kind == RankComponent::Kind::Table &&
        i + 1 != cert.components.size())
      return reject(why, "table component must be the least significant");
  for (std::size_t r : cert.ranked_at)
    if (r != kUnranked && r >= cert.components.size())
      return reject(why, "rank site out of range");

  const std::vector<int> cards = gcl::cardinalities(ast);
  if (gcl::valuation_count(gcl::all_vars(cards.size()), cards, cert.budget) > cert.budget)
    return validate_mode_b(ast, target, cert, why);
  // Mode A: complete edge-level re-check of every transition of Sigma
  // against the tuple, the target and the closure claim; ranked_at is
  // not trusted.
  TargetView view{target, cert, Packing(cards)};
  for (const RankComponent& c : cert.components)
    if (c.kind == RankComponent::Kind::Table && c.table.size() != view.pack.total)
      return reject(why, "table component size does not match |Sigma|");
  return replay(ast, cards, view, why);
}

// --- rendering --------------------------------------------------------

std::string format_certificate(const gcl::SystemAst& ast,
                               const ConvergenceCertificate& cert) {
  std::ostringstream out;
  out << "certificate for " << cert.system << ":\n";
  if (cert.goal == Goal::Convergence) {
    out << "  goal: " << (cert.closure_proved ? "stabilization" : "convergence")
        << " to " << cert.predicate << "\n";
  } else {
    out << "  goal: termination\n";
  }
  out << "  ranking (" << cert.components.size() << " component(s), most significant first):\n";
  for (std::size_t i = 0; i < cert.components.size(); ++i)
    out << "    [" << i << "] " << cert.components[i].pretty << "\n";
  for (std::size_t i = 0; i < ast.actions.size(); ++i) {
    out << "  action " << ast.actions[i].name << ": ";
    if (cert.ranked_at[i] == kUnranked)
      out << "vacuous\n";
    else
      out << "strict at [" << cert.ranked_at[i] << "]\n";
  }
  out << "  obligations (" << cert.obligations.size() << "):\n";
  for (const Obligation& o : cert.obligations) {
    out << "    " << obligation_kind_name(o.kind);
    if (!o.action.empty()) out << " " << o.action;
    if (o.kind == Obligation::Kind::StrictDecrease ||
        o.kind == Obligation::Kind::NonIncrease ||
        o.kind == Obligation::Kind::TableDecrease)
      out << " [" << o.component << "]";
    out << " via " << discharge_name(o.method);
    if (o.valuations > 0) out << " (" << o.valuations << " valuation(s))";
    if (!o.detail.empty()) out << " -- " << o.detail;
    out << "\n";
  }
  if (cert.goal == Goal::Convergence)
    out << "  closure: " << (cert.closure_proved ? "proved" : "NOT proved") << "\n";
  out << "  budget: " << cert.budget << "\n";
  return out.str();
}

std::string render_certificate_json(const ConvergenceCertificate& cert) {
  std::ostringstream out;
  out << "{\"type\": \"convergence_certificate\", \"goal\": \""
      << (cert.goal == Goal::Convergence ? "convergence" : "termination")
      << "\", \"system\": \"" << gcl::json_escape(cert.system)
      << "\", \"predicate\": \"" << gcl::json_escape(cert.predicate)
      << "\", \"components\": [";
  for (std::size_t i = 0; i < cert.components.size(); ++i) {
    const RankComponent& c = cert.components[i];
    if (i) out << ", ";
    out << "{\"kind\": \""
        << (c.kind == RankComponent::Kind::Table ? "table" : "template")
        << "\", \"pretty\": \"" << gcl::json_escape(c.pretty)
        << "\", \"table_states\": " << c.table.size() << "}";
  }
  out << "], \"ranked_at\": [";
  for (std::size_t i = 0; i < cert.ranked_at.size(); ++i) {
    if (i) out << ", ";
    if (cert.ranked_at[i] == kUnranked)
      out << "null";
    else
      out << cert.ranked_at[i];
  }
  out << "], \"obligations\": [";
  for (std::size_t i = 0; i < cert.obligations.size(); ++i) {
    const Obligation& o = cert.obligations[i];
    if (i) out << ", ";
    out << "{\"kind\": \"" << obligation_kind_name(o.kind) << "\", \"action\": \""
        << gcl::json_escape(o.action) << "\", \"component\": " << o.component
        << ", \"method\": \"" << discharge_name(o.method)
        << "\", \"valuations\": " << o.valuations << ", \"detail\": \""
        << gcl::json_escape(o.detail) << "\"}";
  }
  out << "], \"closure_proved\": " << (cert.closure_proved ? "true" : "false")
      << ", \"budget\": " << cert.budget << "}\n";
  return out.str();
}

}  // namespace cref::prover

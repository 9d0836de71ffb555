#include "prover/refine.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>

#include "gcl/compile.hpp"
#include "gcl/diag.hpp"
#include "gcl/pretty.hpp"
#include "prover/interference.hpp"
#include "prover/obligations.hpp"
#include "prover/templates.hpp"
#include "refinement/reachability.hpp"

namespace cref::prover {

using gcl::Expr;
using gcl::Op;

namespace {

/// One obligation context: the expressions it points at must
/// outlive every decide call made with it.
struct ObCtx {
  std::vector<const Expr*> ptrs;
  std::vector<bool> drop;
  void add(const Expr& e, bool droppable) {
    ptrs.push_back(&e);
    drop.push_back(droppable);
  }
};

/// The obligation footprint of one concrete action under alpha: guard,
/// right-hand sides, ASSIGNMENT TARGETS (the changed-ness comparison
/// reads the old value), every abstract-variable image expression, and
/// the alpha invariant. Every expression the enumerated classification
/// or its point checks evaluates has footprint inside this set, which is
/// what makes pinning the other variables to 0 sound.
std::vector<std::size_t> obligation_footprint(const AlphaCtx& ctx, std::size_t ai) {
  const std::size_t n = ctx.c.vars.size();
  std::vector<char> in(n, 0);
  const gcl::ActionAst& act = ctx.c.actions[ai];
  gcl::mark_footprint(act.guard, in);
  for (const gcl::AssignmentAst& asg : act.assignments) {
    gcl::mark_footprint(asg.value, in);
    if (asg.var_index < n) in[asg.var_index] = 1;
  }
  for (const Expr& e : ctx.img) gcl::mark_footprint(e, in);
  if (ctx.alpha.invariant) gcl::mark_footprint(*ctx.alpha.invariant, in);
  return gcl::marked_vars(in);
}

/// Row-level classification of one action over its obligation footprint
/// (shared between the prover and the mode-B validator, so tampered
/// certificates face the exact same enumeration).
struct EnumRows {
  std::vector<std::size_t> fp;
  std::vector<StateVec> stutter_rows;  // NON-exempt stutter rows only
  std::vector<CompressedRow> compressed;
  std::size_t rows = 0;        // state-changing transitions classified
  std::size_t exact_rows = 0;
  std::size_t exempt_rows = 0;  // stutter rows at A-deadlock images
  bool refuted = false;        // a definitely-Invalid edge exists
  std::string refute_msg;
  std::string fail;            // nonempty: classification inconclusive
};

EnumRows enumerate_action(const AlphaCtx& ctx, std::size_t ai, std::size_t budget) {
  EnumRows out;
  out.fp = obligation_footprint(ctx, ai);
  const gcl::ActionAst& act = ctx.c.actions[ai];
  const std::size_t total = gcl::valuation_count(out.fp, ctx.c_cards, budget);
  if (total > budget) {
    out.fail = "enumerating " + act.name + " needs more than " +
               std::to_string(budget) + " valuations";
    return out;
  }
  StateVec s, post, img_s, img_t;
  gcl::for_each_valuation(out.fp, ctx.c_cards, s, [&](const StateVec& sv) {
    if (!truthy(act.guard, sv)) return true;
    gcl::step(act, ctx.c_cards, sv, post);
    if (post == sv) return true;
    ++out.rows;
    gcl::alpha_image(ctx.alpha, ctx.a, sv, img_s);
    gcl::alpha_image(ctx.alpha, ctx.a, post, img_t);
    if (img_s == img_t) {
      if (a_is_deadlock(ctx, img_s))
        ++out.exempt_rows;  // the checker permits stuttering here forever
      else
        out.stutter_rows.push_back(sv);
      return true;
    }
    if (is_direct_match(ctx, img_s, img_t)) {
      ++out.exact_rows;
      return true;
    }
    bool exhausted = false;
    if (auto path = find_a_path(ctx, img_s, img_t, &exhausted)) {
      out.compressed.push_back({sv, ai, std::move(*path)});
      return true;
    }
    if (exhausted) {
      // Complete refutation: the edge's image pair is not connected in
      // A at all, so classify_edge reports Invalid on a real state.
      out.refuted = true;
      out.refute_msg = "action " + act.name + " at (" +
                       gcl::format_valuation(ctx.c, sv, out.fp) +
                       ") has no abstract path for its image change (Invalid edge)";
    } else {
      out.fail = "abstract BFS cap hit while classifying " + act.name;
    }
    return false;
  });
  return out;
}

// --- the certificate legs ---------------------------------------------
// One function decides each leg: the prover calls it on every candidate
// it tries, mode B on the choice the certificate stores.

/// One concrete action as the legs read it; `cls` is the class the
/// prover found, or in mode B the class the certificate claims.
struct ActionInfo {
  const Expr* guard = nullptr;
  Expr changed;
  std::vector<Expr> stutter_conjs;
  ActionClass cls = ActionClass::Enumerated;
  std::size_t matched = 0;  // Exact/Mixed: the abstract action
  EnumRows rows;            // Enumerated: the classified rows
};

std::vector<ActionInfo> action_info(const AlphaCtx& ctx) {
  std::vector<ActionInfo> info(ctx.c.actions.size());
  for (std::size_t i = 0; i < info.size(); ++i) {
    info[i].guard = &ctx.c.actions[i].guard;
    info[i].changed = changed_expr(ctx.c.actions[i], ctx.c_cards);
    info[i].stutter_conjs = stutter_conjuncts(ctx, i);
  }
  return info;
}

/// The one decide call, under {guard, changed}, that puts action `i` in
/// class `cls` (against abstract action `bi` for Exact and Mixed);
/// Enumerated actions are classified by enumerate_action instead.
DecideOutcome decide_class(const AlphaCtx& ctx, std::size_t i, const ActionInfo& a, ActionClass cls,
                           std::size_t bi, const DecideOptions& dopts) {
  const std::vector<const Expr*> fires = {a.guard, &a.changed};
  const std::vector<bool> drop = {false, false};
  switch (cls) {
    case ActionClass::Vacuous:
      return decide_unsat(ctx.c, fires, drop, dopts);
    case ActionClass::Stutter:
      return decide_all(ctx.c, a.stutter_conjs, fires, drop, dopts);
    case ActionClass::Exact:
      return decide_all(ctx.c, match_conjuncts(ctx, i, bi), fires, drop, dopts);
    case ActionClass::Mixed: {
      const Expr prop =
          make_binary(Op::Or, conj(a.stutter_conjs), conj(match_conjuncts(ctx, i, bi)));
      return decide_always(ctx.c, prop, fires, drop, dopts);
    }
    case ActionClass::Enumerated:
      break;
  }
  return {};
}

/// The audit-trail detail of an action's Classify obligation.
std::string class_detail(const AlphaCtx& ctx, const ActionInfo& a) {
  switch (a.cls) {
    case ActionClass::Vacuous:
      return "never fires";
    case ActionClass::Stutter:
      return "stutter (" + std::to_string(a.stutter_conjs.size()) + " conjunct(s))";
    case ActionClass::Exact:
      return "maps to " + ctx.a.actions[a.matched].name;
    case ActionClass::Mixed:
      return "stutter or " + ctx.a.actions[a.matched].name;
    case ActionClass::Enumerated:
      break;
  }
  return std::to_string(a.rows.stutter_rows.size()) + " stutter / " +
         std::to_string(a.rows.exempt_rows) + " exempt / " +
         std::to_string(a.rows.exact_rows) + " exact / " +
         std::to_string(a.rows.compressed.size()) + " compressed row(s)";
}

/// The stutter-rank context of a Stutter or Mixed action: {guard,
/// changed}, then its stutter conjuncts and "the image is no
/// A-deadlock", droppable. Unsatisfiable, it exempts the action;
/// otherwise the action's rank site is decided under it.
ObCtx stutter_context(const ActionInfo& a, const Expr& not_dl) {
  ObCtx cx;
  cx.add(*a.guard, false);
  cx.add(a.changed, false);
  for (const Expr& cj : a.stutter_conjs) cx.add(cj, true);
  cx.add(not_dl, true);
  return cx;
}

/// Compressed rows outside reach(I_C): `inv` reads inside each row's
/// footprint and is false at its source, init implies each conjunct,
/// and every non-vacuous action preserves each. Appends the audit trail
/// to `trail` when non-null.
bool check_invariant(const AlphaCtx& ctx, const std::vector<ActionInfo>& info,
                     const std::vector<CompressedRow>& compressed, const Expr& inv,
                     const DecideOptions& dopts, std::vector<RefineObligation>* trail,
                     std::string* why) {
  const gcl::SystemAst& c = ctx.c;
  const std::vector<std::size_t> reads = gcl::footprint(inv, c.vars.size());
  for (const CompressedRow& row : compressed) {
    const std::vector<std::size_t>& fp = info[row.action].rows.fp;
    if (!std::includes(fp.begin(), fp.end(), reads.begin(), reads.end()))
      return reject(why, "the invariant reads outside a compressed row's footprint");
    if (truthy(inv, row.source))
      return reject(why, "the alpha invariant does not exclude a compressed row of " +
                             c.actions[row.action].name);
  }
  const std::vector<const Expr*> init_conjs = conjuncts_of(*c.init);
  const std::vector<const Expr*> inv_conjs = conjuncts_of(inv);
  const std::vector<bool> init_drop(init_conjs.size(), true);
  for (std::size_t ci = 0; ci < inv_conjs.size(); ++ci) {
    const DecideOutcome r = decide_always(c, *inv_conjs[ci], init_conjs, init_drop, dopts);
    if (!r.proved)
      return reject(why, "invariant conjunct " + std::to_string(ci) + " is not implied by init");
    if (trail)
      trail->push_back({RefineObligation::Kind::InvariantInit, "", ci, r.method, r.valuations,
                        "init implies conjunct " + std::to_string(ci)});
  }
  for (std::size_t i = 0; i < info.size(); ++i) {
    if (info[i].cls == ActionClass::Vacuous) continue;
    for (std::size_t ci = 0; ci < inv_conjs.size(); ++ci) {
      const Expr post = post_expr(*inv_conjs[ci], c.actions[i], ctx.c_cards);
      ObCtx cx;
      cx.add(*info[i].guard, false);
      cx.add(info[i].changed, false);
      for (const Expr* pc : inv_conjs) cx.add(*pc, true);
      const DecideOutcome r = decide_always(c, post, cx.ptrs, cx.drop, dopts);
      if (!r.proved)
        return reject(why, "invariant conjunct " + std::to_string(ci) +
                               " is not inductive under " + c.actions[i].name);
      if (trail)
        trail->push_back({RefineObligation::Kind::InvariantStep, c.actions[i].name, ci, r.method,
                          r.valuations, "conjunct preserved"});
    }
  }
  if (trail)
    trail->push_back({RefineObligation::Kind::InvariantExcludes, "", 0, Discharge::Enumeration,
                      compressed.size(), "invariant refuted at every compressed source"});
  return true;
}

/// Deadlock support of the abstract action that `fires` at the image:
/// with `sup` empty it never fires, else some action of `sup` fires too.
DecideOutcome decide_support(const AlphaCtx& ctx, const std::vector<ActionInfo>& info,
                             const Expr& fires, const std::vector<std::size_t>& sup,
                             const DecideOptions& dopts) {
  const std::vector<const Expr*> acx = {&fires};
  if (sup.empty()) return decide_unsat(ctx.c, acx, {false}, dopts);
  std::vector<Expr> fires_c;
  for (std::size_t i : sup)
    fires_c.push_back(make_binary(Op::And, *info[i].guard, info[i].changed));
  return decide_always(ctx.c, disj(std::move(fires_c)), acx, {true}, dopts);
}

}  // namespace

const char* action_class_name(ActionClass c) {
  switch (c) {
    case ActionClass::Vacuous: return "vacuous";
    case ActionClass::Stutter: return "stutter";
    case ActionClass::Exact: return "exact";
    case ActionClass::Mixed: return "mixed";
    case ActionClass::Enumerated: return "enumerated";
  }
  return "?";
}

const char* refine_obligation_kind_name(RefineObligation::Kind k) {
  switch (k) {
    case RefineObligation::Kind::Classify: return "classify";
    case RefineObligation::Kind::StutterDecrease: return "stutter-decrease";
    case RefineObligation::Kind::StutterNonIncrease: return "stutter-non-increase";
    case RefineObligation::Kind::VisibleNonIncrease: return "visible-non-increase";
    case RefineObligation::Kind::CompressedDecrease: return "compressed-decrease";
    case RefineObligation::Kind::InvariantInit: return "invariant-init";
    case RefineObligation::Kind::InvariantStep: return "invariant-step";
    case RefineObligation::Kind::InvariantExcludes: return "invariant-excludes";
    case RefineObligation::Kind::DeadlockSupport: return "deadlock-support";
  }
  return "?";
}

const char* refine_verdict_name(RefineVerdict v) {
  switch (v) {
    case RefineVerdict::Proved: return "proved";
    case RefineVerdict::Refuted: return "refuted";
    case RefineVerdict::Unknown: return "unknown";
  }
  return "?";
}

// --- the prover -------------------------------------------------------

RefineResult prove_refinement(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                              const gcl::AlphaSpec& alpha, const RefineOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  RefineResult result;
  auto finish = [&](RefineVerdict v) -> RefineResult& {
    result.verdict = v;
    result.prove_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return result;
  };

  const AlphaCtx ctx(c_ast, a_ast, alpha);
  const DecideOptions dopts{opts.budget};
  const std::size_t nc = c_ast.actions.size();
  const std::size_t na = a_ast.actions.size();

  RefinementCertificate cert;
  cert.c_system = c_ast.name;
  cert.a_system = a_ast.name;
  cert.alpha_text = gcl::print_alpha(alpha);
  cert.budget = opts.budget;
  cert.action_class.assign(nc, ActionClass::Enumerated);
  cert.matched.assign(nc, -1);
  cert.enum_footprint.assign(nc, {});
  cert.stutter_ranked_at.assign(nc, kUnranked);

  // --- per-action classification ladder ------------------------------
  // Vacuous (never a state-changing transition), Stutter (alpha(s') ==
  // alpha(s) on every transition), Exact against the first abstract b
  // whose edge every transition maps to, Mixed (stutter or b's edge,
  // state by state), and only then the row-by-row enumeration.
  std::vector<ActionInfo> info = action_info(ctx);
  for (std::size_t i = 0; i < nc; ++i) {
    const gcl::ActionAst& act = c_ast.actions[i];
    ActionInfo& ai = info[i];
    auto climb = [&](ActionClass cls, std::size_t bi) {
      const DecideOutcome r = decide_class(ctx, i, ai, cls, bi, dopts);
      if (!r.proved) return false;
      ai.cls = cls;
      ai.matched = bi;
      cert.obligations.push_back({RefineObligation::Kind::Classify, act.name, 0, r.method,
                                  r.valuations, class_detail(ctx, ai)});
      cert.action_class[i] = cls;
      if (cls == ActionClass::Exact || cls == ActionClass::Mixed)
        cert.matched[i] = static_cast<std::ptrdiff_t>(bi);
      return true;
    };
    bool classified = climb(ActionClass::Vacuous, 0) || climb(ActionClass::Stutter, 0);
    for (std::size_t bi = 0; bi < na && !classified; ++bi)
      classified = climb(ActionClass::Exact, bi);
    for (std::size_t bi = 0; bi < na && !classified; ++bi)
      classified = climb(ActionClass::Mixed, bi);
    if (classified) continue;

    ai.rows = enumerate_action(ctx, i, opts.budget);
    if (ai.rows.refuted) {
      result.counterexample = ai.rows.refute_msg;
      result.failures.push_back(ai.rows.refute_msg);
      return finish(RefineVerdict::Refuted);
    }
    if (!ai.rows.fail.empty()) {
      result.failures.push_back(ai.rows.fail);
      continue;
    }
    cert.enum_footprint[i] = ai.rows.fp;
    cert.obligations.push_back({RefineObligation::Kind::Classify, act.name, 0,
                                Discharge::Enumeration, ai.rows.rows, class_detail(ctx, ai)});
  }
  if (!result.failures.empty()) return finish(RefineVerdict::Unknown);

  for (std::size_t i = 0; i < nc; ++i)
    for (CompressedRow& row : info[i].rows.compressed)
      cert.compressed.push_back(std::move(row));

  const Expr not_dl = not_a_deadlock_expr(ctx);
  const InterferenceGraph ig = build_interference(c_ast);
  const std::vector<Candidate> pool = template_pool(c_ast, ig);

  // --- stutter ranking ------------------------------------------------
  // Strict lexicographic decrease on every stutter step whose image is
  // not an A-deadlock: symbolically for Stutter/Mixed actions,
  // point-wise for enumerated stutter rows.
  std::vector<SymbolicObligation> sym;  // symbolic actions to rank
  for (std::size_t i = 0; i < nc; ++i) {
    if (info[i].cls != ActionClass::Stutter && info[i].cls != ActionClass::Mixed)
      continue;
    ObCtx cx = stutter_context(info[i], not_dl);
    // Exemption pre-pass: no stutter transition with a live image at
    // all (an unsatisfiable subset of the context witnesses this).
    const DecideOutcome r = decide_unsat(c_ast, cx.ptrs, cx.drop, dopts);
    if (r.proved) {
      cert.obligations.push_back({RefineObligation::Kind::StutterDecrease,
                                  c_ast.actions[i].name, 0, Discharge::Vacuous,
                                  r.valuations, "all stutter images are A-deadlocks"});
    } else {
      sym.push_back({i, std::move(cx.ptrs), std::move(cx.drop), true});
    }
  }
  std::vector<PointRow> srows;
  for (std::size_t i = 0; i < nc; ++i)
    for (const StateVec& row : info[i].rows.stutter_rows)
      srows.push_back({i, &row, &info[i].rows.fp});

  LexSynthesis stutter = synthesize_ranking(c_ast, pool, sym, srows, dopts);
  for (const LexSynthesis::Step& step : stutter.steps) {
    const std::size_t a = sym[step.obligation].action;
    if (step.strict) cert.stutter_ranked_at[a] = step.component;
    cert.obligations.push_back(
        {step.strict ? RefineObligation::Kind::StutterDecrease
                     : RefineObligation::Kind::StutterNonIncrease,
         c_ast.actions[a].name, step.component, step.outcome.method,
         step.outcome.valuations,
         c_ast.actions[a].name + " vs " + stutter.components[step.component].pretty});
  }
  cert.stutter_components = std::move(stutter.components);
  if (!stutter.unranked.empty()) {
    std::string names;
    for (std::size_t o : stutter.unranked)
      names += (names.empty() ? "" : ", ") + c_ast.actions[sym[o].action].name;
    result.failures.push_back("no template ranks the stutter steps of {" + names + "}");
  }
  if (stutter.rows_left > 0)
    result.failures.push_back(std::to_string(stutter.rows_left) +
                              " enumerated stutter row(s) remain unranked");
  else if (!srows.empty())
    cert.obligations.push_back({RefineObligation::Kind::StutterDecrease, "", 0,
                                Discharge::Enumeration, srows.size(),
                                std::to_string(srows.size()) +
                                    " stutter row(s) point-ranked"});

  // --- visible ranking (compressed edges must be off every cycle) ----
  // Non-increase on every non-vacuous action, strict decrease at every
  // compressed row.
  if (!cert.compressed.empty()) {
    std::vector<SymbolicObligation> nonvac;
    for (std::size_t i = 0; i < nc; ++i)
      if (info[i].cls != ActionClass::Vacuous)
        nonvac.push_back({i, {info[i].guard, &info[i].changed}, {false, false}, false});
    std::vector<PointRow> vrows;
    vrows.reserve(cert.compressed.size());
    for (const CompressedRow& row : cert.compressed)
      vrows.push_back({row.action, &row.source, &info[row.action].rows.fp});
    LexSynthesis visible = synthesize_ranking(c_ast, pool, nonvac, vrows, dopts);
    for (const LexSynthesis::Step& step : visible.steps) {
      const std::string& name = c_ast.actions[nonvac[step.obligation].action].name;
      cert.obligations.push_back({RefineObligation::Kind::VisibleNonIncrease, name,
                                  step.component, step.outcome.method,
                                  step.outcome.valuations,
                                  name + " vs " +
                                      visible.components[step.component].pretty});
    }
    cert.visible_components = std::move(visible.components);
    if (visible.rows_left > 0) {
      result.failures.push_back(std::to_string(visible.rows_left) +
                                " compressed row(s) lack a visible-ranking decrease");
    } else {
      cert.obligations.push_back({RefineObligation::Kind::CompressedDecrease, "", 0,
                                  Discharge::Enumeration, cert.compressed.size(),
                                  std::to_string(cert.compressed.size()) +
                                      " compressed row(s) point-ranked"});
    }
  }

  // --- reach exclusion (compressed rows vs the declared init) --------
  if (!cert.compressed.empty() && c_ast.init) {
    if (!alpha.invariant) {
      result.failures.push_back(
          "compressed rows with a declared init need an alpha invariant to "
          "exclude them from reach(I_C)");
    } else {
      std::string why;
      if (check_invariant(ctx, info, cert.compressed, *alpha.invariant, dopts, &cert.obligations,
                          &why)) {
        cert.has_invariant = true;
        cert.invariant = *alpha.invariant;
      } else {
        result.failures.push_back(std::move(why));
      }
    }
  }

  // --- deadlock obligations ------------------------------------------
  // For every abstract action b: b fires at the image => some concrete
  // action fires, witnessed by a small support subset so the obligation
  // footprint stays local.
  cert.deadlock_support.assign(na, {});
  for (std::size_t bi = 0; bi < na; ++bi) {
    const Expr fires = a_action_fires_expr(ctx, bi);
    std::vector<std::size_t> sup;
    DecideOutcome r = decide_support(ctx, info, fires, sup, dopts);
    if (r.proved) {
      cert.obligations.push_back({RefineObligation::Kind::DeadlockSupport,
                                  a_ast.actions[bi].name, 0, Discharge::Vacuous, 0,
                                  "abstract action never fires at an image"});
      continue;
    }
    auto try_support = [&](std::vector<std::size_t> candidate) {
      sup = std::move(candidate);
      r = decide_support(ctx, info, fires, sup, dopts);
      return r.proved;
    };
    bool found = false;
    for (std::size_t i = 0; i < nc && !found; ++i) found = try_support({i});
    for (std::size_t i = 0; i < nc && !found; ++i)
      for (std::size_t j = i + 1; j < nc && !found; ++j) found = try_support({i, j});
    if (!found) {
      std::vector<std::size_t> all(nc);
      for (std::size_t i = 0; i < nc; ++i) all[i] = i;
      found = try_support(std::move(all));
    }
    if (!found) {
      result.failures.push_back("no deadlock support for abstract action " +
                                a_ast.actions[bi].name);
      continue;
    }
    std::string names;
    for (std::size_t i : sup) names += (names.empty() ? "" : ", ") + c_ast.actions[i].name;
    cert.deadlock_support[bi] = std::move(sup);
    cert.obligations.push_back({RefineObligation::Kind::DeadlockSupport,
                                a_ast.actions[bi].name, 0, r.method, r.valuations,
                                "supported by {" + names + "}"});
  }

  if (!result.failures.empty()) return finish(RefineVerdict::Unknown);
  result.certificate = std::move(cert);
  return finish(RefineVerdict::Proved);
}

// --- independent validation -------------------------------------------

namespace {

/// reach(I_C): every valuation satisfying C's init, closed under C's
/// transitions; empty when C declares no init.
util::DenseBitset reach_init(const gcl::SystemAst& c_ast, const std::vector<int>& cards,
                             const Packing& pack) {
  util::DenseBitset init(pack.total);
  StateVec s, post;
  if (c_ast.init)
    gcl::for_each_valuation(gcl::all_vars(cards.size()), cards, s, [&](const StateVec& sv) {
      if (truthy(*c_ast.init, sv)) init.set(pack.encode(sv));
      return true;
    });
  std::vector<StateId> succ;
  return reachable_from(std::move(init), [&](StateId id) -> const std::vector<StateId>& {
    pack.decode(id, cards, s);
    succ.clear();
    gcl::for_each_move(c_ast, cards, s, post, [&](std::size_t, const StateVec& t) {
      succ.push_back(pack.encode(t));
      return true;
    });
    return succ;
  });
}

/// Mode A's answers to the rules of refinement/positive_rules.hpp, from
/// direct execution of both programs: images through alpha, "follows
/// A" by a direct abstract match, the A-path by the abstract BFS, rho
/// and sigma the certificate's visible and stutter tuples, and the
/// region reach(I_C), searched when the first edge off A asks for it
/// (empty when C declares no init). Nothing else the certificate stores
/// is trusted.
struct ReplayView {
  using Image = StateVec;
  static constexpr bool kRanked = true, kAPaths = true, kStoredRegion = false;
  const AlphaCtx& ctx;
  const RefinementCertificate& cert;
  const Packing pack;
  std::optional<util::DenseBitset> region = std::nullopt;  // reach(I_C), once searched
  bool exhausted = false;  // the last A-path search covered A

  void image(const StateVec& s, StateVec& out) const {
    gcl::alpha_image(ctx.alpha, ctx.a, s, out);
  }
  bool in_region(const StateVec& s) {
    if (!region) region = reach_init(ctx.c, ctx.c_cards, pack);
    return region->test(pack.encode(s));
  }
  int rho(const StateVec& s, const StateVec& t) const {
    return lex_compare(cert.visible_components, s, t);
  }
  int sigma(const StateVec& s, const StateVec& t) const {
    return lex_compare(cert.stutter_components, s, t);
  }
  bool follows(const StateVec& u, const StateVec& v) const {
    return u == v || is_direct_match(ctx, u, v);
  }
  bool a_path(const StateVec&, const StateVec&, const StateVec& u, const StateVec& v) {
    return find_a_path(ctx, u, v, &exhausted).has_value();
  }
  bool live(const StateVec& u) const { return !a_is_deadlock(ctx, u); }
  bool may_end(const StateVec& u) const { return a_is_deadlock(ctx, u); }
  std::string message(rules::Breach b, const std::string& action) const {
    const std::string step = "a step of " + action;
    switch (b) {
      case rules::Breach::kRhoIncrease: return step + " increases the visible ranking";
      case rules::Breach::kNoAPath:
        return exhausted ? "an Invalid edge exists under " + action
                         : "abstract BFS cap hit replaying " + action;
      case rules::Breach::kKeepsRho:
        return step + " off A does not strictly decrease the visible ranking";
      case rules::Breach::kOffA: return step + " from reach(I_C) does not follow A";
      case rules::Breach::kSigma:
        return "a live stutter step of " + action + " does not decrease the stutter ranking";
      default:  // rule 4; reach(I_C) is closed, so no edge leaves the region
        return "a C-deadlock maps to a live abstract state";
    }
  }
};

/// Symbolic re-derivation above the replay budget: every recorded
/// classification is re-discharged from validator-recomputed contexts,
/// enumerated actions are RE-ENUMERATED (the recomputed compressed rows
/// must equal the certificate's exactly — the BFS is deterministic, so
/// a dropped or forged row cannot hide), and all ranking, invariant and
/// deadlock legs are re-proved.
bool validate_mode_b(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                     const gcl::AlphaSpec& alpha, const RefinementCertificate& cert,
                     std::string* why) {
  const AlphaCtx ctx(c_ast, a_ast, alpha);
  const DecideOptions dopts{cert.budget};
  const std::size_t nc = c_ast.actions.size();
  const Expr not_dl = not_a_deadlock_expr(ctx);

  std::vector<ActionInfo> info = action_info(ctx);
  std::vector<CompressedRow> recomputed;
  for (std::size_t i = 0; i < nc; ++i) {
    const std::string& name = c_ast.actions[i].name;
    ActionInfo& a = info[i];
    a.cls = cert.action_class[i];
    if (a.cls == ActionClass::Enumerated) {
      a.rows = enumerate_action(ctx, i, cert.budget);
      if (a.rows.refuted) return reject(why, a.rows.refute_msg);
      if (!a.rows.fail.empty()) return reject(why, a.rows.fail);
      if (a.rows.fp != cert.enum_footprint[i])
        return reject(why, "enumeration footprint of " + name +
                               " does not match the certificate");
      recomputed.insert(recomputed.end(), a.rows.compressed.begin(), a.rows.compressed.end());
      continue;
    }
    if (cert.matched[i] >= 0) a.matched = static_cast<std::size_t>(cert.matched[i]);
    if (decide_class(ctx, i, a, a.cls, a.matched, dopts).proved) continue;
    switch (a.cls) {
      case ActionClass::Vacuous:
        return reject(why, "vacuity of " + name + " cannot be re-established");
      case ActionClass::Stutter:
        return reject(why, "stutter class of " + name + " cannot be re-established");
      case ActionClass::Exact:
        return reject(why, "exact match of " + name + " vs " +
                               a_ast.actions[a.matched].name + " cannot be re-established");
      default:
        return reject(why, "mixed class of " + name + " cannot be re-established");
    }
  }
  if (recomputed.size() != cert.compressed.size())
    return reject(why, "compressed row count does not match re-enumeration");
  for (std::size_t k = 0; k < recomputed.size(); ++k)
    if (recomputed[k].source != cert.compressed[k].source ||
        recomputed[k].action != cert.compressed[k].action ||
        recomputed[k].a_path != cert.compressed[k].a_path)
      return reject(why, "compressed row " + std::to_string(k) +
                             " does not match re-enumeration");

  // Stutter ranking: symbolic ladders for Stutter/Mixed actions,
  // point-wise lexicographic strictness at every enumerated stutter row.
  for (std::size_t i = 0; i < nc; ++i) {
    if (info[i].cls != ActionClass::Stutter && info[i].cls != ActionClass::Mixed) continue;
    const ObCtx cx = stutter_context(info[i], not_dl);
    if (cert.stutter_ranked_at[i] == kUnranked) {
      if (!decide_unsat(c_ast, cx.ptrs, cx.drop, dopts).proved)
        return reject(why, "stutter exemption of " + c_ast.actions[i].name +
                               " cannot be re-established");
    } else if (!recheck_rank_site(c_ast, i, cert.stutter_components,
                                  cert.stutter_ranked_at[i] + 1, true, cx.ptrs, cx.drop,
                                  "stutter ", dopts, why)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < nc; ++i)
    if (!info[i].rows.stutter_rows.empty() &&
        !recheck_point_rows(c_ast, i, cert.stutter_components, info[i].rows.stutter_rows,
                            info[i].rows.fp, "stutter",
                            "a stutter row of " + c_ast.actions[i].name +
                                " does not decrease the stutter ranking",
                            why))
      return false;

  // Visible ranking: non-increase on every non-vacuous action, strict
  // point-wise decrease at every compressed row.
  if (!cert.compressed.empty() && cert.visible_components.empty())
    return reject(why, "compressed rows without a visible ranking");
  if (!cert.visible_components.empty()) {
    for (std::size_t i = 0; i < nc; ++i)
      if (info[i].cls != ActionClass::Vacuous &&
          !recheck_rank_site(c_ast, i, cert.visible_components,
                             cert.visible_components.size(), false,
                             {info[i].guard, &info[i].changed}, {false, false}, "visible ", dopts,
                             why))
        return false;
    for (const CompressedRow& row : cert.compressed)
      if (!recheck_point_rows(c_ast, row.action, cert.visible_components,
                              {&row.source, 1}, info[row.action].rows.fp, "visible",
                              "a compressed row of " + c_ast.actions[row.action].name +
                                  " does not strictly decrease the visible ranking",
                              why))
        return false;
  }

  // Reach exclusion, through the invariant the alpha spec declares.
  if (!cert.compressed.empty() && c_ast.init) {
    if (!cert.has_invariant || !alpha.invariant ||
        !expr_equal(cert.invariant, *alpha.invariant))
      return reject(why, "compressed rows with init but no binding alpha invariant");
    if (!check_invariant(ctx, info, cert.compressed, *alpha.invariant, dopts, nullptr, why))
      return false;
  }

  // Deadlock obligations with the stored supports.
  for (std::size_t bi = 0; bi < a_ast.actions.size(); ++bi) {
    const std::vector<std::size_t>& sup = cert.deadlock_support[bi];
    if (!decide_support(ctx, info, a_action_fires_expr(ctx, bi), sup, dopts).proved)
      return reject(why, (sup.empty() ? "empty deadlock support for " : "deadlock support of ") +
                             a_ast.actions[bi].name + " cannot be re-established");
  }
  return true;
}

}  // namespace

bool validate_refinement_certificate(const gcl::SystemAst& c_ast,
                                     const gcl::SystemAst& a_ast,
                                     const gcl::AlphaSpec& alpha,
                                     const RefinementCertificate& cert,
                                     std::string* why) {
  const std::size_t nc = c_ast.actions.size();
  const std::size_t na = a_ast.actions.size();
  const std::size_t n = c_ast.vars.size();
  if (cert.c_system != c_ast.name)
    return reject(why, "certificate concrete system does not match");
  if (cert.a_system != a_ast.name)
    return reject(why, "certificate abstract system does not match");
  if (cert.alpha_text != gcl::print_alpha(alpha))
    return reject(why, "certificate alpha does not match the requested map");
  if (cert.budget == 0) return reject(why, "certificate has no budget");
  if (cert.action_class.size() != nc || cert.matched.size() != nc ||
      cert.enum_footprint.size() != nc || cert.stutter_ranked_at.size() != nc)
    return reject(why, "certificate action tables do not match the system");
  if (cert.deadlock_support.size() != na)
    return reject(why, "certificate deadlock table does not match the abstraction");
  const std::vector<int> cards = gcl::cardinalities(c_ast);
  for (std::size_t i = 0; i < nc; ++i) {
    const ActionClass c = cert.action_class[i];
    if (c == ActionClass::Exact || c == ActionClass::Mixed) {
      if (cert.matched[i] < 0 ||
          static_cast<std::size_t>(cert.matched[i]) >= na)
        return reject(why, "matched abstract action out of range");
    }
    if (cert.stutter_ranked_at[i] != kUnranked) {
      if (c != ActionClass::Stutter && c != ActionClass::Mixed)
        return reject(why, "stutter rank site on a non-stutter action");
      if (cert.stutter_ranked_at[i] >= cert.stutter_components.size())
        return reject(why, "stutter rank site out of range");
    }
  }
  for (const CompressedRow& row : cert.compressed) {
    if (row.action >= nc || cert.action_class[row.action] != ActionClass::Enumerated)
      return reject(why, "compressed row on a non-enumerated action");
    if (row.source.size() != n) return reject(why, "compressed row has a bad source");
    for (std::size_t v = 0; v < n; ++v)
      if (static_cast<int>(row.source[v]) >= cards[v])
        return reject(why, "compressed row source out of domain");
    if (row.a_path.empty()) return reject(why, "compressed row has an empty path");
    for (std::size_t b : row.a_path)
      if (b >= na) return reject(why, "compressed row path out of range");
  }
  for (const std::vector<std::size_t>& sup : cert.deadlock_support)
    for (std::size_t i : sup)
      if (i >= nc) return reject(why, "deadlock support out of range");

  if (gcl::valuation_count(gcl::all_vars(n), cards, cert.budget) > cert.budget)
    return validate_mode_b(c_ast, a_ast, alpha, cert, why);
  // Mode A: complete edge-level replay of Sigma_C through the rules.
  const AlphaCtx ctx(c_ast, a_ast, alpha);
  ReplayView view{ctx, cert, Packing(cards)};
  return replay(c_ast, cards, view, why);
}

// --- rendering --------------------------------------------------------

std::string format_refinement_certificate(const gcl::SystemAst& c_ast,
                                          const gcl::SystemAst& a_ast,
                                          const RefinementCertificate& cert) {
  std::ostringstream out;
  out << "refinement certificate: [" << cert.c_system << " refines " << cert.a_system
      << "]\n";
  for (std::size_t i = 0; i < cert.action_class.size(); ++i) {
    out << "  action " << c_ast.actions[i].name << ": "
        << action_class_name(cert.action_class[i]);
    if (cert.matched[i] >= 0 &&
        static_cast<std::size_t>(cert.matched[i]) < a_ast.actions.size())
      out << " -> " << a_ast.actions[static_cast<std::size_t>(cert.matched[i])].name;
    if (!cert.enum_footprint[i].empty()) {
      out << " over {";
      for (std::size_t k = 0; k < cert.enum_footprint[i].size(); ++k)
        out << (k ? ", " : "") << c_ast.vars[cert.enum_footprint[i][k]].name;
      out << "}";
    }
    if (cert.stutter_ranked_at[i] != kUnranked)
      out << ", stutter-strict at [" << cert.stutter_ranked_at[i] << "]";
    out << "\n";
  }
  out << "  stutter ranking (" << cert.stutter_components.size()
      << " component(s)):\n";
  for (std::size_t i = 0; i < cert.stutter_components.size(); ++i)
    out << "    [" << i << "] " << cert.stutter_components[i].pretty << "\n";
  if (!cert.visible_components.empty()) {
    out << "  visible ranking (" << cert.visible_components.size()
        << " component(s)):\n";
    for (std::size_t i = 0; i < cert.visible_components.size(); ++i)
      out << "    [" << i << "] " << cert.visible_components[i].pretty << "\n";
  }
  out << "  compressed rows: " << cert.compressed.size() << "\n";
  if (cert.has_invariant)
    out << "  invariant: " << gcl::print_expr(cert.invariant) << "\n";
  out << "  obligations (" << cert.obligations.size() << "):\n";
  for (const RefineObligation& o : cert.obligations) {
    out << "    " << refine_obligation_kind_name(o.kind);
    if (!o.action.empty()) out << " " << o.action;
    out << " via " << discharge_name(o.method);
    if (o.valuations > 0) out << " (" << o.valuations << " valuation(s))";
    if (!o.detail.empty()) out << " -- " << o.detail;
    out << "\n";
  }
  out << "  budget: " << cert.budget << "\n";
  return out.str();
}

std::string render_refinement_certificate_json(const RefinementCertificate& cert) {
  std::ostringstream out;
  out << "{\"type\": \"refinement_certificate\", \"concrete\": \""
      << gcl::json_escape(cert.c_system) << "\", \"abstract\": \""
      << gcl::json_escape(cert.a_system) << "\", \"actions\": [";
  for (std::size_t i = 0; i < cert.action_class.size(); ++i) {
    if (i) out << ", ";
    out << "{\"class\": \"" << action_class_name(cert.action_class[i])
        << "\", \"matched\": ";
    if (cert.matched[i] >= 0)
      out << cert.matched[i];
    else
      out << "null";
    out << ", \"stutter_ranked_at\": ";
    if (cert.stutter_ranked_at[i] == kUnranked)
      out << "null";
    else
      out << cert.stutter_ranked_at[i];
    out << "}";
  }
  out << "], \"stutter_components\": [";
  for (std::size_t i = 0; i < cert.stutter_components.size(); ++i)
    out << (i ? ", " : "") << "\"" << gcl::json_escape(cert.stutter_components[i].pretty)
        << "\"";
  out << "], \"visible_components\": [";
  for (std::size_t i = 0; i < cert.visible_components.size(); ++i)
    out << (i ? ", " : "") << "\"" << gcl::json_escape(cert.visible_components[i].pretty)
        << "\"";
  out << "], \"compressed_rows\": " << cert.compressed.size() << ", \"invariant\": ";
  if (cert.has_invariant)
    out << "\"" << gcl::json_escape(gcl::print_expr(cert.invariant)) << "\"";
  else
    out << "null";
  out << ", \"obligations\": [";
  for (std::size_t i = 0; i < cert.obligations.size(); ++i) {
    const RefineObligation& o = cert.obligations[i];
    if (i) out << ", ";
    out << "{\"kind\": \"" << refine_obligation_kind_name(o.kind)
        << "\", \"action\": \"" << gcl::json_escape(o.action)
        << "\", \"component\": " << o.component << ", \"method\": \""
        << discharge_name(o.method) << "\", \"valuations\": " << o.valuations
        << ", \"detail\": \"" << gcl::json_escape(o.detail) << "\"}";
  }
  out << "], \"budget\": " << cert.budget << "}\n";
  return out.str();
}

// --- serialization ----------------------------------------------------
//
// Line-oriented "refine-cert 1" blob (embedded in the service verdict
// cache). Expressions are stored as re-parseable GCL text over the
// concrete program's variables; the obligation audit trail is NOT
// serialized — the validator re-derives everything anyway.

std::string serialize_refinement_certificate(const RefinementCertificate& cert) {
  std::ostringstream out;
  out << "refine-cert 1\n";
  out << "c-system " << cert.c_system << "\n";
  out << "a-system " << cert.a_system << "\n";
  out << "budget " << cert.budget << "\n";
  std::vector<std::string> alpha_lines;
  {
    std::istringstream in(cert.alpha_text);
    std::string line;
    while (std::getline(in, line)) alpha_lines.push_back(line);
  }
  out << "alpha " << alpha_lines.size() << "\n";
  for (const std::string& line : alpha_lines) out << line << "\n";
  out << "actions " << cert.action_class.size() << "\n";
  for (std::size_t i = 0; i < cert.action_class.size(); ++i) {
    out << "action " << action_class_name(cert.action_class[i]) << " "
        << cert.matched[i] << " ";
    if (cert.stutter_ranked_at[i] == kUnranked)
      out << "-";
    else
      out << cert.stutter_ranked_at[i];
    out << " " << cert.enum_footprint[i].size();
    for (std::size_t v : cert.enum_footprint[i]) out << " " << v;
    out << "\n";
  }
  out << "stutter-components " << cert.stutter_components.size() << "\n";
  for (const RankComponent& c : cert.stutter_components)
    out << "scomp " << gcl::print_expr(c.expr) << "\n";
  out << "visible-components " << cert.visible_components.size() << "\n";
  for (const RankComponent& c : cert.visible_components)
    out << "vcomp " << gcl::print_expr(c.expr) << "\n";
  out << "has-invariant " << (cert.has_invariant ? 1 : 0) << "\n";
  if (cert.has_invariant)
    out << "invariant " << gcl::print_expr(cert.invariant) << "\n";
  out << "compressed " << cert.compressed.size() << "\n";
  for (const CompressedRow& row : cert.compressed) {
    out << "row " << row.action << " " << row.source.size();
    for (const auto v : row.source) out << " " << static_cast<long long>(v);
    out << " " << row.a_path.size();
    for (std::size_t b : row.a_path) out << " " << b;
    out << "\n";
  }
  out << "supports " << cert.deadlock_support.size() << "\n";
  for (const std::vector<std::size_t>& sup : cert.deadlock_support) {
    out << "support " << sup.size();
    for (std::size_t i : sup) out << " " << i;
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

namespace {

/// Keyword-checked line reader over the serialized blob.
struct CertReader {
  std::istringstream in;
  explicit CertReader(const std::string& text) : in(text) {}

  bool line(const char* keyword, std::istringstream& fields) {
    std::string raw;
    if (!std::getline(in, raw)) return false;
    fields.clear();
    fields.str(raw);
    std::string head;
    return (fields >> head) && head == keyword;
  }
  /// Rest of `fields` after the already-extracted prefix, trimmed of
  /// one leading space.
  static std::string rest(std::istringstream& fields) {
    std::string tail;
    std::getline(fields, tail);
    if (!tail.empty() && tail.front() == ' ') tail.erase(tail.begin());
    return tail;
  }
};

}  // namespace

std::optional<RefinementCertificate> parse_refinement_certificate(
    const std::string& text, const gcl::SystemAst& c_ast) {
  RefinementCertificate cert;
  CertReader r(text);
  std::istringstream f;
  int version = 0;
  if (!r.line("refine-cert", f) || !(f >> version) || version != 1)
    return std::nullopt;
  if (!r.line("c-system", f) || !(f >> cert.c_system)) return std::nullopt;
  if (!r.line("a-system", f) || !(f >> cert.a_system)) return std::nullopt;
  if (!r.line("budget", f) || !(f >> cert.budget)) return std::nullopt;
  std::size_t count = 0;
  if (!r.line("alpha", f) || !(f >> count)) return std::nullopt;
  for (std::size_t i = 0; i < count; ++i) {
    std::string line;
    if (!std::getline(r.in, line)) return std::nullopt;
    cert.alpha_text += line + "\n";
  }
  if (!r.line("actions", f) || !(f >> count)) return std::nullopt;
  for (std::size_t i = 0; i < count; ++i) {
    std::string cls, site;
    std::ptrdiff_t matched = -1;
    std::size_t fpk = 0;
    if (!r.line("action", f) || !(f >> cls >> matched >> site >> fpk))
      return std::nullopt;
    ActionClass c;
    if (cls == "vacuous") c = ActionClass::Vacuous;
    else if (cls == "stutter") c = ActionClass::Stutter;
    else if (cls == "exact") c = ActionClass::Exact;
    else if (cls == "mixed") c = ActionClass::Mixed;
    else if (cls == "enumerated") c = ActionClass::Enumerated;
    else return std::nullopt;
    cert.action_class.push_back(c);
    cert.matched.push_back(matched);
    if (site == "-") {
      cert.stutter_ranked_at.push_back(kUnranked);
    } else {
      try {
        cert.stutter_ranked_at.push_back(std::stoull(site));
      } catch (...) {
        return std::nullopt;
      }
    }
    std::vector<std::size_t> fp;
    for (std::size_t k = 0; k < fpk; ++k)
      if (!(f >> fp.emplace_back())) return std::nullopt;
    cert.enum_footprint.push_back(std::move(fp));
  }
  auto parse_terms = [&](const char* header, const char* item,
                         std::vector<RankComponent>& terms) -> bool {
    std::size_t k = 0;
    if (!r.line(header, f) || !(f >> k)) return false;
    for (std::size_t i = 0; i < k; ++i) {
      if (!r.line(item, f)) return false;
      const std::string body = CertReader::rest(f);
      try {
        Expr e = gcl::parse_expr_over(body, c_ast);
        terms.push_back({RankComponent::Kind::Template, body, std::move(e), {}});
      } catch (...) {
        return false;
      }
    }
    return true;
  };
  if (!parse_terms("stutter-components", "scomp", cert.stutter_components))
    return std::nullopt;
  if (!parse_terms("visible-components", "vcomp", cert.visible_components))
    return std::nullopt;
  int has_inv = 0;
  if (!r.line("has-invariant", f) || !(f >> has_inv)) return std::nullopt;
  cert.has_invariant = has_inv != 0;
  if (cert.has_invariant) {
    if (!r.line("invariant", f)) return std::nullopt;
    try {
      cert.invariant = gcl::parse_expr_over(CertReader::rest(f), c_ast);
    } catch (...) {
      return std::nullopt;
    }
  }
  if (!r.line("compressed", f) || !(f >> count)) return std::nullopt;
  for (std::size_t i = 0; i < count; ++i) {
    CompressedRow row;
    std::size_t nv = 0;
    if (!r.line("row", f) || !(f >> row.action >> nv)) return std::nullopt;
    for (std::size_t k = 0; k < nv; ++k) {
      long long v = 0;
      if (!(f >> v)) return std::nullopt;
      row.source.push_back(static_cast<Value>(v));
    }
    std::size_t np = 0;
    if (!(f >> np)) return std::nullopt;
    for (std::size_t k = 0; k < np; ++k)
      if (!(f >> row.a_path.emplace_back())) return std::nullopt;
    cert.compressed.push_back(std::move(row));
  }
  if (!r.line("supports", f) || !(f >> count)) return std::nullopt;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t k = 0;
    if (!r.line("support", f) || !(f >> k)) return std::nullopt;
    std::vector<std::size_t> sup;
    for (std::size_t j = 0; j < k; ++j)
      if (!(f >> sup.emplace_back())) return std::nullopt;
    cert.deadlock_support.push_back(std::move(sup));
  }
  if (!r.line("end", f)) return std::nullopt;
  return cert;
}

}  // namespace cref::prover

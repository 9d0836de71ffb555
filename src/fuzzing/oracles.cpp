#include "fuzzing/oracles.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "absint/absint.hpp"
#include "absint/closure.hpp"
#include "fuzzing/reference.hpp"
#include "gcl/analyze.hpp"
#include "gcl/compile.hpp"
#include "gcl/diag.hpp"
#include "gcl/parser.hpp"
#include "gcl/pretty.hpp"
#include "gcl/alpha.hpp"
#include "prover/ground_truth.hpp"
#include "prover/prove.hpp"
#include "prover/refine.hpp"
#include "refinement/checker.hpp"
#include "refinement/equivalence.hpp"
#include "refinement/reachability.hpp"
#include "refinement/random_systems.hpp"
#include "service/certify.hpp"
#include "service/service.hpp"
#include "sim/campaign.hpp"
#include "sim/fault.hpp"
#include "sim/runner.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

#include <filesystem>

namespace cref::fuzz {

const char* to_string(InjectedBug bug) {
  switch (bug) {
    case InjectedBug::kNone: return "none";
    case InjectedBug::kDropLastCEdge: return "drop-last-c-edge";
    case InjectedBug::kShiftCInit: return "shift-c-init";
  }
  return "?";
}

namespace {

struct EngineView {
  TransitionGraph c;
  std::vector<StateId> c_init;
};

// The inputs the engine legs see. With a bug injected they differ from
// the true case — the reference (which always sees the truth) must then
// disagree on some drawn case.
EngineView engine_view(const FuzzCase& fc, InjectedBug bug) {
  EngineView ev{fc.c, fc.c_init};
  if (bug == InjectedBug::kDropLastCEdge) {
    std::vector<std::pair<StateId, StateId>> edges;
    for (StateId s = 0; s < fc.c.num_states(); ++s)
      for (StateId t : fc.c.successors(s)) edges.emplace_back(s, t);
    if (!edges.empty()) edges.pop_back();
    ev.c = TransitionGraph::from_edges(fc.c.num_states(), std::move(edges));
  } else if (bug == InjectedBug::kShiftCInit) {
    const StateId n = fc.c.num_states();
    for (StateId& s : ev.c_init) s = n ? (s + 1) % n : s;
    std::sort(ev.c_init.begin(), ev.c_init.end());
    ev.c_init.erase(std::unique(ev.c_init.begin(), ev.c_init.end()), ev.c_init.end());
  }
  return ev;
}

struct RelationResult {
  const char* name;
  CheckResult r;
};

std::vector<RelationResult> run_all(const RefinementChecker& rc) {
  std::vector<RelationResult> out;
  out.push_back({"refinement_init", rc.refinement_init()});
  out.push_back({"everywhere", rc.everywhere_refinement()});
  out.push_back({"convergence", rc.convergence_refinement()});
  out.push_back({"eventually", rc.everywhere_eventually_refinement()});
  out.push_back({"stabilizing", rc.stabilizing_to()});
  return out;
}

std::string yn(bool b) { return b ? "holds" : "fails"; }

}  // namespace

std::vector<OracleFailure> run_oracles(const FuzzCase& fc, const OracleOptions& opts,
                                       OracleStats* stats) {
  std::vector<OracleFailure> fails;
  auto add = [&](const char* oracle, std::string detail) {
    fails.push_back({oracle, std::move(detail)});
  };
  OracleStats local;
  OracleStats& st = stats ? *stats : local;
  ++st.cases;

  const EngineView ev = engine_view(fc, opts.bug);
  RefinementChecker serial(ev.c, fc.a, ev.c_init, fc.a_init, fc.alpha);
  serial.set_engine_options(EngineOptions{/*num_threads=*/1, /*chunk_size=*/0});
  const std::vector<RelationResult> sr = run_all(serial);

  // ---- differential-reference -------------------------------------
  if (std::max(fc.c.num_states(), fc.a.num_states()) <= opts.max_reference_states) {
    ++st.reference_checked;
    const ReferenceVerdicts ref =
        reference_check(fc.c, fc.a, fc.c_init, fc.a_init, fc.alpha);
    const bool bits[5] = {ref.refinement_init, ref.everywhere, ref.convergence,
                          ref.eventually, ref.stabilizing};
    for (std::size_t i = 0; i < sr.size(); ++i)
      if (sr[i].r.holds != bits[i])
        add("differential-reference", std::string(sr[i].name) + ": engine " +
                                          yn(sr[i].r.holds) + " but brute-force reference " +
                                          yn(bits[i]));
  } else {
    ++st.reference_skipped;
  }

  // ---- serial-parallel --------------------------------------------
  {
    ++st.parallel_compared;
    RefinementChecker par(ev.c, fc.a, ev.c_init, fc.a_init, fc.alpha);
    par.set_engine_options(opts.parallel);
    const std::vector<RelationResult> pr = run_all(par);
    for (std::size_t i = 0; i < sr.size(); ++i) {
      if (sr[i].r.holds != pr[i].r.holds || sr[i].r.reason != pr[i].r.reason ||
          sr[i].r.witness.states != pr[i].r.witness.states)
        add("serial-parallel",
            std::string(sr[i].name) + ": serial and parallel engines disagree");
    }
    const EdgeStats se = serial.edge_stats(), pe = par.edge_stats();
    if (se.exact != pe.exact || se.stutter != pe.stutter || se.compressed != pe.compressed ||
        se.invalid != pe.invalid)
      add("serial-parallel", "EdgeStats differ between serial and parallel engines");
  }

  // ---- witness-path -----------------------------------------------
  for (const RelationResult& rr : sr)
    if (!rr.r.holds && !rr.r.witness.empty() && !rr.r.witness.is_path_of(ev.c))
      add("witness-path",
          std::string(rr.name) + ": witness " + rr.r.witness.format_ids() +
              " is not a path of C");

  // ---- certificate ------------------------------------------------
  // Every relation's certificate, of either polarity, as the service
  // emits it: the independent validator must accept each genuine one
  // and reject each mutation that provably breaks a component.
  for (std::size_t i = 0; i < sr.size(); ++i) {
    const service::Relation rel = service::kAllRelations[i];
    const CheckResult& res = sr[i].r;
    const std::string name = sr[i].name;
    auto validate = [&](const service::JobCertificate& cert) {
      return service::validate_job_certificate(rel, res.holds, res.witness, cert, ev.c, fc.a,
                                               ev.c_init, fc.a_init, fc.alpha);
    };
    const auto cert = service::make_job_certificate(serial, rel, res);
    if (!cert) {
      add("certificate", name + ": no certificate produced");
      continue;
    }
    if (CheckResult ok = validate(*cert); !ok.holds) {
      add("certificate", name + ": validator rejected a genuine certificate: " + ok.reason);
      continue;
    }
    ++st.certificates_validated;
    auto expect_reject = [&](const service::JobCertificate& mut, const char* kind) {
      if (validate(mut).holds)
        add("certificate", name + ": mutated certificate accepted (" + kind + ")");
      else
        ++st.mutations_rejected;
    };
    service::JobCertificate flipped = *cert;
    flipped.positive = !flipped.positive;
    expect_reject(flipped, "polarity-flip");
    if (!res.holds) continue;
    // The first edge s -> t with s != t: rho(t) > rho(s) breaks the
    // non-increase every edge owes.
    std::optional<std::pair<StateId, StateId>> live_stutter;
    bool bumped = cert->rho.empty();
    for (StateId s = 0; s < ev.c.num_states(); ++s) {
      const bool in_scope =
          rel != service::Relation::kRefinementInit || cert->c_region[s] != 0;
      for (StateId t : ev.c.successors(s)) {
        if (s == t) continue;
        if (!bumped) {
          service::JobCertificate mut = *cert;
          mut.rho[t] = mut.rho[s] + 1;
          expect_reject(mut, "rho-bump");
          bumped = true;
        }
        if (!live_stutter && in_scope && fc.image(s) == fc.image(t) &&
            !fc.a.is_deadlock(fc.image(s)))
          live_stutter = {s, t};
      }
    }
    if (!cert->sigma.empty()) {
      service::JobCertificate mut = *cert;
      mut.sigma.pop_back();
      expect_reject(mut, "sigma-truncate");
    }
    // A live stutter edge owes a strict sigma decrease.
    if (live_stutter) {
      service::JobCertificate mut = *cert;
      mut.sigma[live_stutter->second] = mut.sigma[live_stutter->first];
      expect_reject(mut, "sigma-flatten");
    }
  }

  // ---- simulation -------------------------------------------------
  {
    // Graph side: any state repeated along a random walk closes a real
    // cycle of C; when the checker says "stabilizing", every edge of
    // that cycle must be good w.r.t. A and R_A.
    std::mt19937_64 wrng(fc.seed ^ 0x5bf03635u);
    const TransitionGraph& g = ev.c;
    const bool stab = sr[4].r.holds;
    const util::DenseBitset& ra = serial.a_reachable();
    for (std::size_t walk = 0; walk < opts.sim_walks && g.num_states() > 0; ++walk) {
      StateId s = static_cast<StateId>(util::uniform_below(wrng, g.num_states()));
      std::vector<long> seen_at(g.num_states(), -1);
      std::vector<StateId> path;
      for (std::size_t step = 0; step < 2 * g.num_states() + 8; ++step) {
        seen_at[s] = static_cast<long>(path.size());
        path.push_back(s);
        auto succ = g.successors(s);
        if (succ.empty()) break;
        StateId t = succ[util::uniform_below(wrng, succ.size())];
        if (seen_at[t] >= 0) {
          path.push_back(t);
          if (stab) {
            for (std::size_t i = static_cast<std::size_t>(seen_at[t]); i + 1 < path.size();
                 ++i) {
              StateId is = fc.image(path[i]), it = fc.image(path[i + 1]);
              if (!(ra[is] && ra[it] && (is == it || fc.a.has_edge(is, it)))) {
                add("simulation",
                    "random walk closed a cycle with a non-good edge although the checker "
                    "says stabilizing (walk " +
                        std::to_string(walk) + ")");
                break;
              }
            }
          }
          break;
        }
        s = t;
      }
      ++st.walks_checked;
    }

    // Program side: the simulator under fault injection must stay
    // consistent with the exhaustively built transition graph.
    if (fc.from_gcl()) {
      try {
        System csys = gcl::load_system(fc.gcl_c);
        const Space& space = csys.space();
        sim::FaultInjector fi(fc.seed + 17);
        sim::RandomDaemon daemon(fc.seed + 23);
        StateVec start;
        for (std::size_t walk = 0; walk < opts.sim_walks; ++walk) {
          fi.scramble(space, start);
          sim::RunOptions ro;
          ro.max_steps = 4 * fc.c.num_states() + 16;
          ro.record_trace = true;
          sim::RunResult rr = sim::run_until(
              csys, start, daemon, [](const StateVec&) { return false; }, ro);
          Trace tr;
          for (const StateVec& v : rr.trace) tr.states.push_back(space.encode(v));
          if (!tr.is_path_of(fc.c))
            add("simulation", "simulator trace is not a path of the built graph");
          if (rr.final_state.empty() ||
              (!rr.trace.empty() && rr.final_state != rr.trace.back()))
            add("simulation", "RunResult::final_state inconsistent with the trace");
          if (rr.deadlocked && !fc.c.is_deadlock(space.encode(rr.final_state)))
            add("simulation", "simulator reported deadlock in a state with successors");
          ++st.walks_checked;
        }
      } catch (const std::exception& e) {
        add("simulation", std::string("GCL simulation leg threw: ") + e.what());
      }
    }
  }

  // ---- meta-theorems ----------------------------------------------
  {
    if (sr[1].r.holds && !sr[2].r.holds)
      add("meta-theorems", "everywhere refinement without convergence refinement");
    if (sr[2].r.holds && !sr[3].r.holds)
      add("meta-theorems", "convergence refinement without everywhere-eventually");
    if (sr[2].r.holds && !sr[0].r.holds)
      add("meta-theorems", "convergence refinement without [C (= A]_init");
    st.meta_implications += 3;

    RefinementChecker aa(fc.a, fc.a, fc.a_init, fc.a_init);
    if (!aa.everywhere_refinement().holds || !aa.convergence_refinement().holds)
      add("meta-theorems", "A does not refine itself (reflexivity)");
    ++st.meta_implications;

    // Theorems 0/1 on (C, A, W), identity alpha: with B = A [] W, if A
    // is stabilizing to B then so must be any (everywhere/convergence)
    // refinement C of A.
    if (fc.alpha.empty() && (sr[1].r.holds || sr[2].r.holds)) {
      TransitionGraph b = graph_union(fc.a, fc.w);
      RefinementChecker ab(fc.a, std::move(b), fc.c_init, fc.a_init);
      if (ab.stabilizing_to().holds) {
        TransitionGraph b2 = graph_union(fc.a, fc.w);
        RefinementChecker cb(ev.c, std::move(b2), ev.c_init, fc.a_init);
        const bool cb_stab = cb.stabilizing_to().holds;
        if (sr[1].r.holds && !cb_stab)
          add("meta-theorems", "Theorem 0 violated: everywhere refinement did not "
                               "preserve stabilization to A [] W");
        if (sr[2].r.holds && !cb_stab)
          add("meta-theorems", "Theorem 1 violated: convergence refinement did not "
                               "preserve stabilization to A [] W");
        ++st.meta_implications;
      }
    }
  }

  // ---- build-parallel-vs-serial -----------------------------------
  // The parallel two-pass Sigma materialization must produce CSR arrays
  // bit-identical to the serial single-pass build, at any thread count
  // and chunking. Only GCL cases carry a System to materialize.
  if (fc.from_gcl()) {
    auto compare_builds = [&](const char* side, const std::string& src) {
      try {
        System sys = gcl::load_system(src);
        const TransitionGraph ser =
            TransitionGraph::build(sys, EngineOptions{/*num_threads=*/1, /*chunk_size=*/0});
        for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
          // A tiny chunk forces several chunks per worker, exercising the
          // dynamic scheduling of both passes.
          EngineOptions par{threads, /*chunk_size=*/3};
          if (!(TransitionGraph::build(sys, par) == ser))
            add("build-parallel-vs-serial",
                std::string(side) + ": parallel build (threads=" + std::to_string(threads) +
                    ") differs from the serial CSR arrays");
          else
            ++st.builds_compared;
        }
      } catch (const std::exception& e) {
        add("build-parallel-vs-serial", std::string(side) + ": threw: " + e.what());
      }
    };
    compare_builds("A", fc.gcl_a);
    compare_builds("C", fc.gcl_c);
  }

  // ---- campaign-determinism ---------------------------------------
  // A miniature fault-environment campaign over the compiled C program:
  // aggregates must be byte-identical single-threaded, multi-threaded
  // with a pathological 1-run chunk size (maximum interleaving), and on
  // a straight replay. Any divergence means a run's RNG streams leaked
  // across workers or an aggregate merge lost commutativity.
  if (fc.from_gcl()) {
    try {
      System csys = gcl::load_system(fc.gcl_c);
      sim::CampaignSpec cspec;
      cspec.systems.push_back(
          {"C", &csys, [](const StateVec& s) { return s[0] == 0; },
           [](const StateVec& s) {
             double sum = 0;
             for (Value v : s) sum += static_cast<double>(v);
             return sum;
           },
           StateVec(csys.space().var_count(), 0)});
      cspec.environments = {sim::EnvironmentSpec::scramble(),
                            sim::EnvironmentSpec::corruption(0.05),
                            sim::EnvironmentSpec::crash_restart(0.1, 0.2)};
      cspec.daemons = {sim::DaemonSpec::random(), sim::DaemonSpec::round_robin(),
                       sim::DaemonSpec::greedy_adversary()};
      cspec.runs_per_cell = 8;
      cspec.base_seed = fc.seed;
      cspec.max_steps = 64;

      const sim::CampaignResult ser =
          sim::CampaignDriver(EngineOptions{/*num_threads=*/1, /*chunk_size=*/0}).run(cspec);
      const sim::CampaignDriver par_driver(EngineOptions{/*num_threads=*/3, /*chunk_size=*/1});
      if (!(par_driver.run(cspec) == ser))
        add("campaign-determinism",
            "parallel campaign aggregates differ from the serial sweep");
      else if (!(par_driver.run(cspec) == ser))
        add("campaign-determinism", "campaign replay produced different aggregates");
      else
        ++st.campaigns_compared;
    } catch (const std::exception& e) {
      add("campaign-determinism", std::string("threw: ") + e.what());
    }
  }

  // ---- gcl-roundtrip ----------------------------------------------
  if (fc.from_gcl()) {
    auto roundtrip = [&](const char* side, const std::string& src,
                         const TransitionGraph& expect) {
      try {
        gcl::SystemAst ast1 = gcl::parse(src);
        const std::string p1 = gcl::print_system(ast1);
        gcl::SystemAst ast2 = gcl::parse(p1);
        const std::string p2 = gcl::print_system(ast2);
        if (p1 != p2)
          add("gcl-roundtrip",
              std::string(side) + ": print -> parse -> print is not a fixpoint");
        TransitionGraph g1 = TransitionGraph::build(gcl::compile(ast1));
        TransitionGraph g2 = TransitionGraph::build(gcl::compile(ast2));
        if (!compare_relations(g1, g2).equal)
          add("gcl-roundtrip",
              std::string(side) + ": reparsed program compiles to a different relation");
        if (!compare_relations(g1, expect).equal)
          add("gcl-roundtrip",
              std::string(side) + ": compiled relation differs from the case's graph");
        // Analyzer totality: the lint passes and both renderers must
        // accept arbitrary generated programs without throwing.
        std::vector<gcl::Diagnostic> diags = gcl::analyze(ast1, gcl::AnalyzeOptions{});
        (void)gcl::render_text(diags, "fuzz.gcl");
        (void)gcl::render_json(diags, "fuzz.gcl");
        ++st.gcl_roundtrips;
      } catch (const std::exception& e) {
        add("gcl-roundtrip", std::string(side) + ": threw: " + e.what());
      }
    };
    roundtrip("A", fc.gcl_a, fc.a);
    roundtrip("C", fc.gcl_c, fc.c);
  }

  // ---- absint-soundness -------------------------------------------
  // The abstract interpreter's R# must over-approximate the explicitly
  // enumerated reachable set of every generated program, the R#-pruned
  // CSR build must agree slice-for-slice with the unpruned one on every
  // member state, and any static closure proof of the init predicate
  // must survive the independent edge-level validator. Abstraction bugs
  // show up here as a reachable state outside gamma(R#) — an unsound
  // transformer, join, or reduction.
  if (fc.from_gcl()) {
    auto check_absint = [&](const char* side, const std::string& src) {
      try {
        gcl::SystemAst ast = gcl::parse(src);
        System sys = gcl::compile(ast);
        const TransitionGraph full = TransitionGraph::build(sys);
        absint::AbsintResult res = absint::analyze_reachable(ast);
        const StateId n = full.num_states();
        std::vector<StateId> sources;
        if (sys.has_initial()) {
          sources = sys.initial_states();
        } else {
          sources.resize(n);
          for (StateId s = 0; s < n; ++s) sources[s] = s;
        }
        util::DenseBitset reach = reachable_from(full, sources);
        StateVec decoded;
        bool sound = true;
        for (StateId s = 0; s < n && sound; ++s) {
          if (!reach.test(s)) continue;
          sys.space().decode_into(s, decoded);
          if (!res.region.contains(decoded)) {
            sound = false;
            add("absint-soundness",
                std::string(side) + ": reachable state " + std::to_string(s) +
                    " is outside gamma(R#)" + (res.collapsed ? " [collapsed]" : ""));
          }
        }
        // Pruned-vs-unpruned slice agreement on member states (and empty
        // slices on non-members).
        sys.set_state_filter(absint::make_state_filter(res.region));
        const TransitionGraph pruned = TransitionGraph::build(sys);
        for (StateId s = 0; s < n; ++s) {
          sys.space().decode_into(s, decoded);
          const bool member = res.region.contains(decoded);
          auto ps = pruned.successors(s);
          if (member) {
            auto fs = full.successors(s);
            if (!std::equal(ps.begin(), ps.end(), fs.begin(), fs.end())) {
              add("absint-soundness",
                  std::string(side) + ": pruned slice of member state " +
                      std::to_string(s) + " differs from the unpruned build");
              break;
            }
          } else if (!ps.empty()) {
            add("absint-soundness",
                std::string(side) + ": non-member state " + std::to_string(s) +
                    " kept " + std::to_string(ps.size()) + " edge(s) in the pruned build");
            break;
          }
        }
        if (sound) ++st.absint_checked;
        // A static closure proof is a hard claim — cross-check it with
        // the graph-level validator, which shares no absint code.
        if (ast.init) {
          if (auto cert = absint::make_closure_certificate(ast, *ast.init)) {
            if (!absint::check_closure_certificate(ast, *ast.init, *cert)) {
              add("absint-soundness",
                  std::string(side) + ": closure certificate fails its own re-check");
            }
            ClosedRegionCertificate crc =
                absint::to_closed_region_certificate(sys.space(), cert->region);
            if (CheckResult r = validate_closed_region(full, crc); !r.holds) {
              add("absint-soundness", std::string(side) +
                                          ": static closure proof of init refuted "
                                          "explicitly: " + r.reason);
            } else {
              ++st.closures_validated;
            }
          }
        }
      } catch (const std::exception& e) {
        add("absint-soundness", std::string(side) + ": threw: " + e.what());
      }
    };
    check_absint("A", fc.gcl_a);
    check_absint("C", fc.gcl_c);
  }

  // ---- cache-consistency ------------------------------------------
  // All five relations through the checking service three ways: cold
  // (full check + certificate emission), warm (in-memory hit), and via
  // an on-disk round trip in a fresh service instance. The three
  // answers must be byte-identical, and every warm/disk answer must be
  // a certificate-REVALIDATED hit — a recompute fallback here means the
  // generator emitted no certificate or the validator rejected an
  // honest one, i.e. the generator/validator pair is not total over
  // what the fuzz generators can draw. Uses the true case (not the
  // engine view): the oracle pins the service's self-consistency.
  {
    // The process id keeps the directory private: concurrent fuzz
    // processes (ctest -j runs each test as one) draw the same
    // (strategy, seed) cases and would otherwise delete each other's
    // entries mid-run.
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("cref-fuzz-cache-" + std::to_string(::getpid()) + "-" + fc.strategy + "-" +
          std::to_string(fc.seed)))
            .string();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    service::ServiceOptions sopts;
    sopts.engine = EngineOptions{/*num_threads=*/1, /*chunk_size=*/0};
    sopts.cache_dir = dir;
    try {
      service::CheckService svc(sopts);
      for (service::Relation rel : service::kAllRelations) {
        const std::string name = service::to_string(rel);
        service::Job job =
            service::Job::from_graphs(rel, fc.c, fc.c_init, fc.a, fc.a_init, fc.alpha);
        ++st.cache_jobs;
        const service::JobOutcome cold = svc.run(job);
        if (cold.cache_hit) add("cache-consistency", name + ": cold query hit the cache");
        if (!cold.certificate_stored)
          add("cache-consistency", name + ": cold check emitted no certificate");
        const service::JobOutcome warm = svc.run(job);
        service::CheckService fresh(sopts);
        const service::JobOutcome disk = fresh.run(job);
        for (const auto& [label, o] : {std::make_pair("warm", &warm), {"disk", &disk}}) {
          if (o->result.holds != cold.result.holds || o->result.reason != cold.result.reason ||
              o->result.witness.states != cold.result.witness.states)
            add("cache-consistency", name + ": " + label + " answer differs from cold");
          else if (!o->cache_hit || !o->revalidated)
            add("cache-consistency",
                name + ": " + label + " query fell back to a full recompute");
          else
            ++st.cache_hits_validated;
        }
      }
    } catch (const std::exception& e) {
      add("cache-consistency", std::string("service threw: ") + e.what());
    }
    std::filesystem::remove_all(dir, ec);
  }

  // ---- prover-soundness -------------------------------------------
  // The static stabilization prover's verdicts are claims about EVERY
  // state of Sigma, so on generated programs (always small) they can be
  // held against the materialized transition relation directly. Both
  // goals run on both programs: termination, and convergence to the
  // unique-privilege predicate. A proof that fails its own independent
  // validator, or that the ground truth refutes, is a soundness bug in
  // the ranking synthesis — never tolerated. The prover FAILING to
  // prove a true property is mere incompleteness and is not flagged.
  if (fc.from_gcl()) {
    auto check_prover = [&](const char* side, const std::string& src) {
      try {
        const gcl::SystemAst ast = gcl::parse(src);
        prover::ProveOptions popts;
        popts.budget = 4096;  // generated programs are tiny; keep it cheap

        ++st.prover_attempts;
        const prover::ProveResult term = prover::prove_termination(ast, popts);
        if (term.proved) {
          ++st.prover_proofs;
          std::string why;
          if (!prover::validate_certificate(ast, nullptr, *term.certificate, &why)) {
            add("prover-soundness", std::string(side) +
                                        ": termination certificate rejected by its "
                                        "own validator: " + why);
          }
          bool applicable = false;
          const bool truth = prover::explicit_terminates(ast, &applicable);
          if (applicable && !truth) {
            add("prover-soundness",
                std::string(side) +
                    ": prover claims termination but the transition graph has a cycle");
          } else if (applicable) {
            ++st.prover_confirmed;
          }
        }

        ++st.prover_attempts;
        const gcl::Expr target = prover::enabled_one_predicate(ast);
        const prover::ProveResult conv = prover::prove_convergence(ast, target, popts);
        if (conv.proved) {
          ++st.prover_proofs;
          std::string why;
          if (!prover::validate_certificate(ast, &target, *conv.certificate, &why)) {
            add("prover-soundness", std::string(side) +
                                        ": convergence certificate rejected by its "
                                        "own validator: " + why);
          }
          const prover::GroundTruth gt = prover::explicit_check(ast, target);
          if (gt.applicable) {
            if (!gt.converges()) {
              add("prover-soundness",
                  std::string(side) +
                      ": prover claims convergence to the unique-privilege "
                      "predicate but the explicit check refutes it");
            } else if (conv.certificate->closure_proved && !gt.closed) {
              add("prover-soundness",
                  std::string(side) +
                      ": prover claims closure of the unique-privilege "
                      "predicate but some transition leaves it");
            } else {
              ++st.prover_confirmed;
            }
          }
        }
      } catch (const std::exception& e) {
        add("prover-soundness", std::string(side) + ": threw: " + e.what());
      }
    };
    check_prover("A", fc.gcl_a);
    check_prover("C", fc.gcl_c);
  }

  // ---- refine-soundness -------------------------------------------
  // The static refinement prover on (C, A, identity) and the
  // guaranteed-well-formed reflexive instance (C, C, identity).
  // Proved must survive the independent validator AND be confirmed by
  // the relation engine; Refuted must be confirmed failing. Unknown
  // is incompleteness, never flagged. Identity maps that do not
  // resolve (A has a variable C lacks) make the instance inapplicable.
  if (fc.from_gcl()) {
    auto check_refine = [&](const char* label, const std::string& c_src,
                            const std::string& a_src) {
      try {
        const gcl::SystemAst c_ast = gcl::parse(c_src);
        const gcl::SystemAst a_ast = gcl::parse(a_src);
        gcl::AlphaSpec alpha;
        try {
          alpha = gcl::identity_alpha(c_ast, a_ast);
        } catch (const std::exception&) {
          return;  // no identity map between these variable sets
        }
        ++st.refine_attempts;
        prover::RefineOptions ropts;
        ropts.budget = 4096;  // generated programs are tiny; keep it cheap
        const prover::RefineResult r =
            prover::prove_refinement(c_ast, a_ast, alpha, ropts);
        if (r.verdict == prover::RefineVerdict::Unknown) return;
        ++st.refine_decided;
        if (r.verdict == prover::RefineVerdict::Proved) {
          std::string why;
          if (!prover::validate_refinement_certificate(c_ast, a_ast, alpha,
                                                       *r.certificate, &why))
            add("refine-soundness",
                std::string(label) +
                    ": refinement certificate rejected by its own validator: " + why);
        }
        const prover::RefineGroundTruth gt =
            prover::explicit_refinement(c_ast, a_ast, alpha);
        if (!gt.applicable) return;
        const bool claimed = r.verdict == prover::RefineVerdict::Proved;
        if (claimed != gt.holds)
          add("refine-soundness",
              std::string(label) + ": static prover says [C <~ A] " +
                  (claimed ? "holds but the relation engine refutes it"
                           : "fails but the relation engine confirms it"));
        else
          ++st.refine_confirmed;
      } catch (const std::exception& e) {
        add("refine-soundness", std::string(label) + ": threw: " + e.what());
      }
    };
    check_refine("C-vs-A", fc.gcl_c, fc.gcl_a);
    check_refine("C-vs-C", fc.gcl_c, fc.gcl_c);
  }

  return fails;
}

}  // namespace cref::fuzz

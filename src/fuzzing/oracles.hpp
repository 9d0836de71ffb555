#pragma once

// The oracle stack: every consistency property a FuzzCase is held
// against. A case passes only if ALL apply-able oracles pass:
//
//   differential-reference  engine verdicts (serial) == brute-force
//                           reference on all five relations
//   serial-parallel         multi-threaded engine bit-identical to the
//                           serial one (verdict, reason, witness,
//                           EdgeStats)
//   witness-path            every failing verdict's witness is a real
//                           path/cycle of C
//   certificate             every relation's job certificate, either
//                           polarity, validates; every applicable
//                           mutation (polarity flip, rho bump, sigma
//                           truncated or flattened on a live stutter
//                           edge) is REJECTED by the validator
//   simulation              cycles discovered by seeded random walks
//                           are "good" whenever the checker says
//                           stabilizing; for GCL cases, simulator runs
//                           under fault injection stay consistent with
//                           the built transition graph
//   meta-theorems           relation hierarchy, reflexivity, and
//                           Theorems 0/1 instances on (C, A, W)
//   gcl-roundtrip           print -> parse -> print fixpoint, compile
//                           equality, analyzer totality (GCL cases)
//   build-parallel-vs-serial  the parallel two-pass Sigma
//                           materialization produces bit-identical CSR
//                           arrays to the serial build (GCL cases)
//   campaign-determinism    a small fault-environment campaign sweep
//                           ({scramble, corruption, crash+restart} x
//                           {random, round-robin, adversary}) over the
//                           compiled C program produces byte-identical
//                           cell aggregates single-threaded, multi-
//                           threaded with adversarial chunking, and on
//                           a replay (GCL cases)
//   absint-soundness        the abstract reachable region R# covers
//                           every explicitly reachable state, the
//                           R#-pruned build agrees slice-for-slice with
//                           the unpruned one on members, and a static
//                           closure proof of init (when one exists) is
//                           confirmed by the explicit edge-level
//                           validator (GCL cases)
//   cache-consistency       the checking service answers every case's
//                           five relations identically cold, warm
//                           (in-memory hit), and through an on-disk
//                           round trip in a fresh service — verdict,
//                           reason, and witness byte-for-byte — and
//                           every warm/disk answer is a certificate-
//                           revalidated hit (pins the certificate
//                           generator/validator pair as total over
//                           everything the generators can draw)
//   prover-soundness        every termination / convergence
//                           certificate the static prover emits passes
//                           the independent validator AND agrees with
//                           the explicit-state ground truth; a "proved"
//                           verdict that the materialized graph refutes
//                           is an unsound ranking synthesis (GCL cases)
//   refine-soundness        the static refinement prover
//                           (prover/refine.hpp) on (C, A, identity)
//                           and (C, C, identity): every Proved
//                           certificate passes the independent
//                           validator AND the relation engine
//                           confirms [C <~ A]; every Refuted is
//                           confirmed failing. Unknown is allowed
//                           (incompleteness); a contradiction with
//                           the engine is fatal (GCL cases)
//
// For harness self-tests, an InjectedBug perturbs the inputs the ENGINE
// sees (the reference always sees the true case) — simulating a defect
// in the engine's edge scan or init handling. The differential oracle
// must catch every injected bug on some drawn case, and the shrinker
// must reduce that case; tests/fuzzing/oracle_test.cpp pins this.

#include <cstddef>
#include <string>
#include <vector>

#include "fuzzing/fuzz_case.hpp"
#include "refinement/engine.hpp"

namespace cref::fuzz {

/// Simulated engine defects, applied to the engine-facing inputs only.
enum class InjectedBug {
  kNone,
  kDropLastCEdge,  // edge scan loses the last edge of C (CSR off-by-one)
  kShiftCInit,     // init-state set read off by one state
};

const char* to_string(InjectedBug bug);

struct OracleOptions {
  /// Brute-force reference cap: cases whose C or A exceed this many
  /// states skip the differential-reference oracle (counted in stats).
  StateId max_reference_states = 64;

  /// Engine options of the parallel leg of serial-parallel.
  EngineOptions parallel{/*num_threads=*/2, /*chunk_size=*/0};

  /// Random-walk starts per case in the simulation oracle.
  std::size_t sim_walks = 4;

  InjectedBug bug = InjectedBug::kNone;
};

/// One failed oracle: which one, and a human-readable detail naming the
/// relation / mutation / walk that broke.
struct OracleFailure {
  std::string oracle;
  std::string detail;
};

/// Non-vacuity counters accumulated across a fuzz run.
struct OracleStats {
  std::size_t cases = 0;
  std::size_t reference_checked = 0;
  std::size_t reference_skipped = 0;   // over max_reference_states
  std::size_t parallel_compared = 0;
  std::size_t certificates_validated = 0;
  std::size_t mutations_rejected = 0;
  std::size_t walks_checked = 0;
  std::size_t gcl_roundtrips = 0;
  std::size_t meta_implications = 0;
  std::size_t builds_compared = 0;
  std::size_t campaigns_compared = 0;  // sweeps checked serial == parallel == replay
  std::size_t absint_checked = 0;      // programs with R# superset verified
  std::size_t closures_validated = 0;  // static closure proofs confirmed explicitly
  std::size_t prover_attempts = 0;     // prover goals tried (2 per GCL program)
  std::size_t prover_proofs = 0;       // goals the static prover certified
  std::size_t prover_confirmed = 0;    // proofs confirmed by explicit ground truth
  std::size_t refine_attempts = 0;     // static refinement instances tried
  std::size_t refine_decided = 0;      // instances decided (Proved or Refuted)
  std::size_t refine_confirmed = 0;    // decisions the relation engine confirmed
  std::size_t cache_jobs = 0;          // service jobs run cold (5 per case)
  std::size_t cache_hits_validated = 0;  // warm/disk hits served off a revalidated cert
};

/// Runs the whole stack on one case. Empty result == all oracles green.
std::vector<OracleFailure> run_oracles(const FuzzCase& fc, const OracleOptions& opts,
                                       OracleStats* stats = nullptr);

}  // namespace cref::fuzz

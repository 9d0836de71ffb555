#pragma once

// Seeded request sets for the four benchmark workloads. A request is the
// text of (C, A[, alpha], relation) plus its known answer; the answer
// comes from the family's theory, never from the code under test:
//
//   kstate    Dijkstra's K-state ring C against the same ring A, each
//             started in a one-privilege state. Identical transitions, so
//             the four refinement relations hold whatever the inits; C
//             stabilizes to A iff K >= n-1 (E11).
//   ablated   The K-state ring with action j removed, started in the
//             legitimate state whose only privilege is j's: the initial
//             state is a C-deadlock whose image is not an A-deadlock (the
//             ring never deadlocks), so every relation fails.
//   workring  The ring with m-1 local work steps per privilege against
//             the plain ring (by-name projection): convergence refinement
//             holds by construction (E24).
//   kstate_utr, kstate_self, wrapper, negative
//             The static-prover instances of refine_static (E24): proved
//             K-state => UTR through the privilege map, K-state => K-state
//             under identity, W2' => W2, and a refuted negative.
//
// Sessions group requests the way one cref_serve batch does: every
// request of a session goes to one fresh CheckService, and the requests
// of a (C, A) pair share its graph builds. Every session (refine_static:
// cycle) asks the same classes in the same order; the seed picks the
// instances (initial states, the removed action, the A side) and the
// serve_warm stream, so runs under different seeds cost alike.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/relation.hpp"

namespace perfbench {

using cref::service::Relation;

struct Request {
  std::size_t id = 0;
  std::string family;
  std::string shape;  // "n=.. K=.." (workring: ".. m=..")
  Relation relation = Relation::kConvergence;
  std::string c_text;
  std::string a_text;
  std::string alpha_text;  // refine_static: empty = the by-name identity map
  bool expect_holds = false;
  std::uint64_t c_states = 0;  // |Sigma_C|
  std::size_t pool_index = 0;  // serve_warm: position in the warmed pool
};

using Session = std::vector<Request>;

// ---- GCL text generators (process 0 is the bottom process) -------------

/// Dijkstra's K-state ring over c0..c{n-1} with `init` as its initial
/// valuation; `drop` >= 0 removes that process's action.
std::string kstate_text(int n, int k, const std::vector<int>& init, int drop = -1);

/// The K-state ring with m-1 local work steps per privilege (w0..w{n-1}).
std::string work_ring_text(int n, int k, int m, const std::vector<int>& c_init,
                           const std::vector<int>& w_init);

/// The unidirectional token ring over t0..t{n-1}, one token at t0.
std::string utr_text(int n);

/// The privilege map of the K-state ring onto the UTR, with the
/// one-privilege invariant.
std::string privilege_alpha_text(int n);

/// The legitimate K-state valuation whose only privilege is `holder`'s,
/// with the processes at and after `holder` holding value `v`.
std::vector<int> legit_state(int n, int k, int holder, int v);

/// Known answer of a serve-family request (kstate / ablated / workring).
bool theory_holds(const std::string& family, Relation r, int n, int k);

// ---- Workload request sets --------------------------------------------

struct ColdSet {
  Session warmup;                 // untimed, keys disjoint from `sessions`
  std::vector<Session> sessions;  // the same classes in the same order
};

/// serve_cold / serve_parallel: `sessions` sessions, each one batch of the
/// fixed group mix; no key repeats across the whole set.
ColdSet make_cold_set(std::uint64_t seed, std::size_t sessions);

struct WarmSet {
  Session warmup;  // untimed, keys disjoint from the pool
  Session pool;    // answered cold at set-up
  std::vector<std::vector<std::size_t>> sessions;  // pool indices
};

/// serve_warm: the pool and `sessions` sessions of kWarmSessionSize
/// requests, pool rank r asked in proportion to 1 / r^kZipfExponent.
WarmSet make_warm_set(std::uint64_t seed, std::size_t sessions);

struct RefineSet {
  std::vector<Request> warmup;
  std::vector<Session> cycles;  // the same classes in the same order
};

/// refine_static: `cycles` cycles of the fixed instance mix.
RefineSet make_refine_set(std::uint64_t seed, std::size_t cycles);

/// Request and session sizes, recorded alongside the results. The
/// popularity law is Zipf's in its classic form: request popularity in
/// client-side web traces fits 1 / r^a with a close to 1 (about 0.98 in
/// Cunha, Bestavros and Crovella, "Characteristics of WWW Client-based
/// Traces", Boston University TR-95-010, 1995), and a cref_serve user
/// repeating checks is such a client. The session size is an unmeasured
/// choice.
inline constexpr std::size_t kWarmSessionSize = 144;
inline constexpr double kZipfExponent = 1.0;
std::size_t cold_session_size();
std::size_t refine_cycle_size();

}  // namespace perfbench

#pragma once

// The static convergence-refinement prover (DESIGN.md Section 15):
// decides [C curlypreceq A] — the paper's convergence refinement —
// from the GCL texts of C and A and a syntactic abstraction map alpha,
// WITHOUT building either state space, by discharging per-action
// simulation obligations with the budgeted decision procedure of
// rank.hpp.
//
// Proof rule (sound against refinement/checker.cpp's exact semantics;
// the argument is in DESIGN.md Section 15):
//   [C curlypreceq A] holds if every concrete action is shown to be
//     (stutter)     alpha(s') == alpha(s) on every transition, or
//     (exact)       mapped to the edge of one abstract action b, or
//     (mixed)       one of the two, state by state, or
//     (enumerated)  classified row by row over the obligation
//                   footprint — rows may additionally be Compressed
//                   (alpha(s) -> alpha(s') is an A-path, found by BFS);
//                   an Invalid row REFUTES the relation outright,
//   and the side conditions hold:
//     (divergence)  stuttering is finite between visible steps: a
//                   lexicographic stutter ranking strictly decreases on
//                   every stutter step whose image is not an A-deadlock,
//     (cycles)      no compressed edge lies on a concrete cycle: a
//                   visible ranking is lex non-increasing on EVERY
//                   transition and strictly decreasing (point-checked)
//                   at every compressed row,
//     (reach)       when C declares initial states, compressed rows are
//                   outside reach(I_C): the alpha spec's invariant is
//                   established inductively from init and refuted
//                   point-wise at every compressed source,
//     (deadlock)    C-deadlocks map to A-deadlocks: for every abstract
//                   action, firing at the image implies some concrete
//                   action fires (per-action support subsets keep the
//                   footprints local).
//
// Verdicts are three-valued: Proved carries a RefinementCertificate,
// Refuted is returned ONLY on a definitely-invalid edge (the abstract
// BFS exhausted A without finding a path — a complete refutation), and
// everything else is Unknown (incompleteness, never unsoundness).
//
// Trust story (mirroring prove.hpp): validate_refinement_certificate
// re-derives every claim independently of the synthesis search — by
// complete edge-level replay of Sigma_C when it fits the budget (mode
// A: the certificate's rankings are re-checked semantically on every
// edge, matches are re-derived by direct abstract execution, nothing
// stored is trusted), and by symbolic re-derivation from
// validator-recomputed contexts above it (mode B).

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "gcl/alpha.hpp"
#include "gcl/ast.hpp"
#include "prover/prove.hpp"
#include "prover/rank.hpp"

namespace cref::prover {

/// How one concrete action's simulation obligation was discharged.
enum class ActionClass {
  Vacuous,     // guard && changed unsatisfiable: no transitions at all
  Stutter,     // every transition has alpha(s') == alpha(s)
  Exact,       // every transition maps to the edge of abstract `matched`
  Mixed,       // every transition is a stutter OR maps to `matched`
  Enumerated,  // classified row by row over the obligation footprint
};

const char* action_class_name(ActionClass c);

/// One enumerated Compressed row: the concrete source valuation (over
/// the action's obligation footprint, other variables pinned to 0) and
/// the abstract action path replayed from alpha(source).
struct CompressedRow {
  StateVec source;
  std::size_t action = 0;             // concrete action of the row
  std::vector<std::size_t> a_path;    // abstract action indices, length >= 2
};

/// One discharged refinement obligation (the certificate audit trail).
struct RefineObligation {
  enum class Kind {
    Classify,          // the per-action ladder outcome
    StutterDecrease,   // stutter ranking: strict lex decrease leg
    StutterNonIncrease,
    VisibleNonIncrease,  // visible ranking: per-action non-increase leg
    CompressedDecrease,  // visible ranking: point-wise strict at a row
    InvariantInit,     // I_C => Inv
    InvariantStep,     // Inv inductive under an action
    InvariantExcludes, // !Inv at a compressed source (point check)
    DeadlockSupport,   // abstract action fires => support subset fires
  };
  Kind kind = Kind::Classify;
  std::string action;          // concrete or abstract action (by kind)
  std::size_t component = 0;   // rank component (decrease kinds)
  Discharge method = Discharge::Enumeration;
  std::size_t valuations = 0;
  std::string detail;
};

const char* refine_obligation_kind_name(RefineObligation::Kind k);

/// A ranking component of the stutter or visible tuple (template
/// expressions only — enumerated tables never appear here; the
/// enumerated rows carry their own point-wise evidence instead).
struct RankTerm {
  std::string pretty;
  gcl::Expr expr;
};

/// A static, independently re-validatable proof of [C curlypreceq A].
struct RefinementCertificate {
  std::string c_system;
  std::string a_system;
  std::string alpha_text;  // print_alpha of the map — binds the spec
  std::size_t budget = 0;

  std::vector<ActionClass> action_class;  // per concrete action
  /// Exact/Mixed: the matched abstract action index; -1 otherwise.
  std::vector<std::ptrdiff_t> matched;
  /// Enumerated actions: the obligation footprint the rows were
  /// enumerated over (sorted variable indices); empty otherwise.
  std::vector<std::vector<std::size_t>> enum_footprint;
  std::vector<CompressedRow> compressed;  // replayable Compressed rows

  std::vector<RankTerm> stutter_components;  // most significant first
  /// Per concrete action: component index proving its strict stutter
  /// decrease (Stutter/Mixed classes), kUnranked otherwise.
  std::vector<std::size_t> stutter_ranked_at;

  std::vector<RankTerm> visible_components;  // empty without compressed
  bool has_invariant = false;
  gcl::Expr invariant;  // over C's variables; meaningful when has_invariant

  /// Per abstract action: the concrete support subset of its deadlock
  /// obligation.
  std::vector<std::vector<std::size_t>> deadlock_support;

  std::vector<RefineObligation> obligations;
};

enum class RefineVerdict {
  Proved,   // certificate emitted
  Refuted,  // a definitely-Invalid edge exists: [C curlypreceq A] fails
  Unknown,  // out of budget / template pool / classification power
};

const char* refine_verdict_name(RefineVerdict v);

struct RefineOptions {
  std::size_t budget = std::size_t{1} << 20;  // decide/enumeration cap
  std::size_t max_components = 16;            // lexicographic length cap
  std::size_t max_pool = 64;                  // template candidates tried
  std::size_t max_a_nodes = std::size_t{1} << 16;  // abstract BFS cap
};

struct RefineResult {
  RefineVerdict verdict = RefineVerdict::Unknown;
  std::optional<RefinementCertificate> certificate;  // Proved only
  std::vector<std::string> failures;   // why not, when not Proved
  std::string counterexample;          // Refuted: the invalid edge
  double prove_ms = 0.0;
};

/// Decides [C curlypreceq A] through `alpha` statically. Sound both
/// ways: Proved implies the explicit checker accepts, Refuted implies
/// it rejects (the refine-soundness fuzz oracle holds this against the
/// relation engine).
RefineResult prove_refinement(const gcl::SystemAst& c_ast, const gcl::SystemAst& a_ast,
                              const gcl::AlphaSpec& alpha, const RefineOptions& opts = {});

/// Independent validator. `alpha` must be the map the caller wants the
/// proof for — the certificate's stored alpha text must print-match it,
/// so a widened or swapped map is rejected up front. Mode A (|Sigma_C|
/// within the certificate budget) replays every edge; mode B re-derives
/// every obligation symbolically.
bool validate_refinement_certificate(const gcl::SystemAst& c_ast,
                                     const gcl::SystemAst& a_ast,
                                     const gcl::AlphaSpec& alpha,
                                     const RefinementCertificate& cert,
                                     std::string* why = nullptr);

/// Human-readable rendering (per-action table, rankings, obligations).
std::string format_refinement_certificate(const gcl::SystemAst& c_ast,
                                          const gcl::SystemAst& a_ast,
                                          const RefinementCertificate& cert);

/// Machine-readable rendering (one JSON object, newline-terminated).
std::string render_refinement_certificate_json(const RefinementCertificate& cert);

/// Line-oriented serialization for the service verdict cache. Parsing
/// requires the concrete AST (expressions are stored as re-parseable
/// GCL text over C's variables); any malformed field yields nullopt.
std::string serialize_refinement_certificate(const RefinementCertificate& cert);
std::optional<RefinementCertificate> parse_refinement_certificate(
    const std::string& text, const gcl::SystemAst& c_ast);

}  // namespace cref::prover

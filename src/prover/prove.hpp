#pragma once

// The static stabilization prover (DESIGN.md Section 12): proves, from
// the GCL text alone, that a system C converges to a target predicate P
// — every computation from EVERY state of Sigma reaches P — by
// synthesizing a lexicographic ranking function over linear and mod-k
// templates and discharging per-action proof obligations with the
// budgeted decision procedure of rank.hpp.
//
// Proof rule (sound; see DESIGN.md Section 12 for the argument):
//   C converges to P if
//     (progress)  no state outside P is a deadlock: some action is
//                 enabled AND changes the state, and
//     (ranking)   every transition s -> s' with s, s' both outside P
//                 strictly decreases a lexicographic tuple
//                 (rho_0(s), rho_1(s), ..., table(s))
//                 of integer-valued components bounded below.
//   C stabilizes to P if additionally
//     (closure)   P is closed under every action.
//
// Synthesis is greedy (templates.hpp's synthesize_ranking, shared with
// the refinement prover): candidates from an interference-ordered template
// pool (per-action guard indicators by dependency layer, the enabled
// count, linear sums, per-variable terms, mod-k differences) are
// accepted when Delta <= 0 holds for every still-unranked action and
// the component makes progress (a strict decrease for some action, or
// a provably possible one); actions proved strict are "ranked" and
// later components owe them nothing, the rest accumulate the tie
// context Delta == 0. Actions left after the pool runs dry fall to an
// enumerated-table final component: the residual transition relation
// (all template components tied, both endpoints outside P) over the
// whole of Sigma, within budget, ranked by longest path — a cycle there
// refutes any ranking extension, and the prover fails honestly.
//
// Trust story (mirroring refinement/certificate.hpp and
// absint/closure.hpp): prove_* emits a ConvergenceCertificate whose
// obligations validate_certificate re-derives INDEPENDENTLY of the
// synthesis search — by complete edge-level re-checking when Sigma fits
// the budget, and by re-discharging every template obligation from
// validator-recomputed contexts when it does not (table components then
// reject: they would need the very enumeration that is out of budget).
// Both modes use rank.hpp's re-checker, never the synthesizer. The
// complete re-check is the rules of refinement/positive_rules.hpp with
// convergence to P read as refining the two-state system (!P -> P)
// under s |-> [s in P]: a step outside P is a stutter the tuple must
// strictly decrease, a step out of P breaks a claimed closure, and a
// deadlock outside P has no image to end at (termination: every state
// is outside P, and any state may end).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "gcl/ast.hpp"
#include "prover/interference.hpp"
#include "prover/rank.hpp"

namespace cref::prover {

enum class Goal {
  Convergence,  // all computations reach P (plus closure => stabilization)
  Termination,  // all computations are finite (wrapper side condition)
};

inline constexpr std::size_t kUnranked = static_cast<std::size_t>(-1);

/// One discharged proof obligation (the certificate's audit trail).
struct Obligation {
  enum class Kind {
    StrictDecrease,  // Delta rho_c < 0 for the action (outside P, ties)
    NonIncrease,     // Delta rho_c <= 0 for the action (outside P, ties)
    Vacuous,         // action has no transition with both ends outside P
    TableDecrease,   // table strictly decreases on the residual edges
    Progress,        // no deadlock outside P (witness or exhaustive)
    Closure,         // P closed under the action
  };
  Kind kind = Kind::StrictDecrease;
  std::string action;         // empty for exhaustive progress checks
  std::size_t component = 0;  // rank component (decrease kinds only)
  Discharge method = Discharge::Enumeration;
  std::size_t valuations = 0;  // enumerated points (0 for absint legs)
  std::string detail;          // human-readable specifics
};

const char* obligation_kind_name(Obligation::Kind k);

/// A static, independently re-validatable proof that `system` converges
/// (and, when closure_proved, stabilizes) to `predicate`.
struct ConvergenceCertificate {
  Goal goal = Goal::Convergence;
  std::string system;     // ast.name (display)
  std::string predicate;  // print_expr of P; empty for Termination
  std::vector<RankComponent> components;  // most significant first
  /// Per action (declaration order): index of the component proving its
  /// strict decrease — components.size()-1 names the table component —
  /// or kUnranked for actions proved Vacuous.
  std::vector<std::size_t> ranked_at;
  std::vector<Obligation> obligations;
  bool closure_proved = false;  // convergence + closure = stabilization
  std::size_t budget = 0;       // decision-procedure budget used
};

struct ProveOptions {
  std::size_t budget = std::size_t{1} << 20;  // per-obligation + table cap
};

struct ProveResult {
  bool proved = false;  // convergence/termination proof found
  std::optional<ConvergenceCertificate> certificate;
  std::vector<std::string> failures;  // why not, when !proved
  double prove_ms = 0.0;
};

/// Proves "C converges to `target`" (and attempts the closure leg; see
/// ConvergenceCertificate::closure_proved). The program's init clause
/// plays no role: convergence quantifies over all of Sigma.
ProveResult prove_convergence(const gcl::SystemAst& ast, const gcl::Expr& target,
                              const ProveOptions& opts = {});

/// Proves every computation finite (the paper's Theorem 3 wrapper side
/// condition): every action strictly decreases the ranking everywhere.
ProveResult prove_termination(const gcl::SystemAst& ast, const ProveOptions& opts = {});

/// Independent validator. `target` must be the predicate the caller
/// wants proved (null for Termination certificates); the certificate's
/// stored predicate must print-match it, so a tampered or widened
/// predicate is rejected up front. Re-derives every proof obligation
/// without re-running synthesis; on failure returns false and, when
/// `why` is non-null, a one-line reason.
bool validate_certificate(const gcl::SystemAst& ast, const gcl::Expr* target,
                          const ConvergenceCertificate& cert, std::string* why = nullptr);

/// The paper's unique-privilege target: exactly one guard holds —
/// sum over actions of (guard != 0) == 1.
gcl::Expr enabled_one_predicate(const gcl::SystemAst& ast);

/// Human-readable certificate rendering (components, per-action rank
/// sites, obligation table, closure status).
std::string format_certificate(const gcl::SystemAst& ast,
                               const ConvergenceCertificate& cert);

/// Machine-readable rendering (one JSON object, newline-terminated).
std::string render_certificate_json(const ConvergenceCertificate& cert);

}  // namespace cref::prover

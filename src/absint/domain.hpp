#pragma once

// Abstract domains for the GCL abstract interpreter (see absint.hpp for
// the fixpoint engine and DESIGN.md Section 10 for the rationale).
//
// The value domain is the reduced product of two classic non-relational
// domains, both EXACT-friendly because every GCL variable ranges over a
// declared finite domain 0..card-1:
//
//   Interval    [lo, hi]            (bottom iff lo > hi)
//   Congruence  x == rem (mod mod)  (mod == 0: the constant rem;
//                                    mod == 1: top; mod >= 2: a residue
//                                    class with 0 <= rem < mod)
//
// An AbsValue pairs the two and keeps them mutually reduced: the
// interval endpoints are advanced to the nearest members of the residue
// class, and a one-point interval collapses the congruence to a
// constant. An AbsBox assigns one AbsValue per program variable (the
// abstract product state); an AbsRegion is a bounded disjunction of
// boxes, which is what lets the analysis stay exact on protocols like
// the K-state ring whose reachable set is a union of far-apart points
// rather than one connected box.
//
// All lattice heights are finite here (intervals over a finite domain,
// congruence moduli descending by divisibility), so ascending fixpoint
// chains terminate without widening — see absint.cpp.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/space.hpp"

namespace cref::absint {

/// Saturation bound for interval endpoints: far beyond any GCL domain
/// or literal the analyses care about, small enough that a single
/// add/sub/mul on in-range operands cannot overflow int64.
inline constexpr std::int64_t kInf = std::int64_t{1} << 40;

/// Saturating arithmetic: results are clamped to [-kInf, kInf], so the
/// transformers can never trip signed overflow UB on adversarial
/// constants.
std::int64_t sat_add(std::int64_t a, std::int64_t b);
std::int64_t sat_sub(std::int64_t a, std::int64_t b);
std::int64_t sat_mul(std::int64_t a, std::int64_t b);

/// A (possibly empty) integer interval.
struct Interval {
  std::int64_t lo = 0;
  std::int64_t hi = -1;  // default-constructed: bottom

  static Interval bottom() { return {0, -1}; }
  static Interval point(std::int64_t v) { return {v, v}; }
  static Interval range(std::int64_t lo, std::int64_t hi) { return {lo, hi}; }
  static Interval top() { return {-kInf, kInf}; }

  bool is_bottom() const { return lo > hi; }
  bool is_point() const { return lo == hi; }
  bool contains(std::int64_t v) const { return lo <= v && v <= hi; }

  bool leq(const Interval& o) const;
  static Interval join(const Interval& a, const Interval& b);
  static Interval meet(const Interval& a, const Interval& b);

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// A residue class (Granger's congruence domain). There is no bottom
/// representation — emptiness lives in the interval component of the
/// product (AbsValue).
struct Congruence {
  std::int64_t mod = 1;  // 0: constant; 1: top; >= 2: residue class
  std::int64_t rem = 0;  // in [0, mod) when mod >= 2

  static Congruence top() { return {1, 0}; }
  static Congruence constant(std::int64_t v) { return {0, v}; }
  /// Canonicalized class {x : x == r (mod m)}; m <= 1 collapses to top.
  static Congruence residue(std::int64_t m, std::int64_t r);

  bool is_top() const { return mod == 1; }
  bool is_constant() const { return mod == 0; }
  bool contains(std::int64_t v) const;

  /// gamma(a) subseteq gamma(b).
  bool leq(const Congruence& o) const;
  static Congruence join(const Congruence& a, const Congruence& b);
  /// Exact intersection (CRT); nullopt when the classes are disjoint.
  static std::optional<Congruence> meet(const Congruence& a, const Congruence& b);

  static Congruence add(const Congruence& a, const Congruence& b);
  static Congruence sub(const Congruence& a, const Congruence& b);
  static Congruence mul(const Congruence& a, const Congruence& b);
  static Congruence neg(const Congruence& a);

  friend bool operator==(const Congruence&, const Congruence&) = default;
};

/// The reduced product interval x congruence. Bottom is normalized to
/// (empty interval, top congruence) by reduced().
struct AbsValue {
  Interval iv;
  Congruence cg;

  static AbsValue bottom() { return {Interval::bottom(), Congruence::top()}; }
  static AbsValue constant(std::int64_t v) {
    return {Interval::point(v), Congruence::constant(v)};
  }
  static AbsValue range(std::int64_t lo, std::int64_t hi) {
    AbsValue v{Interval::range(lo, hi), Congruence::top()};
    return v.reduced();
  }
  /// The full domain 0..card-1 of a declared variable.
  static AbsValue domain(int card) { return range(0, card - 1); }
  /// The abstraction of a boolean test outcome.
  static AbsValue boolean() { return range(0, 1); }

  bool is_bottom() const { return iv.is_bottom(); }
  bool is_constant() const { return !is_bottom() && iv.is_point(); }
  bool contains(std::int64_t v) const { return iv.contains(v) && cg.contains(v); }

  /// Truthiness of a guard/expression value (nonzero is true).
  bool surely_true() const { return !is_bottom() && !contains(0); }
  bool surely_false() const { return !is_bottom() && iv == Interval::point(0); }

  /// Mutually tightens the two components: interval endpoints move to
  /// the nearest residue-class members, a one-point interval fixes the
  /// congruence, and an infeasible pair collapses to bottom.
  AbsValue reduced() const;

  bool leq(const AbsValue& o) const;
  static AbsValue join(const AbsValue& a, const AbsValue& b);
  static AbsValue meet(const AbsValue& a, const AbsValue& b);

  /// Number of members in gamma intersected with 0..card-1.
  int count_in_domain(int card) const;

  /// "_|_", "=5", "[0..7]", or "[0..6] mod2=0".
  std::string format() const;

  friend bool operator==(const AbsValue&, const AbsValue&) = default;
};

// Abstract arithmetic, sound for gcl::eval's semantics (including the
// Euclidean mod/div pair and the divisor-zero-yields-zero convention).
AbsValue abs_add(const AbsValue& a, const AbsValue& b);
AbsValue abs_sub(const AbsValue& a, const AbsValue& b);
AbsValue abs_mul(const AbsValue& a, const AbsValue& b);
AbsValue abs_neg(const AbsValue& a);
AbsValue abs_mod(const AbsValue& a, const AbsValue& b);
AbsValue abs_div(const AbsValue& a, const AbsValue& b);

/// One abstract product state: one AbsValue per declared variable, in
/// declaration order. A box with any bottom component denotes the empty
/// set of states.
struct AbsBox {
  std::vector<AbsValue> vars;

  static AbsBox top(const std::vector<int>& cards);

  bool is_bottom() const;
  bool contains(const StateVec& s) const;
  bool leq(const AbsBox& o) const;
  static AbsBox join(const AbsBox& a, const AbsBox& b);

  /// Product of per-variable member counts within the declared domains.
  double gamma_size(const std::vector<int>& cards) const;

  /// "c0=[0..2] c1==1 ..." using `names` for display.
  std::string format(const std::vector<std::string>& names) const;

  friend bool operator==(const AbsBox&, const AbsBox&) = default;
};

/// A bounded disjunction of boxes; empty means bottom (no states). The
/// concretization is the union of the boxes' concretizations.
struct AbsRegion {
  std::vector<AbsBox> boxes;

  bool is_bottom() const { return boxes.empty(); }
  bool contains(const StateVec& s) const;

  /// Adds `b` unless it is bottom or subsumed by an existing box;
  /// removes existing boxes subsumed by `b`. Returns true if added.
  bool add(AbsBox b);

  /// Join of all boxes (top-less bottom stays bottom-less: precondition
  /// !is_bottom()).
  AbsBox hull() const;
};

}  // namespace cref::absint

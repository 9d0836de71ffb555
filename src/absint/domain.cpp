#include "absint/domain.hpp"

#include <algorithm>
#include <array>
#include <numeric>

namespace cref::absint {
namespace {

std::int64_t clamp_inf(std::int64_t v) {
  return std::clamp(v, -kInf, kInf);
}

/// Mirrors gcl::eval_mod / gcl::eval_div (Euclidean pair, total at
/// b == 0). Duplicated here because the domain layer must not depend on
/// the gcl module; the transformer soundness tests cross-check the two.
std::int64_t euc_mod(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  std::int64_t r = a % b;
  return r < 0 ? r + (b > 0 ? b : -b) : r;
}

std::int64_t euc_div(std::int64_t a, std::int64_t b) {
  if (b == 0) return 0;
  return (a - euc_mod(a, b)) / b;
}

/// Congruence arithmetic works on moduli/remainders no larger than this
/// so intermediate products below stay far from int64 overflow; anything
/// bigger degrades to top (sound: top's gamma is everything).
constexpr std::int64_t kCgLimit = std::int64_t{1} << 30;

bool cg_oversized(const Congruence& c) {
  return std::abs(c.mod) > kCgLimit || std::abs(c.rem) > kCgLimit;
}

std::int64_t gcd3(std::int64_t a, std::int64_t b, std::int64_t c) {
  return std::gcd(std::gcd(a, b), c);
}

}  // namespace

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  return clamp_inf(clamp_inf(a) + clamp_inf(b));
}

std::int64_t sat_sub(std::int64_t a, std::int64_t b) {
  return clamp_inf(clamp_inf(a) - clamp_inf(b));
}

std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  a = clamp_inf(a);
  b = clamp_inf(b);
  if (a == 0 || b == 0) return 0;
  // |a|,|b| <= 2^40 so the product fits in __int128; clamp the result.
  __int128 p = static_cast<__int128>(a) * b;
  if (p > kInf) return kInf;
  if (p < -kInf) return -kInf;
  return static_cast<std::int64_t>(p);
}

// ---------------------------------------------------------------------------
// Interval

bool Interval::leq(const Interval& o) const {
  if (is_bottom()) return true;
  if (o.is_bottom()) return false;
  return o.lo <= lo && hi <= o.hi;
}

Interval Interval::join(const Interval& a, const Interval& b) {
  if (a.is_bottom()) return b;
  if (b.is_bottom()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval Interval::meet(const Interval& a, const Interval& b) {
  if (a.is_bottom() || b.is_bottom()) return bottom();
  return {std::max(a.lo, b.lo), std::min(a.hi, b.hi)};  // empty if disjoint
}

// ---------------------------------------------------------------------------
// Congruence

Congruence Congruence::residue(std::int64_t m, std::int64_t r) {
  m = std::abs(m);
  if (m == 0) return constant(r);
  if (m == 1) return top();
  return {m, euc_mod(r, m)};
}

bool Congruence::contains(std::int64_t v) const {
  if (is_top()) return true;
  if (is_constant()) return v == rem;
  return euc_mod(v, mod) == rem;
}

bool Congruence::leq(const Congruence& o) const {
  if (o.is_top()) return true;
  if (is_top()) return false;
  if (is_constant()) return o.contains(rem);
  if (o.is_constant()) return false;  // residue class vs singleton
  return mod % o.mod == 0 && euc_mod(rem, o.mod) == o.rem;
}

Congruence Congruence::join(const Congruence& a, const Congruence& b) {
  if (a.is_top() || b.is_top()) return top();
  if (cg_oversized(a) || cg_oversized(b)) return top();
  // Granger join: gcd of both moduli and the remainder gap.
  std::int64_t m = gcd3(a.mod, b.mod, std::abs(a.rem - b.rem));
  return residue(m, a.rem);
}

std::optional<Congruence> Congruence::meet(const Congruence& a, const Congruence& b) {
  if (a.is_top()) return b;
  if (b.is_top()) return a;
  if (a.is_constant()) {
    if (b.contains(a.rem)) return a;
    return std::nullopt;
  }
  if (b.is_constant()) {
    if (a.contains(b.rem)) return b;
    return std::nullopt;
  }
  std::int64_t g = std::gcd(a.mod, b.mod);
  if (euc_mod(a.rem - b.rem, g) != 0) return std::nullopt;
  std::int64_t lcm = a.mod / g * b.mod;
  if (lcm > kCgLimit) {
    // Exact CRT modulus too large to track; either operand is a sound
    // over-approximation of the intersection — keep the finer one.
    return a.mod >= b.mod ? a : b;
  }
  // CRT: walk candidates r = a.rem + k*a.mod; at most b.mod/g steps hit
  // every residue of the combined class (moduli here are protocol-sized).
  for (std::int64_t r = a.rem; r < lcm; r += a.mod) {
    if (euc_mod(r, b.mod) == b.rem) return residue(lcm, r);
  }
  return std::nullopt;  // unreachable given the gcd test, but safe
}

Congruence Congruence::add(const Congruence& a, const Congruence& b) {
  if (cg_oversized(a) || cg_oversized(b)) return top();
  return residue(std::gcd(a.mod, b.mod), a.rem + b.rem);
}

Congruence Congruence::sub(const Congruence& a, const Congruence& b) {
  if (cg_oversized(a) || cg_oversized(b)) return top();
  return residue(std::gcd(a.mod, b.mod), a.rem - b.rem);
}

Congruence Congruence::mul(const Congruence& a, const Congruence& b) {
  if (cg_oversized(a) || cg_oversized(b)) return top();
  // gamma(a)*gamma(b) = (r1 + i*m1)(r2 + j*m2) == r1*r2 modulo
  // gcd(m1*m2, m1*r2, m2*r1); operands are bounded by kCgLimit so the
  // products fit comfortably.
  std::int64_t m = gcd3(a.mod * b.mod, a.mod * b.rem, b.mod * a.rem);
  return residue(m, a.rem * b.rem);
}

Congruence Congruence::neg(const Congruence& a) {
  if (cg_oversized(a)) return top();
  return residue(a.mod, -a.rem);
}

// ---------------------------------------------------------------------------
// AbsValue

AbsValue AbsValue::reduced() const {
  if (iv.is_bottom()) return bottom();
  Interval i{clamp_inf(iv.lo), clamp_inf(iv.hi)};
  Congruence c = cg;
  if (c.is_constant()) {
    if (!i.contains(c.rem)) return bottom();
    i = Interval::point(c.rem);
  } else if (c.mod >= 2) {
    // Advance each endpoint to the nearest in-class member.
    std::int64_t lo = i.lo + euc_mod(c.rem - i.lo, c.mod);
    std::int64_t hi = i.hi - euc_mod(i.hi - c.rem, c.mod);
    if (lo > hi) return bottom();
    i = {lo, hi};
  }
  if (i.is_point()) c = Congruence::constant(i.lo);
  return {i, c};
}

bool AbsValue::leq(const AbsValue& o) const {
  if (is_bottom()) return true;
  if (o.is_bottom()) return false;
  return iv.leq(o.iv) && cg.leq(o.cg);
}

AbsValue AbsValue::join(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom()) return b.reduced();
  if (b.is_bottom()) return a.reduced();
  return AbsValue{Interval::join(a.iv, b.iv), Congruence::join(a.cg, b.cg)}.reduced();
}

AbsValue AbsValue::meet(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return bottom();
  auto c = Congruence::meet(a.cg, b.cg);
  if (!c) return bottom();
  return AbsValue{Interval::meet(a.iv, b.iv), *c}.reduced();
}

int AbsValue::count_in_domain(int card) const {
  if (is_bottom()) return 0;
  int n = 0;
  std::int64_t lo = std::max<std::int64_t>(iv.lo, 0);
  std::int64_t hi = std::min<std::int64_t>(iv.hi, card - 1);
  for (std::int64_t v = lo; v <= hi; ++v) {
    if (cg.contains(v)) ++n;
  }
  return n;
}

std::string AbsValue::format() const {
  if (is_bottom()) return "_|_";
  if (is_constant()) return "=" + std::to_string(iv.lo);
  std::string s = "[";
  s += std::to_string(iv.lo);
  s += "..";
  s += std::to_string(iv.hi);
  s += "]";
  if (cg.mod >= 2) {
    s += " mod";
    s += std::to_string(cg.mod);
    s += "=";
    s += std::to_string(cg.rem);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Abstract arithmetic

AbsValue abs_add(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  return AbsValue{{sat_add(a.iv.lo, b.iv.lo), sat_add(a.iv.hi, b.iv.hi)},
                  Congruence::add(a.cg, b.cg)}
      .reduced();
}

AbsValue abs_sub(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  return AbsValue{{sat_sub(a.iv.lo, b.iv.hi), sat_sub(a.iv.hi, b.iv.lo)},
                  Congruence::sub(a.cg, b.cg)}
      .reduced();
}

AbsValue abs_mul(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  std::array<std::int64_t, 4> p{sat_mul(a.iv.lo, b.iv.lo), sat_mul(a.iv.lo, b.iv.hi),
                                sat_mul(a.iv.hi, b.iv.lo), sat_mul(a.iv.hi, b.iv.hi)};
  auto [lo, hi] = std::minmax_element(p.begin(), p.end());
  return AbsValue{{*lo, *hi}, Congruence::mul(a.cg, b.cg)}.reduced();
}

AbsValue abs_neg(const AbsValue& a) {
  if (a.is_bottom()) return AbsValue::bottom();
  return AbsValue{{sat_sub(0, a.iv.hi), sat_sub(0, a.iv.lo)}, Congruence::neg(a.cg)}
      .reduced();
}

AbsValue abs_mod(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  if (b.is_constant()) {
    std::int64_t k = b.iv.lo;
    if (k == 0) return AbsValue::constant(0);  // total semantics
    std::int64_t m = std::abs(k);              // eval_mod(a, k) == euc_mod(a, |k|)
    if (a.iv.lo >= 0 && a.iv.hi < m) return a.reduced();  // identity range
    Congruence c = Congruence::top();
    if (a.cg.is_constant()) {
      c = Congruence::constant(euc_mod(a.cg.rem, m));
    } else if (!a.cg.is_top()) {
      if (a.cg.mod % m == 0) {
        // Every class member is rem plus a multiple of m.
        c = Congruence::constant(euc_mod(a.cg.rem, m));
      } else {
        // v == rem (mod g) survives reduction mod m for g = gcd(mod, m).
        c = Congruence::residue(std::gcd(a.cg.mod, m), a.cg.rem);
      }
    }
    return AbsValue{{0, m - 1}, c}.reduced();
  }
  // Unknown divisor: result lies in [0, max|b| - 1], or is 0 at b == 0.
  std::int64_t m = std::max(std::abs(b.iv.lo), std::abs(b.iv.hi));
  if (m == 0) return AbsValue::constant(0);
  return AbsValue::range(0, m - 1);
}

AbsValue abs_div(const AbsValue& a, const AbsValue& b) {
  if (a.is_bottom() || b.is_bottom()) return AbsValue::bottom();
  // Euclidean division is monotone in the dividend for a fixed divisor
  // and piecewise monotone in the divisor on each sign range, so over
  // the divisor's interval hull the extreme quotients occur at interval
  // endpoints or at divisor +/-1 (largest magnitude near zero). The
  // divisor's congruence is deliberately ignored here: pruning interior
  // candidates like +/-1 by residue class would require re-deriving the
  // nearest in-class member per sign to stay sound, and division is too
  // rare in protocols to warrant that precision.
  std::array<std::int64_t, 4> divisors{b.iv.lo, b.iv.hi, 1, -1};
  std::int64_t lo = kInf, hi = -kInf;
  bool any = false;
  for (std::int64_t d : divisors) {
    if (d == 0 || !b.iv.contains(d)) continue;
    for (std::int64_t n : {a.iv.lo, a.iv.hi}) {
      std::int64_t q = clamp_inf(euc_div(n, d));
      lo = std::min(lo, q);
      hi = std::max(hi, q);
      any = true;
    }
  }
  if (b.iv.contains(0)) {  // divisor zero contributes quotient 0
    lo = std::min<std::int64_t>(lo, 0);
    hi = std::max<std::int64_t>(hi, 0);
    any = true;
  }
  if (!any) return AbsValue::constant(0);  // divisor interval is {0}
  return AbsValue::range(lo, hi);
}

// ---------------------------------------------------------------------------
// AbsBox

AbsBox AbsBox::top(const std::vector<int>& cards) {
  AbsBox b;
  b.vars.reserve(cards.size());
  for (int card : cards) b.vars.push_back(AbsValue::domain(card));
  return b;
}

bool AbsBox::is_bottom() const {
  return std::any_of(vars.begin(), vars.end(),
                     [](const AbsValue& v) { return v.is_bottom(); });
}

bool AbsBox::contains(const StateVec& s) const {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!vars[i].contains(static_cast<std::int64_t>(s[i]))) return false;
  }
  return true;
}

bool AbsBox::leq(const AbsBox& o) const {
  if (is_bottom()) return true;
  if (o.is_bottom()) return false;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!vars[i].leq(o.vars[i])) return false;
  }
  return true;
}

AbsBox AbsBox::join(const AbsBox& a, const AbsBox& b) {
  if (a.is_bottom()) return b;
  if (b.is_bottom()) return a;
  AbsBox out;
  out.vars.reserve(a.vars.size());
  for (std::size_t i = 0; i < a.vars.size(); ++i) {
    out.vars.push_back(AbsValue::join(a.vars[i], b.vars[i]));
  }
  return out;
}

double AbsBox::gamma_size(const std::vector<int>& cards) const {
  if (is_bottom()) return 0.0;
  double n = 1.0;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    n *= static_cast<double>(vars[i].count_in_domain(cards[i]));
  }
  return n;
}

std::string AbsBox::format(const std::vector<std::string>& names) const {
  if (is_bottom()) return "_|_";
  std::string s;
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (!s.empty()) s += " ";
    s += names[i] + (vars[i].is_constant() ? "" : "=") + vars[i].format();
  }
  return s;
}

// ---------------------------------------------------------------------------
// AbsRegion

bool AbsRegion::contains(const StateVec& s) const {
  return std::any_of(boxes.begin(), boxes.end(),
                     [&](const AbsBox& b) { return b.contains(s); });
}

bool AbsRegion::add(AbsBox b) {
  if (b.is_bottom()) return false;
  for (const AbsBox& existing : boxes) {
    if (b.leq(existing)) return false;
  }
  std::erase_if(boxes, [&](const AbsBox& existing) { return existing.leq(b); });
  boxes.push_back(std::move(b));
  return true;
}

AbsBox AbsRegion::hull() const {
  AbsBox h = boxes.front();
  for (std::size_t i = 1; i < boxes.size(); ++i) h = AbsBox::join(h, boxes[i]);
  return h;
}

}  // namespace cref::absint

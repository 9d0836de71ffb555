#include "requests.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

namespace {

using Rng = std::mt19937_64;

int draw(Rng& rng, int bound) {
  return static_cast<int>(cref::util::uniform_below(rng, static_cast<std::uint64_t>(bound)));
}

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[cref::util::uniform_below(rng, i)]);
}

std::vector<int> random_state(Rng& rng, int n, int k) {
  std::vector<int> s(static_cast<std::size_t>(n));
  for (int& x : s) x = draw(rng, k);
  return s;
}

/// Number of enabled K-state guards in `s` (the privilege count).
int privileges(const std::vector<int>& s) {
  int count = s.front() == s.back() ? 1 : 0;
  for (std::size_t j = 1; j < s.size(); ++j) count += s[j] != s[j - 1] ? 1 : 0;
  return count;
}

std::string join(const std::vector<int>& v) {
  std::string out;
  for (int x : v) out += std::to_string(x) + ",";
  return out;
}

std::string shape_of(int n, int k, int m) {
  return "n=" + std::to_string(n) + " K=" + std::to_string(k) +
         (m ? " m=" + std::to_string(m) : std::string());
}

std::uint64_t power(std::uint64_t base, int exp) {
  std::uint64_t out = 1;
  for (int i = 0; i < exp; ++i) out *= base;
  return out;
}

/// `var p0 : 0..card-1;` ... for n variables.
std::string var_decls(const char* prefix, int n, int card) {
  std::string out;
  for (int i = 0; i < n; ++i)
    out += "  var " + std::string(prefix) + std::to_string(i) + " : 0.." +
           std::to_string(card - 1) + ";\n";
  return out;
}

std::string var_init(const char* prefix, const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? " && " : "") + std::string(prefix) + std::to_string(i) +
           " == " + std::to_string(values[i]);
  return out;
}

const char* kW2Det = R"(system w2_det {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action cancel0 : t0 != 0 && t1 != 0 -> t1 := 0;
  action cancel1 : t1 != 0 && t2 != 0 -> t2 := 0;
  action cancel2 : t2 != 0 && t0 != 0 -> t0 := 0;
}
)";

const char* kW2Any = R"(system w2_any {
  var t0 : bool;
  var t1 : bool;
  var t2 : bool;
  action cancel01 : t0 != 0 && t1 != 0 -> t1 := 0;
  action cancel00 : t0 != 0 && t1 != 0 -> t0 := 0;
  action cancel11 : t1 != 0 && t2 != 0 -> t2 := 0;
  action cancel10 : t1 != 0 && t2 != 0 -> t1 := 0;
  action cancel21 : t2 != 0 && t0 != 0 -> t0 := 0;
  action cancel20 : t2 != 0 && t0 != 0 -> t2 := 0;
}
)";

// Forgetting nothing, two_ring's flip edges are not paths of one_shot:
// the prover refutes on a definitely-invalid edge.
const char* kTwoRing = R"(system two_ring {
  var x : 0..1;
  var y : 0..1;
  action flip0 : x == y -> x := (x + 1) % 2;
  action flip1 : x != y -> y := x;
}
)";

const char* kOneShot = R"(system one_shot {
  var x : 0..1;
  var y : 0..1;
  action shoot : x == 0 && y == 0 -> x := 1;
}
)";

/// One (C, A) pair class of the serve workloads: `family` on the K-state
/// shape (n, k); m is the work quota of a workring pair.
struct GroupClass {
  const char* family;
  int n, k, m;
};

// serve_cold / serve_parallel: one session is one of each class. The
// kstate classes sweep n = 4..7, K = n-2..n+1 up to ~3e5 states; the
// workring classes put |Sigma_C| on both sides of the prover's 2^20
// mode-A budget (1e3 and 5e4 below, 1.5e6 and 3.2e6 above). The ablated
// n=6 K=6 class, costlier than the median request, moves the median
// rank off the gap between the ~3 ms and ~5 ms requests into the
// ablated n=5 K=6 cluster.
const std::vector<GroupClass> kColdMix = {
    {"kstate", 4, 2, 0},   {"kstate", 4, 3, 0},   {"kstate", 4, 4, 0},
    {"kstate", 4, 5, 0},   {"kstate", 5, 3, 0},   {"kstate", 5, 4, 0},
    {"kstate", 5, 5, 0},   {"kstate", 5, 6, 0},   {"kstate", 6, 4, 0},
    {"kstate", 6, 5, 0},   {"kstate", 6, 6, 0},   {"kstate", 6, 7, 0},
    {"kstate", 7, 5, 0},   {"kstate", 7, 6, 0},   {"ablated", 4, 3, 0},
    {"ablated", 5, 4, 0},  {"ablated", 5, 6, 0},  {"ablated", 6, 5, 0},
    {"ablated", 6, 6, 0},  {"ablated", 6, 7, 0},  {"ablated", 7, 5, 0},
    {"workring", 3, 5, 2}, {"workring", 4, 5, 3}, {"workring", 4, 5, 7},
    {"workring", 5, 5, 4},
};

const std::vector<GroupClass> kWarmupMix = {
    {"kstate", 4, 3, 0}, {"kstate", 5, 4, 0},  {"kstate", 6, 5, 0},
    {"ablated", 5, 5, 0}, {"workring", 3, 5, 2},
};

// serve_warm's pool: shapes up to 15625 states, so a disk hit's rebuild
// and a mode-A replay stay within tens of milliseconds and the costliest
// hits form one cluster; the workring pair keeps one static certificate
// on each side of the mode-A budget (1e3 and 1.5e6 states). The size
// limit is an unmeasured choice made for steadiness, not a usage figure.
const std::vector<GroupClass> kPoolMix = {
    {"kstate", 4, 4, 0},  {"kstate", 5, 5, 0},   {"kstate", 5, 6, 0},
    {"kstate", 6, 4, 0},  {"kstate", 6, 5, 0},   {"ablated", 5, 5, 0},
    {"ablated", 6, 5, 0}, {"workring", 3, 5, 2}, {"workring", 4, 5, 7},
};

/// One refine_static instance class and its count per cycle.
struct RefineClass {
  const char* family;
  int n, k, m;
  int count;
};

// Counts balance the cycle: many cheap instances, a few mode-A replays
// (workring 160000 states, kstate_self 117649 states) that set the tail.
// They are unmeasured choices made for steadiness, not a usage figure.
const std::vector<RefineClass> kRefineMix = {
    {"wrapper", 3, 2, 0, 6},     {"negative", 2, 2, 0, 6},    {"workring", 3, 5, 2, 6},
    {"workring", 3, 4, 3, 4},    {"kstate_utr", 4, 4, 0, 4},  {"kstate_utr", 4, 5, 0, 4},
    {"kstate_utr", 4, 6, 0, 3},  {"kstate_self", 5, 6, 0, 4}, {"workring", 4, 5, 7, 3},
    {"workring", 5, 5, 4, 3},    {"workring", 4, 5, 3, 3},    {"kstate_self", 6, 6, 0, 2},
    {"kstate_utr", 5, 5, 0, 2},  {"kstate_utr", 5, 6, 0, 1},  {"workring", 4, 5, 4, 2},
    {"kstate_self", 6, 7, 0, 1},
};

const std::vector<RefineClass> kRefineWarmup = {
    {"wrapper", 3, 2, 0, 2},    {"negative", 2, 2, 0, 2},   {"workring", 3, 5, 2, 2},
    {"kstate_utr", 4, 5, 0, 2}, {"kstate_self", 5, 5, 0, 2}, {"workring", 4, 5, 3, 1},
};

constexpr int kMaxDraws = 4096;

class Generator {
 public:
  explicit Generator(std::uint64_t seed) : rng_(seed) {}

  Rng& rng() { return rng_; }

  /// One batch: a group per class, in the mix's order. Each K-state
  /// shape gets one legitimate A init per session, shared by its pairs.
  Session session(const std::vector<GroupClass>& mix) {
    std::map<std::pair<int, int>, std::vector<int>> a_init;
    Session out;
    for (const GroupClass& g : mix) {
      auto [it, fresh] = a_init.try_emplace({g.n, g.k});
      if (fresh) it->second = legit_state(g.n, g.k, draw(rng_, g.n), draw(rng_, g.k));
      for (Request& r : group(g, it->second)) out.push_back(std::move(r));
    }
    return out;
  }

  /// The (C, A) pair of class `g` against A = K-state(a_init), asked
  /// under every relation (kstate, ablated) or convergence (workring).
  Session group(const GroupClass& g, const std::vector<int>& a_init) {
    const std::string a_text = kstate_text(g.n, g.k, a_init);
    std::string c_text;
    std::uint64_t c_states = power(static_cast<std::uint64_t>(g.k), g.n);
    for (int tries = 0;; ++tries) {
      if (tries == kMaxDraws) throw std::runtime_error("request generator ran out of keys");
      std::string descriptor = std::string(g.family) + " " + std::to_string(g.n) + " " +
                               std::to_string(g.k) + " " + std::to_string(g.m) + " A" +
                               join(a_init);
      const std::string family = g.family;
      if (family == "kstate") {
        // A legitimate init other than A's: the init-scoped checks then
        // cover the same n*K-state cycle under every seed, and C and A
        // are always two sides to build.
        const std::vector<int> init = legit_state(g.n, g.k, draw(rng_, g.n), draw(rng_, g.k));
        if (init == a_init) continue;
        descriptor += " C" + join(init);
        c_text = kstate_text(g.n, g.k, init);
      } else if (family == "ablated") {
        const int drop = draw(rng_, g.n);
        const std::vector<int> init = legit_state(g.n, g.k, drop, draw(rng_, g.k));
        descriptor += " C" + join(init) + " drop" + std::to_string(drop);
        c_text = kstate_text(g.n, g.k, init, drop);
      } else {
        const std::vector<int> c_init = random_state(rng_, g.n, g.k);
        const std::vector<int> w_init = random_state(rng_, g.n, g.m);
        descriptor += " C" + join(c_init) + " W" + join(w_init);
        c_text = work_ring_text(g.n, g.k, g.m, c_init, w_init);
        c_states = power(static_cast<std::uint64_t>(g.k) * static_cast<std::uint64_t>(g.m), g.n);
      }
      if (used_.insert(descriptor).second) break;
    }
    std::vector<Relation> relations(std::begin(cref::service::kAllRelations),
                                    std::end(cref::service::kAllRelations));
    if (std::string(g.family) == "workring") relations = {Relation::kConvergence};
    Session out;
    for (Relation r : relations) {
      Request q;
      q.id = next_id_++;
      q.family = g.family;
      q.shape = shape_of(g.n, g.k, g.m);
      q.relation = r;
      q.c_text = c_text;
      q.a_text = a_text;
      q.expect_holds = theory_holds(g.family, r, g.n, g.k);
      q.c_states = c_states;
      out.push_back(std::move(q));
    }
    return out;
  }

  Request refine_instance(const RefineClass& c) {
    Request q;
    q.id = next_id_++;
    q.family = c.family;
    q.shape = shape_of(c.n, c.k, c.m);
    q.relation = Relation::kConvergence;
    q.expect_holds = true;
    const std::string family = c.family;
    if (family == "wrapper") {
      q.c_text = kW2Det;
      q.a_text = kW2Any;
      q.c_states = 8;
    } else if (family == "negative") {
      q.c_text = kTwoRing;
      q.a_text = kOneShot;
      q.c_states = 4;
      q.expect_holds = false;
    } else if (family == "workring") {
      std::vector<int> w_init = random_state(rng_, c.n, c.m);
      q.c_text = work_ring_text(c.n, c.k, c.m,
                                legit_state(c.n, c.k, draw(rng_, c.n), draw(rng_, c.k)), w_init);
      q.a_text = kstate_text(c.n, c.k, legit_state(c.n, c.k, draw(rng_, c.n), draw(rng_, c.k)));
      q.c_states = power(static_cast<std::uint64_t>(c.k) * static_cast<std::uint64_t>(c.m), c.n);
    } else if (family == "kstate_utr") {
      // The init must satisfy the map's one-privilege invariant.
      q.c_text = kstate_text(c.n, c.k, legit_state(c.n, c.k, draw(rng_, c.n), draw(rng_, c.k)));
      q.a_text = utr_text(c.n);
      q.alpha_text = privilege_alpha_text(c.n);
      q.c_states = power(static_cast<std::uint64_t>(c.k), c.n);
    } else {  // kstate_self
      q.c_text = kstate_text(c.n, c.k, random_state(rng_, c.n, c.k));
      q.a_text = kstate_text(c.n, c.k, legit_state(c.n, c.k, draw(rng_, c.n), draw(rng_, c.k)));
      q.c_states = power(static_cast<std::uint64_t>(c.k), c.n);
    }
    return q;
  }

  /// One of each instance per count, interleaved by smooth weighted
  /// round-robin so the costly classes spread through the cycle.
  Session refine_cycle(const std::vector<RefineClass>& mix) {
    int total = 0;
    for (const RefineClass& c : mix) total += c.count;
    std::vector<int> credit(mix.size(), 0);
    Session out;
    for (int step = 0; step < total; ++step) {
      std::size_t pick = 0;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        credit[i] += mix[i].count;
        if (credit[i] > credit[pick]) pick = i;
      }
      credit[pick] -= total;
      out.push_back(refine_instance(mix[pick]));
    }
    return out;
  }

 private:
  Rng rng_;
  std::set<std::string> used_;
  std::size_t next_id_ = 0;
};

}  // namespace

std::string kstate_text(int n, int k, const std::vector<int>& init, int drop) {
  const std::string ks = std::to_string(k);
  std::string src = "system kstate_n" + std::to_string(n) + "_k" + ks + " {\n";
  src += var_decls("c", n, k);
  if (drop != 0)
    src += "  action bottom @0 : c0 == c" + std::to_string(n - 1) + " -> c0 := (c0 + 1) % " +
           ks + ";\n";
  for (int j = 1; j < n; ++j) {
    if (j == drop) continue;
    const std::string cj = "c" + std::to_string(j), cp = "c" + std::to_string(j - 1);
    src += "  action up" + std::to_string(j) + " @" + std::to_string(j) + " : " + cj + " != " +
           cp + " -> " + cj + " := " + cp + ";\n";
  }
  src += "  init : " + var_init("c", init) + ";\n}\n";
  return src;
}

std::string work_ring_text(int n, int k, int m, const std::vector<int>& c_init,
                           const std::vector<int>& w_init) {
  const std::string top = std::to_string(m - 1);
  std::string src = "system work_ring_n" + std::to_string(n) + " {\n";
  src += var_decls("c", n, k) + var_decls("w", n, m);
  for (int j = 0; j < n; ++j) {
    const std::string cj = "c" + std::to_string(j), wj = "w" + std::to_string(j);
    const std::string priv = j == 0 ? "c0 == c" + std::to_string(n - 1)
                                    : cj + " != c" + std::to_string(j - 1);
    const std::string move = j == 0 ? "c0 := (c0 + 1) % " + std::to_string(k)
                                    : cj + " := c" + std::to_string(j - 1);
    const std::string at = " @" + std::to_string(j) + " : ";
    src += "  action work" + std::to_string(j) + at + priv + " && " + wj + " < " + top +
           " -> " + wj + " := " + wj + " + 1;\n";
    src += "  action pass" + std::to_string(j) + at + priv + " && " + wj + " == " + top +
           " -> " + move + ", " + wj + " := 0;\n";
  }
  src += "  init : " + var_init("c", c_init) + " && " + var_init("w", w_init) + ";\n}\n";
  return src;
}

std::string utr_text(int n) {
  std::string src = "system utr_n" + std::to_string(n) + " {\n";
  for (int j = 0; j < n; ++j) src += "  var t" + std::to_string(j) + " : bool;\n";
  for (int j = 0; j < n; ++j) {
    const std::string tj = "t" + std::to_string(j);
    src += "  action pass" + std::to_string(j) + " : " + tj + " != 0 -> " + tj + " := 0, t" +
           std::to_string((j + 1) % n) + " := 1;\n";
  }
  std::vector<int> one(static_cast<std::size_t>(n), 0);
  one[0] = 1;
  src += "  init : " + var_init("t", one) + ";\n}\n";
  return src;
}

std::string privilege_alpha_text(int n) {
  const std::string last = "c" + std::to_string(n - 1);
  std::string src = "alpha kstate_privilege {\n  t0 := c0 == " + last + ";\n";
  std::string inv = "(c0 == " + last + ")";
  for (int j = 1; j < n; ++j) {
    const std::string cmp = "c" + std::to_string(j) + " != c" + std::to_string(j - 1);
    src += "  t" + std::to_string(j) + " := " + cmp + ";\n";
    inv += " + (" + cmp + ")";
  }
  src += "  invariant : " + inv + " == 1;\n}\n";
  return src;
}

std::vector<int> legit_state(int n, int k, int holder, int v) {
  // Processes before the holder already copied the incremented value.
  std::vector<int> s(static_cast<std::size_t>(n), v);
  for (int j = 0; j < holder; ++j) s[static_cast<std::size_t>(j)] = (v + 1) % k;
  if (privileges(s) != 1) throw std::logic_error("legit_state: not a one-privilege state");
  return s;
}

bool theory_holds(const std::string& family, Relation r, int n, int k) {
  if (family == "ablated") return false;
  if (family == "workring") return r == Relation::kConvergence;
  if (r == Relation::kStabilizing) return k >= n - 1;
  return true;
}

ColdSet make_cold_set(std::uint64_t seed, std::size_t sessions) {
  Generator gen(seed);
  ColdSet out;
  out.warmup = gen.session(kWarmupMix);
  for (std::size_t i = 0; i < sessions; ++i) out.sessions.push_back(gen.session(kColdMix));
  return out;
}

std::size_t cold_session_size() {
  std::size_t n = 0;
  for (const GroupClass& g : kColdMix) n += std::string(g.family) == "workring" ? 1 : 5;
  return n;
}

WarmSet make_warm_set(std::uint64_t seed, std::size_t sessions) {
  Generator gen(seed);
  WarmSet out;
  out.warmup = gen.session(kWarmupMix);
  // Pool ranks interleave the pairs in a fixed class order, so the
  // popular ranks hold the same classes under every seed; the seed
  // picks the instances and the order of each session's requests.
  std::vector<Session> groups;
  for (const GroupClass& g : kPoolMix) {
    const std::vector<int> a_init =
        legit_state(g.n, g.k, draw(gen.rng(), g.n), draw(gen.rng(), g.k));
    groups.push_back(gen.group(g, a_init));
  }
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (Session& g : groups) {
      if (i >= g.size()) continue;
      any = true;
      g[i].pool_index = out.pool.size();
      out.pool.push_back(g[i]);
    }
    if (!any) break;
  }
  // Every session draws the same multiset of ranks: rank r appears
  // 144 * w_r times rounded by largest remainder, w_r proportional to
  // 1 / r^s, in seeded order. So every session pays the same disk hits
  // (one per distinct rank) and memory hits.
  std::vector<double> weight;
  double total = 0;
  for (std::size_t r = 1; r <= out.pool.size(); ++r)
    total += weight.emplace_back(1.0 / std::pow(double(r), kZipfExponent));
  std::vector<std::size_t> counts(out.pool.size());
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t placed = 0;
  for (std::size_t r = 0; r < out.pool.size(); ++r) {
    const double exact = double(kWarmSessionSize) * weight[r] / total;
    counts[r] = static_cast<std::size_t>(exact);
    placed += counts[r];
    remainder.push_back({exact - double(counts[r]), r});
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (std::size_t i = 0; placed < kWarmSessionSize; ++i, ++placed) ++counts[remainder[i].second];
  std::vector<std::size_t> draws;
  for (std::size_t r = 0; r < counts.size(); ++r) draws.insert(draws.end(), counts[r], r);
  for (std::size_t s = 0; s < sessions; ++s) {
    shuffle(draws, gen.rng());
    out.sessions.push_back(draws);
  }
  return out;
}

RefineSet make_refine_set(std::uint64_t seed, std::size_t cycles) {
  Generator gen(seed);
  RefineSet out;
  out.warmup = gen.refine_cycle(kRefineWarmup);
  for (std::size_t i = 0; i < cycles; ++i) out.cycles.push_back(gen.refine_cycle(kRefineMix));
  return out;
}

std::size_t refine_cycle_size() {
  std::size_t n = 0;
  for (const RefineClass& c : kRefineMix) n += static_cast<std::size_t>(c.count);
  return n;
}

}  // namespace perfbench

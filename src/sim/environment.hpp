#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/fault.hpp"

namespace cref::sim {

/// Declarative description of a fault environment in the sense of
/// Dolev–Herman's "unsupportive environments": what the world does to a
/// run besides scheduling it. Three orthogonal mechanisms compose:
///
///   * start-state perturbation — a one-shot scramble and/or burst of
///     `burst` distinct-variable corruptions BEFORE step 0 (the fault
///     class the paper's stabilization results are about, and the only
///     one the simulator modeled before the environment layer);
///   * rate-based mid-run corruption — before each daemon step, with
///     probability `corruption_rate`, `corruption_vars` distinct
///     variables are rewritten to uniform domain values (the ongoing
///     transient faults of Dolev–Herman's rate regime);
///   * crash/restart — before each daemon step, with probability
///     `crash_rate`, one uniformly chosen live process crashes (its
///     actions are masked from the enabled set until it restarts; its
///     state freezes in place), and with probability `restart_rate` one
///     uniformly chosen crashed process restarts. At most `max_crashed`
///     processes are down at once (a crash draw with the cap reached is
///     consumed but has no effect, keeping the draw sequence aligned).
///
/// A spec is pure data so campaign sweeps can enumerate cells
/// declaratively and instantiate a fresh deterministic Environment per
/// run; see DESIGN.md §13 for the fault/step ordering and determinism
/// contract.
struct EnvironmentSpec {
  std::string name = "pristine";

  // One-shot start perturbation (degenerate environments).
  bool scramble_start = false;  // replace the start by a uniform state
  std::size_t burst = 0;        // then corrupt this many distinct vars

  // Rate-based mid-run corruption (per-round Bernoulli).
  double corruption_rate = 0.0;
  std::size_t corruption_vars = 1;

  // Crash/restart (per-round Bernoulli each).
  double crash_rate = 0.0;
  double restart_rate = 0.0;
  std::size_t max_crashed = 0;  // 0 = crashes never happen

  // Named constructors for the standard matrix axes.
  static EnvironmentSpec pristine();
  static EnvironmentSpec scramble();
  static EnvironmentSpec burst_of(std::size_t k);
  static EnvironmentSpec corruption(double rate, std::size_t vars = 1);
  static EnvironmentSpec crash_restart(double crash, double restart,
                                       std::size_t max_crashed = 1);
};

/// One run's instantiation of an EnvironmentSpec against a concrete
/// system: owns the fault RNG (a FaultInjector — every draw goes through
/// the same platform-deterministic uniform_below/chance discipline as
/// FaultInjector::corrupt, so a (spec, seed) pair replays bit-identically
/// on every platform) and the crashed-process mask.
///
/// Processes are the action-owner ids 0..P-1 of the system (P = one past
/// the largest Action::process). Wrapper/global actions with process -1
/// are never masked — there is no single process whose crash could stop
/// them.
class Environment {
 public:
  Environment(EnvironmentSpec spec, const System& sys, std::uint64_t seed);

  const EnvironmentSpec& spec() const { return spec_; }

  /// Applies the one-shot start perturbation (scramble, then burst) to
  /// `s`. Call exactly once, before the first legitimacy check.
  void perturb_start(StateVec& s);

  /// Draws this round's fault events against `s`, in the FIXED order
  /// crash -> restart -> corruption (the determinism contract: every
  /// round consumes the same conditional draw sequence, so two
  /// environments with equal (spec, seed) stay aligned forever).
  /// Returns true iff the state vector changed — the caller must then
  /// re-check legitimacy, because a fault can CREATE legitimacy just as
  /// well as destroy it.
  bool pre_step_faults(StateVec& s);

  /// True if the owning process of `a` is currently crashed (actions
  /// with process -1 are never masked).
  bool masks(const Action& a) const {
    return a.process >= 0 && static_cast<std::size_t>(a.process) < crashed_.size() &&
           crashed_[static_cast<std::size_t>(a.process)];
  }

  bool crashed(int process) const {
    return process >= 0 && static_cast<std::size_t>(process) < crashed_.size() &&
           crashed_[static_cast<std::size_t>(process)];
  }
  std::size_t crashed_count() const { return crashed_count_; }

  /// True if a run blocked in the current configuration (no executable
  /// action) can still be unblocked by future environment events:
  /// corruption can always perturb the state, and a crashed process can
  /// restart. Without either, a blocked run is permanently stuck.
  bool can_recover() const {
    return spec_.corruption_rate > 0.0 || (crashed_count_ > 0 && spec_.restart_rate > 0.0);
  }

  // Event counters (whole run).
  std::uint64_t corruption_events() const { return corruption_events_; }
  std::uint64_t crash_events() const { return crash_events_; }
  std::uint64_t restart_events() const { return restart_events_; }

 private:
  EnvironmentSpec spec_;
  const Space* space_;
  FaultInjector fi_;
  std::vector<char> crashed_;
  std::size_t crashed_count_ = 0;
  std::uint64_t corruption_events_ = 0;
  std::uint64_t crash_events_ = 0;
  std::uint64_t restart_events_ = 0;
};

}  // namespace cref::sim

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/space.hpp"

namespace cref {

/// An abstraction function alpha : Sigma_C -> Sigma_A relating the state
/// space of a concrete implementation to that of an abstract
/// specification (paper Section 2.3). The paper requires alpha to be
/// total (guaranteed by construction here) and onto; `is_onto()` checks
/// the latter and `missed_states()` reports counterexamples.
///
/// For the identity case (same-space refinement, Sections 2.1-2.2) use
/// `Abstraction::identity`.
class Abstraction {
 public:
  using MapFn = std::function<void(const StateVec& concrete, StateVec& abstract)>;

  /// Wraps a mapping over decoded states. The mapping is evaluated once
  /// per concrete state and cached in a dense table (the right trade for
  /// concrete spaces small enough to materialize anyway).
  Abstraction(std::string name, SpacePtr from, SpacePtr to, MapFn map);

  /// Identity abstraction on `space` (no table is materialized).
  static Abstraction identity(SpacePtr space);

  /// Wraps the mapping WITHOUT materializing the table: images are
  /// computed on demand (decode, map, encode). This is the only viable
  /// mode for a generated source — an eager table over a 10^8-state
  /// concrete space is 800 MB before the engine has done anything.
  /// Hot loops should go through apply_into with reused buffers.
  static Abstraction lazy(std::string name, SpacePtr from, SpacePtr to, MapFn map);

  const std::string& name() const { return name_; }
  const Space& from() const { return *from_; }
  const Space& to() const { return *to_; }
  bool is_identity() const { return table_.empty() && !map_; }

  /// Image of concrete state `s`. For lazy abstractions this allocates
  /// decode buffers per call — fine for diagnostics, wrong for sweeps
  /// (use apply_into).
  StateId apply(StateId s) const;

  /// Image of concrete state `s` through caller-owned decode buffers;
  /// allocation-free after warm-up in every mode.
  StateId apply_into(StateId s, StateVec& concrete, StateVec& abstract) const;

  /// True if every abstract state is the image of some concrete state.
  bool is_onto() const;

  /// Abstract states with no preimage (empty iff is_onto()).
  std::vector<StateId> missed_states() const;

 private:
  Abstraction() = default;
  void mark_hits(std::vector<char>& hit) const;
  std::string name_;
  SpacePtr from_;
  SpacePtr to_;
  std::vector<StateId> table_;  // empty => identity or lazy
  MapFn map_;                   // set => lazy (table_ stays empty)
};

}  // namespace cref

#pragma once

// The ranking synthesis of both static provers: the interference-ordered
// template pool and the one greedy lexicographic synthesizer that walks
// it. The stabilization prover (prove.cpp) synthesizes its ranking with
// it, the refinement prover (refine.cpp) its stutter and visible
// rankings — one template grammar, one search, three proof rules. The
// validators never call it: they re-check the resulting tuples with
// rank.hpp's re-checker.

#include <cstddef>
#include <string>
#include <vector>

#include "core/space.hpp"
#include "gcl/ast.hpp"
#include "prover/interference.hpp"
#include "prover/rank.hpp"

namespace cref::prover {

/// One ranking candidate from the template pool.
struct Candidate {
  std::string pretty;
  gcl::Expr expr;
};

/// The ordered template pool: guard indicators by dependency layer (DAG
/// programs only), the enabled count, linear sums over written
/// variables, per-variable terms (layer order), mod-k differences along
/// dependency edges, without expr_equal duplicates and at most 64
/// candidates. Order is the synthesis priority.
std::vector<Candidate> template_pool(const gcl::SystemAst& ast,
                                     const InterferenceGraph& ig);

/// What one action owes the ranking: the candidate's Delta for `action`
/// is decided under `context` plus, droppable, the ties Delta == 0 of
/// the components accepted before. A `strict` obligation is discharged
/// by a strict decrease (non-increase keeps it open, tied); otherwise
/// only non-increase is owed, at every component.
struct SymbolicObligation {
  std::size_t action = 0;
  std::vector<const gcl::Expr*> context;
  std::vector<bool> droppable;
  bool strict = true;
};

/// One enumerated row of `action`: `state` is a valuation of `fp`,
/// every other variable 0. A row is discharged by a strictly negative
/// Delta at the state; a positive one rejects the candidate, and so
/// does a Delta that reads outside `fp`.
struct PointRow {
  std::size_t action = 0;
  const StateVec* state = nullptr;
  const std::vector<std::size_t>* fp = nullptr;
};

struct LexSynthesis {
  std::vector<RankComponent> components;  // Template, most significant first
  /// Per accepted component, per obligation still open then (in
  /// obligation order): the decide outcome of its leg.
  struct Step {
    std::size_t obligation = 0;
    std::size_t component = 0;
    bool strict = false;  // strict decrease: the obligation is ranked here
    DecideOutcome outcome;
  };
  std::vector<Step> steps;
  std::vector<std::size_t> unranked;  // strict obligations never ranked
  std::size_t rows_left = 0;          // rows never strictly decreased
};

/// Greedy lexicographic synthesis: walks `pool` in order while a strict
/// obligation or a row is open and fewer than 16 components are
/// accepted. A candidate is rejected unless Delta <= 0 is proved for
/// every open obligation and holds at every open row; it is accepted
/// when it strictly decreases for one of them or, failing that, is not
/// provably constant for some open strict obligation. Strictly
/// decreased obligations and rows close.
LexSynthesis synthesize_ranking(const gcl::SystemAst& ast,
                                const std::vector<Candidate>& pool,
                                const std::vector<SymbolicObligation>& obligations,
                                const std::vector<PointRow>& rows,
                                const DecideOptions& opts);

}  // namespace cref::prover

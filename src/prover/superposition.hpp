#pragma once

// Graybox superposition checks for the paper's wrapper theorems.
// A wrapper W superposed on a base C yields a stabilizing composition
// (Theorems 3 and 5) only under side conditions that are purely static:
//
//   wrapper-nonterminating   W's own computation must be finite — W may
//                            only correct, never compute forever.
//                            Checked with prove_termination; a proof
//                            that validate_certificate accepts is
//                            reported as a Note naming the ranking.
//   wrapper-writes-foreign-var
//                            a wrapper action at process p must not
//                            write a base variable that the base's
//                            @process annotations assign to some OTHER
//                            process — graybox access is read-anything,
//                            write-only-your-own. Unannotated base
//                            actions (process -1) claim no ownership.
//
// Both findings are Warnings (the theorems' hypotheses, not parse
// errors); gcl_lint surfaces them under --prove [--base FILE].

#include <vector>

#include "gcl/ast.hpp"
#include "gcl/diag.hpp"
#include "prover/prove.hpp"

namespace cref::prover {

struct SuperpositionOptions {
  ProveOptions prove;  // budget etc. for the termination proof
};

/// Runs the side-condition checks on `wrapper`. `base` may be null
/// (the foreign-variable check is then skipped). The termination check
/// runs only for init-free systems — the repo's wrapper convention.
/// Throws std::invalid_argument when a base variable redeclared by the
/// wrapper has a different cardinality (the superposition is not over
/// the same state space).
std::vector<gcl::Diagnostic> check_superposition(const gcl::SystemAst& wrapper,
                                                 const gcl::SystemAst* base,
                                                 const SuperpositionOptions& opts = {});

}  // namespace cref::prover

#pragma once

// Static verifier for loop nests and transform plans: `lmre lint`.
//
// The paper's closed forms are only valid under preconditions the rest of
// the library assumes silently -- uniformly generated references for the
// Section 3.1 distinct-access formula, a one-dimensional null space
// (d == n-1) for the Section 3.2 kernel-reuse formula, lexicographic
// legality for every transformation of Section 4.  The lint pass manager
// runs a registry of checks over a parsed nest/program and turns those
// assumptions into reported facts (src/diag) instead of wrong numbers or
// mid-analysis exceptions.
//
// Check IDs are stable (tests and tools match on them); the letter encodes
// the severity class (E = error, W = warning, N = note):
//
//   LMRE-E001 subscript-bounds    touched subscript span exceeds the
//                                 declared extent (cannot fit at any base)
//   LMRE-W002 subscript-window    span fits, but the range lies outside
//                                 both the 0-based and the 1-based window
//   LMRE-E003 empty-loop          a loop range with zero iterations
//   LMRE-N004 degenerate-loop     a single-iteration loop level
//   LMRE-W005 non-uniform-refs    Section 3.1 precondition: references to
//                                 an array are not uniformly generated;
//                                 estimator falls back to range bounds
//   LMRE-W006 kernel-dimension    Section 3.2 precondition: access-matrix
//                                 null space has dimension >= 2 with
//                                 entangled subscript rows; the closed form
//                                 is replaced by a heuristic cap
//   LMRE-N007 estimator-extension multi-reference kernel-reuse case the
//                                 paper omits; lmre's documented extension
//   LMRE-W008 iteration-volume    iteration count exceeds the exact-
//                                 analysis threshold (the exact trace is
//                                 skipped; results rest on the estimate)
//   LMRE-E009 iteration-overflow  product of trip counts overflows Int64;
//                                 exact analyses would throw OverflowError
//   LMRE-W010 unused-array        declared but never referenced
//   LMRE-N011 write-only-array    written but never read anywhere in the
//                                 program (a pure output: every element
//                                 stays live to the end of the nest)
//   LMRE-W012 duplicate-ref       identical reference repeated within one
//                                 statement
//   LMRE-E013 illegal-plan        transform plan is not unimodular or
//                                 violates lexicographic legality on the
//                                 re-derived dependence set (Section 4)
//   LMRE-W014 plan-not-tileable   plan is legal but some transformed
//                                 distance has a negative component
//                                 (Irigoin/Triolet tiling precondition)
//   LMRE-N015 negative-base       subscripts reach below 0; lmre treats
//                                 arrays as relocatable index windows
//   LMRE-N016 plan-certified      positive verdict of an LMRE-E013 plan
//                                 re-certification (emitted for audit logs)
//   LMRE-E017 symbolic-unsupported  the symbolic analysis path (src/
//                                 symbolic) found no array with a closed
//                                 form; emitted by that path, not by
//                                 lint_nest
//   LMRE-N018 symbolic-partial    a specific per-array quantity was
//                                 declined by the symbolic path (the trace
//                                 oracle remains exact for it)
//   LMRE-E019 dependence-reversal the legality prover (src/verify) found a
//                                 concrete iteration pair whose execution
//                                 order the plan reverses; the witness is
//                                 attached and machine-checkable
//   LMRE-W020 direction-only      a verdict rests on direction-vector
//                                 granularity (non-uniform references); the
//                                 cone argument is sound but approximate
//   LMRE-N021 doall-certified     loop levels of the transformed nest that
//                                 carry no memory dependence (DOALL); from
//                                 the verify verb, not lint_nest
//   LMRE-N022 wavefront-race-free every memory dependence is carried by the
//                                 outermost transformed loop, so wavefront
//                                 inner levels run race-free; from the
//                                 verify verb, not lint_nest
//   LMRE-E000 check-failure       a check itself failed with an internal
//                                 error (never expected; reported, not thrown)

#include <set>
#include <string>
#include <vector>

#include "diag/diagnostic.h"
#include "ir/nest.h"
#include "ir/parser.h"
#include "linalg/mat.h"
#include "program/program.h"

namespace lmre {

struct LintOptions {
  /// LMRE-W008 threshold: warn when the iteration count exceeds this
  /// (analyses skip the exact trace well before it, so such a nest only
  /// ever gets the estimate).
  Int volume_warn_threshold = 100'000'000;

  /// Transform plan to re-certify against the nest's own dependences
  /// (LMRE-E013 / LMRE-W014).  Not owned; null = no plan checks.
  const IntMat* plan = nullptr;

  /// Re-derive a plan with optimize_locality() and certify that instead;
  /// `plan` takes precedence when both are set.
  bool audit_plan = false;

  /// Restrict output to these check IDs; empty = all checks.
  std::vector<std::string> enabled_ids;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;

  size_t count(Severity s) const;
  bool has_errors() const { return count(Severity::kError) > 0; }
  bool has_warnings() const { return count(Severity::kWarning) > 0; }
  /// Clean = no errors (the CLI's exit-code criterion).
  bool clean() const { return !has_errors(); }
};

/// One registered check ID, for documentation and `lint --list`.
struct LintCheckInfo {
  const char* id;            // "LMRE-E001"
  const char* name;          // "subscript-bounds"
  const char* precondition;  // the paper/section precondition it verifies
};

/// Every check ID the registry can emit, in ID order.
const std::vector<LintCheckInfo>& lint_checks();

/// Lints a single nest.  `map` (from parse_nest) attaches source spans to
/// the findings; pass nullptr for programmatically built nests.
LintResult lint_nest(const LoopNest& nest, const NestSourceMap* map = nullptr,
                     const LintOptions& opts = {});

/// Lints every phase of a program; cross-phase facts (an array written in
/// one phase but read in a later one) are taken into account.
LintResult lint_program(const Program& program, const ProgramSourceMap* map = nullptr,
                        const LintOptions& opts = {});

}  // namespace lmre

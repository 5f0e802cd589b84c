#pragma once

// The exact oracle: ground truth by enumeration.
//
// This plays the role the paper assigns to the "more expensive but exact"
// techniques of Clauss and Pugh: execute the nest (in original or
// transformed order), record every touched element, and compute the exact
// number of distinct accesses and the exact maximum window size (MWS).
//
// The reference window W_X(I) is the set of elements of X referenced at some
// iteration J1 <= I that are also referenced at some J2 > I (Section 2.3);
// MWS is max_I |W_X(I)|, and for multiple arrays max_I of the sum.

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "ir/general.h"
#include "ir/nest.h"
#include "linalg/mat.h"
#include "support/options.h"

namespace lmre {

class TraceArena;  // exact/trace_engine.h: reusable dense-engine storage

/// Visits every iteration of the nest in the chosen execution order
/// (`transform == nullptr` means original lexicographic order), calling
/// body(ordinal, iteration).  The building block under every simulation in
/// this module; exposed so other granularities (memory lines, tiles) can
/// reuse the exact ordering.
void visit_iterations(const LoopNest& nest, const IntMat* transform,
                      const std::function<void(Int, const IntVec&)>& body);

/// Chunked variant for rectangular nests in original order: the outermost
/// loop is split into contiguous slabs of full inner subspaces and the slabs
/// are visited concurrently on at most resolve_threads(threads) workers.
/// `body(slab, ordinal, iter)` receives the *global* lexicographic ordinal
/// (identical to visit_iterations), so per-slab state merged in slab order
/// reproduces the serial trace exactly.  `slab` is always smaller than
/// resolve_threads(threads); body runs concurrently for distinct slabs and
/// must only touch slab-local state.
void visit_iterations_chunked(const LoopNest& nest, int threads,
                              const std::function<void(size_t, Int, const IntVec&)>& body);

/// Exact per-nest measurements from one simulated execution.
struct TraceStats {
  Int iterations = 0;      ///< number of iterations executed
  Int total_accesses = 0;  ///< iterations x refs (per executed statement)

  Int distinct_total = 0;                 ///< distinct (array, element) pairs
  std::map<ArrayId, Int> distinct;        ///< per array
  Int reuse_total = 0;                    ///< total_accesses - distinct_total
  std::map<ArrayId, Int> reuse;           ///< per array

  Int mws_total = 0;                      ///< max_I sum_X |W_X(I)|
  std::map<ArrayId, Int> mws;             ///< per array: max_I |W_X(I)|
};

/// Executes the nest in original lexicographic order.
TraceStats simulate(const LoopNest& nest);

/// Parallel simulation over outer-loop slabs (visit_iterations_chunked):
/// each slab keeps its own touch map, maps are merged at slab boundaries
/// (first = min, last = max), and the window sweep runs on the merged trace.
/// Bit-identical to simulate(nest) for every thread count; threads <= 1
/// takes the serial path.
TraceStats simulate(const LoopNest& nest, int threads);

/// simulate reusing the caller's TraceArena: repeated runs against the same
/// nest (candidate scoring, verify loops) touch one allocation footprint
/// instead of rebuilding storage per call.  Results are identical to the
/// arena-free overloads.
TraceStats simulate(const LoopNest& nest, int threads, TraceArena& arena);

/// simulate under the shared pipeline options: worker count from
/// run.threads (the result does not depend on it).  Callers are expected
/// to gate on run.verify_limit themselves -- the oracle always runs when
/// called.
TraceStats simulate(const LoopNest& nest, const RunOptions& run);

/// Executes the nest under the unimodular transformation `t`: iterations are
/// visited in lexicographic order of u = t * i (the transformed loop), each
/// mapped back through t^-1 to evaluate the body's references.
TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t);

/// simulate_transformed reusing the caller's TraceArena (see above).
TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t,
                                TraceArena& arena);

/// Bounded simulate_transformed for candidate re-scoring: returns the
/// exact mws_total of the nest under `t` when it is below `bound`, and
/// nullopt once the trace has proven the window is at least `bound` --
/// usually long before the trace ends.  The proof is a checkpoint lower
/// bound: every ceil(iterations / 8) iterations the run re-arms a
/// checkpoint C at an iteration boundary and counts the elements touched
/// again after C whose previous touch was at or before C.  Each of them is
/// live across C, so the count never exceeds the window at C, and hence
/// the MWS.  Dense and sparse stores alike; a stopped run counts in
/// OracleStats::pruned_runs, and only its traced accesses in `accesses`.
std::optional<Int> window_below(const LoopNest& nest, const IntMat& t,
                                Int bound, TraceArena& arena);

/// Executes a general (non-rectangular) nest in lexicographic order of its
/// constraint space.
TraceStats simulate_general(const GeneralNest& nest);

/// Executes the nest visiting iterations in exactly the given order (each
/// entry an original-space iteration vector).  The caller is responsible for
/// the order being a permutation of the iteration space; used by the tiling
/// machinery to model blocked execution.
TraceStats simulate_order(const LoopNest& nest, const std::vector<IntVec>& order);

/// Total-window-size time series |sum_X W_X| per iteration ordinal, in the
/// given execution order (identity transform = original order).  Useful for
/// plotting/inspecting the dynamic behaviour of the window.
std::vector<Int> window_series(const LoopNest& nest, const IntMat& t);

/// window_series reusing the caller's TraceArena.
std::vector<Int> window_series(const LoopNest& nest, const IntMat& t,
                               TraceArena& arena);

/// Exact per-element lifetime statistics.  The lifetime of an element is
/// the number of iterations between its first and last access (0 when it is
/// touched in a single iteration only) -- Section 1's "time between the
/// first and last accesses to a given array location".
struct LifetimeStats {
  Int elements = 0;       ///< distinct elements
  Int live_elements = 0;  ///< elements with lifetime > 0
  Int max_lifetime = 0;
  Int total_lifetime = 0;  ///< sum over elements

  double mean_lifetime() const {
    return elements == 0 ? 0.0
                         : static_cast<double>(total_lifetime) /
                               static_cast<double>(elements);
  }
};

struct LifetimeReport {
  std::map<ArrayId, LifetimeStats> per_array;
  LifetimeStats total;
};

/// Measures lifetimes in original order.
LifetimeReport lifetime_report(const LoopNest& nest);

/// lifetime_report reusing the caller's TraceArena.
LifetimeReport lifetime_report(const LoopNest& nest, TraceArena& arena);

/// Measures lifetimes in transformed execution order.
LifetimeReport lifetime_report_transformed(const LoopNest& nest, const IntMat& t);

/// lifetime_report_transformed reusing the caller's TraceArena.
LifetimeReport lifetime_report_transformed(const LoopNest& nest,
                                           const IntMat& t, TraceArena& arena);

}  // namespace lmre

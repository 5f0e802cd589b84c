#pragma once

// Dense-address trace engine: the shared machinery under the exact oracle.
//
// Instead of hashing a heap-allocated (array, index-vector) key per access,
// the engine precomputes, per array, a rectangular bounding box of every
// subscript's affine range over the iteration box and maps each touched
// element to a single row-major uint64 address inside that box.  Because
// subscripts are affine in the iteration vector, the linearized address is
// itself an affine function of the scan coordinates: per reference the plan
// stores its coefficient vector, and the scan drivers advance the address
// with ONE add per access in the innermost loop (incremental affine
// stepping).  Per-element state (first/last-touch ordinals, liveness
// machine state) lives in flat SoA storage -- dense vectors when the box is
// small relative to the trace, a flat linear-probe table keyed by the u64
// address when sparse.  See DESIGN.md section 10.
//
// A TraceArena owns the flat storage and is reusable across runs: evaluating
// k candidate transforms against one nest touches one allocation footprint
// instead of rebuilding hash maps per candidate.  When a nest cannot be
// linearized (address-space products overflow the engine's bounds), plan
// construction fails and callers fall back to the retained hash-map engine
// in exact/reference.h -- behaviour is identical either way.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ir/nest.h"
#include "linalg/mat.h"
#include "polyhedra/scanner.h"
#include "support/checked.h"
#include "support/error.h"

namespace lmre {

/// Cumulative engine instrumentation, owned by a TraceArena and exported
/// through the runtime Metrics registry (`oracle.*` names) by the session.
struct OracleStats {
  Int runs = 0;            ///< dense-engine runs (simulate/liveness/... calls)
  Int pruned_runs = 0;     ///< bounded runs (window_below) stopped early
  Int fallback_runs = 0;   ///< linearization failed; reference engine used
  Int dense_stores = 0;    ///< per-array stores that took the dense path
  Int sparse_stores = 0;   ///< per-array stores that took the probe table
  Int elements = 0;        ///< distinct elements touched across runs
  Int accesses = 0;        ///< accesses traced across runs (pruned runs
                           ///< count only what they traced)
  Int sparse_probes = 0;   ///< linear-probe steps over all table operations
  Int sparse_ops = 0;      ///< table operations (probe-length denominator)
  double table_occupancy_peak = 0.0;  ///< max touched/capacity over tables
  Int arena_bytes = 0;             ///< current allocated store footprint
  Int arena_high_water_bytes = 0;  ///< peak footprint over the arena's life

  /// Folds another arena's counters into this one (peaks merge as max).
  void absorb(const OracleStats& o);
};

/// Linearization plan for one (nest, execution order) pair: per-array
/// address boxes and per-reference affine address coefficients in the scan
/// coordinates (iteration space, or the transformed u-space when built with
/// the transform's inverse).
struct AddressPlan {
  struct Store {
    ArrayId array = 0;
    std::vector<Int> lo;      ///< per-dimension box lower bound
    std::vector<Int> stride;  ///< row-major strides over the box
    Int volume = 0;           ///< product of box extents
    bool dense = true;        ///< flat vectors vs linear-probe table
    Int accesses = 0;         ///< traced accesses to this array
  };
  struct Ref {
    size_t store = 0;   ///< index into stores
    bool is_write = false;
    std::vector<Int> coef;  ///< address coefficients over scan coordinates
    Int c0 = 0;             ///< address constant term
  };

  std::vector<Store> stores;  ///< one per referenced array, ArrayId ascending
  std::vector<Ref> refs;      ///< per-iteration access order
  size_t depth = 0;
  Int iterations = 0;  ///< iteration-space volume (0 for depth-0 nests)

  /// Builds the plan.  `t_inv` is the inverse of the scan transform (null
  /// for original order): address coefficients are composed through it so
  /// stepping happens directly in u-space.  `liveness_order` lists each
  /// statement's reads before its writes (the value-liveness access order);
  /// otherwise refs appear in statement order.  `slabs` scales the dense
  /// budget down so a parallel run's per-slab copies stay bounded.
  /// Returns nullopt when any address-space product overflows the engine's
  /// bounds -- callers then use the reference engine.
  static std::optional<AddressPlan> build(const LoopNest& nest,
                                          const IntMat* t_inv,
                                          bool liveness_order, int slabs);
};

/// Reusable flat storage for trace runs plus cumulative OracleStats.  Not
/// thread-safe; parallel runs give each slab its own store set inside one
/// arena and merge at the end (dense first/last merge as vectorizable
/// min/max).
class TraceArena {
 public:
  OracleStats& stats() { return stats_; }
  const OracleStats& stats() const { return stats_; }

  /// Engine-internal per-array store buffer (exposed for the inline touch
  /// helpers and the drivers; not part of the public surface).
  struct StoreBuf {
    bool dense = true;
    Int volume = 0;
    // Dense SoA: first/last-touch ordinals (liveness reuses them as
    // birth/last-read).  first inits to kUntouchedFirst and last to
    // kUntouchedLast so slab merges are plain elementwise min/max.
    std::vector<Int> first, last;
    std::vector<unsigned char> tag;  ///< liveness machine state (dense)
    // Sparse: open-addressing linear-probe table, key = address + 1
    // (0 marks an empty slot), power-of-two capacity.
    std::vector<std::uint64_t> keys;
    std::vector<Int> kfirst, klast;
    std::vector<unsigned char> ktag;
    std::uint64_t mask = 0;  ///< capacity - 1
    bool with_state = false;
    Int touched = 0;
    Int probes = 0;     ///< per-run probe steps
    Int probe_ops = 0;  ///< per-run table operations
  };

  static constexpr Int kUntouchedFirst = INT64_MAX;
  static constexpr Int kUntouchedLast = -1;

  /// Resets (and, when needed, grows) `slabs` store sets for the plan,
  /// reusing previously allocated buffers.  `with_state` additionally
  /// prepares the liveness tag storage.
  void prepare(const AddressPlan& plan, size_t slabs, bool with_state);

  StoreBuf& store(size_t slab, size_t idx) { return slabs_[slab][idx]; }

  /// Merges slabs 1..slabs-1 into slab 0: dense first/last as elementwise
  /// min/max, sparse by re-upserting every occupied slot.  Recounts slab
  /// 0's touched totals.  first/last runs only (liveness is serial).
  void merge_slabs(const AddressPlan& plan, size_t slabs);

  /// Folds the finished run's instrumentation (elements, probe counts,
  /// store kinds, occupancy, footprint high-water) into stats().  A bounded
  /// run that stopped early passes the number of iterations it traced as
  /// `stopped_after`: it counts as a pruned run, and only those
  /// iterations' accesses count as traced.
  void finish_run(const AddressPlan& plan, size_t slabs,
                  std::optional<Int> stopped_after = std::nullopt);

  /// Exact windows of a finished first/last run (slab 0).
  struct WindowPeaks {
    std::vector<Int> per_store;  ///< max_I |W_X(I)| per plan store
    Int total = 0;               ///< max_I of the sum over stores
  };

  /// The window sweep shared by the oracle and codegen.  An element is
  /// live from its first to its last iteration when the two differ; each
  /// store's lifetimes scatter +1/-1 into an interleaved int32 delta
  /// buffer (iteration-major, one column per store), and ONE sequential
  /// prefix pass yields every store's peak and the peak of their sum
  /// while zeroing the buffer for the next sweep.  Stored ordinals are
  /// divided by `per_iteration` first (codegen records access ordinals,
  /// the oracle iteration ordinals).  int32 suffices: |delta[I]| is at
  /// most the number of references per iteration.  When `totals` is
  /// non-null it receives the summed window after each iteration
  /// (window_series).
  WindowPeaks sweep_windows(const AddressPlan& plan, Int iterations,
                            Int per_iteration = 1,
                            std::vector<Int>* totals = nullptr);

 private:
  /// Recomputes stats_.arena_bytes (stores + delta buffer) and the
  /// high-water mark.
  void account_bytes();

  std::vector<std::vector<StoreBuf>> slabs_;
  std::vector<std::int32_t> delta_;  ///< all zero between sweeps
  OracleStats stats_;
};

namespace trace_detail {

/// splitmix64 finalizer: the bucket hash of the sparse tables.
inline std::uint64_t mix_addr(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Doubles a sparse table's capacity and rehashes every occupied slot.
void grow_table(TraceArena::StoreBuf& s);

/// Finds the slot for `addr`, inserting an empty entry (first/last
/// untouched, tag 0) when absent.  Returns the slot index; sets *inserted.
inline size_t upsert_slot(TraceArena::StoreBuf& s, Int addr, bool* inserted) {
  const std::uint64_t key = static_cast<std::uint64_t>(addr) + 1;
  std::uint64_t i = mix_addr(static_cast<std::uint64_t>(addr)) & s.mask;
  Int probes = 1;
  while (s.keys[i] != 0 && s.keys[i] != key) {
    i = (i + 1) & s.mask;
    ++probes;
  }
  s.probes += probes;
  ++s.probe_ops;
  if (s.keys[i] == key) {
    *inserted = false;
    return static_cast<size_t>(i);
  }
  s.keys[i] = key;
  s.kfirst[i] = TraceArena::kUntouchedFirst;
  s.klast[i] = TraceArena::kUntouchedLast;
  if (s.with_state) s.ktag[i] = 0;
  ++s.touched;
  *inserted = true;
  if (s.touched * 10 > static_cast<Int>(s.mask + 1) * 7) {
    grow_table(s);
    // Re-locate after the rehash so the caller's slot index stays valid.
    std::uint64_t j = mix_addr(static_cast<std::uint64_t>(addr)) & s.mask;
    while (s.keys[j] != key) j = (j + 1) & s.mask;
    return static_cast<size_t>(j);
  }
  return static_cast<size_t>(i);
}

/// Records a first/last touch at `addr` with ordinal `ordinal`.
inline void touch_first_last(TraceArena::StoreBuf& s, Int addr, Int ordinal) {
  if (s.dense) {
    if (s.last[static_cast<size_t>(addr)] < 0) {
      s.first[static_cast<size_t>(addr)] = ordinal;
      s.last[static_cast<size_t>(addr)] = ordinal;
      ++s.touched;
    } else {
      s.last[static_cast<size_t>(addr)] = ordinal;
    }
    return;
  }
  bool inserted = false;
  size_t slot = upsert_slot(s, addr, &inserted);
  if (inserted) s.kfirst[slot] = ordinal;
  s.klast[slot] = ordinal;
}

/// touch_first_last for a bounded run, whose `ordinal` always lies after
/// the checkpoint iteration `checkpoint`: additionally counts, into
/// `live`, the elements whose previous touch is at or before the
/// checkpoint.  Each counted element is live across the checkpoint, and
/// its new last touch lies beyond it, so no element counts twice per
/// checkpoint.
inline void touch_counting(TraceArena::StoreBuf& s, Int addr, Int ordinal,
                           Int checkpoint, Int& live) {
  if (s.dense) {
    const size_t a = static_cast<size_t>(addr);
    const Int prev = s.last[a];
    if (prev < 0) {
      s.first[a] = ordinal;
      ++s.touched;
    } else {
      live += prev <= checkpoint;
    }
    s.last[a] = ordinal;
    return;
  }
  bool inserted = false;
  const size_t slot = upsert_slot(s, addr, &inserted);
  if (inserted) {
    s.kfirst[slot] = ordinal;
  } else {
    live += s.klast[slot] <= checkpoint;
  }
  s.klast[slot] = ordinal;
}

/// Tag bits of a codegen run (the store tag): the element's first access
/// was a read (an upward-exposed value), and some access wrote it.
constexpr unsigned char kTagFirstRead = 1;
constexpr unsigned char kTagWritten = 2;

/// Records an access at `addr` with ordinal `ordinal` into a with_state
/// store: first/last touch plus the tag bits above.  Returns true on the
/// element's first touch.
inline bool touch_tagged(TraceArena::StoreBuf& s, Int addr, Int ordinal,
                         bool write) {
  const unsigned char w = write ? kTagWritten : 0;
  if (s.dense) {
    const size_t a = static_cast<size_t>(addr);
    if (s.last[a] >= 0) {
      s.last[a] = ordinal;
      s.tag[a] |= w;
      return false;
    }
    s.first[a] = ordinal;
    s.last[a] = ordinal;
    s.tag[a] = write ? kTagWritten : kTagFirstRead;
    ++s.touched;
    return true;
  }
  bool inserted = false;
  const size_t slot = upsert_slot(s, addr, &inserted);
  s.klast[slot] = ordinal;
  if (!inserted) {
    s.ktag[slot] |= w;
    return false;
  }
  s.kfirst[slot] = ordinal;
  s.ktag[slot] = write ? kTagWritten : kTagFirstRead;
  return true;
}

/// First/last ordinals and tag of one touched element of a store.
struct ElementState {
  Int first = 0, last = 0;
  unsigned char tag = 0;
};

/// Looks up a touched element of a with_state store (dense: by address;
/// sparse: by probing).
inline ElementState element_at(const TraceArena::StoreBuf& s, Int addr) {
  if (s.dense) {
    const size_t a = static_cast<size_t>(addr);
    return {s.first[a], s.last[a], s.tag[a]};
  }
  const std::uint64_t key = static_cast<std::uint64_t>(addr) + 1;
  std::uint64_t i = mix_addr(static_cast<std::uint64_t>(addr)) & s.mask;
  while (s.keys[i] != key) i = (i + 1) & s.mask;
  return {s.kfirst[i], s.klast[i], s.ktag[i]};
}

/// Visits every touched element of a store as fn(first, last).
template <class Fn>
void for_each_touched(const TraceArena::StoreBuf& s, Fn&& fn) {
  if (s.dense) {
    for (size_t a = 0; a < static_cast<size_t>(s.volume); ++a) {
      if (s.last[a] >= 0) fn(s.first[a], s.last[a]);
    }
    return;
  }
  for (size_t i = 0; i < s.keys.size(); ++i) {
    if (s.keys[i] != 0) fn(s.kfirst[i], s.klast[i]);
  }
}

/// Evaluates a plan ref's address at an arbitrary scan point (the
/// non-incremental path: simulate_order and row bases).  128-bit
/// accumulation; the result is a valid in-box address, so it fits Int.
inline Int plan_address(const AddressPlan::Ref& r, const IntVec& point) {
  __int128 a = r.c0;
  for (size_t k = 0; k < r.coef.size(); ++k) {
    a += static_cast<__int128>(r.coef[k]) * point[k];
  }
  return static_cast<Int>(a);
}

}  // namespace trace_detail

/// Drives plan refs over the rows `rows(emit)` produces, in order: each
/// emit(u, lo, hi) is one innermost row with u's outer coordinates set and
/// u[n-1] == lo.  Per row, each reference's base address is evaluated once
/// and then advanced by its innermost coefficient per iteration
/// (incremental affine stepping).  `touch(ref_index, ordinal, addr)` runs
/// per access; ordinals count iterations from `ordinal0` (a slab's global
/// base).  `before(ordinal)` runs at the start of every iteration (the
/// bounded run's checkpoint hook; a no-op otherwise).  Returns the number
/// of iterations visited.
template <class RowsFn, class TouchFn, class IterFn>
Int drive_rows(const AddressPlan& plan, RowsFn&& rows, TouchFn&& touch,
               Int ordinal0, IterFn&& before) {
  const size_t n = plan.depth;
  if (n == 0) return 0;
  const size_t nrefs = plan.refs.size();
  std::vector<Int> addr(nrefs);
  std::vector<Int> step(nrefs);
  for (size_t r = 0; r < nrefs; ++r) step[r] = plan.refs[r].coef[n - 1];
  Int ordinal = ordinal0;
  rows([&](const IntVec& u, Int lo, Int hi) {
    for (size_t r = 0; r < nrefs; ++r) {
      addr[r] = trace_detail::plan_address(plan.refs[r], u);
    }
    for (Int j = lo; j <= hi; ++j) {
      before(ordinal);
      for (size_t r = 0; r < nrefs; ++r) {
        touch(r, ordinal, addr[r]);
        addr[r] += step[r];  // one overshoot per row; bounded by the plan
      }
      ++ordinal;
    }
  });
  return ordinal - ordinal0;
}

template <class RowsFn, class TouchFn>
Int drive_rows(const AddressPlan& plan, RowsFn&& rows, TouchFn&& touch,
               Int ordinal0 = 0) {
  return drive_rows(plan, std::forward<RowsFn>(rows),
                    std::forward<TouchFn>(touch), ordinal0, [](Int) {});
}

/// Drives the original-order scan of a rectangular (sub-)box: its rows in
/// lexicographic order, ordinals from `ordinal0`.
template <class TouchFn>
void drive_box(const AddressPlan& plan, const IntBox& box, Int ordinal0,
               TouchFn&& touch) {
  const size_t n = box.dims();
  if (n == 0) return;
  for (size_t k = 0; k < n; ++k) {
    if (box.range(k).trip_count() <= 0) return;
  }
  auto rows = [&](auto&& emit) {
    IntVec point(n);
    for (size_t k = 0; k < n; ++k) point[k] = box.range(k).lo;
    while (true) {
      emit(point, box.range(n - 1).lo, box.range(n - 1).hi);
      if (n == 1) return;
      size_t k = n - 2;
      while (point[k] == box.range(k).hi) {
        if (k == 0) return;
        point[k] = box.range(k).lo;
        --k;
      }
      ++point[k];
    }
  };
  drive_rows(plan, rows, std::forward<TouchFn>(touch), ordinal0);
}

/// The transformed-order row generator: u ranges over T * box in
/// lexicographic order, rows come from the polyhedral scanner, and each
/// row is emit(u, lo, hi) as drive_rows expects.  Row endpoints are mapped
/// back through `t_inv` and checked against the box -- the box is convex,
/// so endpoint containment covers the whole row.
template <class EmitFn>
void scan_transformed_rows(const LoopNest& nest, const IntMat& t_inv,
                           EmitFn&& emit) {
  const IntBox& box = nest.bounds();
  const size_t n = nest.depth();
  if (n == 0) return;
  ConstraintSystem sys(n);
  for (size_t k = 0; k < n; ++k) {
    AffineExpr expr(t_inv.row(k), 0);
    sys.add_range(expr, box.range(k).lo, box.range(k).hi);
  }
  scan_rows(sys, [&](const IntVec& u, Int lo, Int hi) {
    IntVec endpoint = u;  // u[n-1] == lo
    ensure(box.contains(t_inv * endpoint),
           "transformed scan left the iteration space");
    endpoint[n - 1] = hi;
    ensure(box.contains(t_inv * endpoint),
           "transformed scan left the iteration space");
    emit(u, lo, hi);
  });
}

/// Drives the transformed-order scan (scan_transformed_rows); each row's
/// addresses step incrementally in u-space (the plan's coefficients are
/// already composed through T^-1).  Returns the number of iterations
/// visited.
template <class TouchFn>
Int drive_transformed(const AddressPlan& plan, const LoopNest& nest,
                      const IntMat& t_inv, TouchFn&& touch) {
  auto rows = [&](auto&& emit) { scan_transformed_rows(nest, t_inv, emit); };
  return drive_rows(plan, rows, std::forward<TouchFn>(touch));
}

}  // namespace lmre

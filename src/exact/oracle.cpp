#include "exact/oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <vector>

#include "exact/reference.h"
#include "exact/trace_engine.h"
#include "polyhedra/scanner.h"
#include "support/error.h"
#include "support/parallel_for.h"

namespace lmre {

void visit_iterations(const LoopNest& nest, const IntMat* t,
                      const std::function<void(Int, const IntVec&)>& body) {
  Int ordinal = 0;
  if (t == nullptr) {
    scan(nest.bounds().to_constraints(), [&](const IntVec& iter) {
      body(ordinal++, iter);
    });
    return;
  }
  require(t->rows() == nest.depth() && t->cols() == nest.depth(),
          "simulate_transformed: transform shape mismatch");
  require(t->is_unimodular(), "simulate_transformed: transform not unimodular");
  IntMat t_inv = t->inverse_unimodular();
  // u ranges over the image T * box; the constraints are the box bounds
  // applied to i = T^-1 u.
  const IntBox& box = nest.bounds();
  const size_t n = nest.depth();
  ConstraintSystem sys(n);
  for (size_t k = 0; k < n; ++k) {
    AffineExpr expr(t_inv.row(k), 0);
    sys.add_range(expr, box.range(k).lo, box.range(k).hi);
  }
  scan(sys, [&](const IntVec& u) {
    IntVec iter = t_inv * u;
    ensure(box.contains(iter), "transformed scan left the iteration space");
    body(ordinal++, iter);
  });
}

void visit_iterations_chunked(const LoopNest& nest, int threads,
                              const std::function<void(size_t, Int, const IntVec&)>& body) {
  const size_t n = nest.depth();
  if (n == 0) return;
  const IntBox& box = nest.bounds();
  const Int outer_trips = box.range(0).trip_count();
  if (outer_trips <= 0) return;
  Int inner_volume = 1;
  for (size_t k = 1; k < n; ++k) {
    inner_volume = checked_mul(inner_volume, box.range(k).trip_count());
  }
  parallel_chunks(outer_trips, threads, /*grain=*/1,
                  [&](size_t slab, Int begin, Int end) {
    // The slab is the sub-box with the outer index restricted to
    // [lo + begin, lo + end - 1]; its first iteration has global ordinal
    // begin * inner_volume because every earlier outer value contributes a
    // full inner subspace.
    std::vector<Range> ranges = box.ranges();
    ranges[0] = Range{box.range(0).lo + begin, box.range(0).lo + end - 1};
    IntBox sub(std::move(ranges));
    Int ordinal = checked_mul(begin, inner_volume);
    scan(sub.to_constraints(), [&](const IntVec& iter) {
      body(slab, ordinal++, iter);
    });
  });
}

namespace {

// Per-ref pointers into one slab's store set, hoisted out of the touch
// callback so the innermost loop is one add + one store update per access.
std::vector<TraceArena::StoreBuf*> ref_bufs(const AddressPlan& plan,
                                            TraceArena& arena, size_t slab) {
  std::vector<TraceArena::StoreBuf*> bufs(plan.refs.size());
  for (size_t r = 0; r < plan.refs.size(); ++r) {
    bufs[r] = &arena.store(slab, plan.refs[r].store);
  }
  return bufs;
}

// Derives TraceStats from slab 0 of a finished first/last run.  The math
// mirrors the reference engine's stats_from_trace exactly: same map keys,
// same window horizons, same counter arithmetic.
TraceStats stats_from_stores(const AddressPlan& plan, TraceArena& arena,
                             Int iterations) {
  TraceStats s;
  s.iterations = iterations;
  s.total_accesses =
      checked_mul(iterations, static_cast<Int>(plan.refs.size()));

  std::vector<Int> ref_count(plan.stores.size(), 0);
  for (const auto& r : plan.refs) ++ref_count[r.store];

  const TraceArena::WindowPeaks w = arena.sweep_windows(plan, iterations);
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    const ArrayId array = plan.stores[si].array;
    const Int touched = arena.store(0, si).touched;
    if (touched > 0) {
      s.distinct[array] = touched;
      s.distinct_total = checked_add(s.distinct_total, touched);
      // Touched but never live across iterations still gets an entry.
      s.mws[array] = w.per_store[si];
    }
    s.reuse[array] = checked_sub(checked_mul(ref_count[si], iterations), touched);
  }
  s.reuse_total = checked_sub(s.total_accesses, s.distinct_total);
  s.mws_total = w.total;
  return s;
}

LifetimeReport lifetimes_from_stores(const AddressPlan& plan,
                                     TraceArena& arena) {
  LifetimeReport rep;
  for (size_t si = 0; si < plan.stores.size(); ++si) {
    const TraceArena::StoreBuf& b = arena.store(0, si);
    if (b.touched == 0) continue;
    LifetimeStats& per = rep.per_array[plan.stores[si].array];
    trace_detail::for_each_touched(b, [&](Int first, Int last) {
      Int life = last - first;
      auto bump = [&](LifetimeStats& st) {
        st.elements += 1;
        if (life > 0) st.live_elements += 1;
        st.max_lifetime = std::max(st.max_lifetime, life);
        st.total_lifetime = checked_add(st.total_lifetime, life);
      };
      bump(per);
      bump(rep.total);
    });
  }
  return rep;
}

// Serial original-order first/last run into slab 0.
void run_serial(const LoopNest& nest, const AddressPlan& plan,
                TraceArena& arena) {
  arena.prepare(plan, 1, /*with_state=*/false);
  auto bufs = ref_bufs(plan, arena, 0);
  drive_box(plan, nest.bounds(), /*ordinal0=*/0,
            [&](size_t r, Int ordinal, Int addr) {
    trace_detail::touch_first_last(*bufs[r], addr, ordinal);
  });
  arena.finish_run(plan, 1);
}

// Transformed-order first/last run into slab 0; returns iterations visited.
Int run_transformed(const LoopNest& nest, const AddressPlan& plan,
                    const IntMat& t_inv, TraceArena& arena) {
  arena.prepare(plan, 1, /*with_state=*/false);
  auto bufs = ref_bufs(plan, arena, 0);
  Int iters = drive_transformed(plan, nest, t_inv,
                                [&](size_t r, Int ordinal, Int addr) {
    trace_detail::touch_first_last(*bufs[r], addr, ordinal);
  });
  arena.finish_run(plan, 1);
  return iters;
}

// window_below's checkpoint cadence: a checkpoint is re-armed every
// ceil(iterations / kCheckpoints) iterations.
constexpr Int kCheckpoints = 8;

// Thrown out of the row scan once the lower bound reaches the bound.
struct BoundReached {
  Int iterations;  // iterations fully traced before the stop
};

}  // namespace

std::optional<Int> window_below(const LoopNest& nest, const IntMat& t,
                                Int bound, TraceArena& arena) {
  require(t.rows() == nest.depth() && t.cols() == nest.depth(),
          "simulate_transformed: transform shape mismatch");
  require(t.is_unimodular(), "simulate_transformed: transform not unimodular");
  IntMat t_inv = t.inverse_unimodular();
  auto plan = AddressPlan::build(nest, &t_inv, /*liveness_order=*/false, 1);
  if (!plan) {
    ++arena.stats().fallback_runs;
    const Int mws = reference::simulate_transformed(nest, t).mws_total;
    return mws < bound ? std::optional<Int>(mws) : std::nullopt;
  }
  arena.prepare(*plan, 1, /*with_state=*/false);
  auto bufs = ref_bufs(*plan, arena, 0);
  const Int cadence = std::max<Int>(ceil_div(plan->iterations, kCheckpoints), 1);
  Int checkpoint = -1;  // nothing is live across "before the first iteration"
  Int next_arm = 0;
  Int live = 0;
  // The hook runs at every iteration boundary: stop once the current
  // checkpoint's count proves the bound, re-arm on the cadence.
  auto before = [&](Int ordinal) {
    if (live >= bound) throw BoundReached{ordinal};
    if (ordinal == next_arm) {
      checkpoint = ordinal - 1;
      live = 0;
      next_arm += cadence;
    }
  };
  auto touch = [&](size_t r, Int ordinal, Int addr) {
    trace_detail::touch_counting(*bufs[r], addr, ordinal, checkpoint, live);
  };
  auto rows = [&](auto&& emit) { scan_transformed_rows(nest, t_inv, emit); };
  Int iters = 0;
  try {
    iters = drive_rows(*plan, rows, touch, /*ordinal0=*/0, before);
  } catch (const BoundReached& stop) {
    arena.finish_run(*plan, 1, stop.iterations);
    return std::nullopt;
  }
  arena.finish_run(*plan, 1);
  const Int mws = arena.sweep_windows(*plan, iters).total;
  return mws < bound ? std::optional<Int>(mws) : std::nullopt;
}

TraceStats simulate(const LoopNest& nest) {
  TraceArena arena;
  return simulate(nest, 1, arena);
}

TraceStats simulate(const LoopNest& nest, int threads, TraceArena& arena) {
  const int workers = resolve_threads(threads);
  const bool parallel = workers > 1 && nest.depth() > 0 &&
                        nest.bounds().range(0).trip_count() >= 2;
  const int slabs = parallel ? workers : 1;
  auto plan = AddressPlan::build(nest, nullptr, /*liveness_order=*/false, slabs);
  if (!plan) {
    ++arena.stats().fallback_runs;
    return parallel ? reference::simulate(nest, threads)
                    : reference::simulate(nest);
  }
  if (!parallel) {
    run_serial(nest, *plan, arena);
    return stats_from_stores(*plan, arena, plan->iterations);
  }
  // Outer-loop slabs with global ordinals (the visit_iterations_chunked
  // contract): each slab drives its sub-box into its own store set; dense
  // first/last merge as elementwise min/max afterwards.
  arena.prepare(*plan, static_cast<size_t>(slabs), /*with_state=*/false);
  const IntBox& box = nest.bounds();
  const size_t n = nest.depth();
  Int inner_volume = 1;
  for (size_t k = 1; k < n; ++k) {
    inner_volume = checked_mul(inner_volume, box.range(k).trip_count());
  }
  parallel_chunks(box.range(0).trip_count(), threads, /*grain=*/1,
                  [&](size_t slab, Int begin, Int end) {
    std::vector<Range> ranges = box.ranges();
    ranges[0] = Range{box.range(0).lo + begin, box.range(0).lo + end - 1};
    IntBox sub(std::move(ranges));
    auto bufs = ref_bufs(*plan, arena, slab);
    drive_box(*plan, sub, checked_mul(begin, inner_volume),
              [&](size_t r, Int ordinal, Int addr) {
      trace_detail::touch_first_last(*bufs[r], addr, ordinal);
    });
  });
  arena.merge_slabs(*plan, static_cast<size_t>(slabs));
  arena.finish_run(*plan, static_cast<size_t>(slabs));
  return stats_from_stores(*plan, arena, plan->iterations);
}

TraceStats simulate(const LoopNest& nest, int threads) {
  TraceArena arena;
  return simulate(nest, threads, arena);
}

TraceStats simulate(const LoopNest& nest, const RunOptions& run) {
  return simulate(nest, run.threads);
}

TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t,
                                TraceArena& arena) {
  require(t.rows() == nest.depth() && t.cols() == nest.depth(),
          "simulate_transformed: transform shape mismatch");
  require(t.is_unimodular(), "simulate_transformed: transform not unimodular");
  IntMat t_inv = t.inverse_unimodular();
  auto plan = AddressPlan::build(nest, &t_inv, /*liveness_order=*/false, 1);
  if (!plan) {
    ++arena.stats().fallback_runs;
    return reference::simulate_transformed(nest, t);
  }
  Int iters = run_transformed(nest, *plan, t_inv, arena);
  return stats_from_stores(*plan, arena, iters);
}

TraceStats simulate_transformed(const LoopNest& nest, const IntMat& t) {
  TraceArena arena;
  return simulate_transformed(nest, t, arena);
}

TraceStats simulate_order(const LoopNest& nest,
                          const std::vector<IntVec>& order) {
  auto plan = AddressPlan::build(nest, nullptr, /*liveness_order=*/false, 1);
  if (!plan) return reference::simulate_order(nest, order);
  TraceArena arena;
  arena.prepare(*plan, 1, /*with_state=*/false);
  auto bufs = ref_bufs(*plan, arena, 0);
  Int ordinal = 0;
  for (const IntVec& iter : order) {
    require(nest.bounds().contains(iter),
            "simulate_order: iteration outside the nest bounds");
    for (size_t r = 0; r < plan->refs.size(); ++r) {
      trace_detail::touch_first_last(
          *bufs[r], trace_detail::plan_address(plan->refs[r], iter), ordinal);
    }
    ++ordinal;
  }
  arena.finish_run(*plan, 1);
  return stats_from_stores(*plan, arena, ordinal);
}

LifetimeReport lifetime_report(const LoopNest& nest, TraceArena& arena) {
  auto plan = AddressPlan::build(nest, nullptr, /*liveness_order=*/false, 1);
  if (!plan) {
    ++arena.stats().fallback_runs;
    return reference::lifetime_report(nest);
  }
  run_serial(nest, *plan, arena);
  return lifetimes_from_stores(*plan, arena);
}

LifetimeReport lifetime_report(const LoopNest& nest) {
  TraceArena arena;
  return lifetime_report(nest, arena);
}

LifetimeReport lifetime_report_transformed(const LoopNest& nest,
                                           const IntMat& t,
                                           TraceArena& arena) {
  require(t.rows() == nest.depth() && t.cols() == nest.depth(),
          "simulate_transformed: transform shape mismatch");
  require(t.is_unimodular(), "simulate_transformed: transform not unimodular");
  IntMat t_inv = t.inverse_unimodular();
  auto plan = AddressPlan::build(nest, &t_inv, /*liveness_order=*/false, 1);
  if (!plan) {
    ++arena.stats().fallback_runs;
    return reference::lifetime_report_transformed(nest, t);
  }
  run_transformed(nest, *plan, t_inv, arena);
  return lifetimes_from_stores(*plan, arena);
}

LifetimeReport lifetime_report_transformed(const LoopNest& nest,
                                           const IntMat& t) {
  TraceArena arena;
  return lifetime_report_transformed(nest, t, arena);
}

std::vector<Int> window_series(const LoopNest& nest, const IntMat& t,
                               TraceArena& arena) {
  require(t.rows() == nest.depth() && t.cols() == nest.depth(),
          "simulate_transformed: transform shape mismatch");
  require(t.is_unimodular(), "simulate_transformed: transform not unimodular");
  IntMat t_inv = t.inverse_unimodular();
  auto plan = AddressPlan::build(nest, &t_inv, /*liveness_order=*/false, 1);
  if (!plan) {
    ++arena.stats().fallback_runs;
    return reference::window_series(nest, t);
  }
  Int iters = run_transformed(nest, *plan, t_inv, arena);
  std::vector<Int> series;
  series.reserve(static_cast<size_t>(iters));
  arena.sweep_windows(*plan, iters, 1, &series);
  return series;
}

std::vector<Int> window_series(const LoopNest& nest, const IntMat& t) {
  TraceArena arena;
  return window_series(nest, t, arena);
}

}  // namespace lmre

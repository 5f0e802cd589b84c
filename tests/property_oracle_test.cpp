// Differential property suite for the dense-address trace engine: on random
// nests, the paper kernels, and the shipped .loop corpus, every public
// oracle entry point must reproduce the retained reference (hash-map)
// implementation field for field -- TraceStats, LivenessStats, lifetime
// reports, and window series; serial and slab-parallel; original and
// transformed order; dense, sparse, and overflow-fallback storage paths.
// ~200 random nests per run (100 seeds x 2 depths), fixed seeds so failures
// reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

#include "codes/extra_kernels.h"
#include "codes/kernels.h"
#include "exact/liveness.h"
#include "exact/oracle.h"
#include "exact/reference.h"
#include "exact/trace_engine.h"
#include "ir/builder.h"
#include "ir/parser.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xD15EA5E + seed); }

void expect_trace_eq(const TraceStats& got, const TraceStats& want,
                     const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.total_accesses, want.total_accesses);
  EXPECT_EQ(got.distinct_total, want.distinct_total);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.reuse_total, want.reuse_total);
  EXPECT_EQ(got.reuse, want.reuse);
  EXPECT_EQ(got.mws_total, want.mws_total);
  EXPECT_EQ(got.mws, want.mws);
}

void expect_liveness_eq(const LivenessStats& got, const LivenessStats& want,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.max_live, want.max_live);
  EXPECT_EQ(got.per_array, want.per_array);
  EXPECT_EQ(got.input_elements, want.input_elements);
}

void expect_lifetimes_eq(const LifetimeReport& got, const LifetimeReport& want,
                         const std::string& what) {
  SCOPED_TRACE(what);
  auto eq = [](const LifetimeStats& a, const LifetimeStats& b) {
    EXPECT_EQ(a.elements, b.elements);
    EXPECT_EQ(a.live_elements, b.live_elements);
    EXPECT_EQ(a.max_lifetime, b.max_lifetime);
    EXPECT_EQ(a.total_lifetime, b.total_lifetime);
  };
  ASSERT_EQ(got.per_array.size(), want.per_array.size());
  auto gi = got.per_array.begin();
  auto wi = want.per_array.begin();
  for (; gi != got.per_array.end(); ++gi, ++wi) {
    EXPECT_EQ(gi->first, wi->first);
    eq(gi->second, wi->second);
  }
  eq(got.total, want.total);
}

// Depth-matched unimodular transforms to exercise the composed (T^-1)
// stepping: identity, interchange, reversal, skew.
std::vector<IntMat> transforms_for(size_t depth) {
  if (depth == 2) {
    return {IntMat::identity(2), IntMat{{0, 1}, {1, 0}}, IntMat{{-1, 0}, {0, 1}},
            IntMat{{1, 0}, {1, 1}}, IntMat{{1, 1}, {0, 1}}};
  }
  if (depth == 3) {
    return {IntMat::identity(3), IntMat{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}},
            IntMat{{1, 0, 0}, {1, 1, 0}, {0, 0, 1}}};
  }
  return {IntMat::identity(depth)};
}

// Every entry point, engine vs reference, on one nest.
void expect_engine_matches_reference(const LoopNest& nest,
                                     const std::string& what) {
  expect_trace_eq(simulate(nest), reference::simulate(nest), what + " serial");
  for (int threads : {2, 4, 0}) {
    expect_trace_eq(simulate(nest, threads), reference::simulate(nest, threads),
                    what + " threads=" + std::to_string(threads));
  }
  expect_liveness_eq(min_memory_liveness(nest),
                     reference::min_memory_liveness(nest), what + " liveness");
  expect_lifetimes_eq(lifetime_report(nest), reference::lifetime_report(nest),
                      what + " lifetimes");
  for (const IntMat& t : transforms_for(nest.depth())) {
    const std::string tag = what + " t=" + t.str();
    expect_trace_eq(simulate_transformed(nest, t),
                    reference::simulate_transformed(nest, t), tag);
    EXPECT_EQ(window_series(nest, t), reference::window_series(nest, t)) << tag;
    expect_liveness_eq(min_memory_liveness(nest, &t),
                       reference::min_memory_liveness(nest, &t),
                       tag + " liveness");
    expect_lifetimes_eq(lifetime_report_transformed(nest, t),
                        reference::lifetime_report_transformed(nest, t),
                        tag + " lifetimes");
  }
}

// Random 2-deep nest: a write/read pair on a 2-d array plus a 1-d
// reduction-style target, random small offsets.
LoopNest random_nest2(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 11), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  ArrayId a = b.array("A", {n1 + 6, n2 + 6});
  ArrayId s = b.array("S", {n1 + n2 + 10});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3})
      .read(a, {{1, 0}, {0, 1}}, {off(rng) + 3, off(rng) + 3});
  b.statement().write(s, IntMat{{1, 1}}, IntVec{3}).read(s, IntMat{{1, 1}},
                                                         {off(rng) + 3});
  return b.build();
}

// Random 3-deep nest over a 2-d array with a skewed affine access.
LoopNest random_nest3(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 7), coef(0, 2), off(-2, 2);
  Int n1 = bnd(rng), n2 = bnd(rng), n3 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2).loop("k", 1, n3);
  ArrayId a = b.array("A", {60, 60});
  ArrayId s = b.array("S", {40});
  Int c1 = coef(rng), c2 = coef(rng) + 1;
  b.statement().read(a, IntMat{{1, 0, c1}, {0, 1, c2}},
                     {off(rng) + 5, off(rng) + 5});
  b.statement().write(s, IntMat{{1, 1, 0}}, IntVec{4});
  return b.build();
}

class OracleEngineProperty : public ::testing::TestWithParam<int> {};

TEST_P(OracleEngineProperty, MatchesReference2Deep) {
  auto rng = rng_for(GetParam());
  expect_engine_matches_reference(random_nest2(rng),
                                  "seed " + std::to_string(GetParam()));
}

TEST_P(OracleEngineProperty, MatchesReference3Deep) {
  auto rng = rng_for(1000 + GetParam());
  expect_engine_matches_reference(random_nest3(rng),
                                  "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OracleEngineProperty, ::testing::Range(0, 100));

// Random wide nest for the shared window sweep: 3-4 arrays and 6-9 refs
// per iteration over random 2-deep affine subscripts, so the sweep's
// interleaved delta columns and its one prefix pass see several stores
// with overlapping lifetimes.
LoopNest random_wide_nest(std::mt19937& rng) {
  std::uniform_int_distribution<Int> bnd(3, 12), coef(-1, 2), off(0, 3);
  std::uniform_int_distribution<int> arrays(3, 4), refs(6, 9), pct(0, 99);
  Int n1 = bnd(rng), n2 = bnd(rng);
  NestBuilder b;
  b.loop("i", 1, n1).loop("j", 1, n2);
  std::vector<ArrayId> ids;
  const int na = arrays(rng);
  for (int a = 0; a < na; ++a) {
    ids.push_back(b.array("A" + std::to_string(a), {200, 200}));
  }
  const int nr = refs(rng);
  for (int r = 0; r < nr; r += 3) {
    auto stmt = b.statement();
    for (int k = r; k < std::min(nr, r + 3); ++k) {
      // Every array gets at least one reference.
      ArrayId id = k < na ? ids[static_cast<size_t>(k)]
                          : ids[static_cast<size_t>(pct(rng)) % ids.size()];
      IntMat m{{coef(rng), coef(rng)}, {coef(rng), coef(rng)}};
      IntVec o{off(rng) + 30, off(rng) + 30};
      if (k == r && pct(rng) < 60) {
        stmt.write(id, m, o);
      } else {
        stmt.read(id, m, o);
      }
    }
  }
  return b.build();
}

// The window sweep the oracle and codegen share: per-array mws, distinct
// and reuse plus mws_total equal the reference engine's, serial and
// slab-parallel, original and transformed order, through one arena whose
// delta buffer is reused across nests of different store counts.
TEST(OracleWindowSweep, WideNestsMatchReferencePerArray) {
  TraceArena arena;
  for (int seed = 0; seed < 60; ++seed) {
    auto rng = rng_for(7000 + seed);
    LoopNest nest = random_wide_nest(rng);
    const std::string what = "wide seed " + std::to_string(seed);
    ASSERT_GE(nest.arrays().size(), 3u) << what;
    size_t refs = 0;
    for (const auto& stmt : nest.statements()) refs += stmt.refs.size();
    ASSERT_GE(refs, 6u) << what;
    expect_trace_eq(simulate(nest, 1, arena), reference::simulate(nest), what);
    expect_trace_eq(simulate(nest, 3, arena), reference::simulate(nest, 3),
                    what + " threads=3");
    for (const IntMat& t : transforms_for(2)) {
      expect_trace_eq(simulate_transformed(nest, t, arena),
                      reference::simulate_transformed(nest, t),
                      what + " t=" + t.str());
    }
  }
}

// Arrays never live across iterations (each element touched in exactly
// one iteration) still report distinct/reuse and an mws entry of 0, next
// to an array that is live.
TEST(OracleWindowSweep, NeverLiveArraysReportZeroWindows) {
  NestBuilder b;
  b.loop("i", 1, 9).loop("j", 1, 7);
  ArrayId a = b.array("A", {12, 12});
  ArrayId c = b.array("C", {12, 12});
  ArrayId d = b.array("D", {12, 12});
  b.statement()
      .write(a, {{1, 0}, {0, 1}}, {0, 0})
      .read(a, {{1, 0}, {0, 1}}, {0, 0})
      .read(c, {{0, 1}, {1, 0}}, {1, 1})
      .read(d, {{1, 0}, {0, 1}}, {2, 0});
  b.statement()
      .write(d, {{1, 0}, {0, 1}}, {2, 0})
      .read(c, {{0, 1}, {1, 0}}, {1, 1});
  LoopNest never = b.build();
  TraceStats got = simulate(never);
  expect_trace_eq(got, reference::simulate(never), "never live");
  EXPECT_EQ(got.mws_total, 0);
  ASSERT_EQ(got.mws.size(), 3u);
  for (const auto& [array, mws] : got.mws) EXPECT_EQ(mws, 0) << array;

  NestBuilder m;
  m.loop("i", 1, 9).loop("j", 1, 7);
  ArrayId ma = m.array("A", {12, 12});
  ArrayId ms = m.array("S", {12});
  m.statement()
      .write(ma, {{1, 0}, {0, 1}}, {0, 0})
      .read(ms, IntMat{{1, 0}}, IntVec{1});
  LoopNest mixed = m.build();
  TraceStats mixed_got = simulate(mixed);
  expect_trace_eq(mixed_got, reference::simulate(mixed), "mixed");
  EXPECT_EQ(mixed_got.mws.at(ma), 0);
  EXPECT_EQ(mixed_got.mws.at(ms), 1);
  for (const IntMat& t : transforms_for(2)) {
    expect_trace_eq(simulate_transformed(mixed, t),
                    reference::simulate_transformed(mixed, t),
                    "mixed t=" + t.str());
  }
}

// A huge stride blows the element box far past the access count, forcing
// the sparse linear-probe path; results must not change.
TEST(OracleEngineStorage, SparseTableMatchesReference) {
  constexpr Int kStride = Int{1} << 19;
  NestBuilder b;
  b.loop("i", 1, 24).loop("j", 1, 24);
  ArrayId a = b.array("A", {Int{1} << 34});
  b.statement()
      .write(a, IntMat{{kStride, 1}}, IntVec{0})
      .read(a, IntMat{{kStride, 1}}, IntVec{1});
  LoopNest nest = b.build();

  TraceArena arena;
  expect_trace_eq(simulate(nest, 1, arena), reference::simulate(nest), "sparse");
  EXPECT_GT(arena.stats().sparse_stores, 0);
  EXPECT_EQ(arena.stats().fallback_runs, 0);
  expect_engine_matches_reference(nest, "sparse all entry points");
}

// Coefficients big enough that the element-box volume overflows the
// engine's address bound: plan construction must fail and every entry point
// must fall back to the reference engine transparently.
TEST(OracleEngineStorage, OverflowFallsBackToReference) {
  constexpr Int kHuge = Int{1} << 35;
  NestBuilder b;
  b.loop("i", 1, 4).loop("j", 1, 4);
  ArrayId a = b.array("A", {Int{1} << 40, Int{1} << 40});
  b.statement()
      .write(a, IntMat{{kHuge, 0}, {0, kHuge}}, IntVec{0, 0})
      .read(a, IntMat{{kHuge, 0}, {0, kHuge}}, IntVec{0, 1});
  LoopNest nest = b.build();

  TraceArena arena;
  expect_trace_eq(simulate(nest, 1, arena), reference::simulate(nest),
                  "overflow fallback");
  EXPECT_GT(arena.stats().fallback_runs, 0);
  EXPECT_EQ(arena.stats().runs, 0);
  expect_liveness_eq(min_memory_liveness(nest),
                     reference::min_memory_liveness(nest),
                     "overflow fallback liveness");
}

// One arena reused across different nests, transforms, and entry points
// must keep producing fresh-arena results (buffer reuse may not leak state
// between runs).
TEST(OracleEngineArena, ReuseAcrossNestsIsStateless) {
  TraceArena arena;
  for (int seed = 0; seed < 12; ++seed) {
    auto rng = rng_for(5000 + seed);
    LoopNest nest = seed % 2 == 0 ? random_nest2(rng) : random_nest3(rng);
    const std::string what = "arena seed " + std::to_string(seed);
    expect_trace_eq(simulate(nest, 1, arena), reference::simulate(nest), what);
    expect_trace_eq(simulate(nest, 4, arena),
                    reference::simulate(nest, 4), what + " threads=4");
    for (const IntMat& t : transforms_for(nest.depth())) {
      expect_trace_eq(simulate_transformed(nest, t, arena),
                      reference::simulate_transformed(nest, t),
                      what + " t=" + t.str());
      expect_liveness_eq(min_memory_liveness(nest, &t, arena),
                         reference::min_memory_liveness(nest, &t),
                         what + " liveness t=" + t.str());
      EXPECT_EQ(window_series(nest, t, arena), reference::window_series(nest, t))
          << what;
    }
    expect_lifetimes_eq(lifetime_report(nest, arena),
                        reference::lifetime_report(nest), what + " lifetimes");
  }
  EXPECT_GT(arena.stats().runs, 0);
  EXPECT_GT(arena.stats().arena_high_water_bytes, 0);
}

TEST(OracleEngineOrder, SimulateOrderMatchesReference) {
  auto rng = rng_for(424242);
  LoopNest nest = random_nest2(rng);
  // Reverse-lexicographic replay: a legal order the incremental stepping
  // cannot shortcut.
  std::vector<IntVec> order;
  visit_iterations(nest, nullptr, [&](Int, const IntVec& iter) {
    order.push_back(iter);
  });
  std::reverse(order.begin(), order.end());
  expect_trace_eq(simulate_order(nest, order),
                  reference::simulate_order(nest, order), "reverse order");
}

TEST(OracleEngineEdge, EmptyAndDegenerateNests) {
  {
    // Empty iteration space (the builder refuses empty ranges; build the IR
    // directly).
    LoopNest nest({"i", "j"}, IntBox({Range{1, 0}, Range{1, 5}}),
                  {Array{"A", {10}}},
                  {Statement{{ArrayRef{0, AccessKind::kWrite, IntMat{{1, 0}},
                                       IntVec{0}}}}});
    expect_engine_matches_reference(nest, "empty box");
  }
  {
    NestBuilder b;
    b.loop("i", 1, 1).loop("j", 1, 1);  // single iteration
    ArrayId a = b.array("A", {4});
    b.statement().write(a, IntMat{{1, 1}}, IntVec{0}).read(a, IntMat{{1, 1}},
                                                           IntVec{0});
    LoopNest nest = b.build();
    expect_engine_matches_reference(nest, "single iteration");
  }
}

TEST(OraclePaperKernels, Figure2SuiteMatchesReference) {
  for (auto& e : codes::figure2_suite()) {
    expect_trace_eq(simulate(e.nest), reference::simulate(e.nest), e.name);
    expect_trace_eq(simulate(e.nest, 4), reference::simulate(e.nest, 4),
                    e.name + " threads=4");
    expect_liveness_eq(min_memory_liveness(e.nest),
                       reference::min_memory_liveness(e.nest),
                       e.name + " liveness");
  }
}

TEST(OraclePaperKernels, ExtraSuiteMatchesReference) {
  for (auto& [name, nest] : codes::extra_suite()) {
    expect_trace_eq(simulate(nest), reference::simulate(nest), name);
    expect_trace_eq(simulate(nest, 4), reference::simulate(nest, 4),
                    name + " threads=4");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; the loop files live in the
// source tree.  Probe a couple of plausible roots.
std::string loops_dir() {
  for (const char* base : {"examples/loops/", "../examples/loops/",
                           "../../examples/loops/", "../../../examples/loops/"}) {
    if (!read_file(std::string(base) + "matmult.loop").empty()) return base;
  }
  return "";
}

TEST(OracleLoopCorpus, EveryShippedFileMatchesReference) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  int checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    std::string source = read_file(entry.path().string());
    ASSERT_FALSE(source.empty()) << entry.path();
    Program program = parse_program(source);
    for (size_t k = 0; k < program.phase_count(); ++k) {
      const LoopNest& nest = program.phase_nest(k);
      if (nest.iteration_count() > 2'000'000) continue;
      const std::string what =
          entry.path().filename().string() + " phase " + std::to_string(k);
      expect_trace_eq(simulate(nest), reference::simulate(nest), what);
      expect_liveness_eq(min_memory_liveness(nest),
                         reference::min_memory_liveness(nest),
                         what + " liveness");
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace lmre

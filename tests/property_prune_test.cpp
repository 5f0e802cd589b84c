// Differential suite for bound-pruned re-scoring.
//
//  (a) window_below on random nests (three arrays, dense and sparse
//      stores, random bounds): the exact window comes back exactly when it
//      is below the bound, and nullopt only when the reference oracle's
//      window reaches the bound.
//  (b) optimize_locality, pruned, against exhaustive re-scoring of the same
//      plan set with the reference engine: same transform, method,
//      mws_exact and mws_identity on 200 random 2-4-deep nests and the
//      .loop corpus, at 1, 2 and 4 threads, with and without a known
//      identity window.
//  (c) every CandidatePlan score equals the public predicted_mws_after.
//
// Fixed seeds so failures reproduce.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>

#include "exact/oracle.h"
#include "exact/reference.h"
#include "exact/trace_engine.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "transform/minimizer.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xB0B0CAFE + seed); }

IntMat random_access(std::mt19937& rng, size_t rows, size_t depth) {
  std::uniform_int_distribution<Int> coef(-1, 2);
  IntMat m(rows, depth);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < depth; ++c) m(r, c) = coef(rng);
  }
  return m;
}

// Random `depth`-deep nest over three arrays: a 2-d array written and read
// under one random access matrix (uniformly generated references with
// random offsets, so constant-distance dependences), a 1-d array read
// twice under a random row, and a 1-d accumulator.  `sparse` gives the 1-d
// read a huge outer stride, forcing its store onto the probe table.
LoopNest random_nest(std::mt19937& rng, size_t depth, bool sparse) {
  const Int max_extent = depth == 2 ? 24 : depth == 3 ? 10 : 6;
  std::uniform_int_distribution<Int> ext(2, max_extent), off(-2, 2);
  NestBuilder b;
  const char* names[] = {"i", "j", "k", "l"};
  for (size_t k = 0; k < depth; ++k) b.loop(names[k], 1, ext(rng));
  ArrayId a = b.array("A", {64, 64});
  ArrayId x = b.array("X", {Int{1} << 30});
  ArrayId s = b.array("S", {128});
  IntMat acc = random_access(rng, 2, depth);
  IntMat row = random_access(rng, 1, depth);
  if (sparse) row(0, 0) = Int{1} << 19;
  b.statement()
      .write(a, acc, IntVec{off(rng) + 8, off(rng) + 8})
      .read(a, acc, IntVec{off(rng) + 8, off(rng) + 8})
      .read(x, row, IntVec{off(rng) + 8})
      .read(x, row, IntVec{off(rng) + 8});
  IntMat srow = random_access(rng, 1, depth);
  b.statement().write(s, srow, IntVec{8}).read(s, srow, IntVec{off(rng) + 8});
  return b.build();
}

size_t depth_for(int seed) { return 2 + static_cast<size_t>(seed % 3); }

// ---------------------------------------------------------------------------
// (a) window_below soundness.

class WindowBelowProperty : public ::testing::TestWithParam<int> {};

TEST_P(WindowBelowProperty, ExactBelowTheBoundNulloptOnlyAtOrAbove) {
  for (bool sparse : {false, true}) {
    auto rng = rng_for(GetParam() * 2 + (sparse ? 1 : 0));
    const LoopNest nest = random_nest(rng, depth_for(GetParam()), sparse);
    // A few candidate orders (permutations, skews, embeddings) whose
    // transformed scan stays small.
    const std::vector<CandidatePlan> candidates = candidate_plans(nest);
    TraceArena arena;
    for (const CandidatePlan* p : rescoring_set(nest, candidates, 4, 20'000)) {
      const Int truth = reference::simulate_transformed(nest, p->t).mws_total;
      std::uniform_int_distribution<Int> any(0, 2 * truth + 2);
      for (Int bound : {Int{0}, Int{1}, truth / 2, truth - 1, truth, truth + 1,
                        any(rng), any(rng)}) {
        SCOPED_TRACE("sparse " + std::to_string(sparse) + " t=" + p->t.str() +
                     " truth " + std::to_string(truth) + " bound " +
                     std::to_string(bound));
        const std::optional<Int> got = window_below(nest, p->t, bound, arena);
        if (truth < bound) {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, truth);
        } else {
          EXPECT_FALSE(got.has_value()) << *got;
        }
      }
    }
    if (sparse) {
      EXPECT_GT(arena.stats().sparse_stores, 0);
    }
    EXPECT_EQ(arena.stats().fallback_runs, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowBelowProperty, ::testing::Range(0, 60));

// A run stopped early counts as pruned and as a run, and only its traced
// accesses count; an unreachable bound traces everything.
TEST(WindowBelow, PrunedRunsCountOnlyTracedAccesses) {
  NestBuilder b;
  b.loop("i", 1, 64).loop("j", 1, 64);
  ArrayId a = b.array("A", {80, 80});
  b.statement()
      .write(a, IntMat{{1, 0}, {0, 1}}, IntVec{1, 1})
      .read(a, IntMat{{1, 0}, {0, 1}}, IntVec{0, 1});
  const LoopNest nest = b.build();
  const IntMat id = IntMat::identity(2);
  const Int truth = reference::simulate(nest).mws_total;
  ASSERT_GT(truth, 8);

  TraceArena full;
  EXPECT_EQ(window_below(nest, id, truth + 1, full), truth);
  EXPECT_EQ(full.stats().runs, 1);
  EXPECT_EQ(full.stats().pruned_runs, 0);
  EXPECT_EQ(full.stats().accesses, 64 * 64 * 2);

  TraceArena pruned;
  EXPECT_FALSE(window_below(nest, id, truth / 2, pruned).has_value());
  EXPECT_EQ(pruned.stats().runs, 1);
  EXPECT_EQ(pruned.stats().pruned_runs, 1);
  EXPECT_GT(pruned.stats().accesses, 0);
  EXPECT_LT(pruned.stats().accesses, full.stats().accesses);
  EXPECT_EQ(pruned.stats().accesses % 2, 0);  // whole iterations only
}

// ---------------------------------------------------------------------------
// (b) pruned optimize_locality == exhaustive reference re-scoring.

struct Expected {
  IntMat transform;
  std::string method;
  Int mws_exact = 0;
  Int mws_identity = 0;
};

// Every plan of the re-scoring set traced to the end by the reference
// engine; the first strictly smallest window wins.
Expected exhaustive(const LoopNest& nest, const MinimizerOptions& opts) {
  const std::vector<CandidatePlan> candidates = candidate_plans(nest, opts);
  const std::vector<const CandidatePlan*> plans =
      rescoring_set(nest, candidates, static_cast<size_t>(opts.verify_top_k),
                    opts.verify_iteration_limit);
  const IntMat identity = IntMat::identity(nest.depth());
  Expected e;
  const CandidatePlan* best = nullptr;
  for (const CandidatePlan* p : plans) {
    const Int w = reference::simulate_transformed(nest, p->t).mws_total;
    if (p->t == identity) e.mws_identity = w;
    if (best == nullptr || w < e.mws_exact) {
      best = p;
      e.mws_exact = w;
    }
  }
  e.transform = best->t;
  e.method = best->method;
  return e;
}

// Returns the pruned runs of the serial, identity-unknown pass.
Int expect_matches_exhaustive(const LoopNest& nest, const std::string& what) {
  Int pruned = 0;
  MinimizerOptions opts;
  const Expected want = exhaustive(nest, opts);
  for (int threads : {1, 2, 4}) {
    opts.threads = threads;
    for (bool known : {false, true}) {
      SCOPED_TRACE(what + " threads " + std::to_string(threads) +
                   (known ? " known identity" : ""));
      TraceArena arena;
      const OptimizeResult got = optimize_locality(
          nest, opts, arena,
          known ? std::optional<Int>(want.mws_identity) : std::nullopt);
      EXPECT_EQ(got.transform, want.transform);
      EXPECT_EQ(got.method, want.method);
      EXPECT_EQ(got.mws_exact, std::optional<Int>(want.mws_exact));
      EXPECT_EQ(got.mws_identity, std::optional<Int>(want.mws_identity));
      if (threads == 1 && !known) pruned = arena.stats().pruned_runs;
    }
  }
  return pruned;
}

class PrunedRescoringProperty : public ::testing::TestWithParam<int> {};

TEST_P(PrunedRescoringProperty, MatchesExhaustiveReferenceRescoring) {
  auto rng = rng_for(1000 + GetParam());
  const LoopNest nest =
      random_nest(rng, depth_for(GetParam()), GetParam() % 5 == 0);
  (void)expect_matches_exhaustive(nest, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrunedRescoringProperty,
                         ::testing::Range(0, 200));

// (c) the hoisted dependence analysis scores exactly like the public entry.
TEST_P(PrunedRescoringProperty, CandidateScoresEqualPublicPrediction) {
  auto rng = rng_for(1000 + GetParam());
  const LoopNest nest =
      random_nest(rng, depth_for(GetParam()), GetParam() % 5 == 0);
  for (const CandidatePlan& c : candidate_plans(nest)) {
    EXPECT_EQ(c.score, predicted_mws_after(nest, c.t)) << c.t.str();
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

TEST(PrunedRescoringCorpus, EveryShippedNestMatchesExhaustive) {
  std::string dir = loops_dir();
  if (dir.empty()) GTEST_SKIP() << "loop files not found from test cwd";
  int checked = 0;
  Int pruned = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    Program program = parse_program(read_file(entry.path().string()));
    if (program.phase_count() != 1) continue;
    const LoopNest& nest = program.phase_nest(0);
    if (nest.iteration_count() > MinimizerOptions{}.verify_iteration_limit) {
      continue;
    }
    const std::string what = entry.path().filename().string();
    pruned += expect_matches_exhaustive(nest, what);
    for (const CandidatePlan& c : candidate_plans(nest)) {
      EXPECT_EQ(c.score, predicted_mws_after(nest, c.t)) << what << c.t.str();
    }
    ++checked;
  }
  EXPECT_GE(checked, 10);
  EXPECT_GT(pruned, 0) << "no corpus trace was pruned";
}

}  // namespace
}  // namespace lmre

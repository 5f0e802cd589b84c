#pragma once

// The three workloads as request lists built from a seed.

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "runtime/session.h"

namespace perfbench {

/// One request of a workload plus what the checks need to know about it.
struct Item {
  lmre::AnalysisRequest req;
  std::string label;          ///< "corpus:conv2d" or "seed:<stratum>"
  bool seeded = false;
  bool over_limit = false;    ///< iteration volume above RunOptions::verify_limit
};

/// Reads a file of the checkout; throws std::runtime_error when missing.
std::string read_file(const std::string& path);

/// The `.loop` corpus: file name -> source, in sorted order.
std::vector<std::pair<std::string, std::string>> corpus(const std::string& root);

/// optimize_heavy, pass `pass` of the seed: every request runs the
/// transform search (optimize, full, audit verify, mrc and codegen with the
/// optimizer's plan).  Seeded nests are fresh in every pass, so a single
/// session never hits its cache.
std::vector<Item> optimize_heavy_pass(const std::string& root, std::uint64_t seed,
                                      int pass);

/// analysis_light, pass `pass`: lint, analyze, symbolic, verify with a
/// supplied plan and identity-plan codegen over the corpus and fresh
/// seeded nests, a third of them far over the verify limit.
std::vector<Item> analysis_light_pass(const std::string& root, std::uint64_t seed,
                                      int pass);

/// The served phase's request pool: mostly analysis_light-sized (source,
/// kind) pairs plus a small share of optimize-sized ones, in Zipf rank
/// order.
std::vector<Item> serve_pool(const std::string& root, std::uint64_t seed);

/// Nominal wall time of one pass of each closed-loop workload on a 4-core
/// 2 GHz host; --seconds / this = passes per run.
inline constexpr double kHeavyPassSeconds = 7.0;
inline constexpr double kLightPassSeconds = 0.19;

/// Zipf exponent, pool size and optimize-sized share of the served phase.
inline constexpr double kZipfSkew = 0.9;
inline constexpr int kServePoolSize = 480;
inline constexpr int kServeHeavy = 12;

}  // namespace perfbench

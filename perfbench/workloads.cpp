#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "gen.h"
#include "workload.h"

namespace perfbench {

using lmre::AnalysisRequest;
using Kind = AnalysisRequest::Kind;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::pair<std::string, std::string>> corpus(const std::string& root) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(root + "/examples/loops")) {
    if (e.path().extension() == ".loop") names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  if (names.empty()) throw std::runtime_error("no .loop corpus under " + root);
  std::vector<std::pair<std::string, std::string>> out;
  for (const std::string& n : names) {
    out.emplace_back(n, read_file(root + "/examples/loops/" + n));
  }
  return out;
}

namespace {

/// Loop depth of a corpus source (its 'for' headers; 1 for programs).
int depth_of(const std::string& src) {
  if (src.find("phase ") != std::string::npos) return 1;
  int d = 0;
  std::istringstream in(src);
  std::string line;
  while (std::getline(in, line)) {
    size_t p = line.find_first_not_of(' ');
    if (p != std::string::npos && line.compare(p, 4, "for ") == 0) ++d;
  }
  return d;
}

AnalysisRequest make_request(const std::string& source, const std::string& file,
                             Kind kind, const std::string& plan = "") {
  AnalysisRequest req(source, file, kind);
  if (auto* v = std::get_if<AnalysisRequest::Verify>(&req.options)) v->plan = plan;
  if (auto* c = std::get_if<AnalysisRequest::Codegen>(&req.options)) c->plan = plan;
  if (auto* m = std::get_if<AnalysisRequest::Mrc>(&req.options)) m->plan = plan;
  return req;
}

/// The five optimize_heavy kinds; verify audits the optimizer's own plan
/// and mrc/codegen run under it.
Item heavy_item(const std::string& source, const std::string& label, int kind_index) {
  static const Kind kinds[] = {Kind::kOptimize, Kind::kFull, Kind::kVerify,
                               Kind::kMrc, Kind::kCodegen};
  Kind k = kinds[kind_index % 5];
  std::string plan = (k == Kind::kMrc || k == Kind::kCodegen) ? "auto" : "";
  Item it;
  it.req = make_request(source, label, k, plan);
  it.label = label;
  return it;
}

/// The five analysis_light kinds: verify checks the innermost interchange,
/// codegen emits the identity order.
Item light_item(const std::string& source, const std::string& label, int depth,
                int kind_index) {
  static const Kind kinds[] = {Kind::kLint, Kind::kAnalyze, Kind::kSymbolic,
                               Kind::kVerify, Kind::kCodegen};
  Kind k = kinds[kind_index % 5];
  Item it;
  it.req = make_request(source, label, k, k == Kind::kVerify ? interchange_plan(depth) : "");
  it.label = label;
  return it;
}

/// Per-pass detail stream: the run seed and the pass index pick every
/// extent split and address shift.
SplitMix64 detail_rng(std::uint64_t seed, int pass, std::uint64_t salt) {
  SplitMix64 mix(seed * 0x9E3779B97F4A7C15ull + salt);
  for (int i = 0; i <= pass; ++i) mix.next();
  return SplitMix64(mix.next());
}

/// Geometric ladder from lo to hi over n strata.
std::int64_t ladder(double lo, double hi, int k, int n) {
  return std::llround(lo * std::pow(hi / lo, static_cast<double>(k) / (n - 1)));
}

// optimize_heavy strata: depth 2..4, references 2..4, volume on a
// geometric ladder from 1e5 to 1.6e6 iterations (under the 2e6 verify
// limit with headroom for extent rounding).
constexpr int kHeavyStrata = 30;
constexpr double kHeavyMin = 1e5, kHeavyMax = 1.6e6;

// analysis_light strata: 30 nests of 1e3..3e4 iterations plus 15 of
// 1e8..1e10 (a third far over the verify limit, so the oracle is skipped).
// Over-limit nests stay 2..3 deep: the distinct-element estimate of a
// 4-deep nest with two loops absent from its subscripts grows with those
// loops' extents (seconds at 1e11 iterations), which would turn one
// request into the whole workload.
constexpr int kLightUnder = 30, kLightOver = 15;
constexpr double kLightMin = 1e3, kLightMax = 3e4;
constexpr double kOverMin = 1e8, kOverMax = 1e10;

/// Depth cycles 2..max_depth and references 2..4 over the strata.
NestShape shape_for(int k, std::int64_t volume, int max_depth = 4) {
  NestShape sh;
  sh.depth = 2 + k % (max_depth - 1);
  sh.refs = 2 + (k / 3) % 3;
  sh.volume = volume;
  return sh;
}

}  // namespace

std::vector<Item> optimize_heavy_pass(const std::string& root, std::uint64_t seed,
                                      int pass) {
  std::vector<Item> items;
  for (const char* name : {"full_search.loop", "rasta_flt.loop", "conv2d.loop"}) {
    std::string src = read_file(root + "/examples/loops/" + name);
    for (int k = 0; k < 5; ++k) {
      items.push_back(heavy_item(src, std::string("corpus:") + name, k));
    }
  }
  SplitMix64 rng = detail_rng(seed, pass, 0x4845415659ull);
  for (int k = 0; k < kHeavyStrata; ++k) {
    SplitMix64 structure(0xC0FFEE00ull + static_cast<std::uint64_t>(k));
    std::string label = "heavy:" + std::to_string(pass) + ":" + std::to_string(k);
    NestShape sh = shape_for(k, ladder(kHeavyMin, kHeavyMax, k, kHeavyStrata));
    Item it = heavy_item(generate_nest(structure, rng, sh, label), label, k);
    it.seeded = true;
    items.push_back(std::move(it));
  }
  return items;
}

std::vector<Item> analysis_light_pass(const std::string& root, std::uint64_t seed,
                                      int pass) {
  std::vector<Item> items;
  for (const auto& [name, src] : corpus(root)) {
    const int depth = depth_of(src);
    const bool program = src.find("phase ") != std::string::npos;
    for (int k = 0; k < (program ? 2 : 5); ++k) {
      items.push_back(light_item(src, "corpus:" + name, depth, k));
    }
  }
  SplitMix64 rng = detail_rng(seed, pass, 0x4C49474854ull);
  for (int k = 0; k < kLightUnder + kLightOver; ++k) {
    const bool over = k >= kLightUnder;
    SplitMix64 structure(0xBEEF0000ull + static_cast<std::uint64_t>(k));
    std::string label = "light:" + std::to_string(pass) + ":" + std::to_string(k);
    NestShape sh = over ? shape_for(k, ladder(kOverMin, kOverMax, k - kLightUnder, kLightOver), 3)
                        : shape_for(k, ladder(kLightMin, kLightMax, k, kLightUnder));
    // Codegen refuses traces over the limit, so over-limit nests cycle
    // through the other four kinds.
    Item it = light_item(generate_nest(structure, rng, sh, label), label, sh.depth,
                         over ? k % 4 : k);
    it.seeded = true;
    it.over_limit = over;
    items.push_back(std::move(it));
  }
  return items;
}

std::vector<Item> serve_pool(const std::string& root, std::uint64_t seed) {
  std::vector<Item> corpus_items, light, heavy;
  for (const auto& [name, src] : corpus(root)) {
    const int depth = depth_of(src);
    const bool program = src.find("phase ") != std::string::npos;
    for (int k = 0; k < (program ? 2 : 5); ++k) {
      corpus_items.push_back(light_item(src, "corpus:" + name, depth, k));
    }
  }
  SplitMix64 rng = detail_rng(seed, 0, 0x5345525645ull);
  // A small share of optimize-sized misses: 1e5..3e5-iteration nests under
  // the five heavy kinds.
  for (int k = 0; k < kServeHeavy; ++k) {
    SplitMix64 structure(0xF00D0000ull + static_cast<std::uint64_t>(k));
    std::string label = "serve-heavy:" + std::to_string(k);
    NestShape sh = shape_for(k, ladder(1e5, 3e5, k, kServeHeavy));
    Item it = heavy_item(generate_nest(structure, rng, sh, label), label, k);
    it.seeded = true;
    heavy.push_back(std::move(it));
  }
  const int n_light = kServePoolSize - kServeHeavy - static_cast<int>(corpus_items.size());
  for (int k = 0; k < n_light; ++k) {
    const bool over = k % 3 == 2;
    SplitMix64 structure(0xCAFE0000ull + static_cast<std::uint64_t>(k));
    std::string label = "serve-light:" + std::to_string(k);
    NestShape sh = over ? shape_for(k, ladder(kOverMin, kOverMax, k % 15, 15), 3)
                        : shape_for(k, ladder(kLightMin, kLightMax, k % 30, 30));
    // Over-limit nests get lint and symbolic only here: the estimate and
    // the prover cost up to ~100 ms on them, which would turn every
    // eviction of one into an optimize-sized miss.
    static const int kOverKinds[] = {0, 2};  // lint, symbolic
    Item it = light_item(generate_nest(structure, rng, sh, label), label, sh.depth,
                         over ? kOverKinds[k % 2] : k);
    it.seeded = true;
    it.over_limit = over;
    light.push_back(std::move(it));
  }
  // Zipf rank = pool position.  Which class and which stratum of it sits
  // at each rank is fixed; the seed changes the nests themselves.  The
  // optimize-sized items hold every 8th of the top ranks: popular enough to
  // stay cached once primed, so their misses come from priming and from
  // evictions under overload, not at random during a rung.
  std::vector<std::vector<Item>*> slots;
  for (auto* cls : {&corpus_items, &light}) {
    for (size_t i = 0; i < cls->size(); ++i) slots.push_back(cls);
  }
  SplitMix64 fixed(0x52414E4Bull);
  for (size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[static_cast<size_t>(fixed.next() % (i + 1))]);
  }
  for (size_t h = 0; h < heavy.size(); ++h) {
    slots.insert(slots.begin() + static_cast<long>(8 * h + 7), &heavy);
  }
  std::vector<Item> pool;
  std::map<std::vector<Item>*, size_t> next;
  for (auto* cls : slots) pool.push_back(std::move((*cls)[next[cls]++]));
  return pool;
}

}  // namespace perfbench

// End-to-end property suite for the C backend (src/codegen): every emitted
// kernel must COMPILE, RUN, and prove itself.
//
//   * 102 random 2-/3-deep nests (the property_verify generator: one
//     write + two reads, uniform and non-uniform), each under a random
//     CERTIFIED plan (uncertifiable draws fall back to the identity);
//   * the paper's Figure-2 suite under the optimizer's own plan;
//   * the examples/loops corpus under the identity order.
//
// For each kernel the generated self-check asserts, inside the compiled
// program: original vs window-buffered arrays bit-identical, `use`
// checksums equal, measured peak window == the engine's prediction
// (buffer occupancy can never exceed the modulus by construction, so
// measured MWS <= emitted buffer size), and loads/stores == the cold/
// writeback predictions with zero reloads.  On the host side the emitted
// window predictions (total and per array) are cross-checked against the
// hash-map reference engine (reference::simulate_transformed, or
// reference::simulate_order over the tiled order) before anything is
// compiled -- independent of the dense engine the buffer planner uses.
//
// Kernels are batched ~16 per translation unit (standalone=false, distinct
// stems) so the whole suite costs a handful of `cc` invocations; without a
// system C compiler the run-time halves SKIP visibly and the host-side
// emission and oracle cross-checks still execute.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/codegen.h"
#include "codegen/driver.h"
#include "codes/kernels.h"
#include "exact/oracle.h"
#include "exact/reference.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "linalg/mat.h"
#include "transform/minimizer.h"
#include "transform/tiling.h"
#include "verify/verify.h"

namespace lmre {
namespace {

std::mt19937 rng_for(int seed) { return std::mt19937(0xC0DE6E0 + seed); }

// Random nest: depth 2 or 3, one array, one write + two reads (the
// property_verify generator -- write-after-read and read-after-write
// traffic through one buffer is the hard case for the window staging).
LoopNest random_nest(std::mt19937& rng, size_t depth) {
  std::uniform_int_distribution<Int> bnd(2, depth == 2 ? 6 : 4);
  std::uniform_int_distribution<Int> coef(-2, 2), off(-2, 2);
  std::uniform_int_distribution<int> coin(0, 1);

  NestBuilder b;
  std::vector<Int> hi(depth);
  for (size_t k = 0; k < depth; ++k) {
    hi[k] = bnd(rng);
    b.loop(std::string(1, static_cast<char>('i' + k)), 1, hi[k]);
  }

  const size_t dims = depth;
  auto random_access = [&] {
    IntMat a(dims, depth);
    for (size_t r = 0; r < dims; ++r) {
      for (size_t c = 0; c < depth; ++c) a(r, c) = coef(rng);
    }
    return a;
  };
  IntMat base = random_access();
  const bool uniform = coin(rng) == 1;

  std::vector<Int> extents(dims);
  for (size_t r = 0; r < dims; ++r) {
    Int span = 3;
    for (size_t c = 0; c < depth; ++c) span += 2 * hi[c];
    extents[r] = 2 * span + 1;
  }
  ArrayId a = b.array("A", extents);

  auto random_offset = [&] {
    IntVec o(dims);
    for (size_t r = 0; r < dims; ++r) o[r] = off(rng);
    return o;
  };
  StatementBuilder s = b.statement();
  s.write(a, base, random_offset());
  s.read(a, uniform ? base : random_access(), random_offset());
  s.read(a, uniform ? base : random_access(), random_offset());
  return b.build();
}

IntMat random_unimodular(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<size_t> row(0, n - 1);
  std::uniform_int_distribution<Int> shear(-1, 1);
  std::uniform_int_distribution<int> op(0, 2), reps(2, 4);
  IntMat m = IntMat::identity(n);
  const int k = reps(rng);
  for (int t = 0; t < k; ++t) {
    size_t r1 = row(rng), r2 = row(rng);
    switch (op(rng)) {
      case 0:
        for (size_t c = 0; c < n; ++c) std::swap(m(r1, c), m(r2, c));
        break;
      case 1:
        for (size_t c = 0; c < n; ++c) m(r1, c) = -m(r1, c);
        break;
      default:
        if (r1 != r2) {
          Int f = shear(rng);
          for (size_t c = 0; c < n; ++c) m(r1, c) += f * m(r2, c);
        }
        break;
    }
  }
  return m;
}

VerifyPlan random_plan(std::mt19937& rng, size_t n) {
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<Int> tile(2, 4);
  VerifyPlan plan;
  plan.steps.push_back(random_unimodular(rng, n));
  if (pct(rng) < 30) plan.steps.push_back(random_unimodular(rng, n));
  if (pct(rng) < 30) {
    plan.tile_sizes.resize(n);
    for (size_t k = 0; k < n; ++k) plan.tile_sizes[k] = tile(rng);
  }
  return plan;
}

// The exact windows of the plan's execution order from the hash-map
// reference engine -- what the emitted self-check must measure at run
// time.  The buffer planner traces on the dense engine, so checking it
// against the reference keeps the cross-check independent.
TraceStats reference_trace(const LoopNest& nest, const VerifyPlan& plan) {
  IntMat t = plan.combined(nest.depth());
  if (plan.has_tiling()) {
    return reference::simulate_order(nest,
                                     tiled_order(nest, t, plan.tile_sizes));
  }
  return reference::simulate_transformed(nest, t);
}

// The emission's total and per-array windows equal the reference's.
void expect_windows(const CodegenResult& cg, const TraceStats& ref,
                    const std::string& what) {
  EXPECT_EQ(cg.mws_total, ref.mws_total) << what;
  for (const BufferPlan& b : cg.buffers) {
    auto it = ref.mws.find(b.array);
    EXPECT_EQ(b.mws, it == ref.mws.end() ? 0 : it->second)
        << what << ", array " << b.name;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Compiles one multi-kernel translation unit and returns the verdict
// lines the batched main() printed; `detail` carries compiler/runtime
// stderr on failure.
struct BatchOutcome {
  bool compiled = false;
  bool ran = false;
  std::vector<std::string> lines;
  std::string detail;
};

BatchOutcome run_batch(const std::string& c_source, const std::string& cc) {
  BatchOutcome out;
  const char* tmp = std::getenv("TMPDIR");
  std::string dir_template =
      std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
      "/lmre-prop-XXXXXX";
  std::vector<char> buf(dir_template.begin(), dir_template.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    out.detail = "mkdtemp failed";
    return out;
  }
  const std::string dir(buf.data());
  const std::string src = dir + "/batch.c";
  const std::string bin = dir + "/batch";
  const std::string cc_err = dir + "/cc.err";
  const std::string run_out = dir + "/run.out";
  {
    std::ofstream f(src, std::ios::binary);
    f << c_source;
  }
  std::string compile = "\"" + cc + "\" -O1 -o \"" + bin + "\" \"" + src +
                        "\" 2> \"" + cc_err + "\"";
  if (std::system(compile.c_str()) != 0) {
    out.detail = "compile failed: " + read_file(cc_err);
  } else {
    out.compiled = true;
    std::string run = "\"" + bin + "\" > \"" + run_out + "\" 2>&1";
    int rc = std::system(run.c_str());
    std::istringstream lines(read_file(run_out));
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) out.lines.push_back(line);
    }
    out.ran = !out.lines.empty();
    if (rc != 0) out.detail = "batch exited nonzero";
  }
  std::remove(src.c_str());
  std::remove(bin.c_str());
  std::remove(cc_err.c_str());
  std::remove(run_out.c_str());
  ::rmdir(dir.c_str());
  return out;
}

// One pending kernel: emitted source + the identity facts to assert.
struct Pending {
  std::string stem;
  std::string source;  // non-standalone unit
  std::string label;   // for failure messages
};

// Compiles pending kernels ~16 per TU and asserts every per-kernel
// verdict line reports status 0 (identical, sink match, window and
// traffic as predicted).
void compile_and_check(const std::vector<Pending>& kernels,
                       const std::string& cc) {
  constexpr size_t kPerUnit = 16;
  for (size_t base = 0; base < kernels.size(); base += kPerUnit) {
    const size_t end = std::min(base + kPerUnit, kernels.size());
    std::ostringstream tu;
    for (size_t i = base; i < end; ++i) tu << kernels[i].source << '\n';
    tu << "int main(void) {\n  int bad = 0;\n";
    for (size_t i = base; i < end; ++i) {
      tu << "  bad |= lm_" << kernels[i].stem << "_check();\n";
    }
    tu << "  return bad == 0 ? 0 : 1;\n}\n";
    BatchOutcome out = run_batch(tu.str(), cc);
    ASSERT_TRUE(out.compiled) << out.detail;
    ASSERT_TRUE(out.ran) << out.detail;
    ASSERT_EQ(out.lines.size(), end - base) << out.detail;
    for (size_t i = base; i < end; ++i) {
      const std::string& line = out.lines[i - base];
      EXPECT_NE(line.find("\"kernel\": \"" + kernels[i].stem + "\""),
                std::string::npos)
          << kernels[i].label << ": " << line;
      EXPECT_NE(line.find("\"status\": 0}"), std::string::npos)
          << kernels[i].label << " failed its self-check: " << line;
    }
  }
}

TEST(PropertyCodegen, RandomNestsRunBitIdentical) {
  constexpr int kCases = 102;
  const std::string cc = find_cc();

  std::vector<Pending> kernels;
  int transformed_plans = 0, tiled_plans = 0;
  for (int i = 0; i < kCases; ++i) {
    std::mt19937 rng = rng_for(i);
    LoopNest nest = random_nest(rng, i % 2 == 0 ? 2 : 3);
    // Only certified plans reach the backend -- same gate the runtime
    // enforces; an uncertifiable draw degrades to the identity order.
    VerifyPlan plan = random_plan(rng, nest.depth());
    if (verify_plan(nest, plan).certified) {
      ++transformed_plans;
      if (plan.has_tiling()) ++tiled_plans;
    } else {
      plan = VerifyPlan{};
    }

    CodegenOptions opts;
    opts.standalone = false;
    opts.stem = "r" + std::to_string(i);
    CodegenResult cg = emit_c(nest, plan, opts);

    // Host-side differential check: the window the generated program will
    // measure equals the reference engine's for this execution order.
    expect_windows(cg, reference_trace(nest, plan),
                   "case " + std::to_string(i));
    EXPECT_GE(cg.window_cells, cg.mws_total) << "case " << i;
    for (const BufferPlan& b : cg.buffers) {
      EXPECT_TRUE(b.collision_free) << "case " << i;
      EXPECT_GE(b.modulus, b.mws) << "case " << i;
    }
    kernels.push_back({opts.stem, cg.c_source, "random case " + std::to_string(i)});
  }
  // The draw must exercise real transforms, not degrade to all-identity.
  EXPECT_GE(transformed_plans, kCases / 3);
  EXPECT_GE(tiled_plans, 5);

  if (cc.empty()) GTEST_SKIP() << "no system C compiler on PATH; emission "
                                  "and oracle cross-checks ran, compile/run "
                                  "halves skipped";
  compile_and_check(kernels, cc);
}

TEST(PropertyCodegen, Figure2SuiteUnderOptimizerPlans) {
  const std::string cc = find_cc();
  std::vector<Pending> kernels;
  size_t idx = 0;
  for (const auto& entry : codes::figure2_suite()) {
    // The optimizer's own plan, certified-gated exactly like `lmre
    // codegen --plan`; uncertified winners degrade to the identity.
    OptimizeResult res = optimize_locality(entry.nest);
    VerifyPlan plan;
    plan.steps = {res.transform};
    if (!verify_plan(entry.nest, plan).certified) plan = VerifyPlan{};

    CodegenOptions opts;
    opts.standalone = false;
    opts.stem = "f" + std::to_string(idx++);
    CodegenResult cg = emit_c(entry.nest, plan, opts);
    expect_windows(cg, reference_trace(entry.nest, plan), entry.name);
    kernels.push_back({opts.stem, cg.c_source, "figure2 " + entry.name});
  }
  ASSERT_GE(kernels.size(), 5u);
  if (cc.empty()) GTEST_SKIP() << "no system C compiler on PATH";
  compile_and_check(kernels, cc);
}

TEST(PropertyCodegen, LoopCorpusIdentityOrder) {
  namespace fs = std::filesystem;
  std::string root;
  for (const char* base : {"", "../", "../../", "../../../"}) {
    std::error_code ec;
    if (fs::is_directory(std::string(base) + "examples/loops", ec)) {
      root = base;
      break;
    }
  }
  if (root.empty() && !fs::is_directory("examples/loops")) {
    GTEST_SKIP() << "examples/loops not found from test cwd";
  }

  const std::string cc = find_cc();
  std::vector<Pending> kernels;
  size_t idx = 0, skipped = 0;
  std::vector<fs::path> paths;
  for (const auto& e : fs::directory_iterator(root + "examples/loops")) {
    if (e.path().extension() == ".loop") paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 10u);
  for (const fs::path& p : paths) {
    Program program = parse_program(read_file(p.string()));
    if (program.phase_count() != 1) {
      ++skipped;  // multi-phase sources are outside the codegen fragment
      continue;
    }
    const LoopNest& nest = program.phase_nest(0);
    CodegenOptions opts;
    opts.standalone = false;
    opts.stem = "c" + std::to_string(idx++);
    CodegenResult cg;
    try {
      cg = emit_c(nest, VerifyPlan{}, opts);
    } catch (const Error& err) {
      ADD_FAILURE() << p.filename() << ": " << err.what();
      continue;
    }
    expect_windows(cg, reference::simulate(nest), p.filename().string());
    kernels.push_back({opts.stem, cg.c_source, p.filename().string()});
  }
  ASSERT_GE(kernels.size(), 10u);
  if (cc.empty()) GTEST_SKIP() << "no system C compiler on PATH";
  compile_and_check(kernels, cc);
}

}  // namespace
}  // namespace lmre

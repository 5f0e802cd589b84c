// Golden-file tests for `lmre codegen --json`: the enveloped codegen
// documents -- plan, combined transform, window accounting, buffer plans
// and the full generated C unit -- must match tests/golden/
// codegen_*.json byte for byte:
//
//   codegen_example6.json   Example 6 (non-uniform references): identity
//                           order, one 131-cell modulo buffer vs 191
//                           declared cells;
//   codegen_example8.json   Example 8 (read+write of X): write-back
//                           buffer, 44 cells vs 106 declared;
//   codegen_example10.json  Example 10: the Section 4.3 window (540)
//                           drives a 675-cell buffer vs 3111 declared.
//
// plus three non-identity plans, which exercise the transformed and the
// tiled execution orders of the buffer planner:
//
//   codegen_fir_skew.json       fir under the 2-D skew [2 1; 1 1]: a
//                               touched region smaller than the declared
//                               array (x: 263 of 264 cells);
//   codegen_matmult_tiled.json  matmult skewed by [1 0 0; 1 1 0; 0 0 1]
//                               and tiled 4x4x4: a collision-free modulus
//                               above the window (C: 19 for a window of 16);
//   codegen_row_sum_tiled.json  row_sum skewed by [1 1; 0 1] and tiled
//                               3x4: an array never live across
//                               iterations (M: window 0, modulus 1).
//
// Emission is deterministic (no wall clocks, no host state), which is
// what makes pinning the whole document -- C source included -- viable.
// Regenerate with scripts/regen_golden.sh after an intentional change.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/commands.h"

namespace lmre::tools {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; probe plausible source roots.
std::string source_root() {
  for (const char* base : {"", "../", "../../", "../../../"}) {
    if (!read_file(std::string(base) + "tests/golden/example10.loop").empty()) {
      return base;
    }
  }
  return "?";
}

void check_golden(const std::string& input, const std::string& golden_name,
                  const std::string& plan = "") {
  std::string root = source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::string golden = read_file(root + "tests/golden/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "tests/golden/" << golden_name << " missing";

  std::ostringstream out, err;
  std::vector<std::string> args = {"codegen", "--json"};
  if (!plan.empty()) args.push_back("--plan=" + plan);
  args.push_back(root + input);
  ExitCode rc = run_cli(args, out, err);
  EXPECT_EQ(rc, ExitCode::kSuccess) << err.str();
  EXPECT_EQ(out.str(), golden)
      << "codegen --json output drifted from the golden; if intentional, "
         "regenerate with scripts/regen_golden.sh";
}

TEST(GoldenCodegen, Example6NonUniformIdentity) {
  check_golden("tests/golden/example6.loop", "codegen_example6.json");
}

TEST(GoldenCodegen, Example8WriteBackBuffer) {
  check_golden("examples/loops/example8.loop", "codegen_example8.json");
}

TEST(GoldenCodegen, Example10PaperWindow) {
  check_golden("tests/golden/example10.loop", "codegen_example10.json");
}

TEST(GoldenCodegen, FirSkewed2D) {
  check_golden("examples/loops/fir.loop", "codegen_fir_skew.json", "2 1; 1 1");
}

TEST(GoldenCodegen, MatmultSkewedTiled) {
  check_golden("examples/loops/matmult.loop", "codegen_matmult_tiled.json",
               "1 0 0; 1 1 0; 0 0 1 | tile:4,4,4");
}

TEST(GoldenCodegen, RowSumSkewedTiled) {
  check_golden("examples/loops/row_sum.loop", "codegen_row_sum_tiled.json",
               "1 1; 0 1 | tile:3,4");
}

}  // namespace
}  // namespace lmre::tools

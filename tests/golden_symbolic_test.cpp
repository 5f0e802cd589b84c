// Golden-file tests for `lmre analyze --symbolic --json`: the enveloped
// documents for the paper's Example 6 and Example 10 nests must match
// tests/golden/symbolic_example{6,10}.json byte for byte.  The result is
// the session's "symbolic" payload, which carries no file names, so the
// input's path never shows.  Example 10 pins the Section 3.2 / 4.3 closed forms verbatim
// (distinct = N1*N2*N3 - (N1-1)(N2-3)(N3-3), reuse 4131, the chain
// window evaluating to 540); Example 6 pins the decline contract for
// non-uniformly generated references (LMRE-E017, exit kDiagnostics)
// rather than a formula the paper never derives.  Regenerate with
// scripts/regen_golden.sh after an intentional schema change.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

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

// Runs `lmre analyze --symbolic --json` on tests/golden/<stem>.loop and
// compares against tests/golden/<golden>.
void check_golden(const std::string& stem, const std::string& golden_name,
                  ExitCode want_rc) {
  std::string root = source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::string golden = read_file(root + "tests/golden/" + golden_name);
  ASSERT_FALSE(golden.empty()) << "tests/golden/" << golden_name << " missing";

  std::ostringstream out, err;
  ExitCode rc = run_cli(
      {"analyze", "--symbolic", "--json", root + "tests/golden/" + stem + ".loop"},
      out, err);
  EXPECT_EQ(rc, want_rc) << err.str();

  EXPECT_EQ(out.str(), golden)
      << "analyze --symbolic --json output drifted from the golden; if "
         "intentional, regenerate with scripts/regen_golden.sh";
}

TEST(GoldenSymbolic, Example10MatchesPaperFormulas) {
  check_golden("example10", "symbolic_example10.json", ExitCode::kSuccess);
}

TEST(GoldenSymbolic, Example6DeclinesNonUniform) {
  check_golden("example6", "symbolic_example6.json", ExitCode::kDiagnostics);
}

}  // namespace
}  // namespace lmre::tools

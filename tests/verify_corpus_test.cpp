// Diagnostic-contract tests for the verify kind: every file in
// tests/bad_loops/verify/ is VALID DSL paired with a transform plan whose
// verdict must map onto the stable verify diagnostics
// (LMRE-E013/E019/W014/W020/N016/N021/N022).  Each file declares its own
// contract in header comment lines:
//
//   # plan: -1 0; 0 1 | tile:4,4     (omitted = audit the optimizer's plan)
//   # exit: 3                        (expected ExitCode value)
//   # expect: LMRE-E019 <substring of the diagnostic message>
//
// The requests run through AnalysisSession with Kind::kVerify -- the same
// path `lmre serve` and `lmre batch` use -- asserting the declared exit
// code, that every expected id + message substring appears in the JSON
// payload, and that the independent checker accepted the certificate.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/session.h"

namespace lmre {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The test binary runs from <build>/tests; probe plausible source roots.
fs::path corpus_dir() {
  for (const char* base : {"", "../", "../../", "../../../"}) {
    fs::path dir = fs::path(base) / "tests" / "bad_loops" / "verify";
    if (fs::is_directory(dir)) return dir;
  }
  return {};
}

// One "# tag: value" header line, or empty when absent.
std::string header(const std::string& source, const std::string& tag) {
  std::istringstream lines(source);
  std::string line;
  const std::string prefix = "# " + tag + ": ";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
  }
  return "";
}

// "# expect: LMRE-E019 some message text" -> {"LMRE-E019", "some message
// text"}; collected from the file's leading comment block.
std::vector<std::pair<std::string, std::string>> expectations(
    const std::string& source) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream lines(source);
  std::string line;
  const std::string tag = "# expect: ";
  while (std::getline(lines, line)) {
    if (line.rfind(tag, 0) != 0) continue;
    std::string rest = line.substr(tag.size());
    size_t space = rest.find(' ');
    if (space == std::string::npos) {
      ADD_FAILURE() << "malformed expect line: " << line;
      continue;
    }
    out.emplace_back(rest.substr(0, space), rest.substr(space + 1));
  }
  return out;
}

TEST(VerifyCorpus, VerdictsMapOntoStableDiagnostics) {
  fs::path dir = corpus_dir();
  ASSERT_FALSE(dir.empty()) << "tests/bad_loops/verify not found from cwd";

  AnalysisSession session;
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".loop") continue;
    ++files;
    std::string source = read_file(entry.path());
    ASSERT_FALSE(source.empty()) << entry.path();
    std::vector<std::pair<std::string, std::string>> want = expectations(source);
    ASSERT_FALSE(want.empty())
        << entry.path() << " has no '# expect:' header lines";
    std::string exit_line = header(source, "exit");
    ASSERT_FALSE(exit_line.empty())
        << entry.path() << " has no '# exit:' header line";

    AnalysisRequest req;
    req.source = source;
    req.file = entry.path().filename().string();
    req.options = AnalysisRequest::Verify{header(source, "plan")};
    AnalysisResult res = session.run(req);

    EXPECT_EQ(static_cast<int>(res.status), std::stoi(exit_line))
        << entry.path() << "\n" << res.payload;
    // Every verify request -- CLI, batch or serve -- re-validates the
    // prover's certificate with the independent checker.
    EXPECT_NE(res.payload.find("\"checker\":{\"ok\":true"), std::string::npos)
        << entry.path() << "\n" << res.payload;
    for (const auto& [id, message] : want) {
      EXPECT_NE(res.payload.find(id), std::string::npos)
          << entry.path() << ": payload lacks " << id << "\n" << res.payload;
      EXPECT_NE(res.payload.find(message), std::string::npos)
          << entry.path() << ": payload lacks \"" << message << "\"\n"
          << res.payload;
    }
  }
  EXPECT_GE(files, 6u) << "verify corpus shrank unexpectedly";
}

}  // namespace
}  // namespace lmre

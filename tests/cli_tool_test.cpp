#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "server/wire.h"
#include "support/error.h"
#include "tools/commands.h"

namespace lmre::tools {
namespace {

using Kind = AnalysisRequest::Kind;

const char* kExample8 = R"(
  for i = 1 to 25
    for j = 1 to 10
      X[2*i + 5*j + 1] = X[2*i + 5*j + 5];
)";

// The CLI's exit-code contract is the named enum in support/error.h; the
// numeric values are part of the tool's public interface (scripts match on
// them), so pin both directions of the mapping.
TEST(ExitCodeConvention, NamedValuesAreStable) {
  EXPECT_EQ(to_int(ExitCode::kSuccess), 0);
  EXPECT_EQ(to_int(ExitCode::kFailure), 1);
  EXPECT_EQ(to_int(ExitCode::kUsage), 2);
  EXPECT_EQ(to_int(ExitCode::kDiagnostics), 3);
  EXPECT_EQ(to_int(ExitCode::kOverflow), 4);
  EXPECT_STREQ(to_string(ExitCode::kSuccess), "success");
  EXPECT_STREQ(to_string(ExitCode::kFailure), "failure");
  EXPECT_STREQ(to_string(ExitCode::kUsage), "usage");
  EXPECT_STREQ(to_string(ExitCode::kDiagnostics), "diagnostics");
  EXPECT_STREQ(to_string(ExitCode::kOverflow), "overflow");
}

// Runs one session-backed verb on `source` through cmd_view (text mode
// unless `view.json`); `err` collects error payloads.
ExitCode view(AnalysisRequest::Options options, const std::string& source,
              std::ostream& out, std::ostream& err, bool json = false) {
  ViewOptions opts;
  opts.json = json;
  return cmd_view(AnalysisRequest{source, "<input>", std::move(options)}, opts,
                  out, err);
}

TEST(CliAnalyze, SingleNest) {
  // The text view renders the payload's estimate/exact table; dependence
  // distances are `lmre distances`' table, not part of the analyze payload.
  std::ostringstream out, err;
  EXPECT_EQ(view(AnalysisRequest::Analyze{}, kExample8, out, err),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("X[2*i + 5*j + 1] = X[2*i + 5*j + 5]"), std::string::npos);
  EXPECT_NE(s.find("MWS exact"), std::string::npos);
  EXPECT_NE(s.find("TOTAL  106       94            94              50       44"),
            std::string::npos)
      << s;
}

TEST(CliAnalyze, MultiPhase) {
  std::ostringstream out, err;
  ExitCode rc = view(AnalysisRequest::Analyze{}, R"(
    array A[8];
    phase p { for i = 1 to 8  A[i] = 0; }
    phase c { for i = 1 to 8  B[i] = A[i]; }
  )",
                     out, err);
  EXPECT_EQ(rc, ExitCode::kSuccess);
  EXPECT_NE(out.str().find("whole-program window: 8"), std::string::npos);
}

TEST(CliAnalyze, ParseErrorPropagates) {
  // The session's parse-error payload reaches the error stream as
  // file:line:col with exit kDiagnostics.
  std::ostringstream out, err;
  EXPECT_EQ(view(AnalysisRequest::Analyze{}, "for i = 1 to\n", out, err),
            ExitCode::kDiagnostics);
  EXPECT_NE(err.str().find("<input>:2:1: error:"), std::string::npos)
      << err.str();
}

TEST(CliAnalyze, LintErrorsAbortWithDiagnostics) {
  std::ostringstream out, err;
  ExitCode rc = view(AnalysisRequest::Analyze{},
                     "array A[4];\nfor i = 1 to 10\n  use A[i];\n", out, err);
  EXPECT_EQ(rc, ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("<input>:3:7: error:"), std::string::npos);
  EXPECT_NE(out.str().find("[LMRE-E001]"), std::string::npos);
}

TEST(CliOptimize, FindsPaperTransform) {
  std::ostringstream out, err;
  EXPECT_EQ(view(AnalysisRequest::Optimize{}, kExample8, out, err),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("[2 3; 1 1]"), std::string::npos);
  EXPECT_NE(s.find("44 -> 21"), std::string::npos);
}

TEST(CliDistances, Table) {
  std::ostringstream out;
  EXPECT_EQ(cmd_distances(kExample8, out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("(<, >)"), std::string::npos);  // (3,-2) and (5,-2)
  EXPECT_NE(s.find("(<, =)"), std::string::npos);  // (2,0)
}

TEST(CliMrc, ExplicitCapacities) {
  // The exact LRU curve of Example 8: 94 cold misses (its distinct
  // elements), and a capacity past the knee hits on every reuse.
  std::string file = ::testing::TempDir() + "mrc_explicit_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"mrc", "--capacities=1,48,64", file}, out, err),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("cold misses (distinct): 94"), std::string::npos) << s;
  EXPECT_NE(s.find("64            94      18.8%"), std::string::npos) << s;
}

TEST(CliMrc, AutoSweepIncludesKnee) {
  // Example 8's knee (max finite stack distance) is 48, and the automatic
  // sweep runs through it.
  std::string file = ::testing::TempDir() + "mrc_sweep_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"mrc", file}, out, err), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("knee: 48"), std::string::npos) << s;
  EXPECT_NE(s.find("\n48 "), std::string::npos) << s;
}

TEST(CliMrc, BadSampleRateExitsUsage) {
  // The CLI parses the number; the session owns the (0, 1] rule and
  // answers with a usage-status error payload.
  std::string file = ::testing::TempDir() + "mrc_bad_rate_input.loop";
  std::ofstream(file) << kExample8;
  for (const char* rate : {"0", "-0.5", "1.5"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli({"mrc", std::string("--sample-rate=") + rate, file},
                      out, err),
              ExitCode::kUsage)
        << rate;
    EXPECT_NE(err.str().find("sample rate must be in (0, 1]"),
              std::string::npos)
        << rate << " -> " << err.str();
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"mrc", "--sample-rate=abc", file}, out, err),
            ExitCode::kUsage);
  EXPECT_NE(err.str().find("bad --sample-rate value"), std::string::npos)
      << err.str();
}

TEST(CliMrc, BadCapacityExitsUsage) {
  // Junk and out-of-range capacities are usage errors with a message, not
  // an uncaught std::stoll exception.
  std::string file = ::testing::TempDir() + "mrc_bad_cap_input.loop";
  std::ofstream(file) << kExample8;
  for (const char* cap : {"abc", "99999999999999999999", "-4", "12x"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli({"mrc", std::string("--capacities=64,") + cap, file},
                      out, err),
              ExitCode::kUsage)
        << cap;
    EXPECT_NE(err.str().find("bad --capacities list"), std::string::npos)
        << cap << " -> " << err.str();
  }
}

TEST(CliSeries, EmitsCsv) {
  std::ostringstream out;
  EXPECT_EQ(cmd_series("for i = 1 to 4\n  A[i] = A[i-1];\n", out),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("iteration,window"), std::string::npos);
  // 4 iterations -> 4 data lines + header.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 5);
}

TEST(CliFigure2, Runs) {
  std::ostringstream out;
  EXPECT_EQ(cmd_figure2(out), ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("matmult"), std::string::npos);
  EXPECT_NE(s.find("273"), std::string::npos);
}

TEST(CliDispatcher, UnknownCommand) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"bogus"}, out, err), ExitCode::kUsage);
  EXPECT_NE(err.str().find("usage"), std::string::npos);
}

TEST(CliDispatcher, NoArgs) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({}, out, err), ExitCode::kUsage);
}

TEST(CliDispatcher, MissingFileArgument) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"analyze"}, out, err), ExitCode::kUsage);
}

TEST(CliDispatcher, UnreadableFile) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"analyze", "/nonexistent/nest.loop"}, out, err),
            ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(CliDispatcher, UnknownOptionExitsUsage) {
  std::string file = ::testing::TempDir() + "unknown_option.loop";
  std::ofstream(file) << kExample8;
  // A flag the verb does not take is refused wherever it stands; it is
  // never read as the input file nor silently dropped.
  const std::vector<std::vector<std::string>> cases = {
      {"analyze", file, "--bogus"},
      {"analyze", "--plan=1", file},
      {"optimize", file, "--sample-rate=0.5"},
      {"lint", file, "--run"},
      {"serve", "--bogus", "unused.sock"},
  };
  for (const auto& args : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), ExitCode::kUsage) << args[0];
    EXPECT_NE(err.str().find("unknown option"), std::string::npos)
        << err.str();
  }
}

const char* kOutOfBounds = "array A[4];\nfor i = 1 to 10\n  use A[i];\n";

TEST(CliLint, CleanInputExitsZero) {
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(kExample8, {}, out), ExitCode::kSuccess);
  EXPECT_EQ(out.str().find(" error: "), std::string::npos);
}

TEST(CliLint, OutOfBoundsFixtureReportsE001) {
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(kOutOfBounds, {}, out, "bad.loop"), ExitCode::kDiagnostics);
  std::string s = out.str();
  EXPECT_NE(s.find("bad.loop:3:7: error:"), std::string::npos);
  EXPECT_NE(s.find("[LMRE-E001]"), std::string::npos);
}

TEST(CliLint, JsonEmitsEnvelopedDiagnostics) {
  std::ostringstream out;
  LintCliOptions opts;
  opts.json = true;
  EXPECT_EQ(cmd_lint(kOutOfBounds, opts, out, "bad.loop"),
            ExitCode::kDiagnostics);
  std::string s = out.str();
  // The versioned envelope wraps a result object holding the diagnostics
  // array; machine-checkable fields present.
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"tool\": \"lmre\""), std::string::npos);
  EXPECT_NE(s.find("\"command\": \"lint\""), std::string::npos);
  EXPECT_NE(s.find("\"diagnostics\""), std::string::npos);
  EXPECT_NE(s.find("\"id\": \"LMRE-E001\""), std::string::npos);
  EXPECT_NE(s.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(s.find("\"file\": \"bad.loop\""), std::string::npos);
}

TEST(CliLint, StrictTurnsWarningsIntoNonzeroExit) {
  // Unused array: a warning, so kSuccess normally and kDiagnostics under
  // --strict.
  const char* src = "array B[5];\nfor i = 1 to 3\n  use A[i];\n";
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(src, {}, out), ExitCode::kSuccess);
  LintCliOptions strict;
  strict.strict = true;
  std::ostringstream out2;
  EXPECT_EQ(cmd_lint(src, strict, out2), ExitCode::kDiagnostics);
}

TEST(CliLint, ExplicitPlanIsRecertified) {
  // Interchange is illegal for distance (1, -1): documented ID, exit 3.
  const char* src = "for i = 1 to 6\n  for j = 1 to 6\n    A[i][j] = A[i-1][j+1];\n";
  LintCliOptions opts;
  opts.plan = IntMat{{0, 1}, {1, 0}};
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(src, opts, out), ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E013]"), std::string::npos);
}

TEST(CliLint, AuditedOptimizerPlanCertifies) {
  LintCliOptions opts;
  opts.audit_plan = true;
  std::ostringstream out;
  EXPECT_EQ(cmd_lint(kExample8, opts, out), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("[LMRE-N016]"), std::string::npos);
}

std::string write_temp(const std::string& name, const std::string& content) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << content;
  return path;
}

TEST(CliDispatcher, ParseErrorFormatsFileLineColumn) {
  std::string path = write_temp("truncated.loop", "for i = 1 to\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"analyze", path}, out, err), ExitCode::kDiagnostics);
  // The input ends mid-statement, so the position is end-of-input: 2:1.
  EXPECT_NE(err.str().find(path + ":2:1: error:"), std::string::npos);
}

TEST(CliDispatcher, LintVerbWithPlanFlag) {
  std::string path = write_temp(
      "skewed.loop", "for i = 1 to 6\n  for j = 1 to 6\n    A[i][j] = A[i-1][j+1];\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"lint", "--plan=0 1; 1 0", path}, out, err),
            ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E013]"), std::string::npos);
}

TEST(CliDispatcher, LintJsonVerb) {
  std::string path = write_temp("oob.loop", kOutOfBounds);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"lint", "--json", path}, out, err),
            ExitCode::kDiagnostics);
  EXPECT_EQ(out.str().front(), '{');
  EXPECT_NE(out.str().find("\"command\": \"lint\""), std::string::npos);
  EXPECT_NE(out.str().find("\"id\": \"LMRE-E001\""), std::string::npos);
}

// The verify verb's exit-code contract: 0 certified, 2 bad plan spec,
// 3 refuted/unproven, 1 structurally unsupported input.

TEST(CliVerify, AuditModeCertifiesOptimizerPlan) {
  std::ostringstream out, err;
  EXPECT_EQ(view(AnalysisRequest::Verify{}, kExample8, out, err),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("optimize plan (method"), std::string::npos);
  EXPECT_NE(s.find("certified: yes"), std::string::npos);
  EXPECT_NE(s.find("[LMRE-N016]"), std::string::npos);
  EXPECT_NE(s.find("checker: ok"), std::string::npos);
}

TEST(CliVerify, ReversalRefutedWithWitnessExitsDiagnostics) {
  std::string path = write_temp(
      "skew_verify.loop",
      "for i = 1 to 6\n  for j = 1 to 6\n    A[i][j] = A[i-1][j+1];\n");
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"verify", "--plan=0 1; 1 0", path}, out, err),
            ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("[LMRE-E013]"), std::string::npos);
  EXPECT_NE(out.str().find("[LMRE-E019]"), std::string::npos);
  EXPECT_NE(out.str().find("certified: no"), std::string::npos);
}

TEST(CliVerify, BadPlanSpecExitsUsage) {
  // An empty spec (`--plan=$PLAN` with PLAN unset) must not fall back to
  // auditing the optimizer's own plan and exit 0.
  std::string path = write_temp("plain_verify.loop", kExample8);
  for (const char* flag : {"--plan=banana", "--plan="}) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli({"verify", flag, path}, out, err), ExitCode::kUsage)
        << flag;
    EXPECT_EQ(out.str(), "") << flag;
  }
}

TEST(CliCodegen, EmptyPlanSpecExitsUsage) {
  // Nor may an empty spec quietly mean the identity order for codegen and
  // mrc, or be dropped from a request.
  std::string path = write_temp("empty_plan_codegen.loop", kExample8);
  for (const char* verb : {"codegen", "mrc"}) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli({verb, "--plan=", path}, out, err), ExitCode::kUsage)
        << verb;
    EXPECT_NE(err.str().find("--plan= needs a spec"), std::string::npos)
        << verb << " -> " << err.str();
  }
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", "/nonexistent/lmre.sock", "--kind=codegen",
                     "--plan=", path},
                    out, err),
            ExitCode::kUsage);
}

TEST(CliVerify, MultiPhaseSourceExitsFailure) {
  std::ostringstream out, err;
  ExitCode rc = view(AnalysisRequest::Verify{}, R"(
    array A[8];
    phase p { for i = 1 to 8  A[i] = 0; }
    phase c { for i = 1 to 8  B[i] = A[i]; }
  )",
                     out, err);
  EXPECT_EQ(rc, ExitCode::kFailure);
  EXPECT_NE(err.str().find("<input>: error: verify works on single-nest"),
            std::string::npos)
      << err.str();
}

TEST(CliVerify, JsonEmitsCertificateAndCheckerVerdict) {
  std::string path = write_temp("plain_verify.loop", kExample8);
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"verify", "--json", "--plan=1 0; 0 1", path}, out, err),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"command\": \"verify\""), std::string::npos);
  // The envelope is pretty-printed; the spliced session payload is compact.
  EXPECT_NE(s.find("\"certified\":true"), std::string::npos);
  EXPECT_NE(s.find("\"checker\":{\"ok\":true"), std::string::npos);
}

TEST(CliAnalyzeJson, EnvelopeWrapsResult) {
  std::ostringstream out, err;
  EXPECT_EQ(view(AnalysisRequest::Analyze{}, kExample8, out, err,
                 /*json=*/true),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"command\": \"analyze\""), std::string::npos);
  EXPECT_NE(s.find("\"mws_exact\":44"), std::string::npos);
}

TEST(CliOptimizeJson, EnvelopeWrapsResult) {
  std::ostringstream out, err;
  EXPECT_EQ(view(AnalysisRequest::Optimize{}, kExample8, out, err,
                 /*json=*/true),
            ExitCode::kSuccess);
  std::string s = out.str();
  EXPECT_NE(s.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"command\": \"optimize\""), std::string::npos);
  EXPECT_NE(s.find("\"method\":\"row-minimizer\""), std::string::npos);
}

// ---- one request path: every session-backed verb is a view ---------------

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The .loop corpus, sorted; empty when the source tree is not reachable
// from the test's working directory.
std::vector<std::string> corpus_files() {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const char* base : {"examples/loops", "../examples/loops",
                           "../../examples/loops", "../../../examples/loops"}) {
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (const auto& entry : fs::directory_iterator(base, ec)) {
      if (entry.path().extension() == ".loop") {
        files.push_back(entry.path().string());
      }
    }
    break;
  }
  std::sort(files.begin(), files.end());
  return files;
}

// "1 0 0; 0 0 1; 0 1 0": the identity with the two innermost loops swapped
// ("1" for a 1-deep nest).
std::string innermost_interchange(size_t depth) {
  std::string spec;
  for (size_t r = 0; r < depth; ++r) {
    if (r) spec += "; ";
    const size_t one = depth < 2 || r + 2 < depth ? r : 2 * depth - 3 - r;
    for (size_t c = 0; c < depth; ++c) {
      if (c) spec += ' ';
      spec += c == one ? '1' : '0';
    }
  }
  return spec;
}

struct VerbCase {
  const char* name;
  std::vector<std::string> flags;  ///< "{plan}" = the innermost interchange
  Kind kind;
};

void PrintTo(const VerbCase& vc, std::ostream* os) { *os << vc.name; }

class CliParity : public ::testing::TestWithParam<VerbCase> {};

// The CLI's --json result is the session payload byte for byte, and the
// exit code is its status: the verb renders AnalysisSession::run, it does
// not re-implement the pipeline.
TEST_P(CliParity, JsonResultIsTheSessionPayload) {
  const VerbCase& vc = GetParam();
  const std::vector<std::string> files = corpus_files();
  if (files.empty()) GTEST_SKIP() << "examples/loops not found from test cwd";
  for (const std::string& file : files) {
    const std::string source = read_text(file);
    const Program program = parse_program(source);
    const std::string interchange =
        innermost_interchange(program.phase_nest(0).depth());

    std::vector<std::string> args = {vc.kind == Kind::kSymbolic
                                         ? "analyze"
                                         : to_string(vc.kind),
                                     "--json"};
    AnalysisRequest req(source, file, vc.kind);
    for (std::string flag : vc.flags) {
      if (flag == "--plan={plan}") flag = "--plan=" + interchange;
      args.push_back(flag);
      const std::string value = flag.substr(flag.find('=') + 1);
      if (flag == "--plan") {
        if (auto* c = std::get_if<AnalysisRequest::Codegen>(&req.options)) {
          c->plan = "auto";
        }
        if (auto* m = std::get_if<AnalysisRequest::Mrc>(&req.options)) {
          m->plan = "auto";
        }
      } else if (flag.rfind("--plan=", 0) == 0) {
        if (auto* v = std::get_if<AnalysisRequest::Verify>(&req.options)) {
          v->plan = value;
        }
        if (auto* c = std::get_if<AnalysisRequest::Codegen>(&req.options)) {
          c->plan = value;
        }
        if (auto* m = std::get_if<AnalysisRequest::Mrc>(&req.options)) {
          m->plan = value;
        }
      } else if (flag.rfind("--objective=", 0) == 0) {
        std::get<AnalysisRequest::Optimize>(req.options).objective = value;
      }
    }
    args.push_back(file);

    std::ostringstream out, err;
    const ExitCode rc = run_cli(args, out, err);
    const AnalysisResult want = AnalysisSession().run(req);
    std::string perr;
    const std::optional<WireValue> doc = parse_wire_json(out.str(), &perr);
    ASSERT_TRUE(doc) << file << ": " << perr;
    const WireValue* result = doc->find("result");
    ASSERT_NE(result, nullptr) << file;
    EXPECT_EQ(result->raw, want.payload) << vc.name << " " << file;
    EXPECT_EQ(rc, want.status) << vc.name << " " << file;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Verbs, CliParity,
    ::testing::Values(
        VerbCase{"analyze", {}, Kind::kAnalyze},
        VerbCase{"symbolic", {"--symbolic"}, Kind::kSymbolic},
        VerbCase{"optimize", {}, Kind::kOptimize},
        VerbCase{"optimize_miss_ratio", {"--objective=miss-ratio:64"},
                 Kind::kOptimize},
        VerbCase{"verify", {}, Kind::kVerify},
        VerbCase{"verify_interchange", {"--plan={plan}"}, Kind::kVerify},
        VerbCase{"codegen", {}, Kind::kCodegen},
        VerbCase{"codegen_plan", {"--plan"}, Kind::kCodegen},
        VerbCase{"mrc", {}, Kind::kMrc},
        VerbCase{"mrc_plan", {"--plan"}, Kind::kMrc}));

// A 1e11-iteration nest answers at once through the session's verify-limit
// gate instead of tracing every iteration (which would take hours and
// gigabytes), in text and in --json.
TEST(CliResources, HugeNestSkipsTheExactTrace) {
  const std::string file = ::testing::TempDir() + "huge_nest.loop";
  std::ofstream(file) << "for i = 1 to 100000000000\n  A[i] = A[i-1];\n";
  for (const char* verb : {"analyze", "optimize"}) {
    std::ostringstream text, json, err;
    EXPECT_EQ(run_cli({verb, file}, text, err), ExitCode::kSuccess) << verb;
    EXPECT_EQ(run_cli({verb, "--json", file}, json, err), ExitCode::kSuccess)
        << verb;
    if (std::string(verb) == "analyze") {
      EXPECT_NE(json.str().find("\"exact_skipped\":true"), std::string::npos);
      EXPECT_NE(text.str().find("exact measurement skipped"),
                std::string::npos)
          << text.str();
    } else {
      EXPECT_EQ(json.str().find("mws_before"), std::string::npos);
      EXPECT_NE(text.str().find("exact window: - -> -"), std::string::npos)
          << text.str();
    }
  }
}

// ---- batch verb ------------------------------------------------------------

TEST(CliBatch, DirectoryExpansionAndTextTable) {
  std::string dir = ::testing::TempDir() + "batch_text";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/b.loop") << kExample8;
  std::ofstream(dir + "/a.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::ofstream(dir + "/notes.txt") << "not a loop file";
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", dir}, out, err), ExitCode::kSuccess);
  std::string s = out.str();
  // Sorted *.loop only; the .txt is skipped.
  size_t a = s.find("a.loop"), b = s.find("b.loop");
  EXPECT_NE(a, std::string::npos);
  EXPECT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_EQ(s.find("notes.txt"), std::string::npos);
  EXPECT_NE(s.find("2 files, 2 ok"), std::string::npos);
}

TEST(CliBatch, ExitCodeIsWorstPerFileStatus) {
  std::string dir = ::testing::TempDir() + "batch_worst";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/good.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::ofstream(dir + "/bad.loop") << kOutOfBounds;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", dir}, out, err), ExitCode::kDiagnostics);
  EXPECT_NE(out.str().find("diagnostics"), std::string::npos);
}

TEST(CliBatch, MissingInputFails) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"batch", "/nonexistent/corpus"}, out, err),
            ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(CliBatch, JsonColdAndWarmRunsAreByteIdentical) {
  std::string dir = ::testing::TempDir() + "batch_json";
  std::string cache = ::testing::TempDir() + "batch_json_cache";
  std::filesystem::remove_all(cache);
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/x.loop") << kExample8;
  std::ofstream(dir + "/y.loop") << "for i = 1 to 4\n  A[i] = A[i-1];\n";
  std::string metrics = ::testing::TempDir() + "batch_json_metrics.json";

  std::ostringstream cold, warm, err;
  EXPECT_EQ(run_cli({"batch", "--json", "--cache-dir=" + cache, dir}, cold, err),
            ExitCode::kSuccess);
  EXPECT_EQ(run_cli({"batch", "--json", "--threads=4", "--cache-dir=" + cache,
                     "--metrics=" + metrics, dir},
                    warm, err),
            ExitCode::kSuccess);
  // Warm run at a different thread count: byte-identical result document.
  EXPECT_EQ(cold.str(), warm.str());
  EXPECT_NE(cold.str().find("\"command\": \"batch\""), std::string::npos);
  EXPECT_NE(cold.str().find("\"schema_version\": 2"), std::string::npos);

  // The warm run's metrics report every file as a (disk) cache hit.
  std::ifstream mf(metrics);
  ASSERT_TRUE(mf.good());
  std::stringstream ms;
  ms << mf.rdbuf();
  EXPECT_NE(ms.str().find("\"command\": \"batch-metrics\""), std::string::npos);
  EXPECT_NE(ms.str().find("\"cache.hit_rate\": 1"), std::string::npos);
  EXPECT_NE(ms.str().find("\"runs.cached\": 2"), std::string::npos);
}

TEST(CliVersion, TextReportsSchemaAndBuild) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"version"}, out, err), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("schema_version 2"), std::string::npos);
  EXPECT_NE(out.str().find("build:"), std::string::npos);
  EXPECT_NE(out.str().find("C++"), std::string::npos);

  // `lmre --version` is the conventional spelling of the same command.
  std::ostringstream dashed;
  EXPECT_EQ(run_cli({"--version"}, dashed, err), ExitCode::kSuccess);
  EXPECT_EQ(dashed.str(), out.str());
}

TEST(CliVersion, JsonUsesTheStandardEnvelope) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"version", "--json"}, out, err), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("\"command\": \"version\""), std::string::npos);
  EXPECT_NE(out.str().find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(out.str().find("\"compiler\""), std::string::npos);
  EXPECT_NE(out.str().find("\"cxx_standard\""), std::string::npos);
}

TEST(CliServe, RejectsMissingTransport) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"serve"}, out, err), ExitCode::kUsage);
  EXPECT_NE(err.str().find("socket path, --tcp=HOST:PORT, or --stdio"),
            std::string::npos);
}

TEST(CliServe, HelpPrintsUsageWithoutServing) {
  // Must return at once: no transport is bound, stdin is never read.
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"serve", "--help"}, out, err), ExitCode::kSuccess);
  EXPECT_NE(out.str().find("usage"), std::string::npos);
  EXPECT_NE(out.str().find("serve     <socket>|--stdio"), std::string::npos);
  EXPECT_TRUE(err.str().empty()) << err.str();
  std::ostringstream out2, err2;
  EXPECT_EQ(run_cli({"serve", "--stdio", "-h"}, out2, err2),
            ExitCode::kSuccess);
  EXPECT_EQ(out2.str(), out.str());
}

TEST(CliServe, RejectsMultipleTransports) {
  // Each pair of transports must be refused, not silently preferred.
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"serve", "/tmp/a.sock", "--stdio"}, out, err),
            ExitCode::kUsage);
  EXPECT_EQ(run_cli({"serve", "/tmp/a.sock", "--tcp=127.0.0.1:0"}, out, err),
            ExitCode::kUsage);
  EXPECT_EQ(run_cli({"serve", "--stdio", "--tcp=127.0.0.1:0"}, out, err),
            ExitCode::kUsage);
  EXPECT_NE(err.str().find("exactly one transport"), std::string::npos);
}

TEST(CliServe, ValidatesTuningFlags) {
  struct Case {
    const char* flag;
    const char* needle;
  };
  const Case cases[] = {
      {"--queue-depth=0", "--queue-depth must be >= 1"},
      {"--queue-depth=abc", "bad --queue-depth value"},
      {"--queue=0", "--queue-depth must be >= 1"},  // legacy spelling
      {"--cache-shards=0", "--cache-shards must be >= 1"},
      {"--cache-shards=x", "bad --cache-shards value"},
      {"--cache-ttl=-1", "--cache-ttl must be >= 0"},
      {"--cache-ttl=soon", "bad --cache-ttl value"},
      {"--cache-bytes=-5", "--cache-bytes must be >= 0"},
      {"--cache-bytes=big", "bad --cache-bytes value"},
      {"--tcp=127.0.0.1", "bad --tcp value"},       // no port
      {"--tcp=127.0.0.1:99999", "bad --tcp value"},  // port out of range
  };
  for (const Case& c : cases) {
    std::ostringstream out, err;
    EXPECT_EQ(run_cli({"serve", "--stdio", c.flag}, out, err),
              ExitCode::kUsage)
        << c.flag;
    EXPECT_NE(err.str().find(c.needle), std::string::npos)
        << c.flag << " -> " << err.str();
  }
}

TEST(CliRequest, UnreachableSocketFails) {
  std::string missing = ::testing::TempDir() + "no_such_server.sock";
  std::string file = ::testing::TempDir() + "request_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", missing, file}, out, err), ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot connect"), std::string::npos);
}

TEST(CliRequest, UnreachableTcpServerFails) {
  // Port 1 on loopback: privileged and almost certainly unbound, so the
  // connect is refused rather than hanging.
  std::string file = ::testing::TempDir() + "request_tcp_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", "--tcp=127.0.0.1:1", file}, out, err),
            ExitCode::kFailure);
  EXPECT_NE(err.str().find("cannot connect"), std::string::npos);
}

TEST(CliRequest, TcpRejectsBadAddressAndExtraPositional) {
  std::string file = ::testing::TempDir() + "request_tcp_input.loop";
  std::ofstream(file) << kExample8;
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"request", "--tcp=nowhere", file}, out, err),
            ExitCode::kUsage);
  EXPECT_NE(err.str().find("bad --tcp value"), std::string::npos);
  // With --tcp the socket positional must be dropped.
  std::ostringstream out2, err2;
  EXPECT_EQ(
      run_cli({"request", "--tcp=127.0.0.1:1", "/tmp/a.sock", file}, out2,
              err2),
      ExitCode::kUsage);
}

}  // namespace
}  // namespace lmre::tools

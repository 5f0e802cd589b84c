// Unit tests for the C backend (src/codegen) and the typed request API
// around it: deterministic emission, the certification gate, the
// kind/exit-code registries, per-kind cache keys, and v1/v2 wire parsing.

#include <gtest/gtest.h>

#include <string>

#include "codegen/codegen.h"
#include "ir/parser.h"
#include "runtime/session.h"
#include "server/wire.h"
#include "support/error.h"
#include "verify/verify.h"

namespace lmre {
namespace {

const char* kExample8 =
    "array X[106];\n"
    "for i = 1 to 25\n"
    "  for j = 1 to 10\n"
    "    X[2*i + 5*j + 1] = X[2*i + 5*j + 5];\n";

const char* kSmallNest =
    "array A[32];\n"
    "for i = 1 to 8\n"
    "  for j = 1 to 8\n"
    "    A[i + j] = A[i + j - 1];\n";

TEST(Codegen, EmissionIsDeterministic) {
  LoopNest nest = parse_nest(kExample8);
  VerifyPlan identity;
  CodegenResult a = emit_c(nest, identity);
  CodegenResult b = emit_c(nest, identity);
  EXPECT_EQ(a.c_source, b.c_source);
  EXPECT_FALSE(a.c_source.empty());
  EXPECT_EQ(a.window_cells, b.window_cells);
  EXPECT_EQ(a.mws_total, b.mws_total);
}

TEST(Codegen, BufferPlansAreCollisionFreeAndWindowSized) {
  LoopNest nest = parse_nest(kExample8);
  CodegenResult cg = emit_c(nest, VerifyPlan{});
  ASSERT_EQ(cg.buffers.size(), 1u);
  const BufferPlan& b = cg.buffers[0];
  EXPECT_EQ(b.name, "X");
  EXPECT_TRUE(b.collision_free);
  EXPECT_GE(b.modulus, b.mws);   // a buffer can never be smaller than MWS
  EXPECT_LE(b.modulus, b.region);
  EXPECT_EQ(cg.window_cells, b.modulus);
  EXPECT_LT(cg.window_cells, cg.original_cells);
  EXPECT_GT(cg.footprint_ratio(), 0.0);
  EXPECT_LT(cg.footprint_ratio(), 1.0);
}

TEST(Codegen, SlotFreedByAReadServesTheSameIterationsWrite) {
  // A[i+1] = A[i]: each iteration reads the element the previous one
  // wrote, then writes the next.  Access order within the iteration (the
  // read before the write) lets one cell hold the whole chain.
  LoopNest nest = parse_nest(
      "array A[12];\n"
      "for i = 1 to 10\n"
      "  A[i + 1] = A[i];\n");
  CodegenResult cg = emit_c(nest, VerifyPlan{});
  ASSERT_EQ(cg.buffers.size(), 1u);
  EXPECT_EQ(cg.buffers[0].mws, 1);
  EXPECT_EQ(cg.buffers[0].modulus, 1);
  EXPECT_EQ(cg.buffers[0].region, 11);
  EXPECT_EQ(cg.buffers[0].cold_loads, 1);
  EXPECT_EQ(cg.buffers[0].writebacks, 10);
}

TEST(Codegen, SparseStrideMatchesItsDenseTwin) {
  // A 1000-cell stride leaves the touched region 30x emptier than the
  // box, so the host walk takes the engine's probe-table store; the
  // bijective dense twin must plan the same windows and traffic.
  LoopNest sparse = parse_nest(
      "array A[12000];\n"
      "for i = 1 to 10\n"
      "  A[1000*i] = A[1000*i] + A[1000*i + 1000];\n");
  LoopNest dense = parse_nest(
      "array A[12];\n"
      "for i = 1 to 10\n"
      "  A[i] = A[i] + A[i + 1];\n");
  CodegenResult s = emit_c(sparse, VerifyPlan{});
  CodegenResult d = emit_c(dense, VerifyPlan{});
  ASSERT_EQ(s.buffers.size(), 1u);
  ASSERT_EQ(d.buffers.size(), 1u);
  EXPECT_EQ(s.buffers[0].region, 10001);
  EXPECT_EQ(s.buffers[0].mws, d.buffers[0].mws);
  EXPECT_EQ(s.buffers[0].cold_loads, d.buffers[0].cold_loads);
  EXPECT_EQ(s.buffers[0].writebacks, d.buffers[0].writebacks);
  EXPECT_EQ(s.mws_total, d.mws_total);
  EXPECT_EQ(d.buffers[0].mws, 1);
  EXPECT_EQ(d.buffers[0].cold_loads, 11);
  EXPECT_EQ(d.buffers[0].writebacks, 10);
  EXPECT_GE(s.buffers[0].modulus, s.buffers[0].mws);
}

TEST(Codegen, GeneratedUnitEmbedsSelfCheck) {
  LoopNest nest = parse_nest(kSmallNest);
  CodegenOptions opts;
  opts.stem = "unit";
  CodegenResult cg = emit_c(nest, VerifyPlan{}, opts);
  // The unit carries both nests and the check harness under the stem.
  EXPECT_NE(cg.c_source.find("lm_unit_original"), std::string::npos);
  EXPECT_NE(cg.c_source.find("lm_unit_window"), std::string::npos);
  EXPECT_NE(cg.c_source.find("lm_unit_check"), std::string::npos);
  EXPECT_NE(cg.c_source.find("int main(void)"), std::string::npos);
  // Non-standalone units omit main but keep the shared-runtime guard so
  // several kernels concatenate into one TU.
  opts.standalone = false;
  CodegenResult lib = emit_c(nest, VerifyPlan{}, opts);
  EXPECT_EQ(lib.c_source.find("int main(void)"), std::string::npos);
  EXPECT_NE(lib.c_source.find("#ifndef LMRE_RT"), std::string::npos);
}

TEST(Codegen, SessionRefusesUncertifiedPlans) {
  AnalysisSession session;
  // The i-reversal of Example 8 is refuted by the prover; codegen must
  // refuse it rather than emit order-breaking code.
  AnalysisRequest req{kExample8, "<test>",
                      AnalysisRequest::Codegen{"-1 0; 0 1", false, ""}};
  AnalysisResult res = session.run(req);
  EXPECT_EQ(res.status, ExitCode::kDiagnostics);
  EXPECT_NE(res.payload.find("uncertified"), std::string::npos);
}

TEST(Codegen, SessionRejectsMalformedPlanSpecs) {
  AnalysisSession session;
  AnalysisRequest req{kExample8, "<test>",
                      AnalysisRequest::Codegen{"not a plan", false, ""}};
  AnalysisResult res = session.run(req);
  EXPECT_EQ(res.status, ExitCode::kUsage);
  EXPECT_NE(res.payload.find("bad_plan"), std::string::npos);
}

TEST(Codegen, SessionEmitsWindowAccounting) {
  AnalysisSession session;
  AnalysisRequest req{kExample8, "<test>", AnalysisRequest::Kind::kCodegen};
  AnalysisResult res = session.run(req);
  EXPECT_EQ(res.status, ExitCode::kSuccess);
  EXPECT_NE(res.payload.find("\"codegen\""), std::string::npos);
  EXPECT_NE(res.payload.find("\"window_cells\""), std::string::npos);
  EXPECT_NE(res.payload.find("\"buffers\""), std::string::npos);
  // Identical request -> warm hit with the identical payload.
  AnalysisResult warm = session.run(req);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.payload, res.payload);
}

TEST(Codegen, RequestKeySeesEveryCodegenKnob) {
  AnalysisSession session;
  AnalysisRequest emit{kExample8, "<test>",
                       AnalysisRequest::Codegen{"", false, ""}};
  AnalysisRequest run{kExample8, "<test>",
                      AnalysisRequest::Codegen{"", true, ""}};
  AnalysisRequest cc{kExample8, "<test>",
                     AnalysisRequest::Codegen{"", true, "gcc"}};
  AnalysisRequest planned{kExample8, "<test>",
                          AnalysisRequest::Codegen{"1 0; 0 1", false, ""}};
  EXPECT_NE(session.request_key(emit), session.request_key(run));
  EXPECT_NE(session.request_key(run), session.request_key(cc));
  EXPECT_NE(session.request_key(emit), session.request_key(planned));
  // ...and a codegen request never collides with another kind.
  AnalysisRequest verify{kExample8, "<test>", AnalysisRequest::Kind::kVerify};
  EXPECT_NE(session.request_key(emit), session.request_key(verify));
}

TEST(Registry, KindNamesRoundTrip) {
  for (const AnalysisKindInfo& info : kAnalysisKinds) {
    EXPECT_STREQ(to_string(info.kind), info.name);
    auto parsed = kind_from_string(info.name);
    ASSERT_TRUE(parsed.has_value()) << info.name;
    EXPECT_EQ(*parsed, info.kind);
    // set_kind and the variant index agree with the registry row.
    AnalysisRequest req;
    req.set_kind(info.kind);
    EXPECT_EQ(req.kind(), info.kind);
  }
  EXPECT_FALSE(kind_from_string("bogus").has_value());
  std::string joined = kind_names_joined();
  EXPECT_NE(joined.find("codegen"), std::string::npos);
  EXPECT_NE(joined.find("verify"), std::string::npos);
}

TEST(Registry, ExitCodesMatchTable) {
  EXPECT_EQ(kExitCodeCount, 5u);
  for (const ExitCodeInfo& info : kExitCodes) {
    EXPECT_STREQ(to_string(info.code), info.name);
  }
  EXPECT_STREQ(to_string(ExitCode::kDiagnostics), "diagnostics");
}

TEST(Wire, V1RequestsStillParse) {
  // A v1 line: no schema_version, plan as a top-level key.
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id": 1, "kind": "verify", "source": "x", "plan": "0 1; 1 0"})",
      &req, &error))
      << error;
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kVerify);
  ASSERT_NE(req.analysis.verify(), nullptr);
  EXPECT_EQ(req.analysis.verify()->plan, "0 1; 1 0");

  ASSERT_TRUE(parse_request(
      R"({"id": 2, "schema_version": 1, "source": "x"})", &req, &error))
      << error;
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kFull);
}

TEST(Wire, V2CodegenOptionsParse) {
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id": 3, "schema_version": 2, "kind": "codegen", "source": "x",
          "options": {"plan": "auto", "run": true, "cc": "cc",
                      "deadline_ms": 50}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kCodegen);
  ASSERT_NE(req.analysis.codegen(), nullptr);
  EXPECT_EQ(req.analysis.codegen()->plan, "auto");
  EXPECT_TRUE(req.analysis.codegen()->run);
  EXPECT_EQ(req.analysis.codegen()->cc, "cc");
  EXPECT_DOUBLE_EQ(req.deadline_ms, 50.0);
  // options.plan wins over a (v1-style) top-level plan.
  ASSERT_TRUE(parse_request(
      R"({"kind": "verify", "source": "x", "plan": "old",
          "options": {"plan": "new"}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.analysis.verify()->plan, "new");
}

TEST(Wire, UnsupportedSchemaVersionIsRejected) {
  ServerRequest req;
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"schema_version": 3, "source": "x"})", &req, &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  EXPECT_FALSE(parse_request(
      R"({"schema_version": 0, "source": "x"})", &req, &error));
  EXPECT_FALSE(parse_request(
      R"({"schema_version": "2", "source": "x"})", &req, &error));
  // Typed option values are validated per kind.
  EXPECT_FALSE(parse_request(
      R"({"kind": "codegen", "source": "x", "options": {"run": "yes"}})",
      &req, &error));
}

TEST(Codegen, StructuralGatesThrow) {
  LoopNest nest = parse_nest(kExample8);
  VerifyPlan bad;
  bad.tile_sizes = {4};  // wrong arity for a 2-deep nest
  EXPECT_THROW(emit_c(nest, bad), UnsupportedError);
  CodegenOptions tiny;
  tiny.trace_limit = 10;  // 250 iterations >> 10
  EXPECT_THROW(emit_c(nest, VerifyPlan{}, tiny), UnsupportedError);
}

}  // namespace
}  // namespace lmre

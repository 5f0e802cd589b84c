#include "trace.h"

#include <cstdlib>
#include <optional>

#include "analysis/report.h"
#include "checks.h"
#include "codegen/codegen.h"
#include "exact/oracle.h"
#include "exact/trace_engine.h"
#include "ir/parser.h"
#include "lint/lint.h"
#include "mrc/mrc.h"
#include "symbolic/derive.h"
#include "transform/minimizer.h"
#include "verify/verify.h"

namespace perfbench {

using lmre::AnalysisRequest;
using lmre::WireValue;
using Kind = AnalysisRequest::Kind;

namespace {

std::string mat_text(const lmre::IntMat& t) {
  std::string out = "[";
  for (size_t r = 0; r < t.rows(); ++r) {
    out += r ? ",[" : "[";
    for (size_t c = 0; c < t.cols(); ++c) {
      out += (c ? "," : "") + std::to_string(t(r, c));
    }
    out += "]";
  }
  return out + "]";
}

/// "... = 43/2 (estimate)" -> 21.5; nullopt when absent.
std::optional<double> estimate_value(const std::string& s) {
  size_t eq = s.rfind("= ");
  if (eq == std::string::npos) return std::nullopt;
  const char* p = s.c_str() + eq + 2;
  char* end = nullptr;
  double num = std::strtod(p, &end);
  if (end == p) return std::nullopt;
  if (*end == '/') num /= std::strtod(end + 1, nullptr);
  return num;
}

const WireValue* path(const std::optional<WireValue>& doc, const char* a, const char* b) {
  const WireValue* x = doc ? doc->find(a) : nullptr;
  return x ? x->find(b) : nullptr;
}

std::string raw_or(const WireValue* v) { return v ? canonical(*v) : "<absent>"; }

}  // namespace

std::string trace_request(const lmre::AnalysisSession& session, const Item& item,
                          const std::string& payload, int request, TraceTotals& t) {
  const AnalysisRequest& req = item.req;
  const lmre::RunOptions run = session.options().run;
  const std::optional<WireValue> doc = parse_json(payload);
  SpanRecorder& rec = t.rec;
  lmre::TraceArena arena;
  std::string mismatch;
  auto expect = [&](const std::string& what, const std::string& got, const WireValue* want) {
    if (mismatch.empty() && got != raw_or(want)) mismatch = what + ": traced " + got + " vs payload " + raw_or(want);
  };
  auto simulate_span = [&](auto&& call) {
    const lmre::Int before = arena.stats().accesses;
    ScopedSpan s(rec, "exact.simulate", request);
    lmre::TraceStats st = call();
    t.simulate_accesses += static_cast<double>(arena.stats().accesses - before);
    return st;
  };
  auto optimize_span = [&](const lmre::LoopNest& nest) {
    const lmre::Int before = arena.stats().runs;
    lmre::OptimizeResult opt;
    {
      ScopedSpan s(rec, "transform.optimize_locality", request);
      opt = lmre::optimize_locality(nest, lmre::minimizer_options(run), arena);
    }
    ++t.optimize_calls;
    t.optimize_oracle_runs += static_cast<double>(arena.stats().runs - before);
    return opt;
  };
  auto verify_span = [&](const lmre::LoopNest& nest, const lmre::VerifyPlan& plan) {
    lmre::VerifyResult v;
    {
      ScopedSpan s(rec, "verify.verify_plan", request);
      v = lmre::verify_plan(nest, plan);
    }
    ++t.verify_calls;
    t.verify_certified += v.certified ? 1 : 0;
    return v;
  };

  {
    ScopedSpan root(rec, "runtime.run", request);
    {
      ScopedSpan s(rec, "runtime.request_key", request);
      (void)session.request_key(req);
    }
    lmre::ProgramSourceMap smap;
    lmre::Program program;
    {
      ScopedSpan s(rec, "ir.parse_program", request);
      program = lmre::parse_program(req.source, &smap);
    }
    t.parse_bytes += static_cast<double>(req.source.size());
    lmre::LintResult lint;
    {
      ScopedSpan s(rec, "lint.lint_program", request);
      lint = lmre::lint_program(program, &smap);
    }
    const bool single = program.phase_count() == 1;
    const Kind kind = req.kind();
    const bool program_kind = kind == Kind::kAnalyze || kind == Kind::kFull;
    if (lint.has_errors() || kind == Kind::kLint || (!single && !program_kind)) {
      // Nothing past lint: the payload's lint section is the result.
    } else if (kind == Kind::kSymbolic) {
      lmre::SymbolicResult sym;
      {
        ScopedSpan s(rec, "symbolic.symbolic_analysis", request);
        sym = lmre::symbolic_analysis(program.phase_nest(0));
      }
      ++t.symbolic_calls;
      t.symbolic_usable += sym.usable() ? 1 : 0;
    } else if (kind == Kind::kVerify) {
      const lmre::LoopNest& nest = program.phase_nest(0);
      lmre::VerifyPlan plan;
      if (req.plan_spec().empty()) {
        plan.steps = {optimize_span(nest).transform};
      } else {
        plan = *lmre::parse_plan_spec(req.plan_spec());
      }
      lmre::VerifyResult v = verify_span(nest, plan);
      expect("verify.certified", v.certified ? "true" : "false", path(doc, "verify", "certified"));
    } else if (kind == Kind::kCodegen) {
      const lmre::LoopNest& nest = program.phase_nest(0);
      lmre::VerifyPlan plan;
      if (req.plan_spec() == "auto") {
        plan.steps = {optimize_span(nest).transform};
        verify_span(nest, plan);
      } else if (!req.plan_spec().empty()) {
        plan = *lmre::parse_plan_spec(req.plan_spec());
        verify_span(nest, plan);
      }
      lmre::CodegenResult cg;
      {
        ScopedSpan s(rec, "codegen.emit_c", request);
        lmre::CodegenOptions eopts;
        eopts.trace_limit = run.verify_limit;
        cg = lmre::emit_c(nest, plan, eopts);
      }
      t.c_bytes += static_cast<double>(cg.c_source.size());
      expect("codegen.transform", mat_text(cg.combined), path(doc, "codegen", "transform"));
    } else if (kind == Kind::kMrc) {
      const lmre::LoopNest& nest = program.phase_nest(0);
      lmre::IntMat transform = lmre::IntMat::identity(nest.depth());
      if (req.plan_spec() == "auto") transform = optimize_span(nest).transform;
      const bool ident = transform == lmre::IntMat::identity(nest.depth());
      lmre::MrcOptions mo;
      mo.transform = ident ? nullptr : &transform;
      {
        ScopedSpan s(rec, "mrc.compute_mrc", request);
        (void)lmre::compute_mrc(nest, mo, arena);
      }
      expect("mrc.transform", mat_text(transform), path(doc, "mrc", "transform"));
    } else {
      // analyze / full (the estimate and exact measurement), then full's
      // and optimize's transform search.
      if (kind != Kind::kOptimize) {
        if (single) {
          const lmre::LoopNest& nest = program.phase_nest(0);
          {
            ScopedSpan s(rec, "analysis.analyze_memory", request);
            (void)lmre::analyze_memory(nest, /*with_oracle=*/false);
          }
          if (nest.iteration_count() <= run.verify_limit) {
            lmre::TraceStats st = simulate_span([&] { return lmre::simulate(nest, 1, arena); });
            expect("analysis.mws_exact", std::to_string(st.mws_total), path(doc, "analysis", "mws_exact"));
          }
        } else {
          ScopedSpan s(rec, "exact.simulate", request);
          lmre::ProgramStats ps = program.simulate();
          expect("program.mws_exact", std::to_string(ps.mws_total), path(doc, "program", "mws_exact"));
        }
      }
      if (single && kind != Kind::kAnalyze) {
        const lmre::LoopNest& nest = program.phase_nest(0);
        lmre::OptimizeResult opt = optimize_span(nest);
        lmre::VerifyPlan vplan;
        vplan.steps = {opt.transform};
        lmre::VerifyResult v = verify_span(nest, vplan);
        expect("optimize.certified", v.certified ? "true" : "false", path(doc, "optimize", "certified"));
        if (!v.certified) opt.transform = lmre::IntMat::identity(nest.depth());
        expect("optimize.transform", mat_text(opt.transform), path(doc, "optimize", "transform"));
        std::optional<double> sym_window;
        {
          ScopedSpan s(rec, "symbolic.symbolic_analysis", request);
          try {
            lmre::SymbolicResult sym = lmre::symbolic_analysis_transformed(nest, opt.transform);
            if (sym.window_total) {
              sym_window = static_cast<double>(sym.window_total->eval(sym.bound_values));
            } else if (sym.window_estimate) {
              sym_window = estimate_value(*sym.window_estimate);
            }
          } catch (const lmre::Error&) {
          }
        }
        if (nest.iteration_count() <= run.verify_limit) {
          (void)simulate_span([&] { return lmre::simulate(nest, 1, arena); });
        }
        if (lmre::transformed_scan_volume(nest, opt.transform) <= run.verify_limit) {
          lmre::TraceStats after = simulate_span(
              [&] { return lmre::simulate_transformed(nest, opt.transform, arena); });
          expect("optimize.mws_after", std::to_string(after.mws_total), path(doc, "optimize", "mws_after"));
          const double measured = static_cast<double>(after.mws_total) + 1.0;
          t.predicted_vs_measured.push_back((static_cast<double>(opt.predicted_mws) + 1.0) / measured);
          if (sym_window) t.symbolic_vs_measured.push_back((*sym_window + 1.0) / measured);
        }
      }
    }
  }
  const lmre::OracleStats& os = arena.stats();
  t.dense_stores += static_cast<double>(os.dense_stores);
  t.sparse_stores += static_cast<double>(os.sparse_stores);
  t.arena_high_water = std::max(t.arena_high_water, static_cast<double>(os.arena_high_water_bytes));
  return mismatch;
}

}  // namespace perfbench

#include "tools/commands.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "codes/kernels.h"
#include "dependence/dependence.h"
#include "diag/diagnostic.h"
#include "exact/oracle.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "lint/lint.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "support/json.h"
#include "support/text.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"

namespace lmre::tools {

namespace {

// ---- payload readers: the text views print what the payload says -------

// A payload integer, read from its exact text (never through double).
Int int_of(const WireValue* v) { return v ? std::stoll(v->raw) : 0; }

std::string commas(const WireValue* v) { return with_commas(int_of(v)); }

// with_commas of an optional integer; "-" when the payload omits it.
std::string opt_commas(const WireValue* v) {
  return v ? commas(v) : std::string("-");
}

const std::string& text_of(const WireValue* v) {
  static const std::string empty;
  return v ? v->text : empty;
}

bool flag_of(const WireValue* v) { return v && v->boolean; }

const char* yes_no(const WireValue* v) { return flag_of(v) ? "yes" : "no"; }

// "(1, 3, -3)", the IntVec::str rendering of a payload integer array.
std::string vec_str(const WireValue& v) {
  std::string s = "(";
  for (size_t k = 0; k < v.elements.size(); ++k) {
    if (k) s += ", ";
    s += v.elements[k].raw;
  }
  return s + ")";
}

IntMat mat_of(const WireValue& rows) {
  const size_t n = rows.elements.size();
  IntMat m(n, n == 0 ? 0 : rows.elements[0].elements.size());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = int_of(&rows.elements[r].elements[c]);
    }
  }
  return m;
}

// The payload's file-name-free diagnostic records, ready for render_text.
std::vector<Diagnostic> diagnostics_of(const WireValue* list) {
  std::vector<Diagnostic> diags;
  if (!list) return diags;
  for (const WireValue& d : list->elements) {
    Diagnostic diag;
    diag.id = text_of(d.find("id"));
    const std::string& severity = text_of(d.find("severity"));
    diag.severity = severity == "error"     ? Severity::kError
                    : severity == "warning" ? Severity::kWarning
                                            : Severity::kNote;
    diag.message = text_of(d.find("message"));
    if (const WireValue* line = d.find("line")) {
      diag.span.line = static_cast<int>(int_of(line));
      diag.span.column = static_cast<int>(int_of(d.find("column")));
    }
    diag.phase = text_of(d.find("phase"));
    diags.push_back(std::move(diag));
  }
  return diags;
}

// The one nest of a source the session already parsed -- the views
// re-parse only to print loops.
LoopNest nest_of(const std::string& source) {
  return parse_program(source).phase_nest(0);
}

// ---- per-kind text views ---------------------------------------------------

void render_analysis(const WireValue& doc, const std::string& source,
                     std::ostream& out) {
  if (const WireValue* prog = doc.find("program")) {
    out << "multi-phase program, " << prog->find("iterations")->raw
        << " iterations\n";
    const WireValue* phases = prog->find("phases");
    if (!phases) {
      out << "exact measurement skipped: iteration volume exceeds the "
             "verify limit\n";
      return;
    }
    TextTable t;
    t.header({"phase", "starts", "handoff in", "peak window"});
    for (const WireValue& p : phases->elements) {
      t.row({text_of(p.find("name")), commas(p.find("start")),
             commas(p.find("handoff")), commas(p.find("mws"))});
    }
    out << t.render() << "whole-program window: "
        << prog->find("mws_exact")->raw << '\n';
    return;
  }
  const WireValue& a = *doc.find("analysis");
  out << print_nest(nest_of(source)) << '\n';
  TextTable t;
  t.header({"array", "declared", "distinct est", "distinct exact", "MWS est",
            "MWS exact"});
  for (const WireValue& ar : a.find("arrays")->elements) {
    std::string dist_est = "-";
    if (const WireValue* est = ar.find("distinct_estimate")) {
      dist_est = commas(est);
    } else if (const WireValue* upper = ar.find("distinct_upper")) {
      dist_est = "[" + opt_commas(ar.find("distinct_lower")) + ", " +
                 commas(upper) + "]";
    }
    t.row({text_of(ar.find("name")), commas(ar.find("declared")), dist_est,
           opt_commas(ar.find("distinct_exact")),
           opt_commas(ar.find("mws_estimate")),
           opt_commas(ar.find("mws_exact"))});
  }
  t.row({"TOTAL", commas(a.find("default_memory")),
         commas(a.find("distinct_estimate")),
         opt_commas(a.find("distinct_exact")),
         opt_commas(a.find("mws_estimate")), opt_commas(a.find("mws_exact"))});
  out << t.render();
  if (flag_of(a.find("exact_skipped"))) {
    out << "exact measurement skipped: " << commas(a.find("iterations"))
        << " iterations exceed the verify limit\n";
  }
}

void render_symbolic(const WireValue& doc, const std::string& file,
                     std::ostream& out) {
  const WireValue& sym = *doc.find("symbolic");
  out << "symbolic bounds:";
  const std::vector<WireValue>& bounds = sym.find("bounds")->elements;
  for (size_t k = 0; k < bounds.size(); ++k) {
    out << (k == 0 ? " " : ", ") << text_of(bounds[k].find("name")) << " = "
        << bounds[k].find("value")->raw;
  }
  out << '\n';

  TextTable t;
  t.header({"array", "quantity", "closed form", "value here"});
  auto row = [&t](const std::string& array, const std::string& quantity,
                  const WireValue* formula) {
    if (formula) {
      t.row({array, quantity, text_of(formula->find("rendered")),
             commas(formula->find("value"))});
    }
  };
  for (const WireValue& a : sym.find("arrays")->elements) {
    const std::string& name = text_of(a.find("name"));
    row(name, "distinct", a.find("distinct"));
    row(name, "reuse", a.find("reuse"));
    for (const WireValue& d : a.find("dependences")->elements) {
      row(name, "volume d=" + vec_str(*d.find("distance")), d.find("volume"));
    }
    row(name, "window", a.find("window"));
  }
  out << t.render();
  for (const auto& [label, key] :
       {std::pair{"distinct total: ", "distinct_total"},
        std::pair{"reuse total:    ", "reuse_total"},
        std::pair{"window total:   ", "window_total"}}) {
    if (const WireValue* f = sym.find(key)) {
      out << label << text_of(f->find("rendered")) << " = "
          << commas(f->find("value")) << '\n';
    }
  }
  std::vector<Diagnostic> diags = diagnostics_of(sym.find("diagnostics"));
  if (!diags.empty()) out << render_text(diags, file, Severity::kNote);
}

void render_optimize(const WireValue& doc, const std::string& source,
                     std::ostream& out) {
  const WireValue& o = *doc.find("optimize");
  const IntMat t = mat_of(*o.find("transform"));
  if (const WireValue* refused = o.find("uncertified_transform")) {
    out << "plan " << mat_of(*refused).str()
        << " cannot be certified; downgraded to identity\n";
  }
  out << "method: " << text_of(o.find("method")) << "\nT = " << t.str()
      << "\ncertified: " << yes_no(o.find("certified")) << "\n\n";
  out << TransformedNest(nest_of(source), t).print()
      << "\nexact window: " << opt_commas(o.find("mws_before")) << " -> "
      << opt_commas(o.find("mws_after")) << '\n';
  if (const WireValue* capacity = o.find("objective_capacity")) {
    out << "objective: miss-ratio at capacity " << commas(capacity) << ": "
        << percent(o.find("miss_ratio_before")->number) << " -> "
        << percent(o.find("miss_ratio_after")->number) << '\n';
  }
  if (const WireValue* w = o.find("symbolic_window")) {
    out << "symbolic window: " << w->text << '\n';
  } else if (const WireValue* est = o.find("symbolic_window_estimate")) {
    out << "symbolic window: " << est->text << '\n';
  }
}

void render_verify(const WireValue& doc, const std::string& file,
                   std::ostream& out) {
  const WireValue& cert = *doc.find("verify");
  const WireValue& plan = *cert.find("plan");
  out << "plan: " << text_of(plan.find("spec")) << '\n';
  if (!cert.find("structure_error")) {
    const WireValue& counts = *cert.find("counts");
    out << "combined T = " << mat_of(*plan.find("combined")).str() << '\n'
        << "legal: " << yes_no(cert.find("legal"))
        << ", tileable: " << yes_no(cert.find("tileable"))
        << ", certified: " << yes_no(cert.find("certified"))
        << ", exact: " << yes_no(cert.find("exact")) << '\n'
        << "dependences: " << counts.find("memory")->raw << " memory / "
        << counts.find("total")->raw << " total\n";
    TextTable t;
    t.header({"nest", "level", "class"});
    const WireValue& levels = *cert.find("levels");
    for (const char* nest : {"original", "transformed"}) {
      for (const WireValue& lc : levels.find(nest)->elements) {
        t.row({nest, lc.find("level")->raw,
               flag_of(lc.find("doall"))   ? "DOALL"
               : flag_of(lc.find("exact")) ? "carries deps"
                                           : "unproven"});
      }
    }
    out << t.render();
  }
  std::vector<Diagnostic> diags = diagnostics_of(doc.find("verify_diagnostics"));
  out << render_text(diags, file) << render_summary(diags) << '\n';
  const WireValue& check = *doc.find("checker");
  out << "checker: " << (flag_of(check.find("ok")) ? "ok" : "FAILED") << " ("
      << check.find("proofs")->raw << " proofs, "
      << check.find("witnesses")->raw << " witnesses re-validated, "
      << check.find("trusted")->raw << " trusted)\n";
  if (const WireValue* failures = check.find("failures")) {
    for (const WireValue& f : failures->elements) {
      out << "checker: " << f.text << '\n';
    }
  }
}

void render_codegen(const WireValue& doc, const std::string& emit_file,
                    std::ostream& out) {
  const WireValue& cg = *doc.find("codegen");
  out << "plan: " << text_of(cg.find("plan")) << '\n'
      << "combined T = " << mat_of(*cg.find("transform")).str() << '\n';
  if (const WireValue* tiles = cg.find("tile_sizes")) {
    out << "tile sizes:";
    for (const WireValue& s : tiles->elements) out << ' ' << s.raw;
    out << '\n';
  }
  out << "iterations: " << commas(cg.find("iterations")) << '\n'
      << "window: " << commas(cg.find("window_cells")) << " buffer cells vs "
      << commas(cg.find("original_cells")) << " declared (ratio "
      << cg.find("footprint_ratio")->number << "), mws_total "
      << cg.find("mws_total")->raw << '\n';
  TextTable t;
  t.header({"array", "declared", "region", "mws", "modulus", "cold loads",
            "writebacks"});
  for (const WireValue& b : cg.find("buffers")->elements) {
    t.row({text_of(b.find("name")), commas(b.find("declared")),
           commas(b.find("region")), commas(b.find("mws")),
           commas(b.find("modulus")), commas(b.find("cold_loads")),
           commas(b.find("writebacks"))});
  }
  out << t.render();
  if (const WireValue* run = cg.find("run")) {
    auto ok = [run](const char* key, const char* good) {
      return flag_of(run->find(key)) ? good : "MISMATCH";
    };
    if (const WireValue* status = run->find("status")) {
      out << "run: " << status->raw << '\n'
          << "  identical " << yes_no(run->find("identical")) << ", sink "
          << ok("sink_match", "match") << ", mws " << ok("mws_ok", "ok")
          << " (measured " << run->find("mws_measured")->raw << ")"
          << ", traffic " << ok("traffic_ok", "ok") << " (loads "
          << run->find("loads")->raw << ", stores "
          << run->find("stores")->raw << ", reloads "
          << run->find("reloads")->raw << ")\n";
    } else {
      out << "run: not compiled\n";
    }
    if (const WireValue* detail = run->find("detail")) {
      if (!detail->text.empty()) out << "  detail: " << detail->text << '\n';
    }
  }
  if (emit_file.empty()) {
    out << "--- generated C ---\n" << text_of(cg.find("c"));
  } else {
    out << "wrote " << emit_file << '\n';
  }
}

void render_mrc(const WireValue& doc, std::ostream& out) {
  const WireValue& m = *doc.find("mrc");
  const bool exact = flag_of(m.find("exact"));
  // Exact curves carry integer weights, sampled ones rescaled estimates.
  auto weight = [exact](const WireValue* v) {
    if (exact) return commas(v);
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(1) << v->number;
    return ss.str();
  };

  out << "plan: " << text_of(m.find("plan"));
  if (const WireValue* method = m.find("method")) {
    out << " (method '" << method->text << "')";
  }
  out << '\n';
  if (exact) {
    out << "mode: exact\n";
  } else {
    out << "mode: sampled at rate " << m.find("sample_rate")->number << " ("
        << commas(m.find("sampled_elements"))
        << " sampled elements, error bound "
        << percent(m.find("error_bound")->number) << ")\n";
  }
  out << "accesses: " << commas(m.find("accesses"))
      << "  cold misses (distinct): " << weight(m.find("cold_misses"))
      << "  knee: " << commas(m.find("knee")) << '\n';

  TextTable arrays;
  arrays.header({"array", "refs", "accesses", "distinct", "knee"});
  for (const WireValue& a : m.find("arrays")->elements) {
    arrays.row({text_of(a.find("name")), commas(a.find("refs")),
                commas(a.find("accesses")), weight(a.find("distinct")),
                commas(a.find("knee"))});
  }
  out << arrays.render();

  TextTable curve;
  curve.header({"LRU capacity", "misses", "miss ratio"});
  for (const WireValue& p : m.find("curve")->elements) {
    curve.row({commas(p.find("capacity")), weight(p.find("misses")),
               percent(p.find("miss_ratio")->number)});
  }
  out << curve.render();
}

// The payload section a successful request of `kind` carries.
const char* section_of(AnalysisRequest::Kind kind) {
  switch (kind) {
    case AnalysisRequest::Kind::kSymbolic: return "symbolic";
    case AnalysisRequest::Kind::kOptimize: return "optimize";
    case AnalysisRequest::Kind::kVerify: return "verify";
    case AnalysisRequest::Kind::kCodegen: return "codegen";
    case AnalysisRequest::Kind::kMrc: return "mrc";
    default: return "analysis";
  }
}

}  // namespace

ExitCode cmd_view(const AnalysisRequest& req, const ViewOptions& opts,
                  std::ostream& out, std::ostream& err) {
  SessionOptions sopts;
  sopts.run.threads = opts.threads;
  AnalysisSession session(sopts);
  const AnalysisResult res = session.run(req);
  const std::optional<WireValue> doc = parse_wire_json(res.payload, nullptr);
  if (!doc) {
    err << req.file << ": error: malformed result payload\n";
    return ExitCode::kFailure;
  }
  const AnalysisRequest::Kind kind = req.kind();

  if (!opts.emit_file.empty()) {
    if (const WireValue* cg = doc->find("codegen")) {
      std::ofstream cf(opts.emit_file, std::ios::trunc);
      if (!cf) {
        err << "cannot write " << opts.emit_file << '\n';
        return ExitCode::kFailure;
      }
      cf << text_of(cg->find("c"));
    }
  }
  if (opts.json) {
    const char* verb = kind == AnalysisRequest::Kind::kSymbolic
                           ? "analyze"
                           : to_string(kind);
    out << json_envelope(verb, Json::raw(res.payload)).dump(2) << '\n';
    return res.status;
  }

  if (const WireValue* error = doc->find("error")) {
    err << req.file;
    if (const WireValue* line = error->find("line")) {
      err << ':' << line->raw << ':' << error->find("column")->raw;
    }
    err << ": error: " << text_of(error->find("message")) << '\n';
    return res.status;
  }
  // Lint findings come first: warnings are shown and the verb proceeds; a
  // rejected input carries no result section and stops here.
  const WireValue* lint = doc->find("lint");
  const std::vector<Diagnostic> lint_diags =
      diagnostics_of(lint ? lint->find("diagnostics") : nullptr);
  out << render_text(lint_diags, req.file, Severity::kWarning);
  if (!doc->find(section_of(kind)) && !doc->find("program")) {
    out << render_summary(lint_diags) << '\n';
    return res.status;
  }
  switch (kind) {
    case AnalysisRequest::Kind::kSymbolic:
      render_symbolic(*doc, req.file, out);
      break;
    case AnalysisRequest::Kind::kOptimize:
      render_optimize(*doc, req.source, out);
      break;
    case AnalysisRequest::Kind::kVerify:
      render_verify(*doc, req.file, out);
      break;
    case AnalysisRequest::Kind::kCodegen:
      render_codegen(*doc, opts.emit_file, out);
      break;
    case AnalysisRequest::Kind::kMrc:
      render_mrc(*doc, out);
      break;
    default:
      render_analysis(*doc, req.source, out);
      break;
  }
  return res.status;
}

ExitCode cmd_lint(const std::string& source, const LintCliOptions& cli,
                  std::ostream& out, const std::string& file) {
  ProgramSourceMap smap;
  Program program = parse_program(source, &smap);

  LintOptions opts;
  if (cli.plan) {
    opts.plan = &*cli.plan;
  } else {
    opts.audit_plan = cli.audit_plan;
  }
  if ((opts.plan != nullptr || opts.audit_plan) && program.phase_count() > 1) {
    out << "lint --plan works on single-nest sources\n";
    return ExitCode::kFailure;
  }

  LintResult res = lint_program(program, &smap, opts);
  if (cli.json) {
    Json doc = Json::object();
    doc.set("diagnostics", render_json(res.diagnostics, file));
    out << json_envelope("lint", std::move(doc)).dump(2) << '\n';
  } else {
    out << render_text(res.diagnostics, file)
        << render_summary(res.diagnostics) << '\n';
  }
  bool fail = res.has_errors() || (cli.strict && res.has_warnings());
  return fail ? ExitCode::kDiagnostics : ExitCode::kSuccess;
}

ExitCode cmd_distances(const std::string& source, std::ostream& out) {
  Program parsed = parse_program(source);
  const Program* program = &parsed;
  TextTable t;
  t.header({"phase", "kind", "distance", "direction", "level"});
  for (size_t k = 0; k < program->phase_count(); ++k) {
    DependenceInfo info = analyze_dependences(program->phase_nest(k));
    for (const auto& d : info.deps) {
      t.row({program->phase_name(k), to_string(d.kind), d.distance.str(),
             direction_string(d.distance), std::to_string(d.level())});
    }
    if (info.has_nonuniform()) {
      t.row({program->phase_name(k), "non-uniform", "-", "-", "-"});
    }
  }
  out << t.render();
  return ExitCode::kSuccess;
}

ExitCode cmd_series(const std::string& source, std::ostream& out) {
  Program parsed = parse_program(source);
  const Program* program = &parsed;
  if (program->phase_count() > 1) {
    out << "series works on single-nest sources\n";
    return ExitCode::kFailure;
  }
  const LoopNest& nest = program->phase_nest(0);
  std::vector<Int> series = window_series(nest, IntMat::identity(nest.depth()));
  out << "iteration,window\n";
  for (size_t t = 0; t < series.size(); ++t) {
    out << t << ',' << series[t] << '\n';
  }
  return ExitCode::kSuccess;
}

ExitCode cmd_figure2(std::ostream& out, int threads) {
  MinimizerOptions opts;
  opts.threads = threads;
  TextTable t;
  t.header({"code", "default", "MWS_unopt", "MWS_opt", "method"});
  for (auto& e : codes::figure2_suite()) {
    OptimizeResult res = optimize_locality(e.nest, opts);
    t.row({e.name, with_commas(e.nest.default_memory()),
           with_commas(simulate(e.nest).mws_total),
           with_commas(simulate_transformed(e.nest, res.transform).mws_total),
           res.method});
  }
  out << t.render();
  return ExitCode::kSuccess;
}

namespace {

std::optional<std::string> read_source(const std::string& path, std::ostream& err) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) {
    err << "cannot open " << path << '\n';
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Expands batch inputs: a directory contributes its *.loop files; plain
/// paths pass through.  The final list is sorted (deterministic output
/// order) and deduplicated.  nullopt when a path does not exist.
std::optional<std::vector<std::string>> expand_batch_inputs(
    const std::vector<std::string>& inputs, std::ostream& err) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const auto& entry : fs::directory_iterator(input, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".loop") {
          files.push_back(entry.path().string());
        }
      }
      if (ec) {
        err << "cannot read directory " << input << '\n';
        return std::nullopt;
      }
    } else if (fs::is_regular_file(input, ec)) {
      files.push_back(input);
    } else {
      err << "cannot open " << input << '\n';
      return std::nullopt;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

}  // namespace

ExitCode cmd_batch(const std::vector<std::string>& inputs,
                   const BatchCliOptions& opts, std::ostream& out,
                   std::ostream& err) {
  auto files = expand_batch_inputs(inputs, err);
  if (!files) return ExitCode::kFailure;
  if (files->empty()) {
    err << "batch: no .loop files to analyze\n";
    return ExitCode::kFailure;
  }

  SessionOptions session_opts;
  session_opts.run.threads = opts.threads;
  session_opts.cache_dir = opts.cache_dir;
  AnalysisSession session(session_opts);

  std::vector<AnalysisRequest> requests;
  requests.reserve(files->size());
  for (const std::string& path : *files) {
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    requests.push_back(AnalysisRequest{std::move(*source), path,
                                       AnalysisRequest::Kind::kFull});
  }

  std::vector<AnalysisResult> results = session.run_batch(requests);

  ExitCode worst = ExitCode::kSuccess;
  Int ok = 0;
  for (const AnalysisResult& r : results) {
    if (r.status == ExitCode::kSuccess) ok += 1;
    if (to_int(r.status) > to_int(worst)) worst = r.status;
  }

  // The result document is deliberately free of cache/timing state so a
  // warm re-run is byte-identical to the cold one; --metrics carries the
  // run-dependent side.
  if (opts.json) {
    Json list = Json::array();
    for (size_t i = 0; i < results.size(); ++i) {
      list.push(Json::object()
                    .set("file", requests[i].file)
                    .set("status", to_int(results[i].status))
                    .set("status_name", to_string(results[i].status))
                    .set("result", Json::raw(results[i].payload)));
    }
    Json doc = Json::object();
    doc.set("files", std::move(list));
    doc.set("summary", Json::object()
                           .set("total", static_cast<Int>(results.size()))
                           .set("ok", ok)
                           .set("failed", static_cast<Int>(results.size()) - ok));
    out << json_envelope("batch", std::move(doc)).dump(2) << '\n';
  } else {
    TextTable t;
    t.header({"file", "status"});
    for (size_t i = 0; i < results.size(); ++i) {
      t.row({requests[i].file, to_string(results[i].status)});
    }
    out << t.render() << results.size() << " files, " << ok << " ok\n";
  }

  if (!opts.metrics_file.empty()) {
    std::ofstream mf(opts.metrics_file, std::ios::trunc);
    if (!mf) {
      err << "cannot write " << opts.metrics_file << '\n';
      return ExitCode::kFailure;
    }
    mf << json_envelope("batch-metrics", session.metrics_json()).dump(2) << '\n';
  }
  return worst;
}

namespace {

// The server a stop signal should reach.  Handlers only do the lock-free
// atomic load + request_stop (an atomic store) -- both async-signal-safe.
std::atomic<AnalysisServer*> g_active_server{nullptr};

void handle_stop_signal(int) {
  if (AnalysisServer* server = g_active_server.load()) server->request_stop();
}

}  // namespace

ExitCode cmd_serve(const ServeCliOptions& opts, std::istream& in,
                   std::ostream& out, std::ostream& err) {
  if (opts.socket.empty() && opts.tcp.empty() && !opts.stdio) {
    err << "serve: need a socket path, --tcp=HOST:PORT, or --stdio\n";
    return ExitCode::kUsage;
  }
  std::optional<HostPort> tcp_target;
  if (!opts.tcp.empty()) {
    std::string perr;
    tcp_target = parse_host_port(opts.tcp, &perr);
    if (!tcp_target) {
      err << "serve: bad --tcp address: " << perr << '\n';
      return ExitCode::kUsage;
    }
  }
  ServerOptions sopts;
  sopts.workers = opts.workers;
  sopts.queue_depth = opts.queue_depth;
  sopts.coalesce = opts.coalesce;
  sopts.session.cache_dir = opts.cache_dir;
  sopts.session.cache_shards = opts.cache_shards;
  sopts.session.cache_ttl_seconds = opts.cache_ttl;
  sopts.session.cache_byte_budget = opts.cache_bytes;
  sopts.metrics_file = opts.metrics_file;
  AnalysisServer server(sopts);

  g_active_server.store(&server);
  auto prev_int = std::signal(SIGINT, handle_stop_signal);
  auto prev_term = std::signal(SIGTERM, handle_stop_signal);

  ExitCode rc = ExitCode::kSuccess;
  if (opts.stdio) {
    server.serve_streams(in, out);
  } else if (tcp_target) {
    // Announce the bound address once the loop is listening -- with
    // --tcp=HOST:0 this is how scripts learn the kernel-assigned port.
    std::thread announcer([&server, &out, &tcp_target] {
      while (server.tcp_port() < 0 && !server.stopped()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (server.tcp_port() >= 0) {
        out << "serve: listening on " << tcp_target->host << ':'
            << server.tcp_port() << std::endl;
      }
    });
    std::string terr;
    rc = server.serve_tcp(tcp_target->host, tcp_target->port, &terr);
    server.request_stop();  // releases the announcer on bind failure
    announcer.join();
    if (rc != ExitCode::kSuccess) {
      err << "serve: " << (terr.empty() ? "cannot listen" : terr) << '\n';
    }
  } else {
    rc = server.serve_socket(opts.socket);
    if (rc != ExitCode::kSuccess) {
      err << "serve: cannot listen on " << opts.socket << '\n';
    }
  }

  std::signal(SIGINT, prev_int);
  std::signal(SIGTERM, prev_term);
  g_active_server.store(nullptr);
  return rc;
}

ExitCode cmd_request(const std::string& source, const std::string& file,
                     const RequestCliOptions& opts, std::ostream& out,
                     std::ostream& err) {
  // Emit a v2 request: per-kind knobs (plan) ride in the "options"
  // object alongside the wire-level deadline.
  Json request = Json::object();
  request.set("id", opts.id.empty() ? file : opts.id);
  request.set("schema_version", kJsonSchemaVersion);
  request.set("kind", opts.kind);
  request.set("source", source);
  Json options = Json::object();
  if (!opts.plan.empty()) options.set("plan", opts.plan);
  if (!opts.objective.empty()) options.set("objective", opts.objective);
  if (opts.sample_rate) options.set("sample_rate", *opts.sample_rate);
  if (!opts.capacities.empty()) {
    Json caps = Json::array();
    for (Int c : opts.capacities) caps.push(c);
    options.set("capacities", std::move(caps));
  }
  if (opts.deadline_ms > 0) options.set("deadline_ms", opts.deadline_ms);
  if (options.size() > 0) request.set("options", std::move(options));

  int fd = -1;
  if (!opts.tcp.empty()) {
    std::string terr;
    std::optional<HostPort> target = parse_host_port(opts.tcp, &terr);
    if (!target) {
      err << "request: bad --tcp address: " << terr << '\n';
      return ExitCode::kUsage;
    }
    fd = tcp_connect(target->host, target->port, &terr);
    if (fd < 0) {
      err << "request: cannot connect to " << opts.tcp << ": " << terr << '\n';
      return ExitCode::kFailure;
    }
  } else {
    std::string uerr;
    fd = unix_connect(opts.socket, &uerr);
    if (fd < 0) {
      err << "request: cannot connect to " << opts.socket << ": " << uerr
          << '\n';
      return ExitCode::kFailure;
    }
  }

  std::string line = request.dump(0) + '\n';
  size_t sent = 0;
  while (sent < line.size()) {
    ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      err << "request: send failed\n";
      return ExitCode::kFailure;
    }
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);  // one request per connection; signal EOF

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
    if (response.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  size_t nl = response.find('\n');
  if (nl == std::string::npos) {
    err << "request: no response (server gone?)\n";
    return ExitCode::kFailure;
  }
  response.resize(nl);

  std::string parse_error;
  std::optional<WireValue> doc = parse_wire_json(response, &parse_error);
  const WireValue* result = doc ? doc->find("result") : nullptr;
  const WireValue* status = result ? result->find("status") : nullptr;
  if (!status || status->kind != WireValue::Kind::kNumber) {
    err << "request: malformed response: " << response << '\n';
    return ExitCode::kFailure;
  }
  if (opts.raw) {
    // Just the embedded analysis payload -- byte-identical to what `lmre
    // batch` embeds for this source, or the error message for wire errors.
    if (const WireValue* payload = result->find("result")) {
      out << payload->raw << '\n';
    } else if (const WireValue* error = result->find("error")) {
      out << error->raw << '\n';
    }
  } else {
    out << response << '\n';
  }

  auto wire = static_cast<ServeStatus>(static_cast<int>(status->number));
  switch (wire) {
    case ServeStatus::kOverloaded:
    case ServeStatus::kTimeout:
      return ExitCode::kFailure;
    case ServeStatus::kBadRequest:
      return ExitCode::kUsage;
    default:
      return static_cast<ExitCode>(static_cast<int>(wire));
  }
}

namespace {

// Build info for `lmre version`: which compiler produced this binary and
// the language standard it targeted.
std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

ExitCode cmd_version(bool json, std::ostream& out) {
  const Int cxx_standard = static_cast<Int>(__cplusplus / 100 % 100);
  if (json) {
    Json doc = Json::object();
    doc.set("schema_version", kJsonSchemaVersion);
    doc.set("compiler", compiler_string());
    doc.set("cxx_standard", cxx_standard);
    out << json_envelope("version", std::move(doc)).dump(2) << '\n';
  } else {
    out << "lmre schema_version " << kJsonSchemaVersion << '\n'
        << "build: " << compiler_string() << ", C++" << cxx_standard << '\n';
  }
  return ExitCode::kSuccess;
}

std::string usage() {
  std::string u =
      "usage: lmre <command> [args]\n"
      "  analyze   [--json] [--symbolic] <file|->\n"
      "                                estimates + exact window report;\n"
      "                                --symbolic: closed-form formulas in\n"
      "                                the bounds N1..Nn (O(1) in the trip\n"
      "                                counts, declines with LMRE-E017\n"
      "                                rather than guessing)\n"
      "  optimize  [--json] [--threads=N] [--objective=SPEC] <file|->\n"
      "                                window-minimizing transformation;\n"
      "                                --objective=miss-ratio:<capacity>\n"
      "                                re-scores the top candidates by exact\n"
      "                                LRU miss ratio at that capacity\n"
      "                                (default SPEC: mws)\n"
      "  lint      [--json] [--strict] [--plan[=\"a b; c d\"]] <file|->\n"
      "                                static diagnostics (check IDs LMRE-*);\n"
      "                                --plan re-certifies a transform plan\n"
      "                                (default: the one optimize emits)\n"
      "  verify    [--json] [--plan[=SPEC]] <file|->\n"
      "                                dependence-preservation prover: exact\n"
      "                                legality + DOALL/wavefront analysis\n"
      "                                with a machine-checkable certificate;\n"
      "                                SPEC = '|'-separated unimodular steps\n"
      "                                (rows ';', entries space/comma) plus\n"
      "                                an optional trailing tile:4,4 chunk,\n"
      "                                e.g. --plan=\"0 1; 1 0 | tile:8,8\";\n"
      "                                no --plan audits the optimizer's plan\n"
      "  codegen   [--json] [--plan[=SPEC]] [--run] [--cc=PATH]\n"
      "            [--emit=FILE] <file|->\n"
      "                                lower the nest to standalone C:\n"
      "                                original nest over full arrays +\n"
      "                                the plan's order against window-\n"
      "                                sized modulo buffers, with a built-\n"
      "                                in bit-identity and window check;\n"
      "                                bare --plan takes the optimizer's\n"
      "                                (certified) plan, --run compiles\n"
      "                                and executes the check with cc\n"
      "  mrc       [--json] [--plan[=SPEC]] [--sample-rate=R]\n"
      "            [--capacities=LIST] <file|->\n"
      "                                reuse-distance histogram + miss-ratio\n"
      "                                curve under the given execution order\n"
      "                                (bare --plan: the optimizer's plan);\n"
      "                                --sample-rate enables deterministic\n"
      "                                SHARDS-style spatial sampling with a\n"
      "                                declared error bound, --capacities\n"
      "                                picks the curve's evaluation points\n"
      "  batch     [--json] [--threads=N] [--cache-dir=D] [--metrics=FILE]\n"
      "            <dir|files...>      full pipeline over a corpus of .loop\n"
      "                                files with memoized results; --metrics\n"
      "                                writes counters/timers/cache stats\n"
      "  serve     <socket>|--stdio|--tcp=HOST:PORT [--workers=N]\n"
      "            [--queue-depth=N] [--cache-shards=N] [--cache-ttl=S]\n"
      "            [--cache-bytes=N] [--no-coalesce] [--cache-dir=D]\n"
      "            [--metrics=FILE]\n"
      "                                long-running analysis server over a\n"
      "                                Unix socket, TCP (PORT 0 = pick one,\n"
      "                                announced on stdout), or stdin/stdout\n"
      "                                with --stdio; newline-delimited JSON\n"
      "                                requests, bounded queue (full =>\n"
      "                                overloaded), sharded result cache,\n"
      "                                single-flight coalescing of identical\n"
      "                                in-flight requests (--no-coalesce\n"
      "                                disables), per-request deadlines,\n"
      "                                graceful drain on SIGINT/SIGTERM\n"
      "  request   <socket> <file|-> | --tcp=HOST:PORT <file|->\n"
      "            [--kind=K] [--plan=SPEC]\n"
      "            [--objective=SPEC] [--sample-rate=R] [--capacities=LIST]\n"
      "            [--deadline=MS] [--id=S] [--raw]\n"
      "                                send one request to a running server;\n"
      "                                --plan forwards a verify/codegen/mrc\n"
      "                                plan spec, --objective/--sample-rate/\n"
      "                                --capacities the optimize and mrc\n"
      "                                knobs, --raw prints just the payload\n"
      "  version                       schema version + build info\n"
      "  distances <file|->            dependence distance/direction table\n"
      "  series    <file|->            window-size time series as CSV\n"
      "  figure2   [--threads=N]       regenerate the paper's main table\n"
      "--threads: search/verify workers (0 = all cores, 1 = serial; the\n"
      "result is bit-identical for every value).\n";
  // The kind and exit-code tables render straight from the registries
  // (kAnalysisKinds, kExitCodes) so --help can never drift from the enums.
  u += "request kinds (--kind=K, also batch/serve requests):\n";
  for (const AnalysisKindInfo& k : kAnalysisKinds) {
    u += "  ";
    u += k.name;
    for (size_t pad = std::char_traits<char>::length(k.name); pad < 10; ++pad) {
      u += ' ';
    }
    u += k.summary;
    u += '\n';
  }
  u += "exit codes:\n";
  for (const ExitCodeInfo& e : kExitCodes) {
    u += "  " + std::to_string(to_int(e.code)) + " " + e.name + ": " +
         e.meaning + "\n";
  }
  u +=
      "--json output is wrapped in {schema_version, tool, command, result};\n"
      "for analyze, optimize, verify, codegen and mrc the result is the\n"
      "same payload batch and serve embed for that request kind.\n"
      "DSL files use the grammar in src/ir/parser.h; '-' reads stdin.\n";
  return u;
}

namespace {

// Parses "--plan=a b; c d" matrix text (rows split on ';', entries on
// spaces/commas); nullopt on malformed input.
std::optional<IntMat> parse_plan_matrix(const std::string& text) {
  std::vector<std::vector<Int>> rows;
  std::istringstream row_stream(text);
  std::string row_text;
  while (std::getline(row_stream, row_text, ';')) {
    for (char& c : row_text) {
      if (c == ',') c = ' ';
    }
    std::istringstream cells(row_text);
    std::vector<Int> row;
    Int v = 0;
    while (cells >> v) row.push_back(v);
    if (!cells.eof()) return std::nullopt;  // non-numeric junk
    if (row.empty()) return std::nullopt;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return std::nullopt;
  IntMat m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != rows[0].size()) return std::nullopt;
    for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

// Parses "--capacities=1,64,540" (comma-separated non-negative integers
// that fit Int); nullopt on junk, a sign, out-of-range text, or an empty
// list.
std::optional<std::vector<Int>> parse_capacity_list(const std::string& text) {
  std::vector<Int> caps;
  std::istringstream ss(text);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    try {
      size_t pos = 0;
      long long v = std::stoll(tok, &pos);
      if (pos != tok.size() || v < 0) return std::nullopt;
      caps.push_back(static_cast<Int>(v));
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (caps.empty()) return std::nullopt;
  return caps;
}

}  // namespace

ExitCode run_cli(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return ExitCode::kUsage;
  }
  const std::string& cmd = args[0];
  // Shared flag extraction: --json, --threads=N and the per-command flags
  // are recognized anywhere after the command name.
  bool json = false;
  bool symbolic = false;
  int threads = 1;
  std::string emit_file;
  LintCliOptions lint_opts;
  // The session-backed verbs fill their request's own options; the session
  // validates them (a malformed plan, objective or sample rate is a
  // usage-status payload), so no second copy of those rules lives here;
  // flag parsing only turns text into numbers and refuses an empty
  // --plan=, which the request options cannot tell from "no plan".
  AnalysisRequest::Optimize optimize_opts;
  AnalysisRequest::Verify verify_opts;
  AnalysisRequest::Codegen codegen_opts;
  AnalysisRequest::Mrc mrc_opts;
  BatchCliOptions batch_opts;
  ServeCliOptions serve_opts;
  RequestCliOptions request_opts;
  std::vector<std::string> rest(args.begin() + 1, args.end());
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == "--help" || *it == "-h") {
      // Before any command runs: `serve --help` must not bind or block.
      out << usage();
      return ExitCode::kSuccess;
    }
    if (*it == "--json") {
      json = true;
      it = rest.erase(it);
    } else if (it->rfind("--threads=", 0) == 0) {
      try {
        threads = std::stoi(it->substr(10));
      } catch (const std::exception&) {
        err << "bad --threads value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (threads < 0) {
        err << "--threads must be >= 0\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "analyze" && *it == "--symbolic") {
      symbolic = true;
      it = rest.erase(it);
    } else if (cmd == "lint" && *it == "--strict") {
      lint_opts.strict = true;
      it = rest.erase(it);
    } else if (cmd == "lint" && *it == "--plan") {
      lint_opts.audit_plan = true;
      it = rest.erase(it);
    } else if (cmd == "lint" && it->rfind("--plan=", 0) == 0) {
      lint_opts.plan = parse_plan_matrix(it->substr(7));
      if (!lint_opts.plan) {
        err << "bad --plan matrix: " << it->substr(7) << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if ((cmd == "batch" || cmd == "serve") &&
               it->rfind("--cache-dir=", 0) == 0) {
      batch_opts.cache_dir = serve_opts.cache_dir = it->substr(12);
      if (batch_opts.cache_dir.empty()) {
        err << "--cache-dir needs a directory\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if ((cmd == "batch" || cmd == "serve") &&
               it->rfind("--metrics=", 0) == 0) {
      batch_opts.metrics_file = serve_opts.metrics_file = it->substr(10);
      if (batch_opts.metrics_file.empty()) {
        err << "--metrics needs a file name\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && *it == "--stdio") {
      serve_opts.stdio = true;
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--workers=", 0) == 0) {
      try {
        serve_opts.workers = std::stoi(it->substr(10));
      } catch (const std::exception&) {
        err << "bad --workers value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (serve_opts.workers < 1) {
        err << "--workers must be >= 1\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && (it->rfind("--queue=", 0) == 0 ||
                                  it->rfind("--queue-depth=", 0) == 0)) {
      // --queue= is the original spelling; --queue-depth= the documented one.
      size_t eq = it->find('=');
      int depth = 0;
      try {
        depth = std::stoi(it->substr(eq + 1));
      } catch (const std::exception&) {
        err << "bad --queue-depth value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (depth < 1) {
        err << "--queue-depth must be >= 1\n";
        return ExitCode::kUsage;
      }
      serve_opts.queue_depth = static_cast<size_t>(depth);
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--tcp=", 0) == 0) {
      serve_opts.tcp = it->substr(6);
      std::string perr;
      if (!parse_host_port(serve_opts.tcp, &perr)) {
        err << "bad --tcp value: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--cache-shards=", 0) == 0) {
      int shards = 0;
      try {
        shards = std::stoi(it->substr(15));
      } catch (const std::exception&) {
        err << "bad --cache-shards value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (shards < 1) {
        err << "--cache-shards must be >= 1\n";
        return ExitCode::kUsage;
      }
      serve_opts.cache_shards = static_cast<size_t>(shards);
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--cache-ttl=", 0) == 0) {
      try {
        serve_opts.cache_ttl = std::stod(it->substr(12));
      } catch (const std::exception&) {
        err << "bad --cache-ttl value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (serve_opts.cache_ttl < 0) {
        err << "--cache-ttl must be >= 0 seconds\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "serve" && it->rfind("--cache-bytes=", 0) == 0) {
      long long bytes = 0;
      try {
        bytes = std::stoll(it->substr(14));
      } catch (const std::exception&) {
        err << "bad --cache-bytes value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (bytes < 0) {
        err << "--cache-bytes must be >= 0\n";
        return ExitCode::kUsage;
      }
      serve_opts.cache_bytes = static_cast<size_t>(bytes);
      it = rest.erase(it);
    } else if (cmd == "serve" && *it == "--no-coalesce") {
      serve_opts.coalesce = false;
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--tcp=", 0) == 0) {
      request_opts.tcp = it->substr(6);
      std::string perr;
      if (!parse_host_port(request_opts.tcp, &perr)) {
        err << "bad --tcp value: " << perr << '\n';
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--kind=", 0) == 0) {
      request_opts.kind = it->substr(7);
      it = rest.erase(it);
    } else if (cmd == "verify" && *it == "--plan") {
      // Bare --plan is the default audit mode; accepted for symmetry with
      // `lmre lint --plan`.
      it = rest.erase(it);
    } else if ((cmd == "codegen" || cmd == "mrc") && *it == "--plan") {
      // Bare --plan means "the optimizer's own plan".
      codegen_opts.plan = mrc_opts.plan = "auto";
      it = rest.erase(it);
    } else if ((cmd == "verify" || cmd == "codegen" || cmd == "mrc" ||
                cmd == "request") &&
               it->rfind("--plan=", 0) == 0) {
      // An empty spec would read as the default plan downstream, so
      // `--plan=$UNSET` must not quietly audit or emit the identity.
      if (it->size() == 7) {
        err << "--plan= needs a spec (bare --plan for the default)\n";
        return ExitCode::kUsage;
      }
      verify_opts.plan = codegen_opts.plan = mrc_opts.plan =
          request_opts.plan = it->substr(7);
      it = rest.erase(it);
    } else if ((cmd == "optimize" || cmd == "request") &&
               it->rfind("--objective=", 0) == 0) {
      optimize_opts.objective = request_opts.objective = it->substr(12);
      it = rest.erase(it);
    } else if ((cmd == "mrc" || cmd == "request") &&
               it->rfind("--sample-rate=", 0) == 0) {
      // The range rule lives in the session (bad_sample_rate) and the
      // wire parser; only the number itself is parsed here.
      double rate = 0;
      try {
        rate = std::stod(it->substr(14));
      } catch (const std::exception&) {
        err << "bad --sample-rate value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      mrc_opts.sample_rate = rate;
      request_opts.sample_rate = rate;
      it = rest.erase(it);
    } else if ((cmd == "mrc" || cmd == "request") &&
               it->rfind("--capacities=", 0) == 0) {
      auto caps = parse_capacity_list(it->substr(13));
      if (!caps) {
        err << "bad --capacities list: " << it->substr(13)
            << " (want comma-separated non-negative integers)\n";
        return ExitCode::kUsage;
      }
      mrc_opts.capacities = request_opts.capacities = std::move(*caps);
      it = rest.erase(it);
    } else if (cmd == "codegen" && *it == "--run") {
      codegen_opts.run = true;
      it = rest.erase(it);
    } else if (cmd == "codegen" && it->rfind("--cc=", 0) == 0) {
      codegen_opts.cc = it->substr(5);
      it = rest.erase(it);
    } else if (cmd == "codegen" && it->rfind("--emit=", 0) == 0) {
      emit_file = it->substr(7);
      if (emit_file.empty()) {
        err << "--emit needs a file name\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--deadline=", 0) == 0) {
      try {
        request_opts.deadline_ms = std::stod(it->substr(11));
      } catch (const std::exception&) {
        err << "bad --deadline value: " << *it << '\n';
        return ExitCode::kUsage;
      }
      if (request_opts.deadline_ms < 0) {
        err << "--deadline must be >= 0\n";
        return ExitCode::kUsage;
      }
      it = rest.erase(it);
    } else if (cmd == "request" && it->rfind("--id=", 0) == 0) {
      request_opts.id = it->substr(5);
      it = rest.erase(it);
    } else if (cmd == "request" && *it == "--raw") {
      request_opts.raw = true;
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  // Every flag the verb takes was consumed above; a flag left in `rest`
  // is one this verb does not know (a lone "-" is stdin, not a flag).
  for (const std::string& arg : rest) {
    if (arg.rfind("--", 0) == 0) {
      err << cmd << ": unknown option " << arg << '\n';
      return ExitCode::kUsage;
    }
  }
  lint_opts.json = json;
  if (cmd == "version" || cmd == "--version") return cmd_version(json, out);
  if (cmd == "serve") {
    if (!rest.empty()) serve_opts.socket = rest[0];
    const int transports = (serve_opts.socket.empty() ? 0 : 1) +
                           (serve_opts.stdio ? 1 : 0) +
                           (serve_opts.tcp.empty() ? 0 : 1);
    if (rest.size() > 1 || transports > 1) {
      err << "serve: give exactly one transport (a socket path, "
             "--tcp=HOST:PORT, or --stdio)\n";
      return ExitCode::kUsage;
    }
    return cmd_serve(serve_opts, std::cin, out, err);
  }
  if (cmd == "request") {
    // Unix transport names the socket positionally; TCP takes --tcp= and
    // leaves only the request file.
    const size_t want = request_opts.tcp.empty() ? 2 : 1;
    if (rest.size() != want) {
      err << usage();
      return ExitCode::kUsage;
    }
    if (request_opts.tcp.empty()) request_opts.socket = rest[0];
    const std::string& path = rest[want - 1];
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    const std::string file = path == "-" ? "<stdin>" : path;
    return cmd_request(*source, file, request_opts, out, err);
  }
  if (cmd == "figure2") return cmd_figure2(out, threads);
  if (cmd == "batch") {
    if (rest.empty()) {
      err << usage();
      return ExitCode::kUsage;
    }
    batch_opts.json = json;
    batch_opts.threads = threads;
    return cmd_batch(rest, batch_opts, out, err);
  }
  if (cmd == "analyze" || cmd == "optimize" || cmd == "lint" ||
      cmd == "verify" || cmd == "codegen" || cmd == "mrc" ||
      cmd == "distances" || cmd == "series") {
    if (rest.empty()) {
      err << usage();
      return ExitCode::kUsage;
    }
    const std::string& path = rest[0];
    auto source = read_source(path, err);
    if (!source) return ExitCode::kFailure;
    const std::string file = path == "-" ? "<stdin>" : path;
    std::optional<AnalysisRequest::Options> options;
    if (cmd == "analyze" && symbolic) {
      options = AnalysisRequest::Symbolic{};
    } else if (cmd == "analyze") {
      options = AnalysisRequest::Analyze{};
    } else if (cmd == "optimize") {
      options = std::move(optimize_opts);
    } else if (cmd == "verify") {
      options = std::move(verify_opts);
    } else if (cmd == "codegen") {
      options = std::move(codegen_opts);
    } else if (cmd == "mrc") {
      options = std::move(mrc_opts);
    }
    if (options) {
      return cmd_view(AnalysisRequest{std::move(*source), file,
                                      std::move(*options)},
                      ViewOptions{json, threads, emit_file}, out, err);
    }
    try {
      if (cmd == "lint") return cmd_lint(*source, lint_opts, out, file);
      if (cmd == "distances") return cmd_distances(*source, out);
      return cmd_series(*source, out);
    } catch (const ParseError& e) {
      err << file << ':' << e.line() << ':' << e.column() << ": error: "
          << e.message() << '\n';
      return ExitCode::kDiagnostics;
    } catch (const OverflowError& e) {
      err << file << ": error: " << e.what() << '\n';
      return ExitCode::kOverflow;
    }
  }
  err << usage();
  return ExitCode::kUsage;
}

}  // namespace lmre::tools

#include "checks.h"

#include <algorithm>
#include <cstdio>

#include "exact/reference.h"
#include "ir/parser.h"
#include "verify/certificate.h"
#include "verify/checker.h"
#include "verify/verify.h"

namespace perfbench {

using lmre::AnalysisRequest;
using lmre::WireValue;
using Kind = AnalysisRequest::Kind;

namespace {

void escape_into(const std::string& s, std::string& out) {
  out += '"';
  for (unsigned char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  out += '"';
}

void canonical_into(const WireValue& v, std::string& out) {
  switch (v.kind) {
    case WireValue::Kind::kNull: out += "null"; return;
    case WireValue::Kind::kBool: out += v.boolean ? "true" : "false"; return;
    case WireValue::Kind::kNumber: out += v.raw; return;
    case WireValue::Kind::kString: escape_into(v.text, out); return;
    case WireValue::Kind::kArray:
      out += '[';
      for (size_t i = 0; i < v.elements.size(); ++i) {
        if (i) out += ',';
        canonical_into(v.elements[i], out);
      }
      out += ']';
      return;
    case WireValue::Kind::kObject: {
      std::vector<const std::pair<std::string, WireValue>*> m;
      for (const auto& kv : v.members) m.push_back(&kv);
      std::sort(m.begin(), m.end(), [](auto* a, auto* b) { return a->first < b->first; });
      out += '{';
      for (size_t i = 0; i < m.size(); ++i) {
        if (i) out += ',';
        escape_into(m[i]->first, out);
        out += ':';
        canonical_into(m[i]->second, out);
      }
      out += '}';
      return;
    }
  }
}

lmre::Int as_int(const WireValue* v) {
  return v && v->kind == WireValue::Kind::kNumber ? static_cast<lmre::Int>(v->number) : -1;
}

/// A JSON matrix ([[..],[..]]) as an IntMat.
std::optional<lmre::IntMat> as_mat(const WireValue* v) {
  if (!v || v->kind != WireValue::Kind::kArray || v->elements.empty()) return std::nullopt;
  const size_t rows = v->elements.size();
  const size_t cols = v->elements[0].elements.size();
  lmre::IntMat m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    if (v->elements[r].elements.size() != cols) return std::nullopt;
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<lmre::Int>(v->elements[r].elements[c].number);
    }
  }
  return m;
}

const char* section_of(Kind k) {
  switch (k) {
    case Kind::kLint: return "lint";
    case Kind::kAnalyze: return "lint";  // "analysis" or "program", checked below
    case Kind::kOptimize: return "optimize";
    case Kind::kFull: return "optimize";
    case Kind::kSymbolic: return "symbolic";
    case Kind::kVerify: return "verify";
    case Kind::kCodegen: return "codegen";
    case Kind::kMrc: return "mrc";
  }
  return "?";
}

}  // namespace

std::string canonical(const WireValue& v) {
  std::string out;
  canonical_into(v, out);
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out;
  escape_into(s, out);
  return out;
}

std::optional<WireValue> parse_json(const std::string& text) {
  std::string err;
  return lmre::parse_wire_json(text, &err);
}

std::string check_result(const Item& item, const lmre::AnalysisResult& res) {
  const Kind kind = item.req.kind();
  std::optional<WireValue> doc = parse_json(res.payload);
  if (!doc || doc->kind != WireValue::Kind::kObject) return "payload is not a JSON object";
  const WireValue* k = doc->find("kind");
  if (!k || k->text != lmre::to_string(kind)) return "payload kind mismatch";
  if (doc->find("error")) return "error payload: " + res.payload.substr(0, 160);
  const WireValue* section = doc->find(section_of(kind));
  if (!section) return std::string("payload lacks '") + section_of(kind) + "'";
  const int status = static_cast<int>(res.status);
  if (status == 0) {
    if (kind == Kind::kAnalyze || kind == Kind::kFull) {
      const WireValue* a = doc->find("analysis");
      if (!a) a = doc->find("program");  // multi-phase sources
      if (!a) return "payload lacks 'analysis'";
      const bool skipped = a->find("exact_skipped") != nullptr;
      if (skipped != item.over_limit) return "exact oracle ran/skipped against the verify limit";
    }
    if (kind == Kind::kCodegen) {
      const WireValue* c = section->find("c");
      if (!c || c->text.find("lmre codegen") == std::string::npos) return "codegen payload lacks C";
    }
    return "";
  }
  if (status == 3 && kind == Kind::kSymbolic) return "";  // a documented decline
  if (status == 3 && kind == Kind::kVerify) {
    const WireValue* cert = section->find("certified");
    if (cert && cert->kind == WireValue::Kind::kBool && !cert->boolean) return "";
  }
  return "unexpected status " + std::to_string(status);
}

std::string check_reference(const Item& item, const lmre::AnalysisResult& res) {
  std::optional<WireValue> doc = parse_json(res.payload);
  if (!doc) return "payload is not JSON";
  lmre::LoopNest nest = lmre::parse_nest(item.req.source);
  std::optional<lmre::TraceStats> truth;
  auto reference = [&]() -> const lmre::TraceStats& {
    if (!truth) truth = lmre::reference::simulate(nest);
    return *truth;
  };
  if (const WireValue* a = doc->find("analysis")) {
    if (a->find("mws_exact")) {
      if (as_int(a->find("mws_exact")) != reference().mws_total) return "mws_exact != reference";
      if (as_int(a->find("distinct_exact")) != reference().distinct_total) {
        return "distinct_exact != reference";
      }
    }
  }
  if (const WireValue* o = doc->find("optimize")) {
    if (o->find("mws_before") && as_int(o->find("mws_before")) != reference().mws_total) {
      return "mws_before != reference";
    }
    if (o->find("mws_after")) {
      std::optional<lmre::IntMat> t = as_mat(o->find("transform"));
      if (!t) return "optimize payload lacks a transform";
      if (as_int(o->find("mws_after")) !=
          lmre::reference::simulate_transformed(nest, *t).mws_total) {
        return "mws_after != reference";
      }
    }
  }
  return "";
}

std::string check_certificate_payload(const Item& item, const lmre::AnalysisResult& res) {
  std::optional<WireValue> doc = parse_json(res.payload);
  const WireValue* cert = doc ? doc->find("verify") : nullptr;
  if (!cert) return "payload lacks a certificate";
  const WireValue* plan = cert->find("plan");
  const WireValue* spec = plan ? plan->find("spec") : nullptr;
  if (!spec) return "certificate lacks plan.spec";
  std::string perr;
  std::optional<lmre::VerifyPlan> vp = lmre::parse_plan_spec(spec->text, &perr);
  if (!vp) return "certificate plan does not parse: " + perr;
  lmre::LoopNest nest = lmre::parse_nest(item.req.source);
  lmre::VerifyResult verdict = lmre::verify_plan(nest, *vp);
  lmre::CertificateCheck check = lmre::check_certificate(nest, verdict);
  if (!check.ok) {
    return "check_certificate failed: " + (check.failures.empty() ? "" : check.failures[0]);
  }
  std::optional<WireValue> mine = parse_json(lmre::certificate_json(nest, verdict).dump());
  if (!mine || canonical(*mine) != canonical(*cert)) return "certificate differs from re-derivation";
  return "";
}

namespace {

struct Golden {
  const char* golden;    ///< file under tests/golden
  const char* input;     ///< .loop under the checkout root
  Kind kind;
  const char* plan;
  std::vector<lmre::Int> capacities;
  const char* section;   ///< "" = whole result (raw bytes); else a subtree
  int status;
};

}  // namespace

void check_goldens(const std::string& root, bool corrupt, Report& rep) {
  lmre::AnalysisSession session;
  bool corrupted = false;
  auto compare = [&](const std::string& what, lmre::AnalysisResult res,
                     const WireValue* want, const char* section, int status) {
    ++rep.attempted;
    if (corrupt && !corrupted) {
      // Flip one digit inside the payload: still JSON, wrong content.
      size_t p = res.payload.find_first_of("123456789");
      if (p != std::string::npos) res.payload[p] = res.payload[p] == '9' ? '8' : '9';
      corrupted = true;
    }
    if (!want) return rep.fail(what + ": golden entry missing");
    if (static_cast<int>(res.status) != status) {
      return rep.fail(what + ": status " + std::to_string(static_cast<int>(res.status)));
    }
    if (*section == '\0') {
      if (res.payload != want->raw) rep.fail(what + ": payload differs from golden");
      return;
    }
    std::optional<WireValue> doc = parse_json(res.payload);
    const WireValue* got = doc ? doc->find(section) : nullptr;
    if (!got || canonical(*got) != canonical(*want)) {
      rep.fail(what + ": '" + section + "' differs from golden");
    }
  };

  // batch_loops.json: the `full` payload of every corpus kernel.
  {
    std::optional<WireValue> batch =
        parse_json(read_file(root + "/tests/golden/batch_loops.json"));
    const WireValue* result = batch ? batch->find("result") : nullptr;
    const WireValue* files = result ? result->find("files") : nullptr;
    if (!files || files->elements.empty()) {
      ++rep.attempted;
      rep.fail("batch_loops.json: no files");
    } else {
      for (const WireValue& f : files->elements) {
        const std::string file = f.find("file") ? f.find("file")->text : "";
        lmre::AnalysisRequest req(read_file(root + "/" + file), file, Kind::kFull);
        compare("batch_loops.json:" + file, session.run(req), f.find("result"), "",
                static_cast<int>(as_int(f.find("status"))));
      }
    }
  }

  const std::vector<lmre::Int> caps = {1, 64, 128, 540, 687, 1024};
  const Golden goldens[] = {
      {"symbolic_example6.json", "tests/golden/example6.loop", Kind::kSymbolic, "", {}, "symbolic", 3},
      {"symbolic_example10.json", "tests/golden/example10.loop", Kind::kSymbolic, "", {}, "symbolic", 0},
      {"verify_example10.json", "tests/golden/example10.loop", Kind::kVerify, "", {}, "verify", 0},
      {"verify_example6.json", "tests/golden/example6.loop", Kind::kVerify, "0 1; 1 0", {}, "verify", 0},
      {"verify_example8_witness.json", "examples/loops/example8.loop", Kind::kVerify, "-1 0; 0 1", {}, "verify", 3},
      {"codegen_example6.json", "tests/golden/example6.loop", Kind::kCodegen, "", {}, "codegen", 0},
      {"codegen_example8.json", "examples/loops/example8.loop", Kind::kCodegen, "", {}, "codegen", 0},
      {"codegen_example10.json", "tests/golden/example10.loop", Kind::kCodegen, "", {}, "codegen", 0},
      {"mrc_example6.json", "tests/golden/example6.loop", Kind::kMrc, "", {}, "", 0},
      {"mrc_example8.json", "examples/loops/example8.loop", Kind::kMrc, "", {}, "", 0},
      {"mrc_example8_plan.json", "examples/loops/example8.loop", Kind::kMrc, "auto", {}, "", 0},
      {"mrc_example10.json", "tests/golden/example10.loop", Kind::kMrc, "", caps, "", 0},
      {"mrc_example10_plan.json", "tests/golden/example10.loop", Kind::kMrc, "auto", caps, "", 0},
  };
  for (const Golden& g : goldens) {
    std::optional<WireValue> doc = parse_json(read_file(root + "/tests/golden/" + g.golden));
    const WireValue* result = doc ? doc->find("result") : nullptr;
    const WireValue* want = result && *g.section ? result->find(g.section) : result;
    lmre::AnalysisRequest req(read_file(root + "/" + g.input), g.input, g.kind);
    if (auto* v = std::get_if<AnalysisRequest::Verify>(&req.options)) v->plan = g.plan;
    if (auto* c = std::get_if<AnalysisRequest::Codegen>(&req.options)) c->plan = g.plan;
    if (auto* m = std::get_if<AnalysisRequest::Mrc>(&req.options)) {
      m->plan = g.plan;
      m->capacities = g.capacities;
    }
    compare(g.golden, session.run(req), want, g.section, g.status);
  }
}

}  // namespace perfbench

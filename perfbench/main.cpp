// lmre benchmark binary.
//
//   lmre_perfbench --workload <optimize_heavy|analysis_light>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--root <checkout>] [--corrupt-payload]
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// re-drives the same requests through the layer entry points and prints
// the per-layer metrics.  Every output is checked; the last stdout line
// is one JSON object {correct, attempted, failed, metrics}.  Exit code 0
// only when every check passed.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "ir/parser.h"
#include "common.h"
#include "serve.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using lmre::AnalysisRequest;
using Kind = AnalysisRequest::Kind;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
  bool corrupt = false;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Time to construct the program's entry object until it is ready to take
/// a request: the median over `rounds` batches of the mean over `batch`
/// constructions (batching keeps sub-microsecond set-ups above the clock's
/// resolution).  Tear-down happens after each batch, off the clock.
template <typename Make>
double setup_seconds(int rounds, int batch, Make make) {
  std::vector<double> s;
  for (int i = 0; i < rounds; ++i) {
    std::vector<decltype(make())> objs;
    objs.reserve(static_cast<size_t>(batch));
    const Clock::time_point t0 = Clock::now();
    for (int b = 0; b < batch; ++b) objs.push_back(make());
    s.push_back(elapsed_s(t0) / batch);
  }
  return median(s);
}

/// plan_window_ratio: geometric mean of mws_after / mws_before over the
/// optimize payloads of the single-nest corpus kernels.  Seed-independent
/// by design, so it moves only when the shipped plans change.
double corpus_plan_window_ratio(const std::string& root, Report& rep) {
  lmre::AnalysisSession session;
  std::vector<double> ratios;
  for (const auto& [name, src] : corpus(root)) {
    if (src.find("phase ") != std::string::npos) continue;
    ++rep.attempted;
    Item it;
    it.req = AnalysisRequest(src, name, Kind::kOptimize);
    it.label = "plan:" + name;
    lmre::AnalysisResult res = session.run(it.req);
    std::string why = check_result(it, res);
    std::optional<lmre::WireValue> doc = parse_json(res.payload);
    const lmre::WireValue* o = doc ? doc->find("optimize") : nullptr;
    const lmre::WireValue* before = o ? o->find("mws_before") : nullptr;
    const lmre::WireValue* after = o ? o->find("mws_after") : nullptr;
    if (why.empty() && (!before || !after)) why = "optimize payload lacks mws_before/after";
    if (!why.empty()) {
      rep.fail(it.label + ": " + why);
      continue;
    }
    ratios.push_back((after->number + 1.0) / (before->number + 1.0));
  }
  return geomean(ratios);
}

/// The program's own counters and stage timers: `session` is one closed-
/// loop pass's snapshot, `served` the server's (serve.* counters).
void fold_program_metrics(const lmre::Json& session, const lmre::Json& served, Report& out) {
  const std::optional<lmre::WireValue> doc = parse_json(session.dump());
  const std::optional<lmre::WireValue> serve_doc = parse_json(served.dump());
  auto get = [&](const char* group, const std::string& name, const char* field) {
    const std::optional<lmre::WireValue>& d = name.rfind("serve.", 0) == 0 ? serve_doc : doc;
    const lmre::WireValue* g = d ? d->find(group) : nullptr;
    const lmre::WireValue* v = g ? g->find(name) : nullptr;
    if (v && field) v = v->find(field);
    return v ? v->number : 0.0;
  };
  out.add("program.oracle.runs", get("counters", "oracle.runs", nullptr), "count");
  out.add("program.oracle.accesses", get("counters", "oracle.accesses", nullptr), "count");
  out.add("program.oracle.arena_high_water_bytes",
          get("gauges", "oracle.arena_high_water_bytes", nullptr), "bytes");
  for (const char* stage : {"parse", "lint", "estimate", "mws", "symbolic", "optimize",
                            "verify", "codegen", "mrc", "total"}) {
    out.add(std::string("program.stage.") + stage + "_ms",
            get("timers_ms", std::string("stage.") + stage, "total_ms"), "ms");
  }
  for (const char* c : {"completed", "coalesced", "overloaded", "timeout"}) {
    out.add(std::string("program.serve.") + c, get("counters", std::string("serve.") + c, nullptr),
            "count");
  }
}

/// What a traced measurement yields besides the spans.
struct LayerInputs {
  TraceTotals totals;
  double passes = 0;                          ///< traced passes made
  double session_ms = 0;                      ///< untraced session.run time, all passes
  std::map<Kind, std::vector<double>> kind_ms;
  std::vector<double> untraced_ms;            ///< every untraced request latency
  std::vector<double> hit_us;
  double cache_hit_ratio = 0;
  std::vector<double> seeded_window;          ///< seeded optimize mws_after/mws_before
  // the served phase (analysis_light only)
  std::vector<double> parse_request_us, serve_response_us;
  double rtt_hit_us = 0, queue_peak = 0, coalesced_ratio = 0, shed_ratio = 0;
  double late_p99_ms = 0, rungs = 0, invalid_rungs = 0;
  double server_setup_ms = 0, served_p50_ms = 0, served_tail_ms = 0;
  double served_max_rate_rps = 0, served_throughput_rps = 0;
};

void add_layer_metrics(const LayerInputs& in, Report& out) {
  const double P = std::max(1.0, in.passes);
  std::map<std::string, double> self = in.totals.rec.self_ms();
  std::map<std::string, int> calls = in.totals.rec.calls();
  auto span_pair = [&](const std::string& name) {
    out.add(name + ".calls", calls[name] / P, "count");
    out.add(name + ".self_ms", self[name] / P, "ms");
  };
  const TraceTotals& t = in.totals;
  span_pair("ir.parse_program");
  out.add("ir.parse_program.bytes_per_s",
          self["ir.parse_program"] > 0 ? t.parse_bytes / (self["ir.parse_program"] / 1000.0) : 0,
          "B/s");
  span_pair("lint.lint_program");
  span_pair("analysis.analyze_memory");
  span_pair("exact.simulate");
  out.add("exact.accesses", t.simulate_accesses / P, "count");
  out.add("exact.accesses_per_s",
          self["exact.simulate"] > 0 ? t.simulate_accesses / (self["exact.simulate"] / 1000.0) : 0,
          "1/s");
  const double stores = t.dense_stores + t.sparse_stores;
  out.add("exact.dense_store_ratio", stores > 0 ? t.dense_stores / stores : 0, "ratio");
  out.add("exact.arena_high_water_bytes", t.arena_high_water, "bytes");
  span_pair("symbolic.symbolic_analysis");
  out.add("symbolic.usable_ratio",
          t.symbolic_calls ? static_cast<double>(t.symbolic_usable) / t.symbolic_calls : 0, "ratio");
  span_pair("transform.optimize_locality");
  out.add("transform.oracle_runs_per_call",
          t.optimize_calls ? t.optimize_oracle_runs / t.optimize_calls : 0, "count");
  out.add("transform.predicted_vs_measured", geomean(t.predicted_vs_measured), "ratio");
  out.add("transform.symbolic_vs_measured", geomean(t.symbolic_vs_measured), "ratio");
  out.add("transform.seeded_window_ratio", geomean(in.seeded_window), "ratio");
  span_pair("verify.verify_plan");
  out.add("verify.certified_ratio",
          t.verify_calls ? static_cast<double>(t.verify_certified) / t.verify_calls : 0, "ratio");
  span_pair("codegen.emit_c");
  out.add("codegen.emit_c.c_bytes", t.c_bytes / P, "bytes");
  span_pair("mrc.compute_mrc");

  // The root span's self time is what no layer span covers; by
  // construction every self time above plus it sums to the traced time.
  double traced = 0;
  for (const Span& s : t.rec.spans()) {
    if (s.parent < 0) traced += ms_between(s.start, s.end);
  }
  double layers = 0;
  for (const auto& [name, ms] : self) layers += name == "runtime.run" ? 0 : ms;
  if (std::abs(layers + self["runtime.run"] - traced) > 1e-6 * std::max(1.0, traced)) {
    throw std::runtime_error("span self times do not add up to the traced time");
  }
  out.add("runtime.request_key.self_ms", self["runtime.request_key"] / P, "ms");
  out.add("runtime.run.unattributed_ms", self["runtime.run"] / P, "ms");
  out.add("runtime.run.traced_ms", traced / P, "ms");
  out.add("runtime.run.session_ms", in.session_ms / P, "ms");
  out.add("trace.overhead_ratio", in.session_ms > 0 ? traced / in.session_ms - 1.0 : 0, "ratio");
  out.add("runtime.cache_hit_ratio", in.cache_hit_ratio, "ratio");
  out.add("runtime.hit_us", median(in.hit_us), "us");
  for (const lmre::AnalysisKindInfo& info : lmre::kAnalysisKinds) {
    auto it = in.kind_ms.find(info.kind);
    out.add(std::string("runtime.kind.") + info.name + ".p50_ms",
            it == in.kind_ms.end() ? 0 : median(it->second), "ms");
  }
  const Tail tail = tail_of(in.untraced_ms);
  out.add("runtime.tail_percentile", tail.percentile, "%");
  out.add("runtime.tail_samples", static_cast<double>(tail.samples), "count");
  out.add("server.parse_request.us", median(in.parse_request_us), "us");
  out.add("server.serve_response.us", median(in.serve_response_us), "us");
  out.add("server.rtt_hit_us", in.rtt_hit_us, "us");
  out.add("server.queue_peak", in.queue_peak, "count");
  out.add("server.coalesced_ratio", in.coalesced_ratio, "ratio");
  out.add("server.shed_ratio", in.shed_ratio, "ratio");
  out.add("server.setup_ms", in.server_setup_ms, "ms");
  out.add("server.open_p50_ms", in.served_p50_ms, "ms");
  out.add("server.open_tail_ms", in.served_tail_ms, "ms");
  out.add("server.max_rate_rps", in.served_max_rate_rps, "1/s");
  out.add("server.throughput_rps", in.served_throughput_rps, "1/s");
  out.add("serve.generator_late_p99_ms", in.late_p99_ms, "ms");
  out.add("serve.rungs", in.rungs, "count");
  out.add("serve.invalid_rungs", in.invalid_rungs, "count");
}

/// One untraced session.run per item on `session`, with the checks that
/// are cheap enough for every request.  Returns the results.
std::vector<lmre::AnalysisResult> run_pass(
    lmre::AnalysisSession& session, const std::vector<Item>& items, Report& rep,
    std::vector<double>* latency_ms, std::map<Kind, std::vector<double>>* kind_ms,
    std::map<std::string, std::string>& corpus_payloads) {
  std::vector<lmre::AnalysisResult> results;
  for (const Item& it : items) {
    const Clock::time_point t0 = Clock::now();
    lmre::AnalysisResult res = session.run(it.req);
    const double ms = ms_between(t0, Clock::now());
    ++rep.attempted;
    if (latency_ms) latency_ms->push_back(ms);
    if (kind_ms) (*kind_ms)[it.req.kind()].push_back(ms);
    std::string why = res.cache_hit ? "unexpected cache hit" : check_result(it, res);
    if (why.empty() && !it.seeded) {
      // Corpus requests repeat every pass: the payload must not change.
      const std::string key = it.label + "|" + lmre::to_string(it.req.kind());
      auto [pos, fresh] = corpus_payloads.try_emplace(key, res.payload);
      if (!fresh && pos->second != res.payload) why = "payload changed between passes";
    }
    if (!why.empty()) rep.fail(it.label + " " + lmre::to_string(it.req.kind()) + ": " + why);
    results.push_back(std::move(res));
  }
  return results;
}

/// The deep checks on one pass: every verify certificate, and the
/// reference oracle on a seeded sample of `sample` small enough nests.
void deep_checks(const std::vector<Item>& items, const std::vector<lmre::AnalysisResult>& results,
                 std::uint64_t seed, size_t sample, lmre::Int max_volume, Report& rep) {
  std::vector<size_t> eligible;
  for (size_t i = 0; i < items.size(); ++i) {
    const Kind k = items[i].req.kind();
    if (k == Kind::kVerify && results[i].payload.find("\"verify\"") != std::string::npos) {
      std::string why = check_certificate_payload(items[i], results[i]);
      if (!why.empty()) rep.fail(items[i].label + " certificate: " + why);
    }
    const bool exact_kind = k == Kind::kAnalyze || k == Kind::kFull || k == Kind::kOptimize;
    if (items[i].seeded && exact_kind && !items[i].over_limit) {
      lmre::LoopNest nest = lmre::parse_nest(items[i].req.source);
      if (nest.iteration_count() <= max_volume) eligible.push_back(i);
    }
  }
  SplitMix64 pick(seed ^ 0x5245464552ull);
  for (size_t n = 0; n < sample && !eligible.empty(); ++n) {
    const size_t j = static_cast<size_t>(pick.next() % eligible.size());
    const size_t i = eligible[j];
    eligible.erase(eligible.begin() + static_cast<long>(j));
    std::string why = check_reference(items[i], results[i]);
    if (!why.empty()) rep.fail(items[i].label + " reference: " + why);
  }
}

std::vector<double> seeded_window_ratios(const std::vector<Item>& items,
                                         const std::vector<lmre::AnalysisResult>& results) {
  std::vector<double> out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!items[i].seeded) continue;
    std::optional<lmre::WireValue> doc = parse_json(results[i].payload);
    const lmre::WireValue* o = doc ? doc->find("optimize") : nullptr;
    const lmre::WireValue* b = o ? o->find("mws_before") : nullptr;
    const lmre::WireValue* a = o ? o->find("mws_after") : nullptr;
    if (a && b) out.push_back((a->number + 1.0) / (b->number + 1.0));
  }
  return out;
}

/// The server layer, measured in analysis_light's traced run: the serve
/// pool (serve_pool) through an in-process AnalysisServer::serve_tcp over
/// loopback -- 1 event loop, 2 workers, 1 generator thread, 2 connections,
/// an open loop.  Its latency and rate figures are per-layer metrics: on a
/// shared 4-vCPU host they swing with the host's scheduling far more than
/// any regression bound could tolerate.
lmre::Json served_layer(const Args& args, double seconds, Report& rep, LayerInputs& in) {
  const std::vector<Item> pool = serve_pool(args.root, args.seed);
  // What the server must answer: session.run of every pool request.
  std::vector<lmre::AnalysisResult> expected;
  {
    lmre::AnalysisSession session(serve_options().session);
    for (const Item& it : pool) expected.push_back(session.run(it.req));
  }
  // Wire decode and encode of the pool's own lines and payloads.
  for (size_t i = 0; i < pool.size(); ++i) {
    std::string line = "{\"id\":1,\"schema_version\":2,\"kind\":\"" +
                       std::string(lmre::to_string(pool[i].req.kind())) +
                       "\",\"source\":" + json_quote(pool[i].req.source) + "}";
    lmre::ServerRequest sr;
    std::string err;
    Clock::time_point t0 = Clock::now();
    const bool ok = lmre::parse_request(line, &sr, &err);
    in.parse_request_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
    if (!ok) rep.fail(pool[i].label + ": parse_request rejected its line: " + err);
    t0 = Clock::now();
    (void)lmre::serve_response("1", lmre::serve_status(expected[i].status), expected[i].payload);
    in.serve_response_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
  }

  in.server_setup_ms = 1000.0 * setup_seconds(9, 1, [] { return std::make_unique<RunningServer>(); });
  std::vector<double> latency, tails, late;
  lmre::Json snapshot;
  std::map<int, std::pair<int, std::string>> seen;
  {
    RunningServer srv;
    {
      OpenLoop gen(pool, srv.port(), rep);
      gen.prime();
      // Latency at the reference rate in windows; the tail is the median
      // of the windows' tails.  A window whose generator fell behind its
      // schedule measured the generator, not the server: it is invalid and
      // made again.
      for (int w = 0; w < kReferenceWindows; ++w) {
        RungResult r;
        for (int attempt = 0; attempt < 3; ++attempt) {
          r = gen.run(kReferenceRate, seconds * 0.04);
          if (!r.invalid) break;
        }
        in.invalid_rungs += r.invalid ? 1 : 0;
        latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
        tails.push_back(r.tail.value);
        late.push_back(r.late_p99_ms);
      }
      // Binary search over the fixed ladder kRungBase * kRungStep^k.  A
      // failed rung is tried up to twice more and passes if any try passes:
      // one stall of the host should not decide it.
      int lo = -1, hi = kRungCount;
      while (hi - lo > 1) {
        const int mid = (lo + hi) / 2;
        RungResult r;
        for (int attempt = 0; attempt < 3; ++attempt) {
          r = gen.run(kRungBase * std::pow(kRungStep, mid), seconds * 0.02);
          in.rungs += 1;
          in.invalid_rungs += r.invalid ? 1 : 0;
          if (r.pass()) break;
        }
        if (r.pass()) {
          lo = mid;
          in.served_throughput_rps = r.achieved_rps;
        } else {
          hi = mid;
        }
      }
      in.served_max_rate_rps = lo >= 0 ? kRungBase * std::pow(kRungStep, lo) : 0.0;
      in.rtt_hit_us = gen.rtt_hit_us(0, 200);
      seen = gen.seen();
    }
    snapshot = srv.server().metrics_json();
    srv.stop();
  }
  in.served_p50_ms = median(latency);
  in.served_tail_ms = median(tails);
  in.late_p99_ms = median(late);
  // Every served payload must pass the result checks and equal session.run.
  for (const auto& [item, sp] : seen) {
    const Item& it = pool[static_cast<size_t>(item)];
    lmre::AnalysisResult served = expected[static_cast<size_t>(item)];
    served.status = static_cast<lmre::ExitCode>(sp.first);
    served.payload = sp.second;
    std::string why = check_result(it, served);
    if (why.empty() && (served.status != expected[static_cast<size_t>(item)].status ||
                        served.payload != expected[static_cast<size_t>(item)].payload)) {
      why = "served payload differs from session.run";
    }
    if (!why.empty()) rep.fail(it.label + ": " + why);
  }
  std::optional<lmre::WireValue> doc = parse_json(snapshot.dump());
  auto value = [&](const char* group, const char* name) {
    const lmre::WireValue* g = doc ? doc->find(group) : nullptr;
    const lmre::WireValue* v = g ? g->find(name) : nullptr;
    return v ? v->number : 0.0;
  };
  const double requests = std::max(1.0, value("counters", "serve.requests"));
  in.queue_peak = value("gauges", "serve.queue_peak");
  in.coalesced_ratio = value("counters", "serve.coalesced") / requests;
  in.shed_ratio = value("counters", "serve.overloaded") / requests;
  in.cache_hit_ratio = value("gauges", "cache.hit_rate");
  return snapshot;
}

void closed_loop(const Args& args, Report& rep, Report& out) {
  const bool heavy = args.workload == "optimize_heavy";
  auto make_pass = [&](int pass) {
    return heavy ? optimize_heavy_pass(args.root, args.seed, pass)
                 : analysis_light_pass(args.root, args.seed, pass);
  };
  const size_t ref_sample = heavy ? 2 : 6;
  const lmre::Int ref_volume = heavy ? 300'000 : 2'000'000;
  const double setup = setup_seconds(15, 200, [] { return lmre::AnalysisSession(); });
  std::map<std::string, std::string> corpus_payloads;
  // --seconds buys a fixed number of whole passes (at the pass's nominal
  // cost on a 4-core 2 GHz host), so every run measures the same strata
  // in the same proportions.  The traced run spends it on untraced +
  // traced pass pairs, and analysis_light's on the served phase too.
  const double nominal_pass_s = heavy ? kHeavyPassSeconds : kLightPassSeconds;
  const double pass_budget = args.trace ? (heavy ? 0.5 : 0.2) * args.seconds : args.seconds;
  const int passes = std::max(1, static_cast<int>(std::lround(pass_budget / nominal_pass_s)));

  if (!args.trace) {
    std::vector<double> latency;
    double busy_ms = 0;
    for (int pass = 0; pass < passes; ++pass) {
      std::vector<Item> items = make_pass(pass);
      lmre::AnalysisSession session;  // fresh per pass: every request a miss
      const size_t before = latency.size();
      std::vector<lmre::AnalysisResult> results =
          run_pass(session, items, rep, &latency, nullptr, corpus_payloads);
      for (size_t i = before; i < latency.size(); ++i) busy_ms += latency[i];
      if (pass == 0) deep_checks(items, results, args.seed, ref_sample, ref_volume, rep);
    }
    const Tail tail = tail_of(latency);
    std::printf("%s: %d passes, %zu requests; latency_tail_ms is p%.1f of %zu samples\n",
                args.workload.c_str(), passes, latency.size(), tail.percentile, tail.samples);
    out.add("setup_s", setup, "s");
    out.add("latency_p50_ms", median(latency), "ms");
    out.add("latency_tail_ms", tail.value, "ms");
    out.add("throughput_rps", static_cast<double>(latency.size()) / (busy_ms / 1000.0), "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("plan_window_ratio", corpus_plan_window_ratio(args.root, rep), "ratio");
    return;
  }

  LayerInputs in;
  lmre::Json snapshot;
  lmre::AnalysisSession last;
  std::vector<Item> last_items;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<Item> items = make_pass(pass);
    lmre::AnalysisSession session;
    std::vector<double> latency;
    std::vector<lmre::AnalysisResult> results =
        run_pass(session, items, rep, &latency, &in.kind_ms, corpus_payloads);
    for (double ms : latency) in.session_ms += ms;
    in.untraced_ms.insert(in.untraced_ms.end(), latency.begin(), latency.end());
    std::vector<double> sw = seeded_window_ratios(items, results);
    in.seeded_window.insert(in.seeded_window.end(), sw.begin(), sw.end());
    for (size_t i = 0; i < items.size(); ++i) {
      ++rep.attempted;
      const int request_id = static_cast<int>(in.totals.rec.spans().size());  // its root span
      std::string why = trace_request(session, items[i], results[i].payload, request_id, in.totals);
      if (!why.empty()) rep.fail(items[i].label + " traced facts: " + why);
    }
    snapshot = session.metrics_json();
    in.passes += 1;
    last_items = std::move(items);
    last = std::move(session);
  }
  // Warm pass: the same requests again on the last session are cache hits.
  for (const Item& it : last_items) {
    const Clock::time_point t0 = Clock::now();
    lmre::AnalysisResult res = last.run(it.req);
    in.hit_us.push_back(ms_between(t0, Clock::now()) * 1000.0);
    ++rep.attempted;
    if (!res.cache_hit) rep.fail(it.label + ": warm request missed the cache");
  }
  lmre::Json served;
  if (!heavy) served = served_layer(args, args.seconds, rep, in);
  add_layer_metrics(in, out);
  fold_program_metrics(snapshot, served, out);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = next();
    else if (k == "--seed") a.seed = std::stoull(next());
    else if (k == "--seconds") a.seconds = std::stod(next());
    else if (k == "--trace") a.trace = std::stoi(next());
    else if (k == "--root") a.root = next();
    else if (k == "--corrupt-payload") a.corrupt = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "optimize_heavy" && a.workload != "analysis_light") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument("--seconds must be > 0 and --trace 0 or 1");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "usage error: %s\n", e.what());
    return 2;
  }
  Report rep, out;
  try {
    closed_loop(args, rep, out);
    check_goldens(args.root, args.corrupt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 1;
  }
  for (const std::string& f : rep.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  const bool correct = rep.failed == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char num[64];
    const double v = out.metrics[i].value;
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(v) ? v : 0.0);
    json += (i ? ", \"" : "\"") + out.metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

// Tests for the lmre serve subsystem (src/server): the wire-JSON reader
// with verbatim raw slices, request validation, and the AnalysisServer
// over all three transports (stdio, Unix socket, TCP) -- byte-identity
// with direct session runs, load-shedding at a full queue, single-flight
// coalescing of identical requests, deadline expiry, graceful drain,
// dead-client teardown, concurrent clients sharing one warm cache, and
// clients that never read or never end a line.  The socket cases run one
// body over both families.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/session.h"
#include "server/queue.h"
#include "server/server.h"
#include "server/tcp.h"
#include "server/wire.h"
#include "support/json.h"

namespace lmre {
namespace {

// ---- wire reader -----------------------------------------------------------

TEST(Wire, ParsesScalarsWithRawSlices) {
  std::string error;
  auto v = parse_wire_json(R"( {"id": 42, "name": "a\nb", "ok": true,
                               "list": [1, 2.5, null]} )",
                           &error);
  ASSERT_TRUE(v.has_value()) << error;
  ASSERT_EQ(v->kind, WireValue::Kind::kObject);

  const WireValue* id = v->find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->kind, WireValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(id->number, 42.0);
  EXPECT_EQ(id->raw, "42");  // verbatim input bytes, not re-encoded

  const WireValue* name = v->find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->text, "a\nb");        // escapes decoded
  EXPECT_EQ(name->raw, R"("a\nb")");    // raw keeps them

  const WireValue* list = v->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->elements.size(), 3u);
  EXPECT_EQ(list->elements[2].kind, WireValue::Kind::kNull);
  EXPECT_EQ(list->raw, "[1, 2.5, null]");

  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Wire, DecodesUnicodeEscapes) {
  std::string error;
  auto v = parse_wire_json(R"("\u0041\u00e9\u20ac\ud83d\ude00")", &error);
  ASSERT_TRUE(v.has_value()) << error;
  EXPECT_EQ(v->text, "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(Wire, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_wire_json("", &error).has_value());
  EXPECT_FALSE(parse_wire_json("{", &error).has_value());
  EXPECT_FALSE(parse_wire_json("{} trailing", &error).has_value());
  EXPECT_FALSE(parse_wire_json("{\"a\" 1}", &error).has_value());
  EXPECT_FALSE(parse_wire_json("\"\\x\"", &error).has_value());
  EXPECT_FALSE(parse_wire_json("\"\\ud800\"", &error).has_value());  // lone surrogate
  EXPECT_FALSE(parse_wire_json("nul", &error).has_value());
  EXPECT_FALSE(error.empty());  // failures always carry a message
  // Nesting past the depth cap must fail cleanly, not crash.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(parse_wire_json(deep, &error).has_value());
}

// ---- request validation ----------------------------------------------------

TEST(WireRequest, ParsesFullRequest) {
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(
      R"({"id": "job-1", "kind": "lint", "source": "for i = 1 to 4\n  use A[i];",
          "options": {"deadline_ms": 250, "future_knob": true}})",
      &req, &error))
      << error;
  EXPECT_EQ(req.id_json, "\"job-1\"");  // raw slice: quotes preserved
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kLint);
  EXPECT_EQ(req.analysis.source, "for i = 1 to 4\n  use A[i];");
  EXPECT_DOUBLE_EQ(req.deadline_ms, 250.0);
}

TEST(WireRequest, DefaultsAndNumericId) {
  ServerRequest req;
  std::string error;
  ASSERT_TRUE(parse_request(R"({"id": 7, "source": "x"})", &req, &error));
  EXPECT_EQ(req.id_json, "7");
  EXPECT_EQ(req.analysis.kind(), AnalysisRequest::Kind::kFull);  // default kind
  EXPECT_DOUBLE_EQ(req.deadline_ms, 0.0);             // no deadline
}

TEST(WireRequest, RejectsSchemaViolations) {
  ServerRequest req;
  std::string error;
  EXPECT_FALSE(parse_request("[1,2]", &req, &error));
  EXPECT_FALSE(parse_request(R"({"kind": "full"})", &req, &error));  // no source
  EXPECT_FALSE(parse_request(R"({"source": 5})", &req, &error));
  EXPECT_FALSE(parse_request(R"({"source": "x", "kind": "bogus"})", &req, &error));
  EXPECT_FALSE(parse_request(R"({"source": "x", "options": []})", &req, &error));
  EXPECT_FALSE(
      parse_request(R"({"source": "x", "options": {"deadline_ms": -1}})", &req, &error));
  EXPECT_FALSE(parse_request(R"({"id": {"k": 1}, "source": "x"})", &req, &error));
  // The id survives a later schema error so the error response correlates.
  EXPECT_FALSE(parse_request(R"({"id": 9, "kind": "bogus", "source": "x"})", &req, &error));
  EXPECT_EQ(req.id_json, "9");
}

TEST(WireStatus, NamesAndExitCodeMapping) {
  EXPECT_STREQ(to_string(ServeStatus::kSuccess), "success");
  EXPECT_STREQ(to_string(ServeStatus::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(ServeStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(ServeStatus::kBadRequest), "bad_request");
  EXPECT_EQ(serve_status(ExitCode::kSuccess), ServeStatus::kSuccess);
  EXPECT_EQ(serve_status(ExitCode::kDiagnostics), ServeStatus::kDiagnostics);
  EXPECT_EQ(static_cast<int>(ServeStatus::kOverflow), to_int(ExitCode::kOverflow));
}

// ---- bounded queue ---------------------------------------------------------

TEST(BoundedQueue, ShedsWhenFullAndDrainsAfterClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed, never buffered
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: no admission
  EXPECT_EQ(q.pop(), 1);        // queued work survives close
  EXPECT_EQ(q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());  // closed and empty
}

// ---- server helpers --------------------------------------------------------

const char* kFirSource =
    "array y[256];\narray x[264];\narray h[8];\n"
    "for i = 1 to 256\n  for k = 1 to 8\n"
    "    {\n      y[i] = y[i] + x[i + k] + h[k];\n    }\n";

// Heavy enough (3-deep nest, full pipeline with optimize search) that a
// worker is measurably busy while follow-up lines are admitted.
const char* kMatmultSource =
    "array C[16][16];\narray A[16][16];\narray B[16][16];\n"
    "for i = 1 to 16\n  for j = 1 to 16\n    for k = 1 to 16\n"
    "      {\n        C[i][j] = C[i][j] + A[i][k] + B[k][j];\n      }\n";

std::string request_line(const std::string& id_json, const std::string& source,
                         const std::string& kind = "full",
                         double deadline_ms = 0) {
  Json req = Json::object();
  req.set("id", Json::raw(id_json));
  req.set("kind", kind);
  req.set("source", source);
  if (deadline_ms > 0) {
    req.set("options", Json::object().set("deadline_ms", deadline_ms));
  }
  return req.dump(0);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// The response for a given raw id, or nullopt.
std::optional<WireValue> response_for(const std::vector<std::string>& lines,
                                      const std::string& id_json) {
  for (const std::string& line : lines) {
    std::string error;
    auto doc = parse_wire_json(line, &error);
    if (!doc) continue;
    const WireValue* result = doc->find("result");
    if (!result) continue;
    const WireValue* id = result->find("id");
    if (id && id->raw == id_json) return doc;
  }
  return std::nullopt;
}

int wire_status(const WireValue& doc) {
  const WireValue* status = doc.find("result")->find("status");
  return status ? static_cast<int>(status->number) : -1;
}

// ---- streams transport -----------------------------------------------------

TEST(Server, StreamsResponseIsByteIdenticalToSessionPayload) {
  AnalysisSession direct;
  std::string expected =
      direct.run({kFirSource, "x.loop", AnalysisRequest::Kind::kFull}).payload;

  ServerOptions opts;
  opts.workers = 2;
  AnalysisServer server(opts);
  std::istringstream in(request_line("1", kFirSource) + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  auto doc = response_for(lines, "1");
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(wire_status(*doc), 0);
  const WireValue* payload = doc->find("result")->find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->raw, expected);  // spliced verbatim, never re-encoded
  EXPECT_EQ(server.metrics().counter("serve.completed"), 1);
}

TEST(Server, StreamsSymbolicKindReturnsSymbolicDocument) {
  // A nest squarely inside the symbolic engine's supported regime, so the
  // response must be a success whose payload embeds the closed forms.
  const char* source =
      "array A[11][11];\n"
      "for i = 1 to 10\n  for j = 1 to 10\n"
      "    A[i][j] = A[i][j - 1];\n";
  AnalysisSession direct;
  std::string expected =
      direct.run({source, "<serve>", AnalysisRequest::Kind::kSymbolic})
          .payload;

  AnalysisServer server(ServerOptions{});
  std::istringstream in(request_line("42", source, "symbolic") + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 1u);
  auto doc = response_for(lines, "42");
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(wire_status(*doc), 0);
  const WireValue* payload = doc->find("result")->find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->raw, expected);
  EXPECT_NE(payload->raw.find("\"symbolic\""), std::string::npos);
}

TEST(Server, StreamsMrcKindRoundTripsWithOptions) {
  // An "mrc" request with every per-kind knob set must splice exactly the
  // payload a direct session computes for the same typed request, and a
  // warm (cached) re-run must be byte-identical to the cold one.
  AnalysisRequest::Mrc mopt;
  mopt.plan = "0 1; 1 0";
  mopt.sample_rate = 0.5;
  mopt.capacities = {1, 8, 64};
  AnalysisSession direct;
  std::string expected = direct.run({kFirSource, "<serve>", mopt}).payload;

  Json req = Json::object();
  req.set("id", Json::raw("7"));
  req.set("kind", "mrc");
  req.set("source", kFirSource);
  req.set("options", Json::object()
                         .set("plan", "0 1; 1 0")
                         .set("sample_rate", 0.5)
                         .set("capacities", Json::array().push(1).push(8).push(64)));
  const std::string line = req.dump(0) + "\n";

  AnalysisServer server(ServerOptions{});
  std::istringstream in(line + line);  // cold, then warm from the cache
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& response : lines) {
    std::string error;
    auto doc = parse_wire_json(response, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(wire_status(*doc), 0);
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->raw, expected);
    EXPECT_NE(payload->raw.find("\"mrc\""), std::string::npos);
    EXPECT_NE(payload->raw.find("\"error_bound\""), std::string::npos);
  }
}

TEST(Server, StreamsAnswersEveryRequestOnDrain) {
  ServerOptions opts;
  opts.workers = 4;
  opts.queue_depth = 64;
  AnalysisServer server(opts);
  std::string feed;
  for (int i = 0; i < 8; ++i) {
    feed += request_line(std::to_string(i),
                         i % 2 ? kFirSource : kMatmultSource, "analyze");
    feed += '\n';
  }
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);  // returns only after the drain

  auto lines = lines_of(out.str());
  EXPECT_EQ(lines.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    auto doc = response_for(lines, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << "missing response for id " << i;
    EXPECT_EQ(wire_status(*doc), 0);
  }
  // 8 requests over 2 distinct sources.  Every request is answered from
  // exactly one of three paths: a cache hit, a cache miss (computed), or
  // a coalesced flight (answered by another request's computation without
  // ever probing the cache).  The split between them depends on worker
  // timing, but the first compute of each source is always a miss.
  EXPECT_EQ(server.cache().hits() + server.cache().misses() +
                server.metrics().counter("serve.coalesced"),
            8);
  EXPECT_GE(server.cache().misses(), 2);
  EXPECT_EQ(server.metrics().latency_count("serve.latency_ms"), 8);
}

TEST(Server, BadRequestLineGetsBadRequestStatus) {
  AnalysisServer server(ServerOptions{});
  std::istringstream in("this is not json\n" +
                        request_line("2", kFirSource, "lint") + "\n");
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  bool saw_bad = false;
  for (const auto& line : lines) {
    if (line.find("\"bad_request\"") != std::string::npos) saw_bad = true;
  }
  EXPECT_TRUE(saw_bad) << out.str();
  auto ok = response_for(lines, "2");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(wire_status(*ok), 0);
  EXPECT_EQ(server.metrics().counter("serve.bad_request"), 1);
}

// A sink that collects response lines; lets tests admit lines one at a
// time (serve_streams feeds them back-to-back, which races the worker).
class CollectingSink : public ResponseSink {
 public:
  void write_line(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(line);
  }
  std::vector<std::string> lines() {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> lines_;
};

TEST(Server, FullQueueShedsWithOverloaded) {
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_depth = 1;
  AnalysisServer server(opts);
  auto sink = std::make_shared<CollectingSink>();

  // Stage the scenario deterministically: the single worker must hold the
  // heavy request BEFORE the next two lines arrive, so wait for it to
  // leave the queue (compute takes milliseconds; the admits below take
  // microseconds, so the worker is still busy for them).
  server.admit_line(request_line("\"heavy\"", kMatmultSource), sink);
  for (int i = 0; i < 2000 && server.queued() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), 0u) << "worker never picked up the request";
  // Distinct kinds of the same source: different cache keys, so the third
  // line cannot coalesce onto the second -- it must hit the full queue.
  server.admit_line(request_line("\"queued\"", kFirSource), sink);  // fills depth 1
  server.admit_line(request_line("\"shed\"", kFirSource, "analyze"), sink);  // queue full
  server.drain();

  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), 3u);
  auto shed = response_for(lines, "\"shed\"");
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(wire_status(*shed), static_cast<int>(ServeStatus::kOverloaded));
  auto queued = response_for(lines, "\"queued\"");
  ASSERT_TRUE(queued.has_value());
  EXPECT_EQ(wire_status(*queued), 0);  // admitted work still completes
  auto heavy = response_for(lines, "\"heavy\"");
  ASSERT_TRUE(heavy.has_value());
  EXPECT_EQ(wire_status(*heavy), 0);
  EXPECT_EQ(server.metrics().counter("serve.overloaded"), 1);
}

// ---- single-flight coalescing ----------------------------------------------

TEST(Server, CoalescesIdenticalConcurrentColdRequests) {
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  auto sink = std::make_shared<CollectingSink>();

  // Occupy the single worker with a heavy unrelated request so the five
  // identical lines below are all admitted while their leader is still
  // queued -- the flight stays open for every one of them.
  server.admit_line(request_line("\"busy\"", kMatmultSource), sink);
  for (int i = 0; i < 2000 && server.queued() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.queued(), 0u) << "worker never picked up the request";
  constexpr int kIdentical = 5;
  for (int i = 0; i < kIdentical; ++i) {
    server.admit_line(request_line(std::to_string(i), kFirSource), sink);
  }
  server.drain();

  // Exactly two computations happened in this process: the busy request
  // and ONE shared run for the five identical cold requests.
  EXPECT_EQ(server.metrics().counter("runs.total"), 2);
  EXPECT_EQ(server.metrics().counter("runs.computed"), 2);
  EXPECT_EQ(server.metrics().counter("serve.coalesced"), kIdentical - 1);
  EXPECT_EQ(server.metrics().counter("serve.completed"), kIdentical + 1);

  // Every waiter got the leader's bytes verbatim.
  auto lines = sink->lines();
  ASSERT_EQ(lines.size(), static_cast<size_t>(kIdentical) + 1);
  std::string shared_payload;
  for (int i = 0; i < kIdentical; ++i) {
    auto doc = response_for(lines, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << "missing response for id " << i;
    EXPECT_EQ(wire_status(*doc), 0);
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    if (shared_payload.empty()) shared_payload = payload->raw;
    EXPECT_EQ(payload->raw, shared_payload);
  }
}

TEST(Server, DifferentKindsOfOneSourceNeverCoalesce) {
  // The flight identity is the cache key, which folds in the request
  // kind: lint and analyze of one source must both compute.
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  std::string feed = request_line("\"l\"", kFirSource, "lint") + "\n" +
                     request_line("\"a\"", kFirSource, "analyze") + "\n";
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);

  EXPECT_EQ(server.metrics().counter("runs.total"), 2);
  EXPECT_EQ(server.metrics().counter("serve.coalesced"), 0);
  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  for (const char* id : {"\"l\"", "\"a\""}) {
    auto doc = response_for(lines, id);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(wire_status(*doc), 0);
  }
}

TEST(Server, CoalescingDisabledRunsEveryRequest) {
  ServerOptions opts;
  opts.workers = 1;
  opts.coalesce = false;
  AnalysisServer server(opts);
  std::string line = request_line("\"x\"", kFirSource, "analyze") + "\n";
  std::istringstream in(line + line);
  std::ostringstream out;
  server.serve_streams(in, out);

  // Both lines went through the queue; the second was a warm cache hit,
  // not a coalesced waiter.
  EXPECT_EQ(server.metrics().counter("runs.total"), 2);
  EXPECT_EQ(server.metrics().counter("serve.coalesced"), 0);
  EXPECT_EQ(server.cache().hits(), 1);
  EXPECT_EQ(server.cache().misses(), 1);
}

TEST(Server, ExpiredDeadlineReportsTimeout) {
  ServerOptions opts;
  opts.workers = 1;
  AnalysisServer server(opts);
  // While the worker grinds the heavy request, the second's microscopic
  // deadline expires in the queue; it must be abandoned at dispatch.
  std::string feed =
      request_line("\"heavy\"", kMatmultSource) + "\n" +
      request_line("\"late\"", kFirSource, "full", 0.0001) + "\n";
  std::istringstream in(feed);
  std::ostringstream out;
  server.serve_streams(in, out);

  auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 2u);
  auto late = response_for(lines, "\"late\"");
  ASSERT_TRUE(late.has_value()) << out.str();
  EXPECT_EQ(wire_status(*late), static_cast<int>(ServeStatus::kTimeout));
  EXPECT_EQ(server.metrics().counter("serve.timeout"), 1);
  EXPECT_EQ(server.metrics().counter("serve.abandoned"), 1);
  auto heavy = response_for(lines, "\"heavy\"");
  ASSERT_TRUE(heavy.has_value());
  EXPECT_EQ(wire_status(*heavy), 0);
}

// ---- socket helpers --------------------------------------------------------

TEST(Tcp, ParseHostPort) {
  std::string error;
  auto hp = parse_host_port("127.0.0.1:8080", &error);
  ASSERT_TRUE(hp.has_value()) << error;
  EXPECT_EQ(hp->host, "127.0.0.1");
  EXPECT_EQ(hp->port, 8080);

  hp = parse_host_port("localhost:0", &error);
  ASSERT_TRUE(hp.has_value()) << error;
  EXPECT_EQ(hp->port, 0);

  hp = parse_host_port(":9", &error);  // empty host = all interfaces
  ASSERT_TRUE(hp.has_value()) << error;
  EXPECT_EQ(hp->host, "");

  EXPECT_FALSE(parse_host_port("no-port", &error).has_value());
  EXPECT_FALSE(parse_host_port("h:99999", &error).has_value());
  EXPECT_FALSE(parse_host_port("h:-1", &error).has_value());
  EXPECT_FALSE(parse_host_port("h:12x", &error).has_value());
  EXPECT_FALSE(parse_host_port("some.dns.name:1", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ---- socket transports ----------------------------------------------------
//
// The Unix and TCP listeners share one event loop and one drain sequence,
// so each behaviour below is one body run over both families.

enum class Family { kUnix, kTcp };

// Closes a client fd on scope exit.
struct ClientFd {
  explicit ClientFd(int f) : fd(f) {}
  ~ClientFd() {
    if (fd >= 0) ::close(fd);
  }
  ClientFd(const ClientFd&) = delete;
  ClientFd& operator=(const ClientFd&) = delete;
  int fd;
};

// An AnalysisServer serving one socket family on its own thread.  The
// destructor requests the stop and joins; stop_within() bounds the wait.
class ServedSocket {
 public:
  explicit ServedSocket(Family family, ServerOptions opts = {})
      : family_(family), server_(std::move(opts)) {
    if (family_ == Family::kUnix) {
      // sun_path is ~108 bytes; TempDir can be long, so fall back to /tmp.
      // The test name keeps paths apart when tests run in parallel.
      path_ = ::testing::TempDir() + "lmre_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".sock";
      if (path_.size() >= 100) {
        path_ = "/tmp/" + path_.substr(path_.rfind('/') + 1);
      }
      ::unlink(path_.c_str());
    }
    serving_ = std::thread([this] {
      ExitCode rc = family_ == Family::kUnix
                        ? server_.serve_socket(path_)
                        : server_.serve_tcp("127.0.0.1", 0);
      EXPECT_EQ(rc, ExitCode::kSuccess);
      returned_.store(true);
    });
    for (int i = 0; i < 500 && !bound(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  ~ServedSocket() {
    server_.request_stop();
    serving_.join();
  }

  ServedSocket(const ServedSocket&) = delete;
  ServedSocket& operator=(const ServedSocket&) = delete;

  bool bound() const {
    return family_ == Family::kUnix ? ::access(path_.c_str(), F_OK) == 0
                                    : server_.tcp_port() > 0;
  }

  // A connected blocking client fd, or -1.  Retries across the short
  // window between a Unix socket's bind and its listen.
  int connect() const {
    for (int i = 0; i < 500; ++i) {
      int fd = family_ == Family::kUnix
                   ? unix_connect(path_)
                   : tcp_connect("127.0.0.1", server_.tcp_port());
      if (fd >= 0) return fd;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  // request_stop(), then true once serving returned within `patience`.
  bool stop_within(std::chrono::milliseconds patience) {
    server_.request_stop();
    auto until = std::chrono::steady_clock::now() + patience;
    while (!returned_.load() && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return returned_.load();
  }

  void stop() { EXPECT_TRUE(stop_within(std::chrono::seconds(10))); }

  AnalysisServer& server() { return server_; }
  double gauge(const std::string& name) {
    return server_.metrics().gauge_value(name);
  }

 private:
  Family family_;
  std::string path_;
  AnalysisServer server_;
  std::atomic<bool> returned_{false};
  std::thread serving_;
};

void send_all(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

// Bounds every blocking recv on `fd`, so a server that never answers
// fails the test instead of hanging it.
void set_recv_timeout(int fd, int seconds) {
  timeval tv{seconds, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

// One-shot client over a connected fd (closed here): send `line`,
// half-close, read one response line; "" when fd < 0 or nothing came.
std::string roundtrip(int fd, const std::string& line) {
  if (fd < 0) return "";
  send_all(fd, line + '\n');
  ::shutdown(fd, SHUT_WR);  // half-close: the response must still arrive
  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
    size_t nl = response.find('\n');
    if (nl != std::string::npos) {
      response.resize(nl);
      break;
    }
  }
  ::close(fd);
  return response;
}

void response_is_byte_identical_to_session_payload(Family family) {
  AnalysisSession direct;
  std::string expected =
      direct.run({kFirSource, "x.loop", AnalysisRequest::Kind::kFull}).payload;

  ServerOptions opts;
  opts.workers = 2;
  ServedSocket served(family, opts);
  std::string response =
      roundtrip(served.connect(), request_line("1", kFirSource));
  ASSERT_FALSE(response.empty());
  auto doc = response_for({response}, "1");
  ASSERT_TRUE(doc.has_value()) << response;
  EXPECT_EQ(wire_status(*doc), 0);
  const WireValue* payload = doc->find("result")->find("result");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->raw, expected);  // the contract holds on every socket

  served.stop();
  EXPECT_EQ(served.server().metrics().counter("serve.completed"), 1);
  EXPECT_EQ(served.gauge("serve.conns_opened"), 1.0);
}

TEST(Server, SocketResponseIsByteIdenticalToSessionPayload) {
  response_is_byte_identical_to_session_payload(Family::kUnix);
}
TEST(Server, TcpResponseIsByteIdenticalToSessionPayload) {
  response_is_byte_identical_to_session_payload(Family::kTcp);
}

void concurrent_clients_share_one_cache(Family family) {
  ServerOptions opts;
  opts.workers = 4;
  ServedSocket served(family, opts);

  // Warm the cache with one sequential request so the concurrent phase
  // has a deterministic hit pattern.
  std::string warm =
      roundtrip(served.connect(), request_line("\"warm\"", kFirSource));
  ASSERT_FALSE(warm.empty()) << "server never came up";

  constexpr int kClients = 6;
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = roundtrip(served.connect(),
                               request_line(std::to_string(i), kFirSource));
    });
  }
  for (auto& t : clients) t.join();
  served.stop();

  // Every client got the byte-identical payload; one compute, rest hits.
  std::string warm_payload;
  {
    auto doc = response_for({warm}, "\"warm\"");
    ASSERT_TRUE(doc.has_value()) << warm;
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    warm_payload = payload->raw;
  }
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(responses[i].empty()) << "client " << i << " got no response";
    auto doc = response_for({responses[i]}, std::to_string(i));
    ASSERT_TRUE(doc.has_value()) << responses[i];
    EXPECT_EQ(wire_status(*doc), 0);
    const WireValue* payload = doc->find("result")->find("result");
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(payload->raw, warm_payload);
  }
  // One cold compute for the warm-up.  Each concurrent client was either
  // a warm cache hit or rode an open flight (coalesced); both paths
  // splice the same cached bytes.
  AnalysisServer& server = served.server();
  EXPECT_EQ(server.cache().misses(), 1);
  EXPECT_EQ(server.cache().hits() + server.metrics().counter("serve.coalesced"),
            kClients);
  EXPECT_EQ(server.metrics().counter("serve.completed"), kClients + 1);
  EXPECT_EQ(served.gauge("serve.conns_opened"), kClients + 1.0);
}

TEST(Server, SocketConcurrentClientsShareOneCacheAndDrainCleanly) {
  concurrent_clients_share_one_cache(Family::kUnix);
}
TEST(Server, TcpConcurrentClientsAllAnswered) {
  concurrent_clients_share_one_cache(Family::kTcp);
}

void stop_without_clients_exits_cleanly(Family family) {
  ServedSocket served(family);
  ASSERT_TRUE(served.bound());
  served.stop();  // the loop notices within its 100 ms poll
  EXPECT_TRUE(served.server().stopped());
  EXPECT_EQ(served.gauge("serve.conns_opened"), 0.0);
}

TEST(Server, SocketStopWithoutClientsExitsCleanly) {
  stop_without_clients_exits_cleanly(Family::kUnix);
}
TEST(Server, TcpStopWithoutClientsExitsCleanly) {
  stop_without_clients_exits_cleanly(Family::kTcp);
}

void vanishing_client_loses_no_one_else(Family family) {
  ServerOptions opts;
  opts.workers = 1;
  ServedSocket served(family, opts);

  // Client A fires a heavy request and slams the connection shut without
  // reading; its response has nowhere to go.
  int a = served.connect();
  ASSERT_GE(a, 0);
  send_all(a, request_line("\"doomed\"", kMatmultSource) + '\n');
  ::close(a);

  // Client B must be completely unaffected.
  std::string b = roundtrip(served.connect(),
                            request_line("\"b\"", kFirSource, "analyze"));
  ASSERT_FALSE(b.empty()) << "surviving client lost its response";
  auto doc = response_for({b}, "\"b\"");
  ASSERT_TRUE(doc.has_value()) << b;
  EXPECT_EQ(wire_status(*doc), 0);

  served.stop();
  // Both requests were admitted and completed; A's bytes were dropped at
  // its dead socket without disturbing the loop or a worker, and both
  // connections were reaped while serving -- none leaked to shutdown.
  EXPECT_EQ(served.server().metrics().counter("serve.completed"), 2);
  EXPECT_EQ(served.gauge("serve.conns_opened"), 2.0);
  EXPECT_EQ(served.gauge("serve.conns_closed"),
            served.gauge("serve.conns_opened"));
}

TEST(Server, SocketClientVanishingMidFlightDoesNotLoseOthers) {
  vanishing_client_loses_no_one_else(Family::kUnix);
}
TEST(Server, TcpClientVanishingMidFlightDoesNotLoseOthers) {
  vanishing_client_loses_no_one_else(Family::kTcp);
}

void non_reading_client_stalls_no_one(Family family) {
  ServerOptions opts;
  opts.workers = 1;
  ServedSocket served(family, opts);

  // The flooder asks for 200 codegen payloads (~12 KiB of C each, 2.5 MB
  // in all) and never reads.  Declared after `served`: it closes before
  // the server is joined.
  ClientFd flood(served.connect());
  ASSERT_GE(flood.fd, 0);
  std::string burst;
  for (int i = 0; i < 200; ++i) {
    burst += request_line(std::to_string(i), kMatmultSource, "codegen") + '\n';
  }
  send_all(flood.fd, burst);

  // Another client is still answered...
  int other = served.connect();
  ASSERT_GE(other, 0);
  set_recv_timeout(other, 10);
  std::string answer =
      roundtrip(other, request_line("\"other\"", kFirSource, "lint"));
  ASSERT_FALSE(answer.empty()) << "a non-reading client stalled the server";
  auto doc = response_for({answer}, "\"other\"");
  ASSERT_TRUE(doc.has_value()) << answer;
  EXPECT_EQ(wire_status(*doc), 0);

  // ...and shutdown does not wait on the flooder to read.
  EXPECT_TRUE(served.stop_within(std::chrono::seconds(10)))
      << "request_stop() did not return while a client was not reading";
  EXPECT_EQ(served.server().metrics().counter("serve.completed"), 201);
  // A Unix socket buffers ~200 KiB per connection, so the flood overruns
  // it; loopback TCP autotunes its buffers to several MiB and may not.
  if (family == Family::kUnix) {
    EXPECT_GT(served.gauge("serve.partial_writes"), 0.0);
  }
}

TEST(Server, SocketNonReadingClientStallsNoOneElse) {
  non_reading_client_stalls_no_one(Family::kUnix);
}
TEST(Server, TcpNonReadingClientStallsNoOneElse) {
  non_reading_client_stalls_no_one(Family::kTcp);
}

void overlong_line_drops_only_its_connection(Family family) {
  ServedSocket served(family);

  // More than the 16 MiB line cap, and no newline anywhere.
  int hog = served.connect();
  ASSERT_GE(hog, 0);
  set_recv_timeout(hog, 10);
  send_all(hog, std::string((16u << 20) + 4096, 'x'));
  char byte = 0;
  ssize_t n = ::recv(hog, &byte, 1, 0);
  const bool timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  EXPECT_TRUE(n == 0 || (n < 0 && !timed_out))
      << "the server kept a connection past the line cap";
  ::close(hog);

  std::string answer = roundtrip(
      served.connect(), request_line("\"other\"", kFirSource, "lint"));
  auto doc = response_for({answer}, "\"other\"");
  ASSERT_TRUE(doc.has_value()) << answer;
  EXPECT_EQ(wire_status(*doc), 0);

  served.stop();
  EXPECT_EQ(served.server().metrics().counter("serve.requests"), 1);
  EXPECT_EQ(served.gauge("serve.conns_opened"), 2.0);
  EXPECT_EQ(served.gauge("serve.conns_closed"), 2.0);
}

TEST(Server, SocketOverlongLineDropsOnlyThatConnection) {
  overlong_line_drops_only_its_connection(Family::kUnix);
}
TEST(Server, TcpOverlongLineDropsOnlyThatConnection) {
  overlong_line_drops_only_its_connection(Family::kTcp);
}

TEST(Server, SocketBindFailureReportsError) {
  std::string too_long(200, 'x');
  std::string error;
  EXPECT_EQ(unix_listen(too_long, &error), -1);
  EXPECT_NE(error.find("too long"), std::string::npos) << error;
  AnalysisServer server(ServerOptions{});
  EXPECT_EQ(server.serve_socket(too_long), ExitCode::kFailure);
}

TEST(Server, TcpBindFailureReportsError) {
  ServedSocket blocker(Family::kTcp);
  ASSERT_TRUE(blocker.bound());

  AnalysisServer server(ServerOptions{});
  std::string error;
  EXPECT_EQ(server.serve_tcp("127.0.0.1", blocker.server().tcp_port(), &error),
            ExitCode::kFailure);
  EXPECT_NE(error.find("bind"), std::string::npos) << error;
}

}  // namespace
}  // namespace lmre

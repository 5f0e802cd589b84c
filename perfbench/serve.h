#pragma once

// The served phase: an open-loop load generator against an in-process
// AnalysisServer::serve_tcp over loopback.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

/// Declared limits of the workload.
inline constexpr double kTailLimitMs = 250.0;       ///< tail latency a rung must stay under
inline constexpr double kLatenessBoundMs = 20.0;    ///< generator p99 lateness; beyond = invalid rung
inline constexpr double kRungBase = 50.0;           ///< lowest rung (requests/s)
inline constexpr double kRungStep = 1.05;           ///< rungs 5% apart
inline constexpr int kRungCount = 110;              ///< 50 .. ~10,000 requests/s
inline constexpr double kReferenceRate = 400.0;     ///< rate of the latency measurement
inline constexpr int kReferenceWindows = 5;         ///< latency windows at that rate
inline constexpr int kServeWorkers = 2;             ///< + 1 event loop + 1 generator = 4 threads
inline constexpr int kGeneratorConnections = 2;
inline constexpr size_t kServeCacheEntries = 192;   ///< < pool size: misses and evictions continue
inline constexpr double kDeadlineMs = 10000.0;

/// ServerOptions of the workload.
lmre::ServerOptions serve_options();

/// An AnalysisServer running serve_tcp on its own thread (the event loop).
class RunningServer {
 public:
  RunningServer();
  ~RunningServer();
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  int port() const { return port_; }
  lmre::AnalysisServer& server() { return server_; }
  /// Stops the loop and joins it; idempotent.
  void stop();

 private:
  lmre::AnalysisServer server_;
  int port_ = -1;
  std::thread loop_;
};

/// Outcome of one fixed-rate rung.
struct RungResult {
  double rate = 0;
  size_t sent = 0, answered = 0, failed = 0;
  std::vector<double> latency_ms;   ///< scheduled send -> response read
  std::vector<double> lateness_ms;  ///< actual send - scheduled send
  Tail tail;
  double late_p99_ms = 0;
  bool backlog_growing = false;
  bool aborted = false;   ///< stopped sending: backlog beyond the abort limit
  bool invalid = false;   ///< generator ran late beyond kLatenessBoundMs
  double achieved_rps = 0;  ///< responses read while sending, per second of sending
  bool pass() const {
    return !aborted && !invalid && !backlog_growing && failed == 0 &&
           answered == sent && tail.value < kTailLimitMs;
  }
};

/// The generator: one thread (the caller's), kGeneratorConnections
/// connections, requests drawn Zipf-skewed from the pool.
class OpenLoop {
 public:
  /// The rank stream is drawn from a fixed seed: every run sends the same
  /// sequence of Zipf ranks (so the same hit/miss/eviction pattern), and
  /// the run seed changes what sits at each rank.
  OpenLoop(const std::vector<Item>& pool, int port, Report& rep);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Sends at `rate` for `seconds` on a fixed schedule, then waits for
  /// every response.
  RungResult run(double rate, double seconds);

  /// One request at a time for every pool item, least popular first, so
  /// the cache starts the measurement holding the most popular ranks.
  void prime();

  /// One request at a time to the same pool item: median round trip (us)
  /// once that item is cached.
  double rtt_hit_us(int item, int samples);

  /// The request line the generator sends for pool item `item` as `id`.
  std::string request_line(int item, long id) const {
    return "{\"id\":" + std::to_string(id) + lines_[static_cast<size_t>(item)];
  }

  /// First payload seen per pool item (index -> status, payload).
  const std::map<int, std::pair<int, std::string>>& seen() const { return seen_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t off = 0;
    std::string in;
  };
  struct Pending {
    Clock::time_point scheduled;
    int item = 0;
    bool done = false;
  };
  int draw();
  /// Sends one request for `item` and waits for its response; the
  /// round trip in ms, or a negative value when none arrived.
  double round_trip(int item, RungResult& r);
  void handle_line(const std::string& line, RungResult& r, Clock::time_point now);
  void pump(int timeout_us, RungResult& r);

  const std::vector<Item>& pool_;
  std::vector<std::string> lines_;  ///< per item: the request line after `{"id":N`
  std::vector<double> cdf_;
  SplitMix64 rng_;
  Report& rep_;
  std::vector<Conn> conns_;
  std::vector<Pending> pending_;    ///< indexed by request id
  std::map<int, std::pair<int, std::string>> seen_;
  size_t outstanding_ = 0;
};

}  // namespace perfbench

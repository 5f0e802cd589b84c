#include "serve.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <ctime>
#include <stdexcept>

#include "checks.h"
#include "server/tcp.h"

namespace perfbench {

lmre::ServerOptions serve_options() {
  lmre::ServerOptions so;
  so.workers = kServeWorkers;
  // Deep enough that an overloaded rung shows as latency and backlog
  // growth (and is aborted) rather than as shed requests.
  so.queue_depth = 4096;
  so.session.cache_capacity = kServeCacheEntries;
  return so;
}

RunningServer::RunningServer() : server_(serve_options()) {
  loop_ = std::thread([this] {
    std::string err;
    server_.serve_tcp("127.0.0.1", 0, &err);
  });
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while ((port_ = server_.tcp_port()) < 0) {
    if (Clock::now() > give_up) {
      stop();
      throw std::runtime_error("serve_tcp did not bind");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

RunningServer::~RunningServer() { stop(); }

void RunningServer::stop() {
  server_.request_stop();
  if (loop_.joinable()) loop_.join();
}

OpenLoop::OpenLoop(const std::vector<Item>& pool, int port, Report& rep)
    : pool_(pool), rng_(0x5A49504Full), rep_(rep) {
  double total = 0.0;
  for (size_t r = 0; r < pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  for (const Item& it : pool) {
    const lmre::AnalysisRequest& q = it.req;
    std::string line = ",\"schema_version\":2,\"kind\":\"";
    line += lmre::to_string(q.kind());
    line += "\",\"source\":" + json_quote(q.source);
    line += ",\"options\":{\"deadline_ms\":" + std::to_string(static_cast<int>(kDeadlineMs));
    if (!q.plan_spec().empty()) line += ",\"plan\":" + json_quote(q.plan_spec());
    line += "}}\n";
    lines_.push_back(std::move(line));
  }
  for (int c = 0; c < kGeneratorConnections; ++c) {
    std::string err;
    int fd = lmre::tcp_connect("127.0.0.1", port, &err);
    if (fd < 0) throw std::runtime_error("connect: " + err);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    conns_.push_back(Conn{fd, {}, 0, {}});
  }
}

OpenLoop::~OpenLoop() {
  for (Conn& c : conns_) close(c.fd);
}

int OpenLoop::draw() {
  const double u = rng_.unit();
  return static_cast<int>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

void OpenLoop::handle_line(const std::string& line, RungResult& r, Clock::time_point now) {
  // The envelope is {"command":"serve","result":{"id":N,"result":<payload>,
  // "status":S,...},...}; the payload is spliced verbatim, so cut it out
  // by position instead of re-parsing it.
  static const std::string kPrefix = "{\"command\":\"serve\",\"result\":{\"id\":";
  static const std::string kResult = ",\"result\":";
  static const std::string kStatus = ",\"status\":";
  long id = -1;
  int status = -1;
  std::string payload;
  if (line.compare(0, kPrefix.size(), kPrefix) == 0) {
    char* end = nullptr;
    id = std::strtol(line.c_str() + kPrefix.size(), &end, 10);
    const size_t p = static_cast<size_t>(end - line.c_str());
    const size_t sp = line.rfind(kStatus);
    if (sp != std::string::npos && sp > p) {
      status = std::atoi(line.c_str() + sp + kStatus.size());
      if (line.compare(p, kResult.size(), kResult) == 0) {
        payload = line.substr(p + kResult.size(), sp - p - kResult.size());
      }
    }
  }
  if (id < 0 || static_cast<size_t>(id) >= pending_.size() || pending_[static_cast<size_t>(id)].done) {
    rep_.fail("unmatched response: " + line.substr(0, 120));
    return;
  }
  Pending& pd = pending_[static_cast<size_t>(id)];
  pd.done = true;
  --outstanding_;
  ++r.answered;
  r.latency_ms.push_back(ms_between(pd.scheduled, now));
  std::string why;
  if (status < 0 || status > 4) {
    why = "serve status " + std::to_string(status) + ": " + line.substr(0, 160);
  } else {
    // The first payload per item is checked after the run (off the
    // generator's clock); later ones must repeat it byte for byte.
    auto [it, fresh] = seen_.try_emplace(pd.item, status, payload);
    if (!fresh && (it->second.first != status || it->second.second != payload)) {
      why = "payload differs between responses for the same request";
    }
  }
  if (!why.empty()) {
    ++r.failed;
    rep_.fail(pool_[static_cast<size_t>(pd.item)].label + ": " + why);
  }
}

void OpenLoop::pump(int timeout_us, RungResult& r) {
  std::vector<pollfd> fds;
  for (Conn& c : conns_) {
    short ev = POLLIN;
    if (c.off < c.out.size()) ev |= POLLOUT;
    fds.push_back(pollfd{c.fd, ev, 0});
  }
  timespec ts{timeout_us / 1000000, static_cast<long>(timeout_us % 1000000) * 1000};
  if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  const Clock::time_point now = Clock::now();
  char buf[65536];
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if ((fds[i].revents & POLLOUT) && c.off < c.out.size()) {
      ssize_t n = send(c.fd, c.out.data() + c.off, c.out.size() - c.off, MSG_NOSIGNAL);
      if (n > 0) c.off += static_cast<size_t>(n);
      if (c.off == c.out.size()) {
        c.out.clear();
        c.off = 0;
      }
    }
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      for (;;) {
        ssize_t n = recv(c.fd, buf, sizeof buf, 0);
        if (n <= 0) break;
        // Acknowledge at once: a delayed ACK would hold back the server's
        // next small response behind Nagle's algorithm.
        const int one = 1;
        setsockopt(c.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
        c.in.append(buf, static_cast<size_t>(n));
      }
      size_t start = 0, nl;
      while ((nl = c.in.find('\n', start)) != std::string::npos) {
        handle_line(c.in.substr(start, nl - start), r, now);
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
  }
}

RungResult OpenLoop::run(double rate, double seconds) {
  RungResult r;
  r.rate = rate;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const double abort_limit = std::max(64.0, rate * 0.25);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  auto scheduled = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
  };
  std::vector<double> backlog;
  size_t i = 0;
  Clock::time_point drain_deadline{};
  Clock::time_point sent_end{};
  size_t answered_at_end = 0;
  for (;;) {
    Clock::time_point now = Clock::now();
    while (i < n && !r.aborted && scheduled(i) <= now) {
      const size_t id = pending_.size();
      pending_.push_back(Pending{scheduled(i), draw(), false});
      Conn& c = conns_[id % conns_.size()];
      c.out += request_line(pending_.back().item, static_cast<long>(id));
      ssize_t w = send(c.fd, c.out.data() + c.off, c.out.size() - c.off, MSG_NOSIGNAL);
      if (w > 0) c.off += static_cast<size_t>(w);
      if (c.off == c.out.size()) {
        c.out.clear();
        c.off = 0;
      }
      now = Clock::now();
      r.lateness_ms.push_back(ms_between(scheduled(i), now));
      ++outstanding_;
      ++r.sent;
      ++rep_.attempted;
      backlog.push_back(static_cast<double>(outstanding_));
      if (static_cast<double>(outstanding_) > abort_limit) r.aborted = true;
      ++i;
    }
    const bool sending = i < n && !r.aborted;
    if (!sending && sent_end == Clock::time_point{}) {
      sent_end = now;
      answered_at_end = r.answered;
    }
    if (!sending) {
      if (outstanding_ == 0) break;
      if (drain_deadline == Clock::time_point{}) {
        drain_deadline = now + std::chrono::milliseconds(static_cast<int>(kDeadlineMs) + 5000);
      } else if (now > drain_deadline) {
        break;
      }
    }
    // The generator spins (zero-timeout polls) instead of sleeping: a
    // sleeping thread's wake-up delay would land in every latency sample.
    pump(0, r);
  }
  for (size_t id = pending_.size() - r.sent; id < pending_.size(); ++id) {
    if (!pending_[id].done) {
      pending_[id].done = true;
      --outstanding_;
      ++r.failed;
      rep_.fail(pool_[static_cast<size_t>(pending_[id].item)].label + ": no response");
    }
  }
  r.tail = tail_of(r.latency_ms);
  r.late_p99_ms = quantile(r.lateness_ms, 0.99);
  r.invalid = r.late_p99_ms > kLatenessBoundMs;
  // Backlog growth: the mean outstanding count rises from each quarter of
  // the sends to the next, and the last quarter exceeds the first by more
  // than 2% of a second's arrivals.  One slow miss makes a bump, not a
  // rise through all four quarters.
  if (backlog.size() >= 8) {
    const size_t q = backlog.size() / 4;
    double mean[4] = {0, 0, 0, 0};
    for (size_t k = 0; k < 4 * q; ++k) mean[k / q] += backlog[k] / static_cast<double>(q);
    r.backlog_growing = mean[0] < mean[1] && mean[1] < mean[2] && mean[2] < mean[3] &&
                        mean[3] > mean[0] + std::max(8.0, 0.02 * rate);
  }
  const double elapsed = std::chrono::duration<double>(sent_end - t0).count();
  r.achieved_rps = elapsed > 0 ? static_cast<double>(answered_at_end) / elapsed : 0.0;
  return r;
}

double OpenLoop::round_trip(int item, RungResult& r) {
  const size_t id = pending_.size();
  const Clock::time_point sent = Clock::now();
  pending_.push_back(Pending{sent, item, false});
  conns_[0].out += request_line(item, static_cast<long>(id));
  ++outstanding_;
  ++rep_.attempted;
  const Clock::time_point give_up = sent + std::chrono::milliseconds(static_cast<int>(kDeadlineMs));
  while (!pending_[id].done && Clock::now() < give_up) pump(0, r);
  if (!pending_[id].done) {
    pending_[id].done = true;
    --outstanding_;
    rep_.fail(pool_[static_cast<size_t>(item)].label + ": no response");
    return -1.0;
  }
  return r.latency_ms.back();
}

void OpenLoop::prime() {
  RungResult r;
  for (size_t i = pool_.size(); i-- > 0;) (void)round_trip(static_cast<int>(i), r);
}

double OpenLoop::rtt_hit_us(int item, int samples) {
  RungResult r;
  std::vector<double> rtt;
  for (int s = 0; s <= samples; ++s) {
    const double ms = round_trip(item, r);
    if (s > 0 && ms >= 0) rtt.push_back(ms * 1000.0);  // the first one warms the cache
  }
  return median(rtt);
}

}  // namespace perfbench

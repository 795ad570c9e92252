// service/telemetry.cpp — poll()-loop HTTP server over POSIX sockets.

#include "service/telemetry.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "service/engine.hpp"

namespace lagraph {
namespace service {

namespace {

// Receive and send timeout on every accepted connection. The server answers
// one connection at a time on its only thread, so a client that stalls
// mid-request must not hold that thread, and with it stop(), indefinitely.
constexpr int kSocketTimeoutSeconds = 2;

std::string http_response(const char *status, const char *content_type,
                          const std::string &body) {
  std::ostringstream os;
  os << "HTTP/1.0 " << status << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

/// Read /requestz's id from its query string, which must be exactly
/// `id=<decimal digits>` with a value that fits in 64 bits.
bool parse_request_id(const std::string &query, std::uint64_t *id) {
  if (query.compare(0, 3, "id=") != 0) return false;
  const char *first = query.data() + 3;
  const char *last = query.data() + query.size();
  const auto [ptr, ec] = std::from_chars(first, last, *id);
  return first != last && ec == std::errc() && ptr == last;
}

const char *kind_name(const RequestRecord &rec) {
  return query_kind_name(static_cast<QueryKind>(rec.kind));
}

std::string statusz_json(const Engine &engine) {
  std::ostringstream os;
  char buf[256];
  const EngineCounters c = engine.counters();
  os << "{";
  std::snprintf(buf, sizeof(buf), "\"uptime_s\":%.3f,",
                engine.uptime_seconds());
  os << buf;

  if (const SnapshotPtr snap = engine.snapshot()) {
    std::snprintf(buf, sizeof(buf),
                  "\"snapshot\":{\"id\":%" PRIu64 ",\"epoch\":%" PRIu64
                  ",\"nodes\":%" PRIu64 ",\"entries\":%" PRIu64 "},",
                  snap->id(), snap->epoch(),
                  static_cast<std::uint64_t>(snap->nodes()),
                  static_cast<std::uint64_t>(snap->entries()));
    os << buf;
  } else {
    os << "\"snapshot\":null,";
  }

  os << "\"counters\":{";
  std::snprintf(buf, sizeof(buf),
                "\"submitted\":%" PRIu64 ",\"completed\":%" PRIu64
                ",\"failed\":%" PRIu64 ",\"deadline_expired\":%" PRIu64
                ",\"queue_rejected\":%" PRIu64 ",\"bfs_sweeps\":%" PRIu64
                ",\"batched_bfs\":%" PRIu64 ",\"solo_queries\":%" PRIu64
                ",\"snapshot_installs\":%" PRIu64 ",\"slow_queries\":%" PRIu64
                "},",
                c.submitted, c.completed, c.failed, c.deadline_expired,
                c.queue_rejected, c.bfs_sweeps, c.batched_bfs, c.solo_queries,
                c.snapshot_installs, c.slow_queries);
  os << buf;

  std::snprintf(buf, sizeof(buf),
                "\"gauges\":{\"queue_depth\":%zu,\"inflight\":%d"
                ",\"active_workers\":%d,\"workers\":%d},",
                engine.queue_depth(), engine.inflight(),
                engine.active_workers(), engine.config().threads);
  os << buf;

  os << "\"latency\":[";
  bool first = true;
  for (const KindLatency &kl : engine.latency_summary()) {
    if (!first) os << ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"kind\":\"%s\",\"count\":%" PRIu64
                  ",\"exec_p50_ms\":%.3f,\"exec_p95_ms\":%.3f"
                  ",\"exec_p99_ms\":%.3f,\"exec_mean_ms\":%.3f"
                  ",\"queue_p50_ms\":%.3f,\"queue_p95_ms\":%.3f"
                  ",\"queue_p99_ms\":%.3f,\"queue_mean_ms\":%.3f}",
                  query_kind_name(kl.kind), kl.count, kl.p50_ms, kl.p95_ms,
                  kl.p99_ms, kl.mean_ms, kl.queue_p50_ms, kl.queue_p95_ms,
                  kl.queue_p99_ms, kl.queue_mean_ms);
    os << buf;
  }
  os << "],";

  os << "\"recent\":[";
  first = true;
  for (const RequestRecord &rec : engine.request_log().recent(32)) {
    if (!first) os << ",";
    first = false;
    os << request_record_json(rec, kind_name(rec));
  }
  os << "],";

  os << "\"slow\":[";
  first = true;
  for (const std::string &line : engine.slow_query_tail()) {
    if (!first) os << ",";
    first = false;
    os << line;  // already a complete JSON object
  }
  os << "]}";
  return os.str();
}

std::string requestz_json(const Engine &engine, std::uint64_t id,
                          bool *found) {
  RequestRecord rec;
  if (!engine.request_log().find(id, &rec)) {
    *found = false;
    return "";
  }
  *found = true;
  std::vector<grb::trace::Span> spans;
  for (const grb::trace::Span &s : grb::trace::collect()) {
    if (s.request_id == rec.trace_id && rec.trace_id != 0) spans.push_back(s);
  }
  std::ostringstream os;
  os << "{\"request\":" << request_record_json(rec, kind_name(rec))
     << ",\"trace\":";
  grb::trace::write_chrome_trace(os, spans);
  os << "}";
  return os.str();
}

}  // namespace

TelemetryServer::TelemetryServer(Engine &engine, int port) : engine_(engine) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0 || ::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&addr), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  thread_ = std::thread([this] { serve_loop(); });
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::set_extra_metrics(std::function<std::string()> fn) {
  std::lock_guard<std::mutex> lk(extra_mu_);
  extra_ = std::move(fn);
}

void TelemetryServer::stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (wake_pipe_[1] >= 0) {
    const char b = 'q';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (int &fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  listen_fd_ = -1;
}

void TelemetryServer::serve_loop() {
  pollfd fds[2];
  fds[0].fd = listen_fd_;
  fds[0].events = POLLIN;
  fds[1].fd = wake_pipe_[0];
  fds[1].events = POLLIN;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::poll(fds, 2, /*timeout ms=*/1000);
    if (n <= 0) continue;  // timeout or EINTR: re-check stopping_
    if (fds[1].revents != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    timeval tv{};
    tv.tv_sec = kSocketTimeoutSeconds;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    handle_connection(conn);
    ::close(conn);
  }
}

void TelemetryServer::handle_connection(int fd) {
  // Read until the end of the request head (we never accept bodies).
  std::string req;
  char buf[2048];
  while (req.size() < 16 * 1024 && req.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) return;  // timed out mid-request: drop the client unanswered
    if (n == 0) break;
    req.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t sp1 = req.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                   : req.find(' ', sp1 + 1);
  std::string response;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    response = http_response("400 Bad Request", "text/plain", "bad request\n");
  } else if (req.substr(0, sp1) != "GET") {
    response = http_response("405 Method Not Allowed", "text/plain",
                             "GET only\n");
  } else {
    response = respond(req.substr(sp1 + 1, sp2 - sp1 - 1));
  }
  std::size_t off = 0;
  while (off < response.size()) {
    const ssize_t n =
        ::send(fd, response.data() + off, response.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
}

std::string TelemetryServer::respond(const std::string &target) {
  const std::size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  if (path == "/healthz") {
    return http_response("200 OK", "text/plain", "ok\n");
  }
  if (path == "/metrics") {
    std::ostringstream os;
    os << engine_.prometheus_text();
    std::function<std::string()> extra;
    {
      std::lock_guard<std::mutex> lk(extra_mu_);
      extra = extra_;
    }
    if (extra) os << extra();
    return http_response("200 OK", "text/plain; version=0.0.4", os.str());
  }
  if (path == "/statusz") {
    return http_response("200 OK", "application/json", statusz_json(engine_));
  }
  if (path == "/requestz") {
    std::uint64_t id = 0;
    if (q == std::string::npos ||
        !parse_request_id(target.substr(q + 1), &id)) {
      return http_response("400 Bad Request", "text/plain",
                           "usage: /requestz?id=<request id>\n");
    }
    bool found = false;
    const std::string body = requestz_json(engine_, id, &found);
    if (!found) {
      return http_response("404 Not Found", "text/plain",
                           "request not in the retained window\n");
    }
    return http_response("200 OK", "application/json", body);
  }
  return http_response("404 Not Found", "text/plain",
                       "endpoints: /metrics /healthz /statusz /requestz?id=\n");
}

std::string TelemetryServer::http_get(const std::string &host, int port,
                                      const std::string &target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string req = "GET " + target +
                          " HTTP/1.0\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

}  // namespace service
}  // namespace lagraph

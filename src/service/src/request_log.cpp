// service/request_log.cpp — roll-up ring, self-time ranking, slow-query JSON.

#include "service/request_log.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace lagraph {
namespace service {

RequestLog::RequestLog(std::size_t capacity)
    : ring_(capacity == 0 ? kDefaultCapacity : capacity) {}

void RequestLog::record(RequestRecord rec) {
  std::lock_guard<std::mutex> lk(mu_);
  // Swap rather than assign: the overwritten record leaves with `rec`, so
  // its plan string is freed after the lock is released.
  std::swap(ring_[recorded_ % ring_.size()], rec);
  ++recorded_;
}

std::vector<RequestRecord> RequestLog::recent(std::size_t max_n) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t n = std::min<std::uint64_t>(
      {recorded_, ring_.size(), static_cast<std::uint64_t>(max_n)});
  std::vector<RequestRecord> out;
  out.reserve(n);
  for (std::uint64_t k = 1; k <= n; ++k) {
    out.push_back(ring_[(recorded_ - k) % ring_.size()]);
  }
  return out;
}

bool RequestLog::find(std::uint64_t request_id, RequestRecord *out) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t n = std::min<std::uint64_t>(recorded_, ring_.size());
  for (std::uint64_t k = 1; k <= n; ++k) {
    const RequestRecord &r = ring_[(recorded_ - k) % ring_.size()];
    if (r.request_id == request_id) {
      *out = r;
      return true;
    }
  }
  return false;
}

std::vector<SpanSelfTime> top_spans_by_self_time(
    std::vector<grb::trace::Span> spans, std::size_t k) {
  std::vector<SpanSelfTime> rows;
  rows.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const grb::trace::Span &s = spans[i];
    // Self-time = duration minus direct children: spans on the same thread
    // one nesting level deeper whose interval lies inside this one.
    std::uint64_t children_ns = 0;
    for (std::size_t j = 0; j < spans.size(); ++j) {
      const grb::trace::Span &c = spans[j];
      if (j == i || c.tid != s.tid || c.depth != s.depth + 1) continue;
      if (c.t0_ns >= s.t0_ns && c.t0_ns + c.dur_ns <= s.t0_ns + s.dur_ns) {
        children_ns += c.dur_ns;
      }
    }
    SpanSelfTime row;
    row.span = s;
    row.self_ns = s.dur_ns > children_ns ? s.dur_ns - children_ns : 0;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const SpanSelfTime &a, const SpanSelfTime &b) {
              return a.self_ns > b.self_ns;
            });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

namespace {

std::string json_escape(const std::string &s) {
  std::string out;
  out.reserve(s.size());
  char buf[8];
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
        break;
    }
  }
  return out;
}

}  // namespace

std::string request_record_json(const RequestRecord &rec,
                                const char *kind_name) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"request_id\":%" PRIu64 ",\"trace_id\":%" PRIu64
      ",\"kind\":\"%s\",\"source\":%" PRIu64 ",\"status\":%d"
      ",\"deadline_missed\":%s,\"batched\":%s,\"batch_size\":%u"
      ",\"snapshot_id\":%" PRIu64 ",\"epoch\":%" PRIu64
      ",\"queue_ms\":%.3f,\"exec_ms\":%.3f,\"total_ms\":%.3f"
      ",\"span_count\":%" PRIu64,
      rec.request_id, rec.trace_id, kind_name, rec.source,
      static_cast<int>(rec.status), rec.deadline_missed ? "true" : "false",
      rec.batched ? "true" : "false",
      static_cast<unsigned>(rec.batch_size), rec.snapshot_id, rec.epoch,
      rec.queue_s * 1e3, rec.exec_s * 1e3, rec.total_s * 1e3, rec.span_count);
  std::string out = buf;
  out += ",\"plan\":\"" + json_escape(rec.plan) + "\"}";
  return out;
}

std::string slow_query_json(const RequestRecord &rec, const char *kind_name,
                            const std::vector<SpanSelfTime> &top) {
  std::string out = request_record_json(rec, kind_name);
  out.pop_back();  // reopen the object for top_spans
  out += ",\"top_spans\":[";
  char buf[512];
  for (std::size_t i = 0; i < top.size(); ++i) {
    const grb::trace::Span &s = top[i].span;
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"op\":\"%s\",\"self_ms\":%.3f,\"dur_ms\":%.3f"
                  ",\"iter\":%" PRId64 ",\"in_nvals\":%" PRIu64
                  ",\"out_nvals\":%" PRIu64 ",\"dir\":\"%s\",\"depth\":%u}",
                  grb::trace::name(s.kind),
                  static_cast<double>(top[i].self_ns) / 1e6,
                  static_cast<double>(s.dur_ns) / 1e6, s.iter, s.in_nvals,
                  s.out_nvals,
                  grb::plan::name(static_cast<grb::plan::Direction>(
                      s.direction)),
                  static_cast<unsigned>(s.depth));
    out += buf;
  }
  out += "]}";
  return out;
}

void SlowQueryLog::open(const std::string &path) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!path.empty()) out_.open(path, std::ios::app);
}

void SlowQueryLog::emit(const std::string &json_line) {
  std::lock_guard<std::mutex> lk(mu_);
  if (out_.is_open()) {
    out_ << json_line << '\n';
    out_.flush();
  }
  tail_.push_back(json_line);
  while (tail_.size() > kTailCapacity) tail_.pop_front();
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::string> SlowQueryLog::tail() const {
  std::lock_guard<std::mutex> lk(mu_);
  return std::vector<std::string>(tail_.begin(), tail_.end());
}

}  // namespace service
}  // namespace lagraph

// service/request_log.hpp — per-request roll-ups and the slow-query log.
//
// Two retention structures sit behind the telemetry endpoints:
//
//   RequestLog   a mutex-guarded ring of the last N completed requests'
//                roll-ups (queue/exec/total wall time, span count, the plan
//                that ran, snapshot epoch). Each request writes one record
//                once, so a short critical section is all it needs. Its
//                mutex is a leaf lock: the engine takes it while holding its
//                own, and no code holding it calls into the engine.
//
//   SlowQueryLog a mutex-guarded JSONL sink (a request only reaches it by
//                blowing the latency threshold or missing its deadline)
//                that also retains a short in-memory tail for /statusz.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "grb/trace.hpp"

namespace lagraph {
namespace service {

/// One completed (or failed) request's roll-up.
struct RequestRecord {
  std::uint64_t request_id = 0;
  /// The id kernel spans were stamped with: equal to request_id for solo
  /// queries, the batch head's id for members of a merged MS-BFS sweep.
  std::uint64_t trace_id = 0;
  std::uint64_t snapshot_id = 0;
  std::uint64_t epoch = 0;
  std::uint64_t span_count = 0;  // kernel spans recorded while executing
  std::uint64_t source = 0;
  std::uint64_t end_ns = 0;  // steady-clock completion time
  std::int32_t status = 0;
  std::uint8_t kind = 0;  // service::QueryKind
  bool batched = false;
  bool deadline_missed = false;
  std::uint16_t batch_size = 1;
  double queue_s = 0;
  double exec_s = 0;
  double total_s = 0;
  /// The compiled cypher plan the request ran (QueryResult::plan); empty for
  /// the other kinds and for requests that failed before compiling one.
  std::string plan;
};

/// Ring of the last `capacity` RequestRecords, oldest overwritten first.
class RequestLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit RequestLog(std::size_t capacity = kDefaultCapacity);

  /// Keep `rec`, dropping the oldest record once the ring is full.
  void record(RequestRecord rec);

  /// Newest-first roll-ups, at most `max_n`.
  [[nodiscard]] std::vector<RequestRecord> recent(std::size_t max_n) const;

  /// Look up one request by its id (linear scan over the retained window).
  bool find(std::uint64_t request_id, RequestRecord *out) const;

 private:
  mutable std::mutex mu_;
  std::vector<RequestRecord> ring_;
  std::uint64_t recorded_ = 0;  // records ever written; the next slot
};

/// One span's contribution to a slow request, ranked by self-time (span
/// duration minus the duration of its direct children on the same thread).
struct SpanSelfTime {
  grb::trace::Span span;
  std::uint64_t self_ns = 0;
};

/// Top-k spans of one request by self-time. `spans` should already be
/// filtered to the request's trace id (and is consumed sorted).
std::vector<SpanSelfTime> top_spans_by_self_time(
    std::vector<grb::trace::Span> spans, std::size_t k);

/// Render one roll-up as a JSON object — the /statusz and /requestz form.
/// `kind_name` is the query kind's text form (request_log is layered below
/// engine.hpp, so the caller supplies it).
std::string request_record_json(const RequestRecord &rec,
                                const char *kind_name);

/// Render one slow-query JSONL record: request_record_json()'s object plus
/// its `top` spans.
std::string slow_query_json(const RequestRecord &rec, const char *kind_name,
                            const std::vector<SpanSelfTime> &top);

/// Threshold/deadline-triggered JSONL sink with an in-memory tail.
class SlowQueryLog {
 public:
  static constexpr std::size_t kTailCapacity = 32;

  /// Route records to a JSONL file ("" = tail only). Not thread-safe
  /// against concurrent emit(); call before serving starts.
  void open(const std::string &path);

  /// Append one record (a complete JSON object, no trailing newline).
  void emit(const std::string &json_line);

  /// Most recent records, oldest first.
  [[nodiscard]] std::vector<std::string> tail() const;

  [[nodiscard]] std::uint64_t emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  std::deque<std::string> tail_;
  std::atomic<std::uint64_t> emitted_{0};
};

}  // namespace service
}  // namespace lagraph

// service/engine.cpp — worker pool, request queue, adaptive BFS batching.
//
// Locking discipline: mu_ guards the queue, the current snapshot pointer,
// the counters, and the batching EWMA. Workers hold it only while popping /
// scooping / bookkeeping — never while a query kernel runs. Promises are
// fulfilled outside the lock except for submit-time rejections.

#include "service/engine.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "query/query.hpp"
#include "service/telemetry.hpp"

namespace lagraph {
namespace service {

namespace {

using Clock = std::chrono::steady_clock;

bool has_deadline(const Request &r) {
  return r.deadline.time_since_epoch().count() != 0;
}

bool expired(const Request &r, Clock::time_point now) {
  return has_deadline(r) && now > r.deadline;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Once the average sweep width drops below this, lingering for companions
// has stopped paying for itself and workers run BFS immediately.
constexpr double kLingerThreshold = 1.5;

// Slow-query records carry the top spans ranked by self-time.
constexpr std::size_t kSlowLogTopSpans = 5;

/// The representative plan one-liner a request's roll-up carries: the
/// planner decision for the query's dominant op shape against its bound
/// snapshot. Cheap: one cost-model run.
std::string plan_summary_for(const Request &req, const GraphSnapshot &snap) {
  const Graph<double> &g = snap.graph();
  if (req.kind == QueryKind::cypher) {
    // The cypher plan summary is the multi-op optimizer's own one-liner
    // (parse + compile are pure planning — no kernels run).
    query::Query q;
    query::QueryPlan plan;
    if (query::parse(&q, req.query, nullptr) != LAGRAPH_OK ||
        query::compile(&plan, q, g, /*optimize=*/true, nullptr) !=
            LAGRAPH_OK) {
      return "cypher[invalid]";
    }
    return plan.explain_line();
  }
  grb::plan::OpDesc d;
  const grb::Index n = g.a.nrows();
  d.a_rows = n;
  d.a_cols = g.a.ncols();
  d.a_nvals = g.a.nvals();
  d.a_width = g.a.index_width();
  d.out_size = n;
  switch (req.kind) {
    case QueryKind::bfs:
    case QueryKind::sssp:
      d.op = grb::plan::OpKind::traversal;
      d.u_nvals = 1;
      d.pull_candidates = n;
      d.has_transpose = g.at.has_value();
      d.has_terminal = true;
      d.masked = true;
      d.mask_structural = true;
      d.mask_complement = true;
      break;
    case QueryKind::pagerank:
      d.op = grb::plan::OpKind::mxv;
      d.u_nvals = n;
      break;
    case QueryKind::tc:
      d.op = grb::plan::OpKind::mxm;
      d.b_nvals = d.a_nvals;
      d.b_width = d.a_width;
      d.masked = true;
      d.mask_structural = true;
      d.mask_nvals = d.a_nvals;
      d.operands_aliased = true;
      break;
    case QueryKind::cypher:
      break;  // handled above
  }
  return grb::plan::make_plan(d).explain_line();
}

}  // namespace

const char *query_kind_name(QueryKind k) {
  switch (k) {
    case QueryKind::bfs: return "bfs";
    case QueryKind::sssp: return "sssp";
    case QueryKind::pagerank: return "pagerank";
    case QueryKind::tc: return "tc";
    case QueryKind::cypher: return "cypher";
  }
  return "?";
}

Engine::Engine(EngineConfig cfg) : Engine(SnapshotPtr{}, cfg) {}

Engine::Engine(SnapshotPtr snapshot, EngineConfig cfg)
    : cfg_(cfg),
      snap_(std::move(snapshot)),
      request_log_(cfg.request_log_capacity),
      started_(Clock::now()) {
  cfg_.threads = std::max(1, cfg_.threads);
  cfg_.max_batch = std::max<std::uint32_t>(1, cfg_.max_batch);
  slow_log_.open(cfg_.slow_query_log);
  // Optimistic start: assume lingering pays until the workload proves
  // otherwise, so bursts issued right after startup coalesce.
  ewma_batch_ = static_cast<double>(cfg_.max_batch);
  workers_.reserve(static_cast<std::size_t>(cfg_.threads));
  for (int i = 0; i < cfg_.threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (cfg_.telemetry_port >= 0) {
    telemetry_ = std::make_unique<TelemetryServer>(*this, cfg_.telemetry_port);
  }
}

Engine::~Engine() {
  // The telemetry thread reads engine state; retire it before anything else.
  telemetry_.reset();
  stop();
}

void Engine::install_snapshot(SnapshotPtr snapshot) {
  std::lock_guard<std::mutex> lk(mu_);
  snap_ = std::move(snapshot);
  ++counters_.snapshot_installs;
}

SnapshotPtr Engine::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return snap_;
}

EngineCounters Engine::counters() const {
  std::lock_guard<std::mutex> lk(mu_);
  EngineCounters c = counters_;
  c.slow_queries = slow_log_.emitted();
  return c;
}

std::size_t Engine::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

int Engine::inflight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_;
}

int Engine::active_workers() const {
  std::lock_guard<std::mutex> lk(mu_);
  return busy_workers_;
}

double Engine::uptime_seconds() const {
  return seconds_between(started_, Clock::now());
}

void Engine::observe(QueryKind k, double queue_s, double exec_s) noexcept {
  const int i = static_cast<int>(k);
  queue_hist_[i].record(static_cast<std::uint64_t>(queue_s * 1e9));
  exec_hist_[i].record(static_cast<std::uint64_t>(exec_s * 1e9));
}

std::vector<KindLatency> Engine::latency_summary() const {
  std::vector<KindLatency> out;
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const auto &h = exec_hist_[i];
    if (h.count() == 0) continue;
    KindLatency kl;
    kl.kind = static_cast<QueryKind>(i);
    kl.count = h.count();
    kl.p50_ms = h.percentile_ns(50) / 1e6;
    kl.p95_ms = h.percentile_ns(95) / 1e6;
    kl.p99_ms = h.percentile_ns(99) / 1e6;
    kl.mean_ms = static_cast<double>(h.sum_ns()) /
                 static_cast<double>(h.count()) / 1e6;
    const auto &q = queue_hist_[i];
    if (q.count() > 0) {
      kl.queue_p50_ms = q.percentile_ns(50) / 1e6;
      kl.queue_p95_ms = q.percentile_ns(95) / 1e6;
      kl.queue_p99_ms = q.percentile_ns(99) / 1e6;
      kl.queue_mean_ms = static_cast<double>(q.sum_ns()) /
                         static_cast<double>(q.count()) / 1e6;
    }
    out.push_back(kl);
  }
  return out;
}

std::string Engine::prometheus_text() const {
  std::ostringstream os;
  const EngineCounters c = counters();
  auto counter = [&](const char *name, const char *help, std::uint64_t v) {
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << " counter\n";
    os << name << ' ' << v << '\n';
  };
  counter("lagraph_service_queries_submitted_total", "Queries submitted",
          c.submitted);
  counter("lagraph_service_queries_completed_total", "Queries completed",
          c.completed);
  counter("lagraph_service_queries_failed_total", "Queries failed",
          c.failed);
  counter("lagraph_service_deadline_expired_total",
          "Queries expired in queue", c.deadline_expired);
  counter("lagraph_service_queue_rejected_total",
          "Queries rejected by the queue cap", c.queue_rejected);
  counter("lagraph_service_bfs_sweeps_total", "msbfs sweeps issued",
          c.bfs_sweeps);
  counter("lagraph_service_batched_bfs_total",
          "BFS queries answered by a sweep of width >= 2", c.batched_bfs);
  counter("lagraph_service_solo_queries_total", "Queries run unbatched",
          c.solo_queries);
  counter("lagraph_service_snapshot_installs_total", "Snapshots installed",
          c.snapshot_installs);
  counter("lagraph_service_slow_queries_total",
          "Slow-query log records emitted", c.slow_queries);
  // The scrape-gate alias: "did this engine see traffic at all?"
  counter("lagraph_requests_total", "Queries submitted (alias)", c.submitted);

  auto gauge = [&](const char *name, const char *help, double v) {
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << " gauge\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    os << name << ' ' << buf << '\n';
  };
  {
    std::lock_guard<std::mutex> lk(mu_);
    gauge("lagraph_service_queue_depth", "Requests waiting in the queue",
          static_cast<double>(queue_.size()));
    gauge("lagraph_service_inflight_requests",
          "Requests popped but not yet completed",
          static_cast<double>(in_flight_));
    gauge("lagraph_service_active_workers", "Workers executing right now",
          static_cast<double>(busy_workers_));
  }

  for (int i = 0; i < kNumQueryKinds; ++i) {
    const std::string labels = grb::trace::prometheus_label(
        "kind", query_kind_name(static_cast<QueryKind>(i)));
    grb::trace::write_prometheus_histogram(
        os, "lagraph_service_exec_seconds", labels, exec_hist_[i], i == 0,
        "Query execution latency (seconds)");
  }
  for (int i = 0; i < kNumQueryKinds; ++i) {
    const std::string labels = grb::trace::prometheus_label(
        "kind", query_kind_name(static_cast<QueryKind>(i)));
    grb::trace::write_prometheus_histogram(
        os, "lagraph_service_queue_seconds", labels, queue_hist_[i], i == 0,
        "Queue wait before execution (seconds)");
  }

  // Global per-op kernel histograms (fed by grb::trace spans; empty unless
  // tracing is sampling).
  bool first = true;
  for (int i = 0; i < grb::trace::kNumSpanKinds; ++i) {
    const auto k = static_cast<grb::trace::SpanKind>(i);
    const auto &h = grb::trace::op_histogram(k);
    if (h.count() == 0) continue;
    const std::string labels =
        grb::trace::prometheus_label("kind", grb::trace::name(k));
    grb::trace::write_prometheus_histogram(os, "grb_op_seconds", labels, h,
                                           first,
                                           "grb kernel latency (seconds)");
    first = false;
  }

  os << "# HELP grb_stats grb substrate counters\n";
  os << "# TYPE grb_stats counter\n";
  grb::stats().snapshot().for_each([&](const char *name, std::uint64_t v) {
    os << "grb_stats{" << grb::trace::prometheus_label("counter", name)
       << "} " << v << '\n';
  });
  return os.str();
}

std::future<QueryResult> Engine::submit(Request req) {
  Pending p;
  p.req = req;
  p.enqueued = Clock::now();
  p.id = next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto fut = p.promise.get_future();

  std::lock_guard<std::mutex> lk(mu_);
  ++counters_.submitted;
  if (stopping_ || stopped_) {
    fail_locked(std::move(p), LAGRAPH_SERVICE_STOPPED, "engine is stopped");
    return fut;
  }
  if (snap_ == nullptr) {
    fail_locked(std::move(p), LAGRAPH_SERVICE_NO_SNAPSHOT,
                "no snapshot installed");
    return fut;
  }
  if (cfg_.max_queue != 0 && queue_.size() >= cfg_.max_queue) {
    fail_locked(std::move(p), LAGRAPH_SERVICE_QUEUE_FULL, "queue is full");
    return fut;
  }
  p.snap = snap_;
  queue_.push_back(std::move(p));
  cv_.notify_one();
  return fut;
}

void Engine::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
}

void Engine::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopped_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto &w : workers_) w.join();
  workers_.clear();
  std::lock_guard<std::mutex> lk(mu_);
  // Workers drain the queue before exiting, but be defensive.
  while (!queue_.empty()) {
    fail_locked(std::move(queue_.front()), LAGRAPH_SERVICE_STOPPED,
                "engine stopped before execution");
    queue_.pop_front();
  }
  stopped_ = true;
  cv_idle_.notify_all();
}

void Engine::fail_locked(Pending &&p, int status, const char *what) {
  QueryResult r;
  r.status = status;
  r.error = what != nullptr ? what : "";
  r.kind = p.req.kind;
  r.request_id = p.id;
  if (p.snap) r.snapshot_id = p.snap->id();
  ++counters_.failed;
  if (status == LAGRAPH_SERVICE_DEADLINE) ++counters_.deadline_expired;
  if (status == LAGRAPH_SERVICE_QUEUE_FULL) ++counters_.queue_rejected;
  const auto now = Clock::now();
  r.queue_seconds = seconds_between(p.enqueued, now);
  // A deadline-expired request still gets a roll-up (and, since by
  // definition it missed its deadline, a slow-query record) — that's the
  // request a tail-latency investigation most wants to see.
  log_request(p, r, now, /*span_count=*/0, /*trace_id=*/0,
              p.snap ? plan_summary_for(p.req, *p.snap) : std::string());
  p.promise.set_value(std::move(r));
}

void Engine::log_request(const Pending &p, const QueryResult &r,
                         Clock::time_point end, std::uint64_t span_count,
                         std::uint64_t trace_id,
                         const std::string &plan_summary) {
  RequestRecord rec;
  rec.request_id = p.id;
  rec.trace_id = trace_id;
  rec.snapshot_id = r.snapshot_id;
  rec.epoch = p.snap ? p.snap->epoch() : 0;
  rec.span_count = span_count;
  rec.source = static_cast<std::uint64_t>(p.req.source);
  rec.end_ns = grb::trace::detail::now_ns();
  rec.status = r.status;
  rec.kind = static_cast<std::uint8_t>(p.req.kind);
  rec.batched = r.batched;
  rec.batch_size = static_cast<std::uint16_t>(r.batch_size);
  rec.deadline_missed = has_deadline(p.req) && end > p.req.deadline;
  rec.queue_s = r.queue_seconds;
  rec.exec_s = r.exec_seconds;
  rec.total_s = seconds_between(p.enqueued, end);
  rec.set_plan(plan_summary);
  request_log_.record(rec);

  const bool over_threshold =
      cfg_.slow_query_ms > 0 && rec.total_s * 1e3 > cfg_.slow_query_ms;
  if (over_threshold || rec.deadline_missed) {
    // Top-k spans by self-time — only the spans this request stamped, and
    // only when tracing was actually sampling (collect() is empty
    // otherwise). The query-kind span wrapping the whole execution is
    // excluded: it would always "win" with zero information.
    std::vector<grb::trace::Span> mine;
    if (trace_id != 0) {
      for (const grb::trace::Span &s : grb::trace::collect()) {
        if (s.request_id == trace_id &&
            s.kind != grb::trace::SpanKind::query) {
          mine.push_back(s);
        }
      }
    }
    slow_log_.emit(slow_query_json(
        rec, query_kind_name(p.req.kind),
        top_spans_by_self_time(std::move(mine), kSlowLogTopSpans)));
  }
}

void Engine::scoop_bfs_locked(std::vector<Pending> &batch) {
  const GraphSnapshot *want = batch.front().snap.get();
  const auto now = Clock::now();
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < cfg_.max_batch;) {
    if (it->req.kind != QueryKind::bfs || it->snap.get() != want) {
      ++it;
      continue;
    }
    if (expired(it->req, now)) {
      fail_locked(std::move(*it), LAGRAPH_SERVICE_DEADLINE,
                  "deadline expired in queue");
    } else {
      batch.push_back(std::move(*it));
      ++in_flight_;
    }
    it = queue_.erase(it);
  }
}

void Engine::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;

    if (expired(p.req, Clock::now())) {
      fail_locked(std::move(p), LAGRAPH_SERVICE_DEADLINE,
                  "deadline expired in queue");
      --in_flight_;
      cv_idle_.notify_all();
      continue;
    }

    if (p.req.kind == QueryKind::bfs && cfg_.enable_batching) {
      std::vector<Pending> batch;
      batch.push_back(std::move(p));
      scoop_bfs_locked(batch);
      // Adaptive linger: hold the batch open for one coalescing window so
      // concurrent submitters can join — but only while the EWMA says
      // batches have actually been forming; on a solo-query workload this
      // gate closes and BFS latency is unaffected.
      if (batch.size() < cfg_.max_batch &&
          cfg_.batch_window.count() > 0 &&
          ewma_batch_ >= kLingerThreshold && !stopping_) {
        const auto until = Clock::now() + cfg_.batch_window;
        while (batch.size() < cfg_.max_batch && !stopping_) {
          if (cv_.wait_until(lk, until) == std::cv_status::timeout) {
            scoop_bfs_locked(batch);
            break;
          }
          scoop_bfs_locked(batch);
        }
      }
      const auto width = static_cast<double>(batch.size());
      ewma_batch_ = 0.75 * ewma_batch_ + 0.25 * width;
      ++counters_.bfs_sweeps;
      if (batch.size() >= 2) {
        counters_.batched_bfs += batch.size();
        grb::stats().batched_queries.fetch_add(batch.size(),
                                               std::memory_order_relaxed);
      } else {
        ++counters_.solo_queries;
        grb::stats().solo_queries.fetch_add(1, std::memory_order_relaxed);
      }
      grb::stats().batch_sweeps.fetch_add(1, std::memory_order_relaxed);
      const auto count = batch.size();
      ++busy_workers_;
      lk.unlock();
      run_bfs_sweep(std::move(batch));
      lk.lock();
      --busy_workers_;
      in_flight_ -= static_cast<int>(count);
      cv_idle_.notify_all();
    } else {
      ++counters_.solo_queries;
      grb::stats().solo_queries.fetch_add(1, std::memory_order_relaxed);
      ++busy_workers_;
      lk.unlock();
      run_solo(std::move(p));
      lk.lock();
      --busy_workers_;
      --in_flight_;
      cv_idle_.notify_all();
    }
  }
}

void Engine::run_bfs_sweep(std::vector<Pending> batch) {
  const auto start = Clock::now();
  // Every kernel span the sweep records is stamped with the batch head's
  // request id plus the member count; members' roll-ups carry that id as
  // their trace_id so /requestz resolves any of them to the shared sweep.
  grb::trace::RequestScope rscope(batch.front().id,
                                  static_cast<std::uint32_t>(batch.size()));
  grb::trace::ScopedSpan qsp(grb::trace::SpanKind::query);
  qsp.set_in_nvals(batch.size());
  std::vector<grb::Index> sources;
  sources.reserve(batch.size());
  for (const auto &p : batch) sources.push_back(p.req.source);

  char msg[LAGRAPH_MSG_LEN];
  std::vector<grb::Vector<std::int64_t>> levels;
  const int st = experimental::msbfs_levels_demux(
      &levels, batch.front().snap->graph(), sources, msg);
  const auto end = Clock::now();

  const auto width = static_cast<std::uint32_t>(batch.size());
  const std::uint64_t sweep_spans = rscope.spans_recorded();
  const std::string summary =
      plan_summary_for(batch.front().req, *batch.front().snap);
  std::vector<QueryResult> results;
  results.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    QueryResult r;
    r.status = st;
    r.kind = QueryKind::bfs;
    r.request_id = batch[i].id;
    r.snapshot_id = batch[i].snap->id();
    r.batched = width > 1;
    r.batch_size = width;
    r.queue_seconds = seconds_between(batch[i].enqueued, start);
    r.exec_seconds = seconds_between(start, end);
    if (st >= 0) observe(QueryKind::bfs, r.queue_seconds, r.exec_seconds);
    if (st < 0) {
      r.error = msg;
    } else {
      r.level = std::move(levels[i]);
    }
    results.push_back(std::move(r));
  }

  {
    // Count before fulfilling the promises: a waiter that observes its
    // future ready must also observe the completion counters advanced.
    std::lock_guard<std::mutex> lk(mu_);
    if (st < 0) {
      counters_.failed += batch.size();
    } else {
      counters_.completed += batch.size();
    }
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Roll up before set_value so a waiter that sees its future ready can
    // already find the record at /statusz and /requestz. Members share the
    // sweep's span count and trace id.
    log_request(batch[i], results[i], end, sweep_spans, batch.front().id,
                summary);
    batch[i].promise.set_value(std::move(results[i]));
  }
}

void Engine::run_solo(Pending p) {
  const auto start = Clock::now();
  grb::trace::RequestScope rscope(p.id, 1);
  grb::trace::ScopedSpan qsp(grb::trace::SpanKind::query);
  qsp.set_in_nvals(1);
  char msg[LAGRAPH_MSG_LEN];
  msg[0] = '\0';

  QueryResult r;
  r.kind = p.req.kind;
  r.request_id = p.id;
  r.snapshot_id = p.snap->id();
  const Graph<double> &g = p.snap->graph();

  switch (p.req.kind) {
    case QueryKind::bfs: {
      // Same kernel as the batched path, sweep width 1 — one code path to
      // trust, and the word-parallel core at width 1 is an ordinary
      // direction-optimized BFS.
      std::vector<grb::Vector<std::int64_t>> levels;
      const grb::Index src[1] = {p.req.source};
      r.status = experimental::msbfs_levels_demux(&levels, g, src, msg);
      if (r.status >= 0) r.level = std::move(levels[0]);
      break;
    }
    case QueryKind::sssp:
      r.status = advanced::sssp_delta_stepping(&r.dist, g, p.req.source,
                                               p.req.delta, msg);
      break;
    case QueryKind::pagerank:
      r.status = advanced::pagerank_gap(&r.ranks, &r.iterations, g,
                                        p.req.damping, p.req.tol,
                                        p.req.itermax, msg);
      break;
    case QueryKind::tc:
      r.status = advanced::triangle_count(&r.triangles, g,
                                          TcPresort::automatic,
                                          /*fused=*/true, msg);
      break;
    case QueryKind::cypher: {
      query::Query q;
      r.status = query::parse(&q, p.req.query, msg);
      if (r.status >= 0) {
        query::QueryPlan qplan;
        r.status = query::compile(&qplan, q, g, /*optimize=*/true, msg);
        if (r.status >= 0) {
          r.plan = qplan.explain_line();
          r.status = query::execute(&r.table, q, qplan, g, msg);
        }
      }
      break;
    }
  }

  const auto end = Clock::now();
  r.queue_seconds = seconds_between(p.enqueued, start);
  r.exec_seconds = seconds_between(start, end);
  if (r.status >= 0) observe(p.req.kind, r.queue_seconds, r.exec_seconds);
  if (r.status < 0) r.error = msg;
  const bool ok = r.status >= 0;
  // Cypher requests already carry their compiled plan's one-liner.
  const std::string summary = (p.req.kind == QueryKind::cypher && !r.plan.empty())
                                  ? r.plan
                                  : plan_summary_for(p.req, *p.snap);
  {
    // Count before set_value so waiters never see a ready future ahead of
    // the completion counters.
    std::lock_guard<std::mutex> lk(mu_);
    if (ok) {
      ++counters_.completed;
    } else {
      ++counters_.failed;
    }
  }
  log_request(p, r, end, rscope.spans_recorded(), p.id, summary);
  p.promise.set_value(std::move(r));
}

}  // namespace service
}  // namespace lagraph

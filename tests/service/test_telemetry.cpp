// Observability tests (`ctest -L obs`): the request-scoped tracing chain
// end to end — kernel spans stamped with request ids, per-request roll-ups
// in the RequestLog ring, the slow-query log's deterministic deadline-miss
// trigger, and the embedded HTTP telemetry server scraped over a real
// 127.0.0.1 socket (/healthz, /metrics format lint, /statusz, /requestz).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/test_graphs.hpp"
#include "service/engine.hpp"
#include "service/request_log.hpp"
#include "service/telemetry.hpp"

namespace svc = lagraph::service;
using grb::Index;
using svc::Engine;
using svc::EngineConfig;
using svc::QueryKind;
using svc::QueryResult;
using svc::Request;
using svc::TelemetryServer;

namespace {

// Enable span tracing for one test, restore the disabled default after.
struct TraceGuard {
  explicit TraceGuard(std::uint32_t every) {
    grb::config().trace_sample_every = every;
    grb::trace::reset();
  }
  ~TraceGuard() {
    grb::config().trace_sample_every = 0;
    grb::trace::reset();
  }
};

svc::SnapshotPtr make_kron_snapshot(int scale, std::uint64_t seed) {
  auto el = gen::kronecker(scale, 6, seed);
  gen::remove_self_loops(el);
  lagraph::Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::make_graph(g, gen::to_matrix<double>(el),
                                lagraph::Kind::adjacency_undirected, msg),
            LAGRAPH_OK);
  svc::SnapshotPtr snap;
  EXPECT_EQ(svc::make_snapshot(&snap, std::move(g), msg), LAGRAPH_OK) << msg;
  return snap;
}

Request bfs_req(Index source) {
  Request r;
  r.kind = QueryKind::bfs;
  r.source = source;
  return r;
}

// Scrape a target from the engine's own server through a real socket.
std::string scrape(const Engine &engine, const std::string &target) {
  TelemetryServer *tel = engine.telemetry();
  EXPECT_NE(tel, nullptr);
  EXPECT_GT(tel->port(), 0);
  return TelemetryServer::http_get("127.0.0.1", tel->port(), target);
}

}  // namespace

TEST(RequestTracing, KernelSpansCarryRequestIds) {
  TraceGuard guard(1);
  auto snap = make_kron_snapshot(6, 11);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.enable_batching = false;  // solo path: trace_id == request_id
  Engine engine(snap, cfg);

  auto res = engine.submit(bfs_req(1)).get();
  ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
  ASSERT_GT(res.request_id, 0u);
  engine.stop();

  // Every kernel span recorded while the request executed must be stamped
  // with its id — that is the tentpole contract /requestz is built on.
  // (The query wrapper span is stamped too but closes after the roll-up
  // snapshots its count, so span_count covers the kernel spans only.)
  std::size_t stamped = 0;
  std::size_t kernel_stamped = 0;
  for (const auto &s : grb::trace::collect()) {
    if (s.request_id != res.request_id) continue;
    ++stamped;
    if (s.kind != grb::trace::SpanKind::query) ++kernel_stamped;
  }
  EXPECT_GT(stamped, 0u);

  // The roll-up ring retained the request, span count included.
  svc::RequestRecord rec;
  ASSERT_TRUE(engine.request_log().find(res.request_id, &rec));
  EXPECT_EQ(rec.trace_id, res.request_id);
  EXPECT_EQ(rec.status, LAGRAPH_OK);
  EXPECT_EQ(rec.span_count, kernel_stamped);
  EXPECT_GT(std::string(rec.plan).size(), 0u);  // ExecPlan::explain_line()
}

TEST(RequestTracing, BatchMembersShareTheSweepTraceId) {
  TraceGuard guard(1);
  auto snap = make_kron_snapshot(6, 12);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.enable_batching = true;
  cfg.batch_window = std::chrono::microseconds(20000);
  Engine engine(snap, cfg);

  std::vector<std::future<QueryResult>> futs;
  for (Index s = 0; s < 8; ++s) futs.push_back(engine.submit(bfs_req(s)));
  std::vector<QueryResult> results;
  for (auto &f : futs) results.push_back(f.get());
  engine.stop();

  for (const auto &r : results) ASSERT_EQ(r.status, LAGRAPH_OK) << r.error;
  // At least one sweep of >= 2 must have formed under the widened window.
  bool any_batched = false;
  for (const auto &r : results) any_batched = any_batched || r.batched;
  ASSERT_TRUE(any_batched);

  // Batched members roll up with a shared trace id (the batch head's) and
  // the member count is stamped onto the spans.
  for (const auto &r : results) {
    if (!r.batched) continue;
    svc::RequestRecord rec;
    ASSERT_TRUE(engine.request_log().find(r.request_id, &rec));
    EXPECT_TRUE(rec.batched);
    EXPECT_GE(rec.batch_size, 2u);
    std::size_t stamped = 0;
    for (const auto &s : grb::trace::collect()) {
      if (s.request_id == rec.trace_id && s.batch_members >= 2) ++stamped;
    }
    EXPECT_GT(stamped, 0u) << "request " << r.request_id;
  }
}

TEST(RequestTracing, LevelSpanPredictsItsOwnLevel) {
  // A level span's predicted cost must describe the level that ran: the
  // plan a fresh make_plan builds for that level's frontier, never one
  // built for another request's level of a similar size.
  TraceGuard guard(1);
  auto snap = make_kron_snapshot(8, 21);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.enable_batching = false;  // one source per sweep: levels are exact
  Engine engine(snap, cfg);

  constexpr Index kSources = 16;
  std::vector<std::future<QueryResult>> futs;
  for (Index s = 0; s < kSources; ++s) {
    futs.push_back(engine.submit(bfs_req(s)));
  }
  for (auto &f : futs) {
    const QueryResult r = f.get();
    ASSERT_EQ(r.status, LAGRAPH_OK) << r.error;
  }
  engine.stop();

  // Group the level spans by request, in level order, so the visited count
  // before each level can be rebuilt from the earlier levels' discoveries.
  std::map<std::uint64_t, std::vector<grb::trace::Span>> levels_of;
  for (const auto &s : grb::trace::collect()) {
    if (s.kind == grb::trace::SpanKind::msbfs_level) {
      levels_of[s.request_id].push_back(s);
    }
  }
  ASSERT_EQ(levels_of.size(), kSources);

  const lagraph::Graph<double> &g = snap->graph();
  const Index n = g.nodes();
  std::size_t push_levels = 0;
  std::map<int, std::set<std::uint64_t>> push_frontiers_by_bucket;
  for (auto &[id, levels] : levels_of) {
    std::sort(levels.begin(), levels.end(),
              [](const auto &x, const auto &y) { return x.iter < y.iter; });
    Index nvisited = 1;  // the source
    for (const auto &s : levels) {
      // The traversal OpDesc exactly as msbfs_levels builds it.
      grb::plan::OpDesc od;
      od.op = grb::plan::OpKind::traversal;
      od.out_size = n;
      od.a_rows = g.a.nrows();
      od.a_cols = g.a.ncols();
      od.a_nvals = g.a.nvals();
      od.u_nvals = s.in_nvals;
      od.pull_candidates = n - nvisited;
      od.masked = true;
      od.mask_complement = true;
      od.mask_structural = true;
      od.mask_nvals = nvisited;
      od.has_terminal = true;
      od.has_transpose = g.transpose_view() != nullptr;
      const auto fresh = grb::plan::make_plan(od);
      EXPECT_EQ(s.direction, static_cast<std::uint8_t>(fresh.direction))
          << "request " << id << " level " << s.iter;
      const auto push = static_cast<std::uint8_t>(grb::plan::Direction::push);
      if (s.direction == push) {
        ++push_levels;
        EXPECT_EQ(s.predicted_cost, fresh.cost_push)
            << "request " << id << " level " << s.iter << " frontier "
            << s.in_nvals;
        push_frontiers_by_bucket[std::bit_width(s.in_nvals)].insert(
            s.in_nvals);
      }
      nvisited += s.out_nvals;
    }
  }
  EXPECT_GT(push_levels, 0u);
  // The run must contain push frontiers of different sizes in one log2
  // bucket, so a plan keyed by size bucket would be caught here.
  bool bucket_shared = false;
  for (const auto &[bucket, sizes] : push_frontiers_by_bucket) {
    bucket_shared = bucket_shared || sizes.size() >= 2;
  }
  EXPECT_TRUE(bucket_shared);
}

TEST(SlowQueryLog, DeadlineMissEmitsExactlyOneRecord) {
  TraceGuard guard(1);
  auto snap = make_kron_snapshot(6, 13);
  const std::string path =
      ::testing::TempDir() + "lagraph_slow_query_test.jsonl";
  std::remove(path.c_str());

  EngineConfig cfg;
  cfg.threads = 1;
  cfg.enable_batching = false;
  cfg.slow_query_log = path;
  Engine engine(snap, cfg);

  // A deadline already in the past is failed at pop time — the
  // deterministic deadline-miss trigger (no sleeps, no timing games).
  Request late = bfs_req(2);
  late.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto res = engine.submit(late).get();
  EXPECT_EQ(res.status, LAGRAPH_SERVICE_DEADLINE);
  engine.stop();

  EXPECT_EQ(engine.counters().slow_queries, 1u);
  auto tail = engine.slow_query_tail();
  ASSERT_EQ(tail.size(), 1u);
  const std::string &line = tail.front();
  EXPECT_NE(line.find("\"deadline_missed\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"kind\":\"bfs\""), std::string::npos) << line;
  // The record carries the plan the query would have run — the acceptance
  // contract for post-mortems on expired requests.
  EXPECT_NE(line.find("\"plan\":\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"plan\":\"\""), std::string::npos) << line;

  // The JSONL sink got the same single record.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string file_line;
  std::size_t lines = 0;
  while (std::getline(in, file_line)) {
    if (!file_line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 1u);
  std::remove(path.c_str());
}

TEST(SlowQueryLog, SilentUnderThreshold) {
  auto snap = make_kron_snapshot(6, 14);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.slow_query_ms = 60000;  // nothing here takes a minute
  Engine engine(snap, cfg);
  for (Index s = 0; s < 4; ++s) {
    auto res = engine.submit(bfs_req(s)).get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
  }
  engine.stop();
  EXPECT_EQ(engine.counters().slow_queries, 0u);
  EXPECT_TRUE(engine.slow_query_tail().empty());
}

TEST(Telemetry, HealthzAndMetricsOverSocket) {
  auto snap = make_kron_snapshot(6, 15);
  EngineConfig cfg;
  cfg.telemetry_port = 0;  // ephemeral
  Engine engine(snap, cfg);
  for (Index s = 0; s < 4; ++s) {
    auto res = engine.submit(bfs_req(s)).get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
  }

  EXPECT_EQ(scrape(engine, "/healthz"), "ok\n");

  const std::string metrics = scrape(engine, "/metrics");
  ASSERT_FALSE(metrics.empty());
  // The scrape gate check.sh uses: requests flowed, the counter says so.
  EXPECT_NE(metrics.find("lagraph_requests_total 4"), std::string::npos);
  EXPECT_NE(metrics.find("lagraph_service_queue_depth"), std::string::npos);
  EXPECT_NE(metrics.find("lagraph_service_inflight_requests"),
            std::string::npos);
  EXPECT_NE(metrics.find("lagraph_service_active_workers"),
            std::string::npos);

  // Unknown targets 404 without killing the serving loop.
  EXPECT_NE(scrape(engine, "/nope").find("endpoints:"), std::string::npos);
  EXPECT_EQ(scrape(engine, "/healthz"), "ok\n");
  engine.stop();
}

// Line-by-line Prometheus exposition lint: every sample belongs to a
// family that announced itself with exactly one # HELP and one # TYPE
// (in that order, before any sample), and sample lines parse as
// `name{labels} value` with a finite value.
TEST(Telemetry, PrometheusFormatLint) {
  auto snap = make_kron_snapshot(6, 16);
  Engine engine(snap, EngineConfig{});
  for (Index s = 0; s < 3; ++s) {
    auto res = engine.submit(bfs_req(s)).get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
  }
  engine.stop();

  const std::string text = engine.prometheus_text();
  std::istringstream in(text);
  std::string line;
  std::map<std::string, int> help_count;
  std::map<std::string, int> type_count;
  std::set<std::string> announced;
  auto family_of = [](const std::string &sample) {
    // Strip {labels}, a _bucket/_sum/_count suffix, and the value.
    std::string name = sample.substr(0, sample.find_first_of("{ "));
    for (const char *suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t n = std::strlen(suffix);
      if (name.size() > n && name.compare(name.size() - n, n, suffix) == 0) {
        name.resize(name.size() - n);
      }
    }
    return name;
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string fam;
      ls >> fam;
      ++help_count[fam];
      EXPECT_EQ(type_count.count(fam), 0u)
          << "# HELP after # TYPE for " << fam;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string fam, kind;
      ls >> fam >> kind;
      ++type_count[fam];
      EXPECT_TRUE(kind == "counter" || kind == "gauge" || kind == "histogram")
          << line;
      announced.insert(fam);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment line: " << line;
    // Sample line: name[{labels}] value
    const std::string fam = family_of(line);
    EXPECT_TRUE(announced.count(fam) > 0)
        << "sample before # TYPE: " << line;
    const std::size_t sp = line.find_last_of(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char *end = nullptr;
    const double v = std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_TRUE(end != line.c_str() + sp + 1 && *end == '\0') << line;
    EXPECT_TRUE(std::isfinite(v) || line.find("+Inf") != std::string::npos)
        << line;
    // Braces, if present, are balanced on one line.
    const auto open = line.find('{');
    if (open != std::string::npos) {
      EXPECT_NE(line.find('}', open), std::string::npos) << line;
    }
  }
  for (const auto &[fam, n] : help_count) {
    EXPECT_EQ(n, 1) << "# HELP repeated for " << fam;
  }
  for (const auto &[fam, n] : type_count) {
    EXPECT_EQ(n, 1) << "# TYPE repeated for " << fam;
  }
}

TEST(Telemetry, StatuszAndRequestzReconstructTheRequest) {
  TraceGuard guard(1);
  auto snap = make_kron_snapshot(6, 17);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.enable_batching = false;
  cfg.telemetry_port = 0;
  Engine engine(snap, cfg);

  auto res = engine.submit(bfs_req(3)).get();
  ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;

  const std::string statusz = scrape(engine, "/statusz");
  ASSERT_FALSE(statusz.empty());
  EXPECT_NE(statusz.find("\"counters\""), std::string::npos);
  EXPECT_NE(statusz.find("\"recent\""), std::string::npos);
  EXPECT_NE(statusz.find("\"latency\""), std::string::npos);
  // The completed request shows up in the recent roll-ups by id.
  char idbuf[64];
  std::snprintf(idbuf, sizeof(idbuf), "\"request_id\":%llu",
                static_cast<unsigned long long>(res.request_id));
  EXPECT_NE(statusz.find(idbuf), std::string::npos) << statusz;

  // /requestz?id= replays the span breakdown as Chrome trace JSON.
  char target[64];
  std::snprintf(target, sizeof(target), "/requestz?id=%llu",
                static_cast<unsigned long long>(res.request_id));
  const std::string requestz = scrape(engine, target);
  ASSERT_FALSE(requestz.empty());
  EXPECT_NE(requestz.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(requestz.find(idbuf), std::string::npos);
  // At least one kernel span made it into the trace (names are grb ops).
  EXPECT_NE(requestz.find("\"ph\":\"X\""), std::string::npos) << requestz;

  // Unknown ids are a clean 404 body, not a crash.
  EXPECT_EQ(scrape(engine, "/requestz?id=999999999"),
            "request not in the retained window\n");
  EXPECT_EQ(scrape(engine, "/requestz"),
            "usage: /requestz?id=<request id>\n");
  engine.stop();
}

TEST(Telemetry, BindFailureLeavesEngineServing) {
  auto snap = make_kron_snapshot(6, 18);
  EngineConfig holder_cfg;
  holder_cfg.telemetry_port = 0;
  Engine holder(snap, holder_cfg);
  ASSERT_NE(holder.telemetry(), nullptr);
  const int taken = holder.telemetry()->port();
  ASSERT_GT(taken, 0);

  // Second engine asks for the exact port the first one holds: the bind
  // fails, the server goes inert, queries are unaffected.
  EngineConfig cfg;
  cfg.telemetry_port = taken;
  Engine engine(snap, cfg);
  ASSERT_NE(engine.telemetry(), nullptr);
  EXPECT_EQ(engine.telemetry()->port(), -1);
  auto res = engine.submit(bfs_req(0)).get();
  EXPECT_EQ(res.status, LAGRAPH_OK) << res.error;
  engine.stop();
  holder.stop();
}

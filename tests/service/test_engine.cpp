// Engine tests: query correctness through the service path, BFS batching
// behaviour, deadlines and rejection codes, snapshot isolation, and the
// multi-threaded stress test (run under TSan via `ctest -L concurrency` in a
// -DLAGRAPH_SANITIZE=thread build; scripts/check.sh runs the whole binary
// there).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/test_graphs.hpp"
#include "service/engine.hpp"

namespace svc = lagraph::service;
using grb::Index;
using svc::Engine;
using svc::EngineConfig;
using svc::QueryKind;
using svc::QueryResult;
using svc::Request;

namespace {

#if defined(__SANITIZE_THREAD__)
// Under TSan every kernel runs on one OpenMP thread, from before the first
// test's set-up: libgomp is not instrumented, so its barriers would read as
// races in the graph builds. What TSan then checks is the engine's own
// sharing — queue, counters, promises, snapshots — across its workers.
struct SerialKernels : ::testing::Environment {
  void SetUp() override { grb::config().num_threads = 1; }
};
::testing::Environment *const serial_kernels =
    ::testing::AddGlobalTestEnvironment(new SerialKernels);
#endif

svc::SnapshotPtr make_kron_snapshot(int scale, std::uint64_t seed) {
  auto el = gen::kronecker(scale, 6, seed);
  gen::remove_self_loops(el);  // so tc queries are valid
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

}  // namespace

TEST(Engine, BfsMatchesDirectKernel) {
  auto snap = make_kron_snapshot(7, 3);
  Engine engine(snap, EngineConfig{});
  std::vector<Index> sources = {0, 5, 17, 40, 99};
  std::vector<std::future<QueryResult>> futs;
  for (auto s : sources) futs.push_back(engine.submit(bfs_req(s)));

  char msg[LAGRAPH_MSG_LEN];
  std::vector<grb::Vector<std::int64_t>> want;
  ASSERT_EQ(lagraph::experimental::msbfs_levels_demux(&want, snap->graph(),
                                                      sources, msg),
            LAGRAPH_OK)
      << msg;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    auto res = futs[i].get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
    EXPECT_EQ(res.kind, QueryKind::bfs);
    EXPECT_EQ(res.snapshot_id, snap->id());
    ASSERT_EQ(res.level.nvals(), want[i].nvals());
    want[i].for_each([&](Index v, const std::int64_t &lv) {
      auto got = res.level.get(v);
      ASSERT_TRUE(got.has_value()) << "node " << v;
      EXPECT_EQ(*got, lv) << "node " << v;
    });
  }
}

TEST(Engine, MixedQueriesMatchDirectCalls) {
  auto snap = make_kron_snapshot(7, 4);
  const auto &g = snap->graph();
  char msg[LAGRAPH_MSG_LEN];

  Engine engine(snap, EngineConfig{});
  Request sssp;
  sssp.kind = QueryKind::sssp;
  sssp.source = 3;
  sssp.delta = 2.0;
  Request pr;
  pr.kind = QueryKind::pagerank;
  Request tc;
  tc.kind = QueryKind::tc;
  auto f_sssp = engine.submit(sssp);
  auto f_pr = engine.submit(pr);
  auto f_tc = engine.submit(tc);

  grb::Vector<double> want_dist;
  ASSERT_EQ(lagraph::advanced::sssp_delta_stepping(&want_dist, g, 3, 2.0, msg),
            LAGRAPH_OK)
      << msg;
  grb::Vector<double> want_rank;
  int want_iters = 0;
  ASSERT_GE(lagraph::advanced::pagerank_gap(&want_rank, &want_iters, g, 0.85,
                                            1e-7, 100, msg),
            LAGRAPH_OK)
      << msg;
  std::uint64_t want_tris = 0;
  ASSERT_EQ(lagraph::advanced::triangle_count(&want_tris, g,
                                              lagraph::TcPresort::automatic,
                                              true, msg),
            LAGRAPH_OK)
      << msg;

  auto r_sssp = f_sssp.get();
  ASSERT_EQ(r_sssp.status, LAGRAPH_OK) << r_sssp.error;
  ASSERT_EQ(r_sssp.dist.nvals(), want_dist.nvals());
  want_dist.for_each([&](Index v, const double &d) {
    auto got = r_sssp.dist.get(v);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, d);
  });

  auto r_pr = f_pr.get();
  ASSERT_GE(r_pr.status, LAGRAPH_OK) << r_pr.error;
  EXPECT_EQ(r_pr.iterations, want_iters);
  ASSERT_EQ(r_pr.ranks.nvals(), want_rank.nvals());
  want_rank.for_each([&](Index v, const double &x) {
    auto got = r_pr.ranks.get(v);
    ASSERT_TRUE(got.has_value());
    EXPECT_DOUBLE_EQ(*got, x);
  });

  auto r_tc = f_tc.get();
  ASSERT_EQ(r_tc.status, LAGRAPH_OK) << r_tc.error;
  EXPECT_EQ(r_tc.triangles, want_tris);
}

TEST(Engine, BurstCoalescesIntoFewSweeps) {
  auto snap = make_kron_snapshot(8, 5);
  auto big = make_kron_snapshot(12, 9);
  EngineConfig cfg;
  cfg.threads = 1;  // all 32 queries sit queued behind one worker
  cfg.max_batch = 64;
  Engine engine(big, cfg);
  // A head request keeps that worker busy for milliseconds — a PageRank
  // that never converges (tol 0) on the larger graph — so the burst is
  // queued before any BFS starts, however the submitting thread is
  // scheduled. Each request binds to the snapshot installed at submit.
  Request head;
  head.kind = QueryKind::pagerank;
  head.tol = 0;
  auto f_head = engine.submit(head);
  engine.install_snapshot(snap);
  std::vector<std::future<QueryResult>> futs;
  for (Index s = 0; s < 32; ++s) futs.push_back(engine.submit(bfs_req(s * 3)));
  EXPECT_GE(f_head.get().status, LAGRAPH_OK);
  std::size_t batched = 0;
  for (auto &f : futs) {
    auto res = f.get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
    if (res.batched) {
      ++batched;
      EXPECT_GE(res.batch_size, 2u);
    }
  }
  auto c = engine.counters();
  EXPECT_EQ(c.submitted, 33u);  // the burst plus the head request
  EXPECT_EQ(c.completed, 33u);
  EXPECT_EQ(c.batched_bfs, batched);
  // The first query may run solo, but the rest coalesce: far fewer sweeps
  // than queries.
  EXPECT_GE(batched, 30u);
  EXPECT_LE(c.bfs_sweeps, 3u);
}

TEST(Engine, BatchingDisabledRunsEverythingSolo) {
  auto snap = make_kron_snapshot(7, 6);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.enable_batching = false;
  Engine engine(snap, cfg);
  std::vector<std::future<QueryResult>> futs;
  for (Index s = 0; s < 16; ++s) futs.push_back(engine.submit(bfs_req(s)));
  for (auto &f : futs) {
    auto res = f.get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
    EXPECT_FALSE(res.batched);
    EXPECT_EQ(res.batch_size, 1u);
  }
  auto c = engine.counters();
  EXPECT_EQ(c.bfs_sweeps, 16u);  // each BFS is a sweep of one
  EXPECT_EQ(c.batched_bfs, 0u);
  EXPECT_EQ(c.solo_queries, 16u);
}

// A BFS with nothing queued behind it runs at once: the worker merges only
// what is already queued and never holds a sweep open for companions.
TEST(Engine, LoneBfsIsNotHeld) {
  auto snap = make_kron_snapshot(8, 5);
  EngineConfig cfg;
  cfg.threads = 1;
  Engine engine(snap, cfg);
  double min_queue_s = 1.0;
  for (Index s = 0; s < 16; ++s) {
    const QueryResult res = engine.submit(bfs_req(s)).get();
    ASSERT_EQ(res.status, LAGRAPH_OK) << res.error;
    EXPECT_EQ(res.batch_size, 1u);
    min_queue_s = std::min(min_queue_s, res.queue_seconds);
  }
  // The minimum, so one slow wake-up on a loaded machine cannot fail it.
  EXPECT_LT(min_queue_s, 100e-6);
}

TEST(Engine, ExpiredDeadlineIsRejected) {
  auto snap = make_kron_snapshot(6, 7);
  Engine engine(snap, EngineConfig{});
  Request r = bfs_req(0);
  r.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto res = engine.submit(r).get();
  EXPECT_EQ(res.status, LAGRAPH_SERVICE_DEADLINE);
  auto c = engine.counters();
  EXPECT_EQ(c.deadline_expired, 1u);
  EXPECT_EQ(c.failed, 1u);

  // A generous deadline is honoured.
  Request ok = bfs_req(1);
  ok.deadline = std::chrono::steady_clock::now() + std::chrono::minutes(5);
  EXPECT_EQ(engine.submit(ok).get().status, LAGRAPH_OK);
}

TEST(Engine, NoSnapshotAndStoppedAndQueueFull) {
  Engine empty;  // no snapshot installed
  EXPECT_EQ(empty.submit(bfs_req(0)).get().status,
            LAGRAPH_SERVICE_NO_SNAPSHOT);

  auto snap = make_kron_snapshot(6, 8);
  {
    Engine engine(snap, EngineConfig{});
    engine.stop();
    EXPECT_EQ(engine.submit(bfs_req(0)).get().status,
              LAGRAPH_SERVICE_STOPPED);
  }

  // Queue bound: hold the single worker on a slow query, then overfill.
  auto big = make_kron_snapshot(12, 9);
  EngineConfig cfg;
  cfg.threads = 1;
  cfg.max_queue = 1;
  Engine engine(big, cfg);
  Request pr;
  pr.kind = QueryKind::pagerank;
  auto f_busy = engine.submit(pr);
  std::vector<std::future<QueryResult>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(engine.submit(bfs_req(0)));
  std::size_t rejected = 0;
  for (auto &f : futs) {
    if (f.get().status == LAGRAPH_SERVICE_QUEUE_FULL) ++rejected;
  }
  EXPECT_GE(f_busy.get().status, LAGRAPH_OK);
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(engine.counters().queue_rejected, rejected);
}

TEST(Engine, SnapshotIsolationAcrossInstall) {
  auto snap_a = make_kron_snapshot(7, 10);
  auto snap_b = make_kron_snapshot(7, 11);
  Engine engine(snap_a, EngineConfig{});
  auto f_a = engine.submit(bfs_req(2));
  engine.install_snapshot(snap_b);
  auto f_b = engine.submit(bfs_req(2));
  auto r_a = f_a.get();
  auto r_b = f_b.get();
  ASSERT_EQ(r_a.status, LAGRAPH_OK);
  ASSERT_EQ(r_b.status, LAGRAPH_OK);
  EXPECT_EQ(r_a.snapshot_id, snap_a->id());
  EXPECT_EQ(r_b.snapshot_id, snap_b->id());
  EXPECT_EQ(engine.counters().snapshot_installs, 1u);
}

// The acceptance-criterion stress test: 8 client threads firing mixed query
// types while the main thread keeps swapping snapshots underneath them.
// Correctness here is "every future resolves with a sane status and the
// books balance"; under TSan it is also "no data races anywhere in the
// engine, the kernels, or the snapshot machinery".
TEST(Engine, StressMixedQueriesWithConcurrentSnapshotSwap) {
  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 60;
  constexpr int kSwaps = 10;

  std::vector<svc::SnapshotPtr> snaps;
  for (int i = 0; i < 3; ++i) snaps.push_back(make_kron_snapshot(7, 20 + i));

  EngineConfig cfg;
  cfg.threads = 4;
  cfg.max_batch = 16;
  Engine engine(snaps[0], cfg);

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> failed{0};
  auto client = [&](int id) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull * (id + 1);
    for (int q = 0; q < kQueriesPerClient; ++q) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      Request r;
      switch (x % 8) {
        case 0: r.kind = QueryKind::sssp; break;
        case 1: r.kind = QueryKind::pagerank; r.itermax = 20; break;
        case 2: r.kind = QueryKind::tc; break;
        default: r.kind = QueryKind::bfs; break;  // BFS-heavy mix
      }
      r.source = static_cast<Index>((x >> 8) % 128);
      auto res = engine.submit(r).get();
      if (res.status >= 0) {
        ok.fetch_add(1, std::memory_order_relaxed);
        if (r.kind == QueryKind::bfs) {
          EXPECT_GT(res.level.nvals(), 0u);
        }
      } else {
        // The only legal failure while snapshots churn is a service code.
        EXPECT_LE(res.status, LAGRAPH_SERVICE_DEADLINE);
        failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(client, i);
  for (int s = 0; s < kSwaps; ++s) {
    engine.install_snapshot(snaps[s % snaps.size()]);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto &t : clients) t.join();
  engine.drain();

  auto c = engine.counters();
  EXPECT_EQ(ok.load() + failed.load(),
            static_cast<std::uint64_t>(kClients) * kQueriesPerClient);
  EXPECT_EQ(c.submitted,
            static_cast<std::uint64_t>(kClients) * kQueriesPerClient);
  EXPECT_EQ(c.completed, ok.load());
  EXPECT_EQ(c.failed, failed.load());
  EXPECT_EQ(c.snapshot_installs, static_cast<std::uint64_t>(kSwaps));
  engine.stop();
}

// Destruction under load: queued work is either completed or failed with
// LAGRAPH_SERVICE_STOPPED, never a broken promise.
TEST(Engine, StopUnderLoadLeavesNoBrokenPromises) {
  auto snap = make_kron_snapshot(8, 30);
  EngineConfig cfg;
  cfg.threads = 2;
  std::vector<std::future<QueryResult>> futs;
  {
    Engine engine(snap, cfg);
    for (Index s = 0; s < 40; ++s) futs.push_back(engine.submit(bfs_req(s)));
    // Engine destructor stops mid-queue.
  }
  for (auto &f : futs) {
    auto res = f.get();  // must not throw
    EXPECT_TRUE(res.status >= 0 || res.status == LAGRAPH_SERVICE_STOPPED)
        << res.status;
  }
}

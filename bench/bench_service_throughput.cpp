// bench_service_throughput — the lagraph::service headline number: BFS
// batching vs one-query-at-a-time serving.
//
// A burst of 64 BFS queries against a power-law (Kronecker) graph of at
// least 2^16 nodes is pushed through two Engine configurations:
//
//   solo:    1 worker, batching disabled — every query runs its own
//            direction-optimized BFS (the classic request-loop server);
//   batched: 1 worker, batching enabled — queued queries coalesce into
//            word-parallel msbfs sweeps of up to 64 sources.
//
// Both sides use a single worker on purpose: the speedup reported is pure
// batching efficiency (one adjacency sweep amortized across the batch), not
// thread parallelism. Target: >= 3x queries/sec.
//
// --mutation-mix instead measures read-tail degradation under a live write
// path: the same BFS burst load is run twice — once against a frozen
// snapshot, once with an ingest::Writer streaming mixed insert/upsert/delete
// batches and republishing epochs under the readers. Read p99 (from the
// engine's log₂ latency histograms) in the mixed phase must stay within
// 1.5x of the read-only baseline; results land in BENCH_service.json
// (schema lagraph-service-bench-v1) for tools/bench_diff.py. Each entry
// also records the queue-wait percentiles (submit → worker pickup) next to
// the end-to-end latency so regressions attribute to scheduling vs kernels.
//
// --query measures the multi-op query optimizer instead: a pinned 3-hop
// count (MATCH (a)->(b)->(c)->(d) WHERE d = <pin> RETURN COUNT(*)) is
// compiled and executed on a kron graph twice per pin — once optimized
// (the count chain: one masked product per edge from the pin, then a
// reduce) and once as the naive textual-order prune + enumerate baseline —
// over 8 pins, one per in-degree stratum, single-threaded. Both plans are
// bit-identical by the conformance suite, so the delta is pure plan
// quality. Entries query_naive / query_optimized with the geomean, minimum
// and maximum per-pin speedup land in BENCH_service.json.
//
// --telemetry additionally starts each engine's embedded HTTP telemetry
// server on an ephemeral port — A/B two runs to measure the observability
// overhead (budget: <= 2% on p50).
//
// LAGRAPH_BENCH_SCALE raises the graph size (floored at 16 for the batching
// gate, used as-is for --mutation-mix), LAGRAPH_BENCH_TRIALS the trial
// count (best of N is reported).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ingest/writer.hpp"
#include "query/query.hpp"
#include "service/engine.hpp"

namespace {

using lagraph::service::Engine;
using lagraph::service::EngineConfig;
using lagraph::service::EngineCounters;
using lagraph::service::QueryKind;
using lagraph::service::QueryResult;
using lagraph::service::Request;
using lagraph::service::SnapshotPtr;

constexpr int kSources = 64;

std::vector<grb::Index> pick_sources(grb::Index n) {
  std::vector<grb::Index> s;
  for (int i = 0; i < kSources; ++i)
    s.push_back(static_cast<grb::Index>(i * 2654435761ull) % n);
  return s;
}

// Push one burst through an engine; returns wall seconds, counts successes.
double run_burst(Engine &engine, const std::vector<grb::Index> &sources,
                 std::size_t *ok, std::size_t *batched) {
  std::vector<std::future<QueryResult>> futs;
  futs.reserve(sources.size());
  lagraph::Timer t;
  lagraph::tic(t);
  for (auto s : sources) {
    Request r;
    r.kind = QueryKind::bfs;
    r.source = s;
    futs.push_back(engine.submit(r));
  }
  for (auto &f : futs) {
    auto res = f.get();
    if (res.status >= 0) ++*ok;
    if (res.batched) ++*batched;
  }
  return lagraph::toc(t);
}

// -- --mutation-mix -----------------------------------------------------

// One phase's read-side results, pulled from the engine's own histograms.
// End-to-end latency splits into queue wait (submit → worker pickup) and
// execute (kernel time); both sides are recorded so a regression can be
// attributed to scheduling vs kernels.
struct PhaseResult {
  std::size_t queries = 0;
  std::size_t ok = 0;
  double wall_s = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double queue_p50_ms = 0;
  double queue_p95_ms = 0;
  double queue_p99_ms = 0;
};

// When --telemetry is given, every engine also runs its embedded HTTP
// telemetry server (ephemeral port) so the run A/Bs the observability
// overhead against a default run.
bool g_with_telemetry = false;

// Drive `rounds` BFS bursts through the engine and read the bfs latency
// summary back out. The histogram is per-engine, so callers hand us a
// freshly constructed one.
PhaseResult run_read_phase(Engine &engine,
                           const std::vector<grb::Index> &sources,
                           int rounds) {
  PhaseResult pr;
  std::size_t batched = 0;
  lagraph::Timer t;
  lagraph::tic(t);
  for (int r = 0; r < rounds; ++r) {
    pr.wall_s += run_burst(engine, sources, &pr.ok, &batched);
    pr.queries += sources.size();
  }
  for (const auto &kl : engine.latency_summary()) {
    if (kl.kind == QueryKind::bfs) {
      pr.p50_ms = kl.p50_ms;
      pr.p95_ms = kl.p95_ms;
      pr.p99_ms = kl.p99_ms;
      pr.queue_p50_ms = kl.queue_p50_ms;
      pr.queue_p95_ms = kl.queue_p95_ms;
      pr.queue_p99_ms = kl.queue_p99_ms;
    }
  }
  pr.qps = pr.wall_s > 0 ? static_cast<double>(pr.queries) / pr.wall_s : 0;
  return pr;
}

// Write-side totals for the mixed phase, from the grb stats deltas.
struct WriteTotals {
  std::uint64_t batches = 0;
  std::uint64_t edges = 0;
  std::uint64_t epochs = 0;
};

void write_service_json(const char *path, int scale, int threads,
                        const PhaseResult &ro, const PhaseResult &mx,
                        const WriteTotals &wt) {
  std::FILE *out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path);
    return;
  }
  auto entry = [&](const char *workload, const PhaseResult &p,
                   const WriteTotals *w, bool last) {
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"op\": \"bfs\", "
                 "\"threads\": %d, \"queries\": %zu, \"qps\": %.3f, "
                 "\"p50_ms\": %.6f, \"p95_ms\": %.6f, \"p99_ms\": %.6f, "
                 "\"queue_wait_p50_ms\": %.6f, \"queue_wait_p95_ms\": %.6f, "
                 "\"queue_wait_p99_ms\": %.6f",
                 workload, threads, p.queries, p.qps, p.p50_ms, p.p95_ms,
                 p.p99_ms, p.queue_p50_ms, p.queue_p95_ms, p.queue_p99_ms);
    if (w != nullptr) {
      std::fprintf(out,
                   ", \"write_batches\": %llu, \"edges_ingested\": %llu, "
                   "\"epochs_published\": %llu",
                   static_cast<unsigned long long>(w->batches),
                   static_cast<unsigned long long>(w->edges),
                   static_cast<unsigned long long>(w->epochs));
    }
    std::fprintf(out, "}%s\n", last ? "" : ",");
  };
  std::fprintf(out,
               "{\n  \"schema\": \"lagraph-service-bench-v1\",\n"
               "  \"suite\": \"kron\",\n  \"scale\": %d,\n"
               "  \"entries\": [\n",
               scale);
  entry("read_only", ro, nullptr, false);
  entry("mixed", mx, &wt, true);
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int run_mutation_mix() {
  namespace ing = lagraph::ingest;
  const int scale = bench::suite_scale();
  const int rounds = std::max(3, bench::suite_trials());
  char msg[LAGRAPH_MSG_LEN];

  // Two identical graphs from one edge list: one frozen for the read-only
  // baseline, one handed to the writer as the mutable master.
  const auto el = gen::kronecker(scale, bench::suite_edgefactor(), 42);
  auto make = [&] {
    lagraph::Graph<double> g;
    lagraph::make_graph(g, gen::to_matrix<double>(el),
                        lagraph::Kind::adjacency_undirected, msg);
    return g;
  };
  auto baseline = make();
  const grb::Index n = baseline.nodes();
  std::printf("graph: kron scale %d, %llu nodes, %llu entries\n", scale,
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(baseline.entries()));
  const auto sources = pick_sources(n);

  EngineConfig ecfg;
  ecfg.threads = 2;
  ecfg.max_batch = kSources;
  if (g_with_telemetry) ecfg.telemetry_port = 0;

  // Phase 1: read-only baseline against a frozen snapshot.
  PhaseResult ro;
  {
    SnapshotPtr snap;
    if (lagraph::service::make_snapshot(&snap, std::move(baseline), msg) <
        0) {
      std::fprintf(stderr, "make_snapshot failed: %s\n", msg);
      return 1;
    }
    Engine engine(snap, ecfg);
    ro = run_read_phase(engine, sources, rounds);
    engine.stop();
  }

  // Phase 2: the same read load with a live mutation stream underneath.
  // The writer publishes epochs on its own cadence and the hook swaps them
  // into the engine while bursts are in flight.
  PhaseResult mx;
  WriteTotals wt;
  {
    const auto before = grb::stats().snapshot();
    Engine engine(ecfg);
    ing::WriterConfig wcfg;
    // Steady-state pacing: without the rate limit every 64-edit batch
    // drains the queue and republishes the whole graph (O(nnz) flush +
    // copy), and on small machines the writer's CPU share alone blows the
    // read tail. 25ms between epochs is still ~40 publications/s — far
    // fresher than any cache TTL a read-mostly service would tolerate.
    wcfg.publish_threshold = 1 << 16;
    wcfg.min_publish_interval_ms = 25;
    ing::Writer writer(make(), wcfg, [&](const SnapshotPtr &s) {
      engine.install_snapshot(s);
    });

    std::atomic<bool> stop{false};
    std::thread mutator([&] {
      std::uint64_t x = 0x2545F4914F6CDD1DULL;
      auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
      };
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<ing::Mutation> batch;
        batch.reserve(64);
        for (int q = 0; q < 64; ++q) {
          ing::Mutation m;
          const auto k = rnd() % 10;
          m.op = k < 5   ? ing::MutationOp::insert
                 : k < 8 ? ing::MutationOp::upsert
                         : ing::MutationOp::remove;
          m.src = static_cast<grb::Index>(rnd() % n);
          m.dst = static_cast<grb::Index>(rnd() % n);
          m.weight = 1.0;
          batch.push_back(m);
        }
        if (writer.submit_batch(batch) == LAGRAPH_INGEST_QUEUE_FULL) {
          std::this_thread::yield();
          continue;
        }
        // Paced, not saturating: the mix under test is read-dominated with
        // a steady trickle of writes, the service's steady state.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    mx = run_read_phase(engine, sources, rounds);

    stop.store(true);
    mutator.join();
    writer.publish_now();
    writer.stop();
    engine.stop();

    const auto after = grb::stats().snapshot();
    wt.batches = after.ingest_batches - before.ingest_batches;
    wt.edges = after.edges_ingested - before.edges_ingested;
    wt.epochs = after.epochs_published - before.epochs_published;
  }

  std::printf("read-only: %4zu/%zu ok, %8.1f q/s, bfs p50/p95/p99 = "
              "%.3f/%.3f/%.3f ms (queue wait %.3f/%.3f/%.3f ms)\n",
              ro.ok, ro.queries, ro.qps, ro.p50_ms, ro.p95_ms, ro.p99_ms,
              ro.queue_p50_ms, ro.queue_p95_ms, ro.queue_p99_ms);
  std::printf("mixed:     %4zu/%zu ok, %8.1f q/s, bfs p50/p95/p99 = "
              "%.3f/%.3f/%.3f ms (queue wait %.3f/%.3f/%.3f ms)\n",
              mx.ok, mx.queries, mx.qps, mx.p50_ms, mx.p95_ms, mx.p99_ms,
              mx.queue_p50_ms, mx.queue_p95_ms, mx.queue_p99_ms);
  std::printf("writes:    %llu batches, %llu edges, %llu epochs published\n",
              static_cast<unsigned long long>(wt.batches),
              static_cast<unsigned long long>(wt.edges),
              static_cast<unsigned long long>(wt.epochs));

  write_service_json("BENCH_service.json", scale, ecfg.threads, ro, mx, wt);
  std::printf("wrote BENCH_service.json\n");

  // The gate: mixed read p99 within 1.5x of the read-only baseline. The
  // small absolute floor keeps sub-millisecond baselines from turning
  // scheduler jitter into failures on tiny graphs / loaded hosts.
  const double limit = std::max(1.5 * ro.p99_ms, ro.p99_ms + 0.25);
  const bool ok = mx.ok == mx.queries && ro.ok == ro.queries &&
                  wt.epochs > 0 && mx.p99_ms <= limit;
  std::printf("mixed p99 %.3f ms vs limit %.3f ms (1.5x baseline): %s\n",
              mx.p99_ms, limit, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// -- --query ------------------------------------------------------------

// Optimized vs naive compiled plans for a pinned 3-hop count, over pins
// spread across the in-degree ranking: nodes with at least one in-arc
// sorted by in-degree, split into kQueryPins equal strata, and the median
// node of each stratum pinned, so hub and leaf pins both weigh in (a pin
// without in-arcs counts 0 in O(1) and would only inflate the geomean).
// The naive plan sweeps forward from an unconstrained (a) and enumerates
// every match; the optimized plan pushes walk counts from the single
// pinned node, so its work does not grow with the match count. Kernels
// run single-threaded, like enginebench: at the OpenMP default every
// parallel region here costs more than the whole serial count chain.
constexpr int kQueryPins = 8;

int run_query_bench() {
  namespace q = lagraph::query;
  // Scale 10 by default: big enough that plan quality dominates the
  // parse/compile constants, small enough that the naive side finishes in
  // well under a second per pin and trial on one core.
  const int scale = std::min(bench::suite_scale(), 10);
  const int trials = std::max(3, bench::suite_trials());
  char msg[LAGRAPH_MSG_LEN];

  const auto el = gen::kronecker(scale, bench::suite_edgefactor(), 42);
  lagraph::Graph<double> g;
  if (lagraph::make_graph(g, gen::to_matrix<double>(el),
                          lagraph::Kind::adjacency_directed, msg) < 0) {
    std::fprintf(stderr, "make_graph failed: %s\n", msg);
    return 1;
  }
  g.a.finalize();
  // The CSE inputs the optimizer can reuse: A^T and both degree vectors.
  lagraph::property_at(g, msg);
  lagraph::property_row_degree(g, msg);
  lagraph::property_col_degree(g, msg);
  (*g.at).finalize();
  const grb::Index n = g.nodes();
  grb::config().num_threads = 1;
  std::printf("graph: kron scale %d, %llu nodes, %llu entries, 1 thread\n",
              scale, static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(g.entries()));

  std::vector<std::int64_t> indeg(n, 0);
  std::vector<grb::Index> rank;
  g.col_degree->for_each([&](grb::Index i, const std::int64_t &d) {
    indeg[i] = d;
    if (d > 0) rank.push_back(i);
  });
  std::stable_sort(rank.begin(), rank.end(), [&](grb::Index x, grb::Index y) {
    return indeg[x] > indeg[y];
  });
  const auto ranked = static_cast<grb::Index>(rank.size());

  // Best-of-trials seconds for one compiled plan; -1 on error.
  auto best_of = [&](const q::Query &parsed, bool optimize,
                     std::int64_t *count) {
    q::QueryPlan plan;
    if (q::compile(&plan, parsed, g, optimize, msg) < 0) {
      std::fprintf(stderr, "compile failed: %s\n", msg);
      return -1.0;
    }
    double best = 1e30;
    for (int t = 0; t < trials; ++t) {
      q::ResultSet rs;
      lagraph::Timer timer;
      lagraph::tic(timer);
      if (q::execute(&rs, parsed, plan, g, msg) < 0) {
        std::fprintf(stderr, "execute failed: %s\n", msg);
        return -1.0;
      }
      best = std::min(best, lagraph::toc(timer));
      *count = rs.data[0][0];
    }
    return best;
  };

  double sum_opt = 0, sum_naive = 0, log_sum = 0;
  double min_speedup = 1e30, max_speedup = 0;
  for (int k = 0; k < kQueryPins; ++k) {
    const grb::Index pin = rank[(2 * static_cast<grb::Index>(k) + 1) *
                                ranked / (2 * kQueryPins)];
    char text[160];
    std::snprintf(text, sizeof text,
                  "MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE d = %llu "
                  "RETURN COUNT(*)",
                  static_cast<unsigned long long>(pin));
    q::Query parsed;
    if (q::parse(&parsed, text, msg) < 0) {
      std::fprintf(stderr, "parse failed: %s\n", msg);
      return 1;
    }
    std::int64_t count_opt = -1, count_naive = -2;
    const double t_opt = best_of(parsed, true, &count_opt);
    const double t_naive = best_of(parsed, false, &count_naive);
    if (t_opt < 0 || t_naive < 0) return 1;
    if (count_opt != count_naive) {
      std::fprintf(stderr, "plan divergence at pin %llu: optimized count "
                           "%lld vs naive %lld\n",
                   static_cast<unsigned long long>(pin),
                   static_cast<long long>(count_opt),
                   static_cast<long long>(count_naive));
      return 1;
    }
    const double speedup = t_naive / t_opt;
    sum_opt += t_opt;
    sum_naive += t_naive;
    log_sum += std::log(speedup);
    min_speedup = std::min(min_speedup, speedup);
    max_speedup = std::max(max_speedup, speedup);
    std::printf("pin %5llu (in-degree %4lld, stratum %d): count %11lld  "
                "optimized %.6fs  naive %.6fs  %8.1fx\n",
                static_cast<unsigned long long>(pin),
                static_cast<long long>(indeg[pin]), k,
                static_cast<long long>(count_opt), t_opt, t_naive, speedup);
  }
  const double geomean = std::exp(log_sum / kQueryPins);

  std::FILE *out = std::fopen("BENCH_service.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n  \"schema\": \"lagraph-service-bench-v1\",\n"
                 "  \"suite\": \"kron\",\n  \"scale\": %d,\n"
                 "  \"entries\": [\n"
                 "    {\"workload\": \"query_naive\", \"op\": \"cypher\", "
                 "\"threads\": 1, \"queries\": %d, \"qps\": %.3f, "
                 "\"best_s\": %.6f},\n"
                 "    {\"workload\": \"query_optimized\", \"op\": "
                 "\"cypher\", \"threads\": 1, \"queries\": %d, "
                 "\"qps\": %.3f, \"best_s\": %.6f, "
                 "\"speedup_vs_naive\": %.3f, \"speedup_min\": %.3f, "
                 "\"speedup_max\": %.3f}\n"
                 "  ]\n}\n",
                 scale, kQueryPins, kQueryPins / sum_naive, sum_naive,
                 kQueryPins, kQueryPins / sum_opt,
                 sum_opt, geomean, min_speedup, max_speedup);
    std::fclose(out);
    std::printf("wrote BENCH_service.json\n");
  }
  std::printf("optimized vs naive over %d pins: geomean %.2fx, min %.2fx, "
              "max %.2fx (target: geomean >= 2.0x) %s\n",
              kQueryPins, geomean, min_speedup, max_speedup,
              geomean >= 2.0 ? "PASS" : "FAIL");
  return geomean >= 2.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char **argv) {
  bool mutation_mix = false;
  bool query_bench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mutation-mix") == 0) mutation_mix = true;
    if (std::strcmp(argv[i], "--query") == 0) query_bench = true;
    if (std::strcmp(argv[i], "--telemetry") == 0) g_with_telemetry = true;
  }
  if (query_bench) return run_query_bench();
  if (mutation_mix) return run_mutation_mix();
  const int scale = std::max(16, bench::suite_scale());
  const int trials = std::max(1, bench::suite_trials());
  char msg[LAGRAPH_MSG_LEN];

  auto el = gen::kronecker(scale, bench::suite_edgefactor(), 42);
  lagraph::Graph<double> g;
  lagraph::make_graph(g, gen::to_matrix<double>(el),
                      lagraph::Kind::adjacency_undirected, msg);
  std::printf("graph: kron scale %d, %llu nodes, %llu entries\n", scale,
              static_cast<unsigned long long>(g.nodes()),
              static_cast<unsigned long long>(g.entries()));

  SnapshotPtr snap;
  if (lagraph::service::make_snapshot(&snap, std::move(g), msg) < 0) {
    std::fprintf(stderr, "make_snapshot failed: %s\n", msg);
    return 1;
  }
  const auto sources = pick_sources(snap->nodes());

  // The last trial's engine counters, read after best_of returns.
  EngineCounters last;
  auto best_of = [&](const EngineConfig &cfg, const char *label) {
    double best = 1e30;
    std::size_t ok = 0;
    std::size_t batched = 0;
    for (int t = 0; t < trials; ++t) {
      Engine engine(snap, cfg);
      ok = batched = 0;
      best = std::min(best, run_burst(engine, sources, &ok, &batched));
      engine.stop();
      last = engine.counters();
    }
    std::printf("%-8s %2d worker(s): %3zu ok (%3zu batched), best %.3fs "
                "=> %8.1f queries/s\n",
                label, cfg.threads, ok, batched, best, kSources / best);
    return best;
  };

  EngineConfig solo;
  solo.threads = 1;
  solo.enable_batching = false;
  solo.telemetry_port = g_with_telemetry ? 0 : -1;

  EngineConfig batch;
  batch.threads = 1;
  batch.enable_batching = true;
  batch.max_batch = kSources;
  batch.telemetry_port = g_with_telemetry ? 0 : -1;

  const double t_solo = best_of(solo, "solo");
  const double t_batch = best_of(batch, "batched");

  const double speedup = t_solo / t_batch;
  const auto &st = grb::stats();
  std::printf("grb stats: %llu batch sweeps, %llu batched queries, "
              "%llu solo queries (last batched engine), %llu snapshot "
              "builds, %llu finalize calls\n",
              static_cast<unsigned long long>(last.bfs_sweeps),
              static_cast<unsigned long long>(last.batched_bfs),
              static_cast<unsigned long long>(last.solo_queries),
              static_cast<unsigned long long>(st.snapshot_builds.load()),
              static_cast<unsigned long long>(st.finalize_calls.load()));
  std::printf("batched vs solo: %.2fx (target >= 3.0x) %s\n", speedup,
              speedup >= 3.0 ? "PASS" : "FAIL");
  return speedup >= 3.0 ? 0 : 1;
}

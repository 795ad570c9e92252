// One benchmark run: set-up, the closed loop, output checks, and (traced
// runs) the serial probe phase that times calls into each module.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "ingest/writer.hpp"
#include "lagraph/lagraph.hpp"
#include "query/query.hpp"
#include "service/engine.hpp"

#ifndef ENGINEBENCH_BUILD_TYPE
#define ENGINEBENCH_BUILD_TYPE "unknown"
#endif

namespace enginebench {

namespace {

namespace ing = lagraph::ingest;
namespace svc = lagraph::service;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kChecksPerKind = 12;  // checked results per read kind
// Both PageRanks run the same Jacobi iteration and stopping rule, so they
// differ by rounding only (~1e-19 on road_read); damping off by 0.01 moves
// ranks there by ~7e-7.
constexpr double kPageRankTol = 1e-12;  // max |rank difference| allowed
constexpr std::size_t kProbeWrites = 16;    // traced read-only runs
constexpr int kNotRun = -1000;  // status of a request no client got to

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// -- set-up ------------------------------------------------------------------

// The serving stack of one run. The writer's publish hook points back here,
// so a Serving never moves; the writer is declared last so it stops first.
struct Serving {
  std::mutex mu;
  std::map<std::uint64_t, std::uint64_t> epoch_of;  // snapshot id → epoch
  std::unique_ptr<svc::Engine> engine;
  std::unique_ptr<ing::Writer> writer;
};

struct SetupTimes {
  double total = 0, make_graph = 0, make_snapshot = 0;
};

// Edge list in memory → Engine accepting requests. Generation is excluded.
std::unique_ptr<Serving> build_serving(const Inputs &in, bool writes,
                                       SetupTimes *t) {
  char msg[LAGRAPH_MSG_LEN];
  auto s = std::make_unique<Serving>();
  const auto t0 = Clock::now();
  lagraph::Graph<double> g;
  int st = lagraph::make_graph(g, gen::to_matrix<double>(in.edges),
                               in.directed ? lagraph::Kind::adjacency_directed
                                           : lagraph::Kind::adjacency_undirected,
                               msg);
  if (st < 0) throw std::runtime_error(std::string("make_graph: ") + msg);
  const auto t1 = Clock::now();
  Clock::time_point ts, t2;  // make_snapshot or Writer construction
  if (!writes) {
    svc::SnapshotPtr snap;
    ts = Clock::now();
    st = svc::make_snapshot(&snap, std::move(g), msg);
    if (st < 0) throw std::runtime_error(std::string("make_snapshot: ") + msg);
    t2 = Clock::now();
    s->engine = std::make_unique<svc::Engine>(snap);
  } else {
    s->engine = std::make_unique<svc::Engine>();
    Serving *sp = s.get();
    ts = Clock::now();
    s->writer = std::make_unique<ing::Writer>(
        std::move(g), ing::WriterConfig{}, [sp](const svc::SnapshotPtr &p) {
          sp->engine->install_snapshot(p);
          std::lock_guard<std::mutex> lk(sp->mu);
          sp->epoch_of[p->id()] = p->epoch();
        });
    t2 = Clock::now();
  }
  const auto t3 = Clock::now();
  t->total = secs(t3 - t0);
  t->make_graph = secs(t1 - t0);
  t->make_snapshot = secs(t2 - ts);
  return s;
}

// -- the closed loop ---------------------------------------------------------

struct Sample {
  double sent = 0;     // seconds since the loop started
  double latency = 0;  // submit → result (write: submit_batch → publish_now)
  double queue = 0;    // QueryResult::queue_seconds
  double exec = 0;     // QueryResult::exec_seconds
  double submit = 0;   // write: submit_batch alone
  double publish = 0;  // write: Writer::last_publish_seconds()
  std::uint64_t request_id = 0;
  int status = kNotRun;
};

struct Span {
  const char *name;
  std::uint32_t tid;
  std::uint64_t seq;         // sequence index (probe: call number)
  std::uint64_t request_id;  // engine request id, 0 outside the engine
  double ts, dur;            // seconds since the loop started
};

struct Loop {
  std::vector<Sample> samples;
  std::vector<int> slot_of;                  // item → kept slot, or -1
  std::vector<svc::QueryResult> kept;        // results that get checked
  std::vector<std::uint32_t> log;            // write batches, applied order
  std::vector<std::vector<Span>> spans;      // per client (traced run)
  double record_seconds = 0;                 // client time spent on spans
  Clock::time_point start;
  std::string error;
};

void run_loop(const Sequence &seq, Serving &srv, bool trace, Loop *out) {
  const std::size_t total = seq.items.size();
  std::vector<svc::Request> reqs(total);
  for (std::size_t i = 0; i < total; ++i) {
    const Item &it = seq.items[i];
    svc::Request &r = reqs[i];
    r.source = it.node;
    switch (it.op) {
      case Op::bfs: r.kind = svc::QueryKind::bfs; break;
      case Op::sssp: r.kind = svc::QueryKind::sssp; r.delta = it.param; break;
      case Op::pagerank:
        r.kind = svc::QueryKind::pagerank;
        r.damping = it.param;
        break;
      case Op::write: break;
      default: r.kind = svc::QueryKind::cypher; r.query = cypher_text(it.op, it.node);
    }
  }
  out->samples.assign(total, Sample{});
  out->spans.assign(kClients, {});
  std::atomic<std::size_t> cursor{0};
  std::mutex write_mu;  // one write batch at a time: one epoch per batch
  std::mutex err_mu;
  std::vector<double> record_s(kClients, 0);
  out->start = Clock::now();
  const auto start = out->start;

  auto client = [&](std::uint32_t c) {
    auto &spans = out->spans[c];
    if (trace) spans.reserve(3 * (total / kClients + 1));
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      const Item &it = seq.items[i];
      Sample &s = out->samples[i];
      const auto t0 = Clock::now();
      s.sent = secs(t0 - start);
      Clock::time_point t1;
      if (it.op == Op::write) {
        std::lock_guard<std::mutex> lk(write_mu);
        const auto a = Clock::now();
        s.status = srv.writer->submit_batch(seq.batches[it.batch]);
        const auto b = Clock::now();
        if (s.status == 0) {
          out->log.push_back(it.batch);
          s.status = srv.writer->publish_now();
        }
        t1 = Clock::now();
        s.submit = secs(b - a);
        s.latency = secs(t1 - a);
        s.publish = srv.writer->last_publish_seconds();
      } else {
        svc::QueryResult r = srv.engine->submit(std::move(reqs[i])).get();
        t1 = Clock::now();
        s.latency = secs(t1 - t0);
        s.queue = r.queue_seconds;
        s.exec = r.exec_seconds;
        s.request_id = r.request_id;
        s.status = r.status;
        if (out->slot_of[i] >= 0) out->kept[out->slot_of[i]] = std::move(r);
      }
      if (!trace) continue;
      const auto r0 = Clock::now();
      const double ts = secs(t1 - start) - s.latency;
      spans.push_back({op_name(it.op), c, i, s.request_id, ts, s.latency});
      if (it.op == Op::write) {
        spans.push_back({"submit_batch", c, i, 0, ts, s.submit});
        spans.push_back({"publish", c, i, 0, ts + s.latency - s.publish,
                         s.publish});
      } else {
        spans.push_back({"queue", c, i, s.request_id, ts, s.queue});
        spans.push_back({"exec", c, i, s.request_id, ts + s.queue, s.exec});
      }
      record_s[c] += secs(Clock::now() - r0);
    }
  };
  auto guarded = [&](std::uint32_t c) {
    try {
      client(c);
    } catch (const std::exception &e) {
      std::lock_guard<std::mutex> lk(err_mu);
      out->error = e.what();
      cursor.store(total);  // stop the other clients too
    }
  };
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < kClients; ++c) threads.emplace_back(guarded, c);
  for (auto &t : threads) t.join();
  for (double r : record_s) out->record_seconds += r;
}

// -- output checks -------------------------------------------------------------

void apply_mutation(EdgeMap &m, const ing::Mutation &x, bool directed) {
  auto one = [&](Index s, Index d) {
    const auto key = std::make_pair(s, d);
    switch (x.op) {
      case ing::MutationOp::insert: m[key] = x.weight; break;
      case ing::MutationOp::remove: m.erase(key); break;
      case ing::MutationOp::upsert: {
        auto [pos, fresh] = m.try_emplace(key, x.weight);
        if (!fresh) pos->second += x.weight;
        break;
      }
    }
  };
  one(x.src, x.dst);
  if (!directed && x.src != x.dst) one(x.dst, x.src);
}

// The graph as the mutation log left it after `applied` batches, rebuilt
// from the original edges without any grb code.
struct Replay {
  const Inputs &in;
  const Sequence &seq;
  const std::vector<std::uint32_t> &log;
  EdgeMap state;
  std::size_t applied = 0;
  gapbs::Graph graph;

  Replay(const Inputs &i, const Sequence &s, const std::vector<std::uint32_t> &l)
      : in(i), seq(s), log(l), state(i.unique), graph(i.ref) {}

  void advance(std::size_t upto) {
    if (upto == applied) return;
    for (; applied < upto; ++applied) {
      for (const auto &m : seq.batches[log[applied]]) {
        apply_mutation(state, m, in.directed);
      }
    }
    graph = reference_graph(state, in.edges.n, in.directed);
  }
};

lagraph::query::ResultSet expected_cypher(Op op, Index pin,
                                          const gapbs::Graph &g) {
  lagraph::query::ResultSet rs;
  const auto s = static_cast<gapbs::NodeId>(pin);
  if (op == Op::rows) {  // (a)->(b)->(c), a = pin, a <> c, sorted, LIMIT 100
    std::vector<std::int64_t> c;
    for (auto b : g.out_neigh(s)) {
      for (auto x : g.out_neigh(b)) {
        if (x != s) c.push_back(x);
      }
    }
    std::sort(c.begin(), c.end());
    if (c.size() > 100) c.resize(100);
    rs.columns = {"c"};
    rs.data = {std::move(c)};
    return rs;
  }
  // Walks of 2 or 3 hops ending at the pin.
  std::int64_t count = 0;
  for (auto b : g.in_neigh(s)) {
    if (op == Op::count2) {
      count += g.in_degree(b);
    } else {
      for (auto a : g.in_neigh(b)) count += g.in_degree(a);
    }
  }
  rs.columns = {"count"};
  rs.data = {{count}};
  return rs;
}

// Compare one kept result with its reference; "" when they agree.
std::string check_result(const Item &it, const svc::QueryResult &r,
                         const gapbs::Graph &g) {
  const auto src = static_cast<gapbs::NodeId>(it.node);
  char buf[160];
  if (it.op == Op::bfs) {
    const auto want = gapbs::bfs_levels_reference(g, src);
    for (std::size_t v = 0; v < want.size(); ++v) {
      const auto have = r.level.get(v);
      if (have.value_or(-1) != want[v]) {
        std::snprintf(buf, sizeof buf, "node %zu level %lld, expected %lld", v,
                      static_cast<long long>(have.value_or(-1)),
                      static_cast<long long>(want[v]));
        return buf;
      }
    }
  } else if (it.op == Op::sssp) {
    const auto want = gapbs::dijkstra(g, src);
    for (std::size_t v = 0; v < want.size(); ++v) {
      const double have =
          r.dist.get(v).value_or(std::numeric_limits<double>::infinity());
      if (have != want[v]) {
        std::snprintf(buf, sizeof buf, "node %zu distance %g, expected %g", v,
                      have, want[v]);
        return buf;
      }
    }
  } else if (it.op == Op::pagerank) {
    const svc::Request d;
    const auto want = gapbs::pagerank(g, it.param, d.tol, d.itermax);
    for (std::size_t v = 0; v < want.size(); ++v) {
      const double have = r.ranks.get(v).value_or(0.0);
      if (!(std::fabs(have - want[v]) <= kPageRankTol)) {
        std::snprintf(buf, sizeof buf, "node %zu rank %.9g, expected %.9g", v,
                      have, want[v]);
        return buf;
      }
    }
  } else if (r.table != expected_cypher(it.op, it.node, g)) {
    return "result differs from the reference: " + r.table.to_string();
  }
  return "";
}

// Snapshot-vs-rebuild: the published graph must hold exactly `want`.
std::string check_snapshot(const svc::GraphSnapshot &snap, const EdgeMap &want) {
  std::size_t seen = 0;
  std::string bad;
  snap.graph().a.for_each([&](Index i, Index j, const double &v) {
    ++seen;
    const auto pos = want.find({i, j});
    if (bad.empty() && (pos == want.end() || pos->second != v)) {
      bad = "entry (" + std::to_string(i) + "," + std::to_string(j) +
            ") differs from the rebuild";
    }
  });
  if (bad.empty() && seen != want.size()) {
    bad = std::to_string(seen) + " entries, rebuild has " +
          std::to_string(want.size());
  }
  return bad;
}

// -- metrics -------------------------------------------------------------------

template <typename F>
std::vector<double> latencies(const std::vector<Sample> &s, std::size_t from,
                              F &&keep) {
  std::vector<double> v;
  for (std::size_t i = from; i < s.size(); ++i) {
    if (keep(i)) v.push_back(s[i].status < 0
                                 ? std::numeric_limits<double>::infinity()
                                 : s[i].latency);
  }
  return v;
}

double ms(double s) { return s * 1e3; }

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void write_spans(const std::string &path, const Loop &loop,
                 const std::vector<Span> &probe) {
  std::ofstream f(path);
  f << "{\"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const Span &s) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"seq\": %llu, \"request_id\": %llu}}",
                  first ? "" : ",\n", s.name, s.tid, s.ts * 1e6, s.dur * 1e6,
                  static_cast<unsigned long long>(s.seq),
                  static_cast<unsigned long long>(s.request_id));
    f << buf;
    first = false;
  };
  for (const auto &c : loop.spans) {
    for (const auto &s : c) emit(s);
  }
  for (const auto &s : probe) emit(s);
  f << "\n]}\n";
}

// -- the traced run's probe phase ------------------------------------------------

// Serial direct calls on the serving snapshot: the three cypher shapes
// through query::parse / compile / execute, and each lagraph algorithm
// followed at once by its gapbs twin on the reference of the same graph,
// with grb counter deltas around every call.
void probe_layers(const Workload &w, const Inputs &in, int scale,
                  std::uint64_t seed, const lagraph::Graph<double> &g,
                  const gapbs::Graph &ref, Clock::time_point origin,
                  Result *res, std::vector<Span> *spans) {
  namespace q = lagraph::query;
  const double counts[kNumOps] = {16, 4, 3, 8, 8, 8, 0};  // calls per op
  Workload mix{"probe", w.graph, scale, {}, 0};
  for (int k = 0; k < kNumOps; ++k) mix.share[k] = counts[k] / 47;
  const Sequence probe = make_sequence(mix, in, seed ^ 0x9e3779b97f4a7c15ULL, 0, 47);

  struct Layer {
    std::vector<double> lag, gap, ratio;  // seconds per call, and their ratio
    grb::StatsSnapshot delta{};           // summed over the calls
  } lay[4];                               // bfs, sssp, pagerank, cypher
  std::vector<double> parse_s, compile_s, execute_s, iters;
  double count_matches = 0, rows_returned = 0;
  const svc::Request d;  // PageRank tolerance and iteration cap
  char msg[LAGRAPH_MSG_LEN];
  std::uint64_t call = 0;
  auto timed = [&](const char *name, auto &&f) {
    const auto t0 = Clock::now();
    f();
    const double dur = secs(Clock::now() - t0);
    spans->push_back({name, kClients, call, 0, secs(t0 - origin), dur});
    return dur;
  };
  for (const Item &it : probe.items) {
    ++call;
    const auto src = static_cast<gapbs::NodeId>(it.node);
    const grb::StatsSnapshot a = grb::stats().snapshot();
    int st = 0;
    int li = 3;
    double tl = 0;
    if (it.op == Op::bfs) {
      li = 0;
      std::vector<grb::Vector<std::int64_t>> lv;
      const Index s1[1] = {it.node};
      tl = timed("lagraph.bfs", [&] {
        st = lagraph::experimental::msbfs_levels_demux(&lv, g, s1, msg);
      });
    } else if (it.op == Op::sssp) {
      li = 1;
      grb::Vector<double> dist;
      tl = timed("lagraph.sssp", [&] {
        st = lagraph::advanced::sssp_delta_stepping(&dist, g, it.node, it.param,
                                                    msg);
      });
    } else if (it.op == Op::pagerank) {
      li = 2;
      grb::Vector<double> r;
      int n_iters = 0;
      tl = timed("lagraph.pagerank", [&] {
        st = lagraph::advanced::pagerank_gap(&r, &n_iters, g, it.param, d.tol,
                                             d.itermax, msg);
      });
      iters.push_back(n_iters);
    } else {
      q::Query parsed;
      q::QueryPlan plan;
      q::ResultSet rs;
      const std::string text = cypher_text(it.op, it.node);
      parse_s.push_back(
          timed("query.parse", [&] { st = q::parse(&parsed, text, msg); }));
      if (st >= 0) {
        compile_s.push_back(timed("query.compile", [&] {
          st = q::compile(&plan, parsed, g, /*optimize=*/true, msg);
        }));
      }
      if (st >= 0) {
        execute_s.push_back(timed("query.execute", [&] {
          st = q::execute(&rs, parsed, plan, g, msg);
        }));
      }
      if (st >= 0 && it.op == Op::rows) rows_returned += static_cast<double>(rs.rows());
      if (st >= 0 && it.op != Op::rows && rs.rows() == 1) {
        count_matches += static_cast<double>(rs.data[0][0]);
      }
    }
    const grb::StatsSnapshot b = grb::stats().snapshot();
    grb::StatsSnapshot &acc = lay[li].delta;
    acc.push_calls += b.push_calls - a.push_calls;
    acc.pull_calls += b.pull_calls - a.pull_calls;
    acc.plans_built += b.plans_built - a.plans_built;
    acc.plans_cached += b.plans_cached - a.plans_cached;
    acc.format_conversions += b.format_conversions - a.format_conversions;
    acc.row_sorts += b.row_sorts - a.row_sorts;
    acc.parallel_regions += b.parallel_regions - a.parallel_regions;
    if (st < 0) res->problems.push_back(std::string("probe ") + op_name(it.op) + ": " + msg);
    if (li == 3) continue;
    static const char *const kTwin[3] = {"gapbs.bfs", "gapbs.sssp", "gapbs.pagerank"};
    const double tg = timed(kTwin[li], [&] {
      if (li == 0) gapbs::bfs(ref, src);
      if (li == 1) gapbs::sssp(ref, src, it.param);
      if (li == 2) gapbs::pagerank(ref, it.param, d.tol, d.itermax);
    });
    lay[li].lag.push_back(tl);
    lay[li].gap.push_back(tg);
    lay[li].ratio.push_back(tl / tg);
  }

  auto &m = res->metrics;
  m.push_back({"query.parse_us", median(parse_s) * 1e6, "us"});
  m.push_back({"query.compile_us", median(compile_s) * 1e6, "us"});
  m.push_back({"query.execute_ms", ms(median(execute_s)), "ms"});
  m.push_back({"query.count_matches", count_matches, "count"});
  m.push_back({"query.rows_returned", rows_returned, "count"});
  const char *const kinds[4] = {"bfs", "sssp", "pagerank", "cypher"};
  for (int k = 0; k < 3; ++k) {
    m.push_back({std::string("lagraph.") + kinds[k] + "_ms", ms(median(lay[k].lag)), "ms"});
  }
  m.push_back({"lagraph.pagerank_iters", median(iters), "count"});
  for (int k = 0; k < 3; ++k) {
    m.push_back({std::string("lagraph.") + kinds[k] + "_vs_gap", median(lay[k].ratio), "ratio"});
  }
  for (int k = 0; k < 3; ++k) {
    m.push_back({std::string("gapbs.") + kinds[k] + "_ms", ms(median(lay[k].gap)), "ms"});
  }
  for (int k = 0; k < 4; ++k) {
    const grb::StatsSnapshot &s = lay[k].delta;
    const std::string p = std::string("grb.") + kinds[k] + ".";
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    m.push_back({p + "kernel_calls", count(s.push_calls + s.pull_calls), "count"});
    m.push_back({p + "plans_built", count(s.plans_built), "count"});
    m.push_back({p + "plans_cached", count(s.plans_cached), "count"});
    m.push_back({p + "format_conversions", count(s.format_conversions), "count"});
    m.push_back({p + "row_sorts", count(s.row_sorts), "count"});
    m.push_back({p + "parallel_regions", count(s.parallel_regions), "count"});
    if (s.parallel_regions != 0) res->problems.push_back(p + "parallel_regions is not 0");
  }
}

struct WriteTimes {
  std::vector<double> submit, publish, wait;  // seconds per write batch
  double first_epoch = 0;  // the publication the Writer constructor makes
};

// A read-only workload's loop never writes, so its traced run measures
// ingest with serial write batches on a fresh copy of the graph, each
// published as one epoch, then checks the result against a replay.
std::unique_ptr<Serving> probe_writes(const Workload &w, const Inputs &in,
                                      int scale, std::uint64_t seed,
                                      WriteTimes *times, Result *res,
                                      std::uint64_t *mismatches) {
  SetupTimes t;
  auto srv = build_serving(in, true, &t);
  ing::Writer &writer = *srv->writer;
  times->first_epoch = writer.last_publish_seconds();
  Workload ww{"probe_writes", w.graph, scale, {0, 0, 0, 0, 0, 0, 1}, 0};
  const Sequence seq = make_sequence(ww, in, seed ^ 0x5bd1e995ULL, 0, kProbeWrites);
  std::vector<std::uint32_t> log;
  for (const Item &it : seq.items) {
    const auto a = Clock::now();
    int st = writer.submit_batch(seq.batches[it.batch]);
    const auto b = Clock::now();
    if (st == 0) {
      log.push_back(it.batch);
      st = writer.publish_now();
    }
    const auto c = Clock::now();
    if (st != 0) {
      res->problems.push_back("probe write batch failed with status " +
                              std::to_string(st));
      continue;
    }
    times->submit.push_back(secs(b - a));
    times->publish.push_back(writer.last_publish_seconds());
    times->wait.push_back(secs(c - a) - writer.last_publish_seconds());
  }
  Replay replay(in, seq, log);
  replay.advance(log.size());
  const std::string bad = check_snapshot(*writer.current(), replay.state);
  if (!bad.empty()) {
    ++*mismatches;
    res->problems.push_back("probe writer snapshot vs rebuild: " + bad);
  }
  if (writer.epoch() - 1 != log.size()) {
    res->problems.push_back("probe writer published " +
                            std::to_string(writer.epoch() - 1) + " epochs for " +
                            std::to_string(log.size()) + " batches");
  }
  return srv;
}

}  // namespace

Result run(const Options &opt) {
  const Workload *wp = find_workload(opt.workload);
  if (wp == nullptr) throw std::runtime_error("unknown workload " + opt.workload);
  const Workload &w = *wp;
  const int scale = opt.scale > 0 ? opt.scale : w.scale;
  const bool writes = w.share[static_cast<int>(Op::write)] > 0;
  Result res;
  auto problem = [&](std::string p) { res.problems.push_back(std::move(p)); };

  grb::config().num_threads = kKernelThreads;
  const grb::StatsSnapshot stats_start = grb::stats().snapshot();

  // Inputs and the whole request sequence, before anything is timed.
  const Inputs in = make_inputs(w, scale);
  // At least 10 samples beyond p99 and 100 per read kind for its p50.
  const double write_share = w.share[static_cast<int>(Op::write)];
  double min_kind = w.share[3] + w.share[4] + w.share[5];  // cypher
  if (min_kind == 0) min_kind = 1;
  for (Op op : {Op::bfs, Op::sssp, Op::pagerank}) {
    const double s = w.share[static_cast<int>(op)];
    if (s > 0) min_kind = std::min(min_kind, s);
  }
  const auto min_count = static_cast<std::size_t>(
      std::ceil(std::max(1000.0 / (1 - write_share), 100.0 / min_kind)));
  const std::size_t count =
      opt.requests > 0
          ? opt.requests
          : std::max(min_count, static_cast<std::size_t>(w.rate * opt.seconds));
  const std::size_t warmup = std::max<std::size_t>(4 * kClients, count / 10);
  const Sequence seq = make_sequence(w, in, opt.seed, warmup, count);
  const std::size_t total = seq.items.size();

  // Set-up, repeated; the last build serves.
  std::vector<double> setup_s, make_graph_s, make_snapshot_s;
  std::unique_ptr<Serving> srv;
  for (int b = 0; b < kSetupBuilds; ++b) {
    srv.reset();
    SetupTimes t;
    srv = build_serving(in, writes, &t);
    setup_s.push_back(t.total);
    make_graph_s.push_back(t.make_graph);
    make_snapshot_s.push_back(t.make_snapshot);
  }
  const double first_epoch_s = writes ? srv->writer->last_publish_seconds() : 0;
  const grb::StatsSnapshot stats_loop0 = grb::stats().snapshot();
  const svc::EngineCounters ec0 = srv->engine->counters();

  // Results to check: evenly spaced measured requests of each read kind.
  Loop loop;
  loop.slot_of.assign(total, -1);
  std::vector<std::size_t> checked;
  for (int k = 0; k < kNumOps; ++k) {
    if (static_cast<Op>(k) == Op::write) continue;
    std::vector<std::size_t> of_kind;
    for (std::size_t i = warmup; i < total; ++i) {
      if (static_cast<int>(seq.items[i].op) == k) of_kind.push_back(i);
    }
    const std::size_t m = std::min(kChecksPerKind, of_kind.size());
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t i = of_kind[j * of_kind.size() / m];
      loop.slot_of[i] = static_cast<int>(checked.size());
      checked.push_back(i);
    }
  }
  loop.kept.resize(checked.size());

  run_loop(seq, *srv, opt.trace, &loop);
  srv->engine->drain();
  const double rss_mb = peak_rss_mb();
  if (!loop.error.empty()) problem("client error: " + loop.error);
  const svc::EngineCounters ec1 = srv->engine->counters();
  const grb::StatsSnapshot stats_loop1 = grb::stats().snapshot();

  // -- fixed-work invariants and failure accounting
  std::size_t reads_total = 0, writes_total = 0;
  for (const Item &it : seq.items) (it.op == Op::write ? writes_total : reads_total)++;
  std::uint64_t failed_requests = 0;
  for (std::size_t i = warmup; i < total; ++i) {
    if (loop.samples[i].status < 0) ++failed_requests;
  }
  res.attempted = count;
  const std::uint64_t submitted = ec1.submitted - ec0.submitted;
  const std::uint64_t done = (ec1.completed - ec0.completed) + (ec1.failed - ec0.failed);
  if (submitted != reads_total || done != submitted) {
    problem("engine served " + std::to_string(done) + " of " +
            std::to_string(submitted) + " submitted, " +
            std::to_string(reads_total) + " read requests in the sequence");
  }
  if (writes) {
    const std::uint64_t epochs = srv->writer->epoch() - 1;
    if (epochs != writes_total || loop.log.size() != writes_total ||
        stats_loop1.epochs_published - stats_loop0.epochs_published != writes_total) {
      problem("published " + std::to_string(epochs) + " epochs for " +
              std::to_string(writes_total) + " write batches");
    }
  }

  // -- output checks, outside the timed loop
  std::uint64_t mismatches = 0;
  Replay replay(in, seq, loop.log);
  {
    std::vector<std::pair<std::size_t, std::size_t>> order;  // (applied, slot)
    for (std::size_t k = 0; k < checked.size(); ++k) {
      const svc::QueryResult &r = loop.kept[k];
      if (r.status < 0) continue;  // already counted as a failed request
      std::size_t applied = 0;
      if (writes) {
        std::lock_guard<std::mutex> lk(srv->mu);
        const auto pos = srv->epoch_of.find(r.snapshot_id);
        if (pos == srv->epoch_of.end() || pos->second < 1) {
          ++mismatches;
          problem("request " + std::to_string(checked[k]) +
                  " answered by an unknown snapshot");
          continue;
        }
        applied = pos->second - 1;
      }
      order.emplace_back(applied, k);
    }
    std::sort(order.begin(), order.end());
    for (const auto &[applied, k] : order) {
      replay.advance(applied);
      const Item &it = seq.items[checked[k]];
      const std::string bad = check_result(it, loop.kept[k], replay.graph);
      if (!bad.empty()) {
        ++mismatches;
        problem(std::string(op_name(it.op)) + " request " +
                std::to_string(checked[k]) + ": " + bad);
      }
    }
    if (writes) {
      replay.advance(loop.log.size());
      const std::string bad = check_snapshot(*srv->writer->current(), replay.state);
      if (!bad.empty()) {
        ++mismatches;
        problem("final snapshot vs rebuild: " + bad);
      }
    }
  }
  loop.kept.clear();

  // -- machine probe: the gapbs reference kernels on this graph
  const svc::Request dflt;
  std::vector<double> m_bfs, m_sssp;
  for (std::size_t i = warmup; i < total && m_bfs.size() < 8; ++i) {
    if (seq.items[i].op != Op::bfs) continue;
    const auto s = static_cast<gapbs::NodeId>(seq.items[i].node);
    auto t0 = Clock::now();
    gapbs::bfs(in.ref, s);
    m_bfs.push_back(secs(Clock::now() - t0));
    if (m_sssp.size() == 2) continue;
    t0 = Clock::now();
    gapbs::sssp(in.ref, s, 0.5 * (kDeltaLo + kDeltaHi));
    m_sssp.push_back(secs(Clock::now() - t0));
  }
  const auto t_pr = Clock::now();
  gapbs::pagerank(in.ref, 0.5 * (kDampingLo + kDampingHi), dflt.tol, dflt.itermax);
  const double m_pr = secs(Clock::now() - t_pr);

  // -- the loop's end-to-end figures
  const auto &smp = loop.samples;
  auto is_read = [&](std::size_t i) { return seq.items[i].op != Op::write; };
  auto of = [&](Op op) {
    return [&seq, op](std::size_t i) { return seq.items[i].op == op; };
  };
  const std::vector<double> read_lat = latencies(smp, warmup, is_read);
  // Reads sent per second while all clients are busy: from the first
  // measured request sent to the last one, after which clients start to idle.
  double first_sent = smp[warmup].sent, last_sent = first_sent;
  for (std::size_t i = warmup; i < total; ++i) {
    first_sent = std::min(first_sent, smp[i].sent);
    last_sent = std::max(last_sent, smp[i].sent);
  }
  const double qps = static_cast<double>(read_lat.size()) / (last_sent - first_sent);
  const double p50 = ms(percentile(read_lat, 0.5));
  const double p99 = ms(percentile(read_lat, 0.99));
  WriteTimes wt;
  wt.first_epoch = first_epoch_s;
  std::vector<double> write_lat;
  for (std::size_t i = warmup; i < total; ++i) {
    if (seq.items[i].op != Op::write || smp[i].status < 0) continue;
    write_lat.push_back(smp[i].latency);
    wt.submit.push_back(smp[i].submit);
    wt.publish.push_back(smp[i].publish);
    wt.wait.push_back(smp[i].latency - smp[i].publish);
  }

  auto summary = [&](const std::string &name, double v, const char *unit) {
    res.summary.push_back({name, v, unit});
  };
  summary("qps", qps, "1/s");
  summary("p50_ms", p50, "ms");
  summary("p99_ms", p99, "ms");
  summary("p99_samples_beyond",
          static_cast<double>(samples_beyond(read_lat.size(), 0.99)), "count");
  for (Op op : {Op::bfs, Op::sssp, Op::pagerank, Op::rows, Op::count2, Op::count3}) {
    const auto v = latencies(smp, warmup, of(op));
    if (v.empty()) continue;
    summary(std::string(op_name(op)) + "_p50_ms", ms(percentile(v, 0.5)), "ms");
    summary(std::string(op_name(op)) + "_requests", static_cast<double>(v.size()), "count");
  }
  const auto cy = latencies(smp, warmup, [&](std::size_t i) { return is_cypher(seq.items[i].op); });
  if (!cy.empty()) summary("cypher_p50_ms", ms(percentile(cy, 0.5)), "ms");
  if (!write_lat.empty()) {
    summary("write_visible_p50_ms", ms(percentile(write_lat, 0.5)), "ms");
    summary("write_visible_p90_ms", ms(percentile(write_lat, 0.9)), "ms");
    summary("write_batches", static_cast<double>(write_lat.size()), "count");
  }

  auto &m = res.metrics;
  if (!opt.trace) {
    m.push_back({"qps", qps, "1/s"});
    m.push_back({"p50_ms", p50, "ms"});
    m.push_back({"p99_ms", p99, "ms"});
    m.push_back({"bfs_p50_ms", ms(percentile(latencies(smp, warmup, of(Op::bfs)), 0.5)), "ms"});
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    // service: from the loop's own spans and the engine counters
    std::vector<double> qw, ex, ho;
    std::size_t bfs_requests = 0;
    for (std::size_t i = 0; i < total; ++i) {
      if (seq.items[i].op == Op::bfs) ++bfs_requests;
      if (i < warmup || !is_read(i) || smp[i].status < 0) continue;
      qw.push_back(smp[i].queue);
      ex.push_back(smp[i].exec);
      ho.push_back(smp[i].latency - smp[i].queue - smp[i].exec);
    }
    const auto sweeps = static_cast<double>(ec1.bfs_sweeps - ec0.bfs_sweeps);
    m.push_back({"service.queue_wait_p50_ms", ms(percentile(qw, 0.5)), "ms"});
    m.push_back({"service.exec_p50_ms", ms(percentile(ex, 0.5)), "ms"});
    m.push_back({"service.handoff_p50_us", percentile(ho, 0.5) * 1e6, "us"});
    m.push_back({"service.bfs_per_sweep",
                 sweeps > 0 ? static_cast<double>(bfs_requests) / sweeps : 0, "ratio"});
    m.push_back({"service.snapshot_index_mb",
                 static_cast<double>(srv->engine->snapshot()->index_bytes()) / (1 << 20),
                 "MB"});
    m.push_back({"service.make_snapshot_ms", ms(median(make_snapshot_s)), "ms"});
    m.push_back({"service.failed", static_cast<double>(ec1.failed - ec0.failed), "count"});

    // query, lagraph, gapbs, grb
    std::vector<Span> probe_spans;
    probe_layers(w, in, scale, opt.seed, srv->engine->snapshot()->graph(),
                 replay.graph, loop.start, &res, &probe_spans);
    m.push_back({"lagraph.make_graph_ms", ms(median(make_graph_s)), "ms"});

    // ingest: the loop's write batches, or a probe writer's
    const grb::StatsSnapshot ingest0 = writes ? stats_loop0 : grb::stats().snapshot();
    std::unique_ptr<Serving> wsrv;
    if (!writes) wsrv = probe_writes(w, in, scale, opt.seed, &wt, &res, &mismatches);
    const ing::Writer &writer = writes ? *srv->writer : *wsrv->writer;
    m.push_back({"ingest.submit_us", median(wt.submit) * 1e6, "us"});
    m.push_back({"ingest.publish_ms", ms(median(wt.publish)), "ms"});
    m.push_back({"ingest.wait_ms", ms(median(wt.wait)), "ms"});
    m.push_back({"ingest.epochs", static_cast<double>(writer.epoch() - 1), "count"});
    m.push_back({"ingest.snapshots_retained",
                 static_cast<double>(writer.registry().size()), "count"});
    m.push_back({"ingest.snapshots_reclaimed",
                 static_cast<double>(grb::stats().snapshot().snapshots_reclaimed -
                                     ingest0.snapshots_reclaimed),
                 "count"});
    m.push_back({"ingest.first_epoch_ms", ms(wt.first_epoch), "ms"});
    wsrv.reset();

    // Tracing's own cost: client time spent recording spans, against the
    // client time spent in the requests it traced.
    double traced_s = 0;
    for (const Sample &s : smp) traced_s += s.latency;
    m.push_back({"trace.overhead_pct",
                 traced_s > 0 ? 100 * loop.record_seconds / traced_s : 0, "%"});
    if (!opt.spans_path.empty()) write_spans(opt.spans_path, loop, probe_spans);
  }

  if (grb::stats().snapshot().parallel_regions != stats_start.parallel_regions) {
    problem("kernels forked parallel regions with kernel threads pinned to 1");
  }
  srv.reset();

  res.failed = failed_requests + mismatches;
  res.correct = res.problems.empty() && failed_requests == 0;

  // -- run record
  std::string r = "{";
  auto field = [&](const char *k, const std::string &v) {
    if (r.size() > 1) r += ", ";
    r += "\"" + std::string(k) + "\": " + v;
  };
  auto quoted = [](const std::string &s) { return "\"" + s + "\""; };
  field("workload", quoted(w.name));
  field("seed", std::to_string(opt.seed));
  field("held_out_seed", std::to_string(kHeldOutSeed));
  field("seconds", std::to_string(opt.seconds));
  field("trace", opt.trace ? "true" : "false");
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("clients", std::to_string(kClients));
  field("engine_workers", std::to_string(svc::EngineConfig{}.threads));
  field("kernel_threads", std::to_string(grb::config().num_threads));
  field("build_type", quoted(ENGINEBENCH_BUILD_TYPE));
  field("graph", "{\"kind\": " + quoted(gen::gap_graph_name(w.graph)) +
                     ", \"scale\": " + std::to_string(scale) +
                     ", \"nodes\": " + std::to_string(in.edges.n) +
                     ", \"entries\": " + std::to_string(in.unique.size()) +
                     ", \"directed\": " + (in.directed ? "true" : "false") + "}");
  field("requests", "{\"warmup\": " + std::to_string(warmup) +
                        ", \"measured\": " + std::to_string(count) + "}");
  field("delta_range", "[" + json_num(kDeltaLo) + ", " + json_num(kDeltaHi) + "]");
  field("damping_range",
        "[" + json_num(kDampingLo) + ", " + json_num(kDampingHi) + "]");
  field("machine_probe", "{\"gapbs_bfs_ms\": " + json_num(ms(median(m_bfs))) +
                             ", \"gapbs_sssp_ms\": " + json_num(ms(median(m_sssp))) +
                             ", \"gapbs_pagerank_ms\": " + json_num(ms(m_pr)) + "}");
  r += "}";
  res.record = r;
  return res;
}

}  // namespace enginebench

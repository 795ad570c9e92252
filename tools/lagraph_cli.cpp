// lagraph_cli — command-line driver for the library: load a graph from a
// Matrix Market file (or generate a synthetic one), run a chosen algorithm,
// print the result. The adoption path for users who do not want to write
// C++ at all.
//
//   lagraph_cli <algorithm> [options]
//
// Algorithms: bfs, pagerank, pagerank-dangling, sssp, tc, cc, bc, ktruss,
//             lcc, cdlp, msbfs, stats
// Planner introspection:
//   explain [OP]         print the grb::plan execution plans the given op
//                        would run on this graph (OP: bfs|mxv|vxm|mxm|ewise,
//                        default bfs) — cost-model inputs, chosen
//                        direction, operand formats, and thread-team size
//   explain query 'PAT'  compile the pattern query against this graph and
//                        print both the optimized and the naive multi-op
//                        plan (lagraph::query; grammar in docs/API.md) so
//                        the optimizer's reordering / mask pushdown / CSE
//                        decisions are visible side by side
// Service commands (lagraph::service):
//   serve                build a snapshot, start an Engine, run a query
//                        script through the batching worker pool; a script
//                        with mutation lines runs them through an
//                        ingest::Writer whose epochs are swapped into the
//                        engine live
//   replay               same script, but one worker and batching off —
//                        the one-query-at-a-time baseline to compare against
//                        (mutation lines are rejected: the baseline is
//                        deterministic)
//   top                  poll a running engine's /statusz telemetry endpoint
//                        (--host/--port/--interval-ms/--count) and print a
//                        one-line status per sample
// Ingest commands (lagraph::ingest):
//   mutate               stream a mutation script (or --mutations N random
//                        edits) through an ingest::Writer and report the
//                        published epochs and final snapshot
// Options:
//   --mtx FILE           load a Matrix Market file
//   --graphalytics V E   load Graphalytics vertex+edge files
//   --gen KIND SCALE     generate: kron|urand|twitter|web|road (default
//                        kron 12)
//   --undirected         treat the graph as undirected
//   --source N           source vertex (bfs/sssp/bc/msbfs; default 0)
//   --delta X            SSSP delta (default 2)
//   --k N                k for ktruss (default 3)
//   --top N              print the top-N entries of vector results (def. 10)
//   --script FILE        serve/replay/mutate script: one line per command —
//                        queries `bfs SRC`, `sssp SRC [DELTA]`, `pagerank`,
//                        `tc`, `query PATTERN...` (rest of the line is a
//                        lagraph::query pattern, run as QueryKind::cypher);
//                        mutations `ins SRC DST [W]`, `ups SRC DST
//                        [W]`, `del SRC DST`; `publish` forces an epoch
//                        boundary; '#' starts a comment. Without a script,
//                        serve runs 64 BFS queries from hashed sources and
//                        mutate streams --mutations random edits.
//   --mutations N        mutate: synthetic mutation count (default 1024)
//   --threads N          serve: worker pool size (default 2)
//   --window-us U        serve: BFS coalescing window in µs (default 200)
//   --max-batch B        serve: max sources per msbfs sweep (default 64)
//   --no-batch           serve: disable batching (still multi-threaded)
//   --prometheus FILE    serve/replay: write the engine's Prometheus text
//                        exposition (counters + latency histograms) to FILE
//   --telemetry-port P   serve: start the embedded HTTP telemetry server on
//                        port P (0 = ephemeral; the bound port is printed)
//   --serve-seconds S    serve: keep serving (and scraping) S seconds after
//                        the script completes
//   --slow-query-ms X    serve: threshold for the structured slow-query log
//   --slow-query-log F   serve: append slow-query JSONL records to F
//   --json               stats: dump graph summary + grb::Stats as JSON
//   --burble             narrate algorithm iterations to stderr
// Tracing (grb::trace):
//   trace ALGO [opts]    run ALGO with span recording on, write a Chrome
//                        trace-event JSON (open in Perfetto), print per-op
//                        latency percentiles and the plan-vs-actual
//                        calibration report
//   --trace-out FILE     trace: output path (default trace.json)
//   --sample N           trace: record every Nth span per thread (default 1)
// Conformance fuzzing (grb::testing, see docs/TESTING.md):
//   fuzz [opts]          differential fuzz of the grb kernels against the
//                        naive oracle; exits non-zero on any mismatch
//   --seconds X          fuzz: wall-clock budget (default 30)
//   --ops N              fuzz: scenario budget instead of a time budget
//   --seed N             fuzz: first scenario seed (default 1; printed on
//                        failure so the run is reproducible)
//   --corpus DIR         fuzz: replay every .repro under DIR before fuzzing
//   --replay FILE        fuzz: replay one .repro and exit
//   --out FILE           fuzz: where to write a shrunk failure
//                        (default fuzz_failure.repro)
//   --emit-corpus DIR    fuzz: regenerate the seed corpus into DIR and exit
//   --query              fuzz: fuzz the query layer instead (pattern-query
//                        scenarios differentially checked against the
//                        tuple-at-a-time oracle; query::testing, corpus
//                        under tests/corpus/query/)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.hpp"
#include "grb/testing/differ.hpp"
#include "ingest/writer.hpp"
#include "lagraph/lagraph.hpp"
#include "query/query.hpp"
#include "query/testing/qtest.hpp"
#include "service/engine.hpp"
#include "service/telemetry.hpp"

namespace {

struct Options {
  std::string algorithm;
  std::string mtx;
  std::string ga_vertices;
  std::string ga_edges;
  std::string gen_kind = "kron";
  int gen_scale = 12;
  bool undirected = false;
  grb::Index source = 0;
  double delta = 2.0;
  std::uint32_t k = 3;
  int top = 10;
  std::string script;
  int threads = 2;
  long window_us = 200;
  std::uint32_t max_batch = 64;
  bool no_batch = false;
  std::string explain_op = "bfs";
  std::string query_text;  // explain query: the pattern source
  int mutations = 1024;
  bool json = false;
  bool burble = false;
  bool trace = false;
  std::string trace_out = "trace.json";
  std::uint32_t sample = 1;
  std::string prometheus;
  int telemetry_port = -1;      // serve: -1 = off, 0 = ephemeral
  double serve_seconds = 0;     // serve: keep serving after the script
  double slow_query_ms = 0;     // serve: slow-query threshold (0 = off)
  std::string slow_query_log;   // serve: slow-query JSONL sink
  std::string host = "127.0.0.1";  // top: telemetry host
  int port = -1;                   // top: telemetry port
  long interval_ms = 1000;         // top: poll interval
  int count = 5;                   // top: iterations (0 = forever)
};

int usage() {
  std::fprintf(
      stderr,
      "usage: lagraph_cli <bfs|pagerank|pagerank-dangling|sssp|tc|cc|bc|"
      "ktruss|lcc|cdlp|msbfs|stats|explain|serve|replay|mutate> [options]\n"
      "       lagraph_cli trace <algorithm> [options]\n"
      "       lagraph_cli fuzz [--query] [--seconds X|--ops N] [--seed N]\n"
      "                        [--corpus DIR] [--replay FILE] [--out FILE]\n"
      "                        [--emit-corpus DIR]\n"
      "  explain [bfs|mxv|vxm|mxm|ewise]  print execution plans\n"
      "  explain query 'PATTERN'  print optimized vs naive query plans\n"
      "  --mtx FILE | --graphalytics V E | --gen KIND SCALE\n"
      "  --undirected --source N --delta X --k N --top N\n"
      "  --json (stats) --burble\n"
      "  trace: --trace-out FILE --sample N\n"
      "  serve/replay: --script FILE --threads N --window-us U "
      "--max-batch B --no-batch --prometheus FILE\n"
      "  serve: --telemetry-port P (0 = ephemeral) --serve-seconds S\n"
      "         --slow-query-ms X --slow-query-log FILE\n"
      "  top: --host H --port P --interval-ms M --count N  (poll a running "
      "engine's /statusz)\n"
      "  mutate: --script FILE | --mutations N  (script lines: ins/ups/del "
      "SRC DST [W], publish)\n");
  return 2;
}

bool parse_args(int argc, char **argv, Options &opt) {
  if (argc < 2) return false;
  int first = 2;
  opt.algorithm = argv[1];
  if (opt.algorithm == "trace") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr, "trace: expected an algorithm\n");
      return false;
    }
    opt.trace = true;
    opt.algorithm = argv[2];
    first = 3;
  }
  const char *known[] = {"bfs",    "pagerank", "pagerank-dangling", "sssp",
                         "tc",     "cc",       "bc",                "ktruss",
                         "lcc",    "cdlp",     "msbfs",             "stats",
                         "explain", "serve",   "replay",            "mutate",
                         "top"};
  bool ok = false;
  for (const char *k : known) ok = ok || opt.algorithm == k;
  if (!ok) {
    std::fprintf(stderr, "unknown algorithm: %s\n", opt.algorithm.c_str());
    return false;
  }
  if (opt.algorithm == "explain" && argc > first && argv[first][0] != '-') {
    opt.explain_op = argv[first];
    ++first;
    // `explain query 'MATCH ...'` — the next argument is the pattern text.
    if (opt.explain_op == "query" && argc > first && argv[first][0] != '-') {
      opt.query_text = argv[first];
      ++first;
    }
  }
  for (int i = first; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](int count) { return i + count < argc; };
    if (a == "--mtx" && need(1)) {
      opt.mtx = argv[++i];
    } else if (a == "--graphalytics" && need(2)) {
      opt.ga_vertices = argv[++i];
      opt.ga_edges = argv[++i];
    } else if (a == "--gen" && need(2)) {
      opt.gen_kind = argv[++i];
      opt.gen_scale = std::atoi(argv[++i]);
    } else if (a == "--undirected") {
      opt.undirected = true;
    } else if (a == "--source" && need(1)) {
      opt.source = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--delta" && need(1)) {
      opt.delta = std::atof(argv[++i]);
    } else if (a == "--k" && need(1)) {
      opt.k = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (a == "--top" && need(1)) {
      opt.top = std::atoi(argv[++i]);
    } else if (a == "--script" && need(1)) {
      opt.script = argv[++i];
    } else if (a == "--threads" && need(1)) {
      opt.threads = std::atoi(argv[++i]);
    } else if (a == "--window-us" && need(1)) {
      opt.window_us = std::atol(argv[++i]);
    } else if (a == "--max-batch" && need(1)) {
      opt.max_batch = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (a == "--no-batch") {
      opt.no_batch = true;
    } else if (a == "--mutations" && need(1)) {
      opt.mutations = std::atoi(argv[++i]);
    } else if (a == "--json") {
      opt.json = true;
    } else if (a == "--burble") {
      opt.burble = true;
    } else if (a == "--trace-out" && need(1)) {
      opt.trace_out = argv[++i];
    } else if (a == "--sample" && need(1)) {
      opt.sample = static_cast<std::uint32_t>(
          std::max(1, std::atoi(argv[++i])));
    } else if (a == "--prometheus" && need(1)) {
      opt.prometheus = argv[++i];
    } else if (a == "--telemetry-port" && need(1)) {
      opt.telemetry_port = std::atoi(argv[++i]);
    } else if (a == "--serve-seconds" && need(1)) {
      opt.serve_seconds = std::atof(argv[++i]);
    } else if (a == "--slow-query-ms" && need(1)) {
      opt.slow_query_ms = std::atof(argv[++i]);
    } else if (a == "--slow-query-log" && need(1)) {
      opt.slow_query_log = argv[++i];
    } else if (a == "--host" && need(1)) {
      opt.host = argv[++i];
    } else if (a == "--port" && need(1)) {
      opt.port = std::atoi(argv[++i]);
    } else if (a == "--interval-ms" && need(1)) {
      opt.interval_ms = std::atol(argv[++i]);
    } else if (a == "--count" && need(1)) {
      opt.count = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

int load_graph(lagraph::Graph<double> &g, const Options &opt, char *msg) {
  if (!opt.mtx.empty()) {
    grb::Matrix<double> a(0, 0);
    int status = lagraph::mm_read(a, opt.mtx, msg);
    if (status < 0) return status;
    return lagraph::make_graph(g, std::move(a),
                               opt.undirected
                                   ? lagraph::Kind::adjacency_undirected
                                   : lagraph::Kind::adjacency_directed,
                               msg);
  }
  if (!opt.ga_vertices.empty()) {
    return lagraph::graphalytics_read(g, nullptr, opt.ga_vertices,
                                      opt.ga_edges, !opt.undirected, msg);
  }
  gen::EdgeList el;
  bool directed = !opt.undirected;
  if (opt.gen_kind == "kron") {
    el = gen::kronecker(opt.gen_scale, 8, 42);
    directed = false;
  } else if (opt.gen_kind == "urand") {
    el = gen::uniform_random(opt.gen_scale, 8, 42);
    directed = false;
  } else if (opt.gen_kind == "twitter") {
    el = gen::twitter_like(opt.gen_scale, 8, 42);
  } else if (opt.gen_kind == "web") {
    el = gen::web_like(opt.gen_scale, 8, 42);
  } else if (opt.gen_kind == "road") {
    grb::Index side = grb::Index{1} << (opt.gen_scale / 2);
    el = gen::road_grid(side, side, 42);
  } else {
    return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                    "unknown --gen kind");
  }
  gen::add_uniform_weights(el, 1, 255, 7);
  return lagraph::make_graph(g, gen::to_matrix<double>(el),
                             directed ? lagraph::Kind::adjacency_directed
                                      : lagraph::Kind::adjacency_undirected,
                             msg);
}

// One line of a serve/replay/mutate script: a query for the engine, a
// mutation for the ingest writer, or a forced epoch boundary.
struct ScriptItem {
  enum class What : std::uint8_t { query, mutation, publish };
  What what = What::query;
  lagraph::service::Request req;
  lagraph::ingest::Mutation mut;
};

// Parse a script (one command per line, '#' comments). With no --script,
// synthesize 64 BFS queries from hashed sources — the workload that shows
// batching off best. `allow_mutations` is off for replay (the deterministic
// baseline) and `allow_queries` off for the mutate command.
int parse_script(std::vector<ScriptItem> &items, const Options &opt,
                 grb::Index n, bool allow_queries, bool allow_mutations,
                 char *msg) {
  namespace svc = lagraph::service;
  namespace ing = lagraph::ingest;
  if (opt.script.empty()) {
    if (!allow_queries) return LAGRAPH_OK;  // mutate synthesizes its own
    for (int i = 0; i < 64; ++i) {
      ScriptItem it;
      it.req.kind = svc::QueryKind::bfs;
      it.req.source = static_cast<grb::Index>(i * 2654435761ull) % n;
      items.push_back(it);
    }
    return LAGRAPH_OK;
  }
  std::ifstream in(opt.script);
  if (!in) {
    return lagraph::detail::set_msg(msg, LAGRAPH_IO_ERROR,
                                    "cannot open --script file");
  }
  std::string line;
  while (std::getline(in, line)) {
    auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;
    ScriptItem it;
    it.req.delta = opt.delta;
    if (kind == "ins" || kind == "ups" || kind == "del") {
      if (!allow_mutations) {
        return lagraph::detail::set_msg(
            msg, LAGRAPH_INVALID_VALUE,
            "script: mutation lines are not allowed here (replay is the "
            "deterministic baseline; use serve or mutate)");
      }
      unsigned long long src, dst;
      if (!(ls >> src >> dst)) {
        return lagraph::detail::set_msg(
            msg, LAGRAPH_INVALID_VALUE,
            "script: ins/ups/del needs SRC DST [W]");
      }
      it.what = ScriptItem::What::mutation;
      it.mut.op = kind == "ins"   ? ing::MutationOp::insert
                  : kind == "ups" ? ing::MutationOp::upsert
                                  : ing::MutationOp::remove;
      it.mut.src = static_cast<grb::Index>(src) % n;
      it.mut.dst = static_cast<grb::Index>(dst) % n;
      double w;
      if (ls >> w) it.mut.weight = w;
    } else if (kind == "publish") {
      if (!allow_mutations) {
        return lagraph::detail::set_msg(
            msg, LAGRAPH_INVALID_VALUE,
            "script: publish is not allowed here");
      }
      it.what = ScriptItem::What::publish;
    } else if (!allow_queries) {
      return lagraph::detail::set_msg(
          msg, LAGRAPH_INVALID_VALUE,
          "script: mutate scripts take only ins/ups/del/publish lines");
    } else if (kind == "bfs" || kind == "sssp") {
      unsigned long long src;
      if (!(ls >> src)) {
        return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                        "script: bfs/sssp needs a source");
      }
      it.req.source = static_cast<grb::Index>(src) % n;
      it.req.kind = kind == "bfs" ? svc::QueryKind::bfs : svc::QueryKind::sssp;
      if (kind == "sssp") {
        double d;
        if (ls >> d) it.req.delta = d;
      }
    } else if (kind == "query") {
      std::string rest;
      std::getline(ls, rest);
      const auto start = rest.find_first_not_of(" \t");
      if (start == std::string::npos) {
        return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                        "script: query needs a pattern");
      }
      it.req.kind = svc::QueryKind::cypher;
      it.req.query = rest.substr(start);
    } else if (kind == "pagerank") {
      it.req.kind = svc::QueryKind::pagerank;
    } else if (kind == "tc") {
      it.req.kind = svc::QueryKind::tc;
    } else {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "script: unknown query kind");
    }
    items.push_back(it);
  }
  if (items.empty()) {
    return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                    "script: no commands");
  }
  return LAGRAPH_OK;
}

// The seeds the committed corpus (tests/corpus/) is regenerated from with
// --emit-corpus: a deterministic spread over the op space. Append-only — a
// corpus file, once committed, must keep meaning the same scenario.
// Fibonacci spread over the seed space, plus regression seeds: 672 produced
// the complemented-no-mask assign_vv scenario that exposed the missing
// mask_complement check in the vector-assign bitmap fast path.
constexpr std::uint64_t kCorpusSeeds[] = {
    1,  2,  3,  5,  8,  13,  21,  34,  55,  89,  144, 233,
    377, 610, 672, 987, 1597, 2584, 4181, 6765, 10946, 17711, 28657};

// Query-layer analogue of kCorpusSeeds: the committed tests/corpus/query/
// seed_*.repro files are regenerated from these with `fuzz --query
// --emit-corpus`. Same append-only rule. Two hand-reduced scenarios
// (shrunk_degree_hub — both-direction edge + degree predicate over an
// undirected hub; shrunk_pin_cycle — directed cycle with a pin + LIMIT)
// live alongside them and are not regenerated.
constexpr std::uint64_t kQueryCorpusSeeds[] = {1, 2, 7, 19, 42, 137, 1009};

// `fuzz --query`: the same emit/replay/corpus/fuzz flow, one layer up —
// pattern-query scenarios differentially checked against the
// tuple-at-a-time oracle across the full RunConfig sweep × {naive,
// optimized} compilation.
int run_query_fuzz(double seconds, std::uint64_t ops, std::uint64_t seed,
                   const std::string &corpus, const std::string &replay,
                   const std::string &out, const std::string &emit) {
  namespace qt = lagraph::query::testing;

  if (!emit.empty()) {
    for (std::uint64_t s : kQueryCorpusSeeds) {
      qt::QueryScenario sc = qt::generate(s);
      char name[64];
      std::snprintf(name, sizeof name, "/seed_%llu.repro",
                    static_cast<unsigned long long>(s));
      std::ofstream f(emit + name);
      if (!f) {
        std::fprintf(stderr, "fuzz: cannot write to %s\n", emit.c_str());
        return 2;
      }
      f << qt::serialize(sc);
    }
    std::printf("fuzz: wrote %zu query corpus files to %s\n",
                std::size(kQueryCorpusSeeds), emit.c_str());
    return 0;
  }

  if (!replay.empty()) {
    std::string err;
    auto mm = qt::replay_file(replay, &err);
    if (!err.empty()) {
      std::fprintf(stderr, "fuzz: %s\n", err.c_str());
      return 2;
    }
    if (mm) {
      std::fprintf(stderr, "%s\n", mm->to_string().c_str());
      return 1;
    }
    std::printf("fuzz: %s replays clean across %zu configs x 2 modes\n",
                replay.c_str(), grb::testing::sweep_configs().size());
    return 0;
  }

  if (!corpus.empty()) {
    auto outcome = qt::replay_corpus(corpus);
    std::printf(
        "fuzz: query corpus %s — %d files, %llu instances, %d failures\n",
        corpus.c_str(), outcome.files,
        static_cast<unsigned long long>(outcome.instances), outcome.failures);
    if (outcome.failures > 0) {
      std::fprintf(stderr, "%s", outcome.detail.c_str());
      return 1;
    }
  }

  if (seconds <= 0 && ops == 0) return 0;

  qt::QueryFuzzOptions fo;
  fo.seconds = ops > 0 ? 0 : seconds;
  fo.max_scenarios = ops;
  fo.seed = seed;
  auto rep = qt::fuzz(fo);
  std::printf("fuzz: %llu query scenarios, %llu instances "
              "(scenario x config x mode), seeds %llu..%llu\n",
              static_cast<unsigned long long>(rep.scenarios),
              static_cast<unsigned long long>(rep.instances),
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed + rep.scenarios - 1));
  std::printf("fuzz: optimized plans: %llu count chain, %llu enumerated\n",
              static_cast<unsigned long long>(rep.count_chain),
              static_cast<unsigned long long>(rep.scenarios -
                                              rep.count_chain));
  if (!rep.ok) {
    std::fprintf(stderr,
                 "fuzz: MISMATCH at seed %llu (rerun: lagraph_cli fuzz "
                 "--query --seed %llu --ops 1)\n%s\n",
                 static_cast<unsigned long long>(rep.failing_seed),
                 static_cast<unsigned long long>(rep.failing_seed),
                 rep.detail.c_str());
    std::ofstream f(out);
    if (f) {
      f << rep.repro;
      std::fprintf(stderr, "fuzz: shrunk repro written to %s\n", out.c_str());
    }
    return 1;
  }
  std::printf("fuzz: all query instances agree with the oracle\n");
  return 0;
}

int run_fuzz(int argc, char **argv) {
  namespace gt = grb::testing;
  bool query = false;
  double seconds = 30;
  std::uint64_t ops = 0;
  std::uint64_t seed = 1;
  std::string corpus, replay, out = "fuzz_failure.repro", emit;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto need = [&](int count) { return i + count < argc; };
    if (a == "--seconds" && need(1)) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--ops" && need(1)) {
      ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seed" && need(1)) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--corpus" && need(1)) {
      corpus = argv[++i];
    } else if (a == "--replay" && need(1)) {
      replay = argv[++i];
    } else if (a == "--out" && need(1)) {
      out = argv[++i];
    } else if (a == "--emit-corpus" && need(1)) {
      emit = argv[++i];
    } else if (a == "--query") {
      query = true;
    } else {
      std::fprintf(stderr, "fuzz: unknown or incomplete option: %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (query) return run_query_fuzz(seconds, ops, seed, corpus, replay, out, emit);

  if (!emit.empty()) {
    for (std::uint64_t s : kCorpusSeeds) {
      gt::Scenario sc = gt::generate(s);
      char name[64];
      std::snprintf(name, sizeof name, "/seed_%llu.repro",
                    static_cast<unsigned long long>(s));
      std::ofstream f(emit + name);
      if (!f) {
        std::fprintf(stderr, "fuzz: cannot write to %s\n", emit.c_str());
        return 2;
      }
      f << gt::serialize(sc);
    }
    std::printf("fuzz: wrote %zu corpus files to %s\n",
                std::size(kCorpusSeeds), emit.c_str());
    return 0;
  }

  if (!replay.empty()) {
    std::string err;
    auto mm = gt::replay_file(replay, &err);
    if (!err.empty()) {
      std::fprintf(stderr, "fuzz: %s\n", err.c_str());
      return 2;
    }
    if (mm) {
      std::fprintf(stderr, "%s\n", mm->to_string().c_str());
      return 1;
    }
    std::printf("fuzz: %s replays clean across %zu configs\n", replay.c_str(),
                gt::sweep_configs().size());
    return 0;
  }

  if (!corpus.empty()) {
    auto outcome = gt::replay_corpus(corpus);
    std::printf("fuzz: corpus %s — %d files, %llu instances, %d failures\n",
                corpus.c_str(), outcome.files,
                static_cast<unsigned long long>(outcome.instances),
                outcome.failures);
    if (outcome.failures > 0) {
      std::fprintf(stderr, "%s", outcome.detail.c_str());
      return 1;
    }
  }

  // --seconds 0 without an --ops budget means "corpus / replay only":
  // letting both budgets be unlimited would fuzz forever.
  if (seconds <= 0 && ops == 0) return 0;

  gt::FuzzOptions fo;
  fo.seconds = ops > 0 ? 0 : seconds;
  fo.max_scenarios = ops;
  fo.seed = seed;
  auto rep = gt::fuzz(fo);
  std::printf(
      "fuzz: %llu scenarios, %llu instances (op × config), seeds %llu..%llu\n",
      static_cast<unsigned long long>(rep.scenarios),
      static_cast<unsigned long long>(rep.instances),
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(seed + rep.scenarios - 1));
  if (!rep.ok) {
    std::fprintf(stderr, "fuzz: MISMATCH at seed %llu (rerun: lagraph_cli "
                         "fuzz --seed %llu --ops 1)\n%s\n",
                 static_cast<unsigned long long>(rep.failing_seed),
                 static_cast<unsigned long long>(rep.failing_seed),
                 rep.detail.c_str());
    std::ofstream f(out);
    if (f) {
      f << rep.repro;
      std::fprintf(stderr, "fuzz: shrunk repro written to %s\n", out.c_str());
    }
    return 1;
  }
  std::printf("fuzz: all instances agree with the oracle\n");
  return 0;
}

// Naive single-key probe into the /statusz JSON — enough for a status line
// without a JSON parser in the CLI. Finds the first `"key":` and reads the
// number after it; returns fallback when the key is absent.
double json_number(const std::string &body, const char *key, double fallback) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return fallback;
  return std::atof(body.c_str() + pos + needle.size());
}

// `lagraph_cli top`: poll a running engine's /statusz and print a one-line
// summary per sample — the curses-free `top` for a serving process.
int run_top(const Options &opt) {
  namespace svc = lagraph::service;
  if (opt.port < 0) {
    std::fprintf(stderr, "top: --port is required (the engine prints its "
                 "telemetry port at startup)\n");
    return 2;
  }
  std::printf("%-8s %9s %9s %6s %8s %7s %6s %9s\n", "uptime", "submitted",
              "completed", "queue", "inflight", "workers", "slow",
              "p50(ms)");
  for (int it = 0; opt.count == 0 || it < opt.count; ++it) {
    if (it > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    }
    const std::string body =
        svc::TelemetryServer::http_get(opt.host, opt.port, "/statusz");
    if (body.empty()) {
      std::fprintf(stderr, "top: no response from %s:%d\n", opt.host.c_str(),
                   opt.port);
      return 1;
    }
    // Best exec p50 across kinds: probe the first latency entry only (the
    // leading "exec_p50_ms" occurrence); absent until a query completes.
    std::printf("%-8.1f %9.0f %9.0f %6.0f %8.0f %7.0f %6.0f %9.3f\n",
                json_number(body, "uptime_s", 0),
                json_number(body, "submitted", 0),
                json_number(body, "completed", 0),
                json_number(body, "queue_depth", 0),
                json_number(body, "inflight", 0),
                json_number(body, "active_workers", 0),
                json_number(body, "slow_queries", 0),
                json_number(body, "exec_p50_ms", 0));
    std::fflush(stdout);
  }
  return 0;
}

void print_top(const grb::Vector<double> &v, int top, const char *what) {
  std::vector<std::pair<double, grb::Index>> entries;
  v.for_each([&](grb::Index i, const double &x) { entries.emplace_back(x, i); });
  auto k = std::min<std::size_t>(static_cast<std::size_t>(top), entries.size());
  std::partial_sort(entries.begin(),
                    entries.begin() + static_cast<std::ptrdiff_t>(k),
                    entries.end(), std::greater<>());
  std::printf("top %zu by %s:\n", k, what);
  for (std::size_t i = 0; i < k; ++i) {
    std::printf("  node %-10llu %.6g\n",
                static_cast<unsigned long long>(entries[i].second),
                entries[i].first);
  }
}

}  // namespace

#define LAGraph_CATCH(status)                                          \
  {                                                                    \
    std::fprintf(stderr, "error %d (%s): %s\n", status,                \
                 lagraph::status_name(status), msg);                   \
    return 1;                                                          \
  }

int main(int argc, char **argv) {
  if (argc >= 2 && std::strcmp(argv[1], "fuzz") == 0) {
    return run_fuzz(argc, argv);
  }
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();
  char msg[LAGRAPH_MSG_LEN];

  // `top` talks to an already-running engine over HTTP; no graph to load.
  if (opt.algorithm == "top") return run_top(opt);

  if (opt.trace) grb::config().trace_sample_every = opt.sample;
  if (opt.burble) grb::config().burble = true;
  // stats --json emits a machine-readable document: nothing else on stdout.
  const bool quiet = opt.algorithm == "stats" && opt.json;

  lagraph::Graph<double> g;
  LAGRAPH_TRY(load_graph(g, opt, msg));
  if (!quiet) {
    std::printf("graph: %llu nodes, %llu entries, %s\n",
                static_cast<unsigned long long>(g.nodes()),
                static_cast<unsigned long long>(g.entries()),
                lagraph::kind_name(g.kind));
  }

  lagraph::Timer timer;
  lagraph::tic(timer);

  if (opt.algorithm == "stats") {
    LAGRAPH_TRY(lagraph::property_row_degree(g, msg));
    LAGRAPH_TRY(lagraph::property_ndiag(g, msg));
    LAGRAPH_TRY(lagraph::property_symmetric_pattern(g, msg));
    double mean = 0;
    double median = 0;
    LAGRAPH_TRY(lagraph::sample_degree(&mean, &median, g, true, 1000, 1, msg));
    // Finalize the adjacency so the storage width reported below is the
    // published (compressed) one, not the load-time u64 staging width.
    g.a.finalize();
    const grb::IndexWidth iw = g.a.index_width();
    const std::size_t ib = g.a.index_bytes();
    const std::size_t saved = iw == grb::IndexWidth::u32 ? ib : 0;
    if (opt.json) {
      // Graph summary plus every grb::Stats counter, as one JSON object
      // (the counters reflect the property computations just run).
      std::printf("{\n  \"graph\": {\"nodes\": %llu, \"entries\": %llu, "
                  "\"kind\": \"%s\", \"ndiag\": %lld},\n",
                  static_cast<unsigned long long>(g.nodes()),
                  static_cast<unsigned long long>(g.entries()),
                  lagraph::kind_name(g.kind),
                  static_cast<long long>(g.ndiag));
      std::printf("  \"degree\": {\"mean\": %.6g, \"median\": %.6g},\n", mean,
                  median);
      std::printf("  \"index\": {\"width\": \"%s\", \"index_bytes\": %zu, "
                  "\"index_bytes_saved\": %zu},\n",
                  grb::index_width_name(iw), ib, saved);
      std::printf("  \"stats\": {");
      bool first_counter = true;
      grb::stats().snapshot().for_each(
          [&](const char *name, std::uint64_t v) {
            std::printf("%s\n    \"%s\": %llu", first_counter ? "" : ",",
                        name, static_cast<unsigned long long>(v));
            first_counter = false;
          });
      std::printf("\n  }\n}\n");
      return 0;
    }
    LAGRAPH_TRY(lagraph::display_graph(g, std::cout, msg));
    std::printf("degree: mean %.2f, median %.1f\n", mean, median);
    std::printf("index storage: %s (%zu index bytes, %zu saved vs u64)\n",
                grb::index_width_name(iw), ib, saved);
  } else if (opt.algorithm == "bfs") {
    grb::Vector<std::int64_t> level;
    grb::Vector<std::int64_t> parent;
    LAGRAPH_TRY(lagraph::bfs(&level, &parent, g, opt.source, msg));
    std::int64_t maxd = 0;
    level.for_each([&](grb::Index, const std::int64_t &l) {
      maxd = std::max(maxd, l);
    });
    std::printf("reached %llu nodes, max depth %lld\n",
                static_cast<unsigned long long>(level.nvals()),
                static_cast<long long>(maxd));
  } else if (opt.algorithm == "pagerank" ||
             opt.algorithm == "pagerank-dangling") {
    grb::Vector<double> r;
    int iters = 0;
    if (opt.algorithm == "pagerank") {
      LAGRAPH_TRY(lagraph::pagerank(&r, &iters, g, 0.85, 1e-7, 200, msg));
    } else {
      LAGRAPH_TRY(lagraph::pagerank_dangling_aware(&r, &iters, g, 0.85, 1e-7,
                                                   200, msg));
    }
    std::printf("converged in %d iterations\n", iters);
    print_top(r, opt.top, "rank");
  } else if (opt.algorithm == "sssp") {
    grb::Vector<double> dist;
    LAGRAPH_TRY(lagraph::sssp(&dist, g, opt.source, opt.delta, msg));
    std::printf("reached %llu nodes from %llu\n",
                static_cast<unsigned long long>(dist.nvals()),
                static_cast<unsigned long long>(opt.source));
  } else if (opt.algorithm == "tc") {
    std::uint64_t count = 0;
    LAGRAPH_TRY(lagraph::triangle_count(&count, g, msg));
    std::printf("%llu triangles\n", static_cast<unsigned long long>(count));
  } else if (opt.algorithm == "cc") {
    grb::Vector<grb::Index> comp;
    LAGRAPH_TRY(lagraph::connected_components(&comp, g, msg));
    std::vector<grb::Index> roots;
    comp.for_each([&](grb::Index v, const grb::Index &c) {
      if (v == c) roots.push_back(c);
    });
    std::printf("%zu components\n", roots.size());
  } else if (opt.algorithm == "bc") {
    std::vector<grb::Index> sources = {opt.source, (opt.source + 1) % g.nodes(),
                                       (opt.source + 2) % g.nodes(),
                                       (opt.source + 3) % g.nodes()};
    grb::Vector<double> c;
    LAGRAPH_TRY(lagraph::betweenness_centrality(&c, g, sources, msg));
    print_top(c, opt.top, "betweenness");
  } else if (opt.algorithm == "ktruss") {
    grb::Matrix<std::uint32_t> truss(0, 0);
    int iters = 0;
    LAGRAPH_TRY(lagraph::experimental::k_truss(&truss, &iters, g, opt.k, msg));
    std::printf("%u-truss: %llu surviving entries after %d rounds\n", opt.k,
                static_cast<unsigned long long>(truss.nvals()), iters);
  } else if (opt.algorithm == "lcc") {
    grb::Vector<double> lcc;
    LAGRAPH_TRY(
        lagraph::experimental::local_clustering_coefficient(&lcc, g, msg));
    print_top(lcc, opt.top, "clustering coefficient");
  } else if (opt.algorithm == "cdlp") {
    grb::Vector<grb::Index> labels;
    int rounds = 0;
    LAGRAPH_TRY(lagraph::experimental::cdlp(&labels, &rounds, g, 20, msg));
    std::vector<grb::Index> groups;
    labels.for_each([&](grb::Index, const grb::Index &l) {
      groups.push_back(l);
    });
    std::sort(groups.begin(), groups.end());
    groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
    std::printf("%zu communities after %d rounds\n", groups.size(), rounds);
  } else if (opt.algorithm == "msbfs") {
    std::vector<grb::Index> sources = {opt.source, (opt.source + 1) % g.nodes(),
                                       (opt.source + 2) % g.nodes(),
                                       (opt.source + 3) % g.nodes()};
    grb::Matrix<std::int64_t> level(0, 0);
    LAGRAPH_TRY(lagraph::experimental::msbfs_levels(&level, g, sources, msg));
    std::printf("batched BFS: %llu (source, node) pairs reached\n",
                static_cast<unsigned long long>(level.nvals()));
  } else if (opt.algorithm == "explain") {
    // Planner introspection: build the operation descriptors the named op
    // would hand to grb::plan::make_plan on this graph and print each plan.
    // BFS sweeps three representative traversal stages so the push→pull→push
    // trajectory of direction optimization is visible without running it.
    LAGRAPH_TRY(lagraph::property_at(g, msg));
    const grb::Index n = g.nodes();
    const grb::Index nnz = g.entries();
    auto base_desc = [&](grb::plan::OpKind op) {
      grb::plan::OpDesc od;
      od.op = op;
      od.out_size = n;
      od.a_rows = n;
      od.a_cols = n;
      od.a_nvals = nnz;
      od.a_width = g.a.index_width();
      od.b_width = od.a_width;
      return od;
    };
    auto show = [](const char *label, const grb::plan::OpDesc &od) {
      std::printf("-- %s --\n%s", label, grb::plan::make_plan(od).explain().c_str());
    };
    if (opt.explain_op == "bfs") {
      struct Stage {
        const char *label;
        grb::Index nq;
        grb::Index nvisited;
      };
      const Stage stages[] = {
          {"early level (frontier = source)", 1, 1},
          {"mid level (frontier ~ n/4)", std::max<grb::Index>(1, n / 4),
           std::max<grb::Index>(1, n / 3)},
          {"late level (tail, mostly visited)", std::max<grb::Index>(1, n / 64),
           static_cast<grb::Index>(0.9 * static_cast<double>(n))},
      };
      for (const auto &s : stages) {
        auto od = base_desc(grb::plan::OpKind::traversal);
        od.u_nvals = s.nq;
        od.pull_candidates = n - s.nvisited;
        od.masked = true;
        od.mask_complement = true;
        od.mask_structural = true;
        od.mask_nvals = s.nvisited;
        od.has_terminal = true;
        od.has_transpose = g.transpose_view() != nullptr;
        show(s.label, od);
      }
    } else if (opt.explain_op == "query") {
      // Multi-op query planning: compile the pattern both ways and print
      // the full plans side by side so the optimizer's edge reordering,
      // mask pushdown, and cached-property CSE are visible against the
      // textual-order baseline.
      if (opt.query_text.empty()) {
        std::fprintf(stderr,
                     "explain query: expected a pattern, e.g. "
                     "lagraph_cli explain query 'MATCH (a)-[]->(b) RETURN "
                     "COUNT(*)' --gen kron 8\n");
        return 2;
      }
      namespace q = lagraph::query;
      q::Query pq;
      LAGRAPH_TRY(q::parse(&pq, opt.query_text, msg));
      LAGRAPH_TRY(lagraph::property_row_degree(g, msg));
      if (g.kind == lagraph::Kind::adjacency_directed) {
        LAGRAPH_TRY(lagraph::property_col_degree(g, msg));
      }
      q::QueryPlan optimized, naive;
      LAGRAPH_TRY(q::compile(&optimized, pq, g, /*optimize=*/true, msg));
      LAGRAPH_TRY(q::compile(&naive, pq, g, /*optimize=*/false, msg));
      std::printf("-- optimized --\n%s", optimized.explain(pq).c_str());
      std::printf("-- naive (textual order, unmasked) --\n%s",
                  naive.explain(pq).c_str());
      std::printf("summary: %s | %s\n", optimized.explain_line().c_str(),
                  naive.explain_line().c_str());
    } else if (opt.explain_op == "mxv" || opt.explain_op == "vxm") {
      const bool is_mxv = opt.explain_op == "mxv";
      auto od = base_desc(is_mxv ? grb::plan::OpKind::mxv
                                 : grb::plan::OpKind::vxm);
      od.u_nvals = std::max<grb::Index>(1, n / 16);
      show("sparse operand (nnz(u) = n/16)", od);
      od.transpose_a = true;
      show("transposed descriptor (dot kernel)", od);
    } else if (opt.explain_op == "mxm") {
      auto od = base_desc(grb::plan::OpKind::mxm);
      od.b_nvals = nnz;
      od.transpose_b = true;
      od.masked = true;
      od.mask_nvals = nnz;
      od.mask_structural = true;
      show("masked A x B^T (triangle-count shape)", od);
      od.mask_complement = true;
      show("complement-masked A x B^T (BC forward shape)", od);
    } else if (opt.explain_op == "ewise") {
      auto od = base_desc(grb::plan::OpKind::ewise_add);
      od.u_nvals = std::max<grb::Index>(1, n / 8);
      od.v_nvals = n;
      od.u_format = 0;
      od.v_format = 1;
      show("eWiseAdd sparse + bitmap (SSSP relax shape)", od);
      od.op = grb::plan::OpKind::ewise_mult;
      show("eWiseMult sparse x bitmap (intersection)", od);
    } else {
      std::fprintf(stderr, "explain: unknown op '%s' "
                   "(expected bfs|mxv|vxm|mxm|ewise|query)\n",
                   opt.explain_op.c_str());
      return 2;
    }
    const grb::Stats &ps = grb::stats();
    std::printf("planner counters: %llu built, %llu overridden, "
                "%llu push / %llu pull, %llu format conversions\n",
                static_cast<unsigned long long>(ps.plans_built.load()),
                static_cast<unsigned long long>(ps.plans_overridden.load()),
                static_cast<unsigned long long>(ps.plan_push_decisions.load()),
                static_cast<unsigned long long>(ps.plan_pull_decisions.load()),
                static_cast<unsigned long long>(
                    ps.format_conversions.load()));
  } else if (opt.algorithm == "serve" || opt.algorithm == "replay") {
    namespace svc = lagraph::service;
    namespace ing = lagraph::ingest;
    std::vector<ScriptItem> items;
    LAGRAPH_TRY(parse_script(items, opt, g.nodes(), /*allow_queries=*/true,
                             /*allow_mutations=*/opt.algorithm == "serve",
                             msg));
    std::size_t n_queries = 0;
    std::size_t n_muts = 0;
    for (const auto &it : items) {
      if (it.what == ScriptItem::What::query) ++n_queries;
      if (it.what == ScriptItem::What::mutation) ++n_muts;
    }

    svc::EngineConfig cfg;
    cfg.threads = opt.threads;
    cfg.batch_window = std::chrono::microseconds(opt.window_us);
    cfg.max_batch = opt.max_batch;
    cfg.enable_batching = !opt.no_batch;
    cfg.telemetry_port = opt.telemetry_port;
    cfg.slow_query_ms = opt.slow_query_ms;
    cfg.slow_query_log = opt.slow_query_log;
    if (opt.algorithm == "replay") {
      // The one-query-at-a-time baseline: a single worker, no coalescing.
      cfg.threads = 1;
      cfg.enable_batching = false;
    }

    // A mutation-free script serves a frozen snapshot, exactly as before.
    // With mutations, the graph is handed to an ingest::Writer instead and
    // every published epoch is swapped into the engine under live traffic.
    svc::Engine engine(cfg);
    std::unique_ptr<ing::Writer> writer;
    const bool mutating = n_muts > 0;
    if (mutating) {
      writer = std::make_unique<ing::Writer>(
          std::move(g), ing::WriterConfig{},
          [&engine](const svc::SnapshotPtr &s) {
            engine.install_snapshot(s);
          });
    } else {
      svc::SnapshotPtr snap;
      LAGRAPH_TRY(svc::make_snapshot(&snap, std::move(g), msg));
      engine.install_snapshot(std::move(snap));
    }
    if (svc::TelemetryServer *tel = engine.telemetry()) {
      if (tel->port() < 0) {
        std::fprintf(stderr, "telemetry: failed to bind port %d\n",
                     opt.telemetry_port);
        return 1;
      }
      std::printf("telemetry: listening on 127.0.0.1:%d\n", tel->port());
      std::fflush(stdout);
      if (writer) {
        // The ingest gauges live a layer above service; splice them into
        // /metrics here where both libraries are visible.
        ing::Writer *w = writer.get();
        tel->set_extra_metrics([w] {
          char buf[512];
          std::snprintf(
              buf, sizeof(buf),
              "# HELP lagraph_ingest_pending Mutations queued but not yet "
              "staged.\n"
              "# TYPE lagraph_ingest_pending gauge\n"
              "lagraph_ingest_pending %zu\n"
              "# HELP lagraph_ingest_last_publish_seconds Wall time of the "
              "most recent epoch publication.\n"
              "# TYPE lagraph_ingest_last_publish_seconds gauge\n"
              "lagraph_ingest_last_publish_seconds %.9f\n",
              w->pending(), w->last_publish_seconds());
          return std::string(buf);
        });
      }
    }
    std::printf("%s: %zu queries, %zu mutations on snapshot %llu, "
                "%d worker(s), batching %s (window %ldus, max batch %u)\n",
                opt.algorithm.c_str(), n_queries, n_muts,
                static_cast<unsigned long long>(engine.snapshot()->id()),
                cfg.threads, cfg.enable_batching ? "on" : "off",
                static_cast<long>(cfg.batch_window.count()), cfg.max_batch);

    lagraph::Timer qt;
    lagraph::tic(qt);
    std::vector<std::future<svc::QueryResult>> futs;
    futs.reserve(n_queries);
    for (const auto &it : items) {
      switch (it.what) {
        case ScriptItem::What::query:
          futs.push_back(engine.submit(it.req));
          break;
        case ScriptItem::What::mutation: {
          int st = writer->submit(it.mut);
          if (st < 0) {
            std::snprintf(msg, LAGRAPH_MSG_LEN, "%s",
                          writer->error_message().c_str());
            LAGraph_CATCH(st);
          }
          break;
        }
        case ScriptItem::What::publish: {
          int st = writer->publish_now();
          if (st < 0) {
            std::snprintf(msg, LAGRAPH_MSG_LEN, "%s",
                          writer->error_message().c_str());
            LAGraph_CATCH(st);
          }
          break;
        }
      }
    }
    if (writer) writer->publish_now();  // make trailing edits visible
    if (opt.serve_seconds > 0) {
      // Keep the engine (and its telemetry endpoint) alive for scrapers —
      // the check.sh smoke test and `lagraph_cli top` attach here.
      std::printf("serving for %.1fs...\n", opt.serve_seconds);
      std::fflush(stdout);
      std::this_thread::sleep_for(
          std::chrono::duration<double>(opt.serve_seconds));
    }
    std::size_t ok = 0;
    std::size_t failed = 0;
    std::size_t batched = 0;
    int first_err = 0;
    std::string first_err_msg;
    for (auto &f : futs) {
      auto res = f.get();
      if (res.status < 0) {
        ++failed;
        if (first_err == 0) {
          first_err = res.status;
          first_err_msg = res.error;
        }
      } else {
        ++ok;
        if (res.batched) ++batched;
      }
    }
    double qs = lagraph::toc(qt);
    if (writer) {
      std::printf("ingest: %llu epochs published, final snapshot %llu "
                  "(%llu entries), %zu snapshots retained\n",
                  static_cast<unsigned long long>(writer->epoch()),
                  static_cast<unsigned long long>(writer->current()->id()),
                  static_cast<unsigned long long>(
                      writer->current()->entries()),
                  writer->registry().size());
      writer->stop();
    }
    engine.stop();

    auto c = engine.counters();
    std::printf("completed %zu (%zu batched), failed %zu in %.3fs "
                "=> %.1f queries/s\n",
                ok, batched, failed, qs,
                static_cast<double>(n_queries) / qs);
    std::printf("engine: %llu bfs sweeps, %llu batched bfs, "
                "%llu solo queries\n",
                static_cast<unsigned long long>(c.bfs_sweeps),
                static_cast<unsigned long long>(c.batched_bfs),
                static_cast<unsigned long long>(c.solo_queries));
    const grb::Stats &ks = grb::stats();
    std::printf("kernels: %llu push, %llu pull, %llu parallel regions, "
                "%llu work items stolen\n",
                static_cast<unsigned long long>(ks.push_calls.load()),
                static_cast<unsigned long long>(ks.pull_calls.load()),
                static_cast<unsigned long long>(ks.parallel_regions.load()),
                static_cast<unsigned long long>(ks.work_items_stolen.load()));
    // Per-query-kind latency breakdown (log2 histograms; see grb::trace).
    for (const auto &kl : engine.latency_summary()) {
      std::printf("latency %-9s n=%-6llu p50 %.3fms  p95 %.3fms  "
                  "p99 %.3fms  mean %.3fms\n",
                  svc::query_kind_name(kl.kind),
                  static_cast<unsigned long long>(kl.count), kl.p50_ms,
                  kl.p95_ms, kl.p99_ms, kl.mean_ms);
    }
    if (!opt.prometheus.empty()) {
      std::ofstream pf(opt.prometheus);
      if (!pf) {
        std::fprintf(stderr, "cannot open --prometheus file %s\n",
                     opt.prometheus.c_str());
        return 1;
      }
      pf << engine.prometheus_text();
      std::printf("prometheus exposition written to %s\n",
                  opt.prometheus.c_str());
    }
    if (failed != 0) {
      std::fprintf(stderr, "first error %d (%s): %s\n", first_err,
                   lagraph::status_name(first_err), first_err_msg.c_str());
    }
  } else if (opt.algorithm == "mutate") {
    namespace ing = lagraph::ingest;
    std::vector<ScriptItem> items;
    LAGRAPH_TRY(parse_script(items, opt, g.nodes(), /*allow_queries=*/false,
                             /*allow_mutations=*/true, msg));
    const grb::Index n = g.nodes();
    const auto before = grb::stats().snapshot();
    ing::Writer writer(std::move(g));

    auto try_ingest = [&](int st) {
      if (st >= 0) return true;
      std::snprintf(msg, LAGRAPH_MSG_LEN, "%s", writer.error_message().c_str());
      return false;
    };
    if (items.empty()) {
      // No script: a deterministic synthetic stream of --mutations mixed
      // edits, submitted in batches so several epochs publish on the
      // writer's own cadence.
      std::uint64_t x = 0x9e3779b97f4a7c15ULL;
      auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
      };
      std::vector<ing::Mutation> batch;
      for (int q = 0; q < opt.mutations; ++q) {
        ing::Mutation m;
        const auto k = rnd() % 10;
        m.op = k < 5   ? ing::MutationOp::insert
               : k < 8 ? ing::MutationOp::upsert
                       : ing::MutationOp::remove;
        m.src = static_cast<grb::Index>(rnd() % n);
        m.dst = static_cast<grb::Index>(rnd() % n);
        m.weight = 1.0 + static_cast<double>(rnd() % 8);
        batch.push_back(m);
        if (batch.size() == 256) {
          if (!try_ingest(writer.submit_batch(batch)))
            LAGraph_CATCH(LAGRAPH_INGEST_STOPPED);
          batch.clear();
        }
      }
      if (!batch.empty() && !try_ingest(writer.submit_batch(batch))) {
        LAGraph_CATCH(LAGRAPH_INGEST_STOPPED);
      }
    } else {
      for (const auto &it : items) {
        const int st = it.what == ScriptItem::What::publish
                           ? writer.publish_now()
                           : writer.submit(it.mut);
        if (!try_ingest(st)) LAGraph_CATCH(st);
      }
    }
    {
      const int st = writer.publish_now();
      if (!try_ingest(st)) LAGraph_CATCH(st);
    }

    auto snap = writer.current();
    std::printf("mutate: %llu epochs published, final snapshot %llu: "
                "%llu nodes, %llu entries\n",
                static_cast<unsigned long long>(writer.epoch()),
                static_cast<unsigned long long>(snap->id()),
                static_cast<unsigned long long>(snap->nodes()),
                static_cast<unsigned long long>(snap->entries()));
    // The published graph must be fully consistent — a cheap end-to-end
    // check of the incremental property maintenance.
    const int cg = lagraph::check_graph(snap->graph(), msg);
    writer.stop();
    const auto after = grb::stats().snapshot();
    std::printf("ingest counters: %llu edges, %llu batches, %llu epochs, "
                "%llu snapshots reclaimed\n",
                static_cast<unsigned long long>(after.edges_ingested -
                                                before.edges_ingested),
                static_cast<unsigned long long>(after.ingest_batches -
                                                before.ingest_batches),
                static_cast<unsigned long long>(after.epochs_published -
                                                before.epochs_published),
                static_cast<unsigned long long>(after.snapshots_reclaimed -
                                                before.snapshots_reclaimed));
    if (cg < 0) LAGraph_CATCH(cg);
    std::printf("check_graph: OK\n");
  } else {
    return usage();
  }

  std::printf("elapsed: %.3fs\n", lagraph::toc(timer));

  if (opt.trace) {
    const auto spans = grb::trace::collect();
    {
      std::ofstream out(opt.trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot open --trace-out file %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      grb::trace::write_chrome_trace(out, spans);
    }
    std::printf("trace: %zu spans -> %s (open in Perfetto / "
                "chrome://tracing)\n",
                spans.size(), opt.trace_out.c_str());
    // Per-op latency percentiles from the global histograms.
    for (int i = 0; i < grb::trace::kNumSpanKinds; ++i) {
      const auto k = static_cast<grb::trace::SpanKind>(i);
      const auto &h = grb::trace::op_histogram(k);
      if (h.count() == 0) continue;
      std::printf("op %-11s n=%-7llu p50 %9.1fus  p95 %9.1fus  "
                  "p99 %9.1fus\n",
                  grb::trace::name(k),
                  static_cast<unsigned long long>(h.count()),
                  h.percentile_ns(50) / 1e3, h.percentile_ns(95) / 1e3,
                  h.percentile_ns(99) / 1e3);
    }
    const auto report = grb::trace::calibrate(spans);
    std::printf("%s", report.text().c_str());
  }
  return 0;
}

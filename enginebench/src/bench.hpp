// enginebench — closed-loop benchmark of the serving stack.
//
// Four client threads drive one service::Engine (and, on the write
// workload, one ingest::Writer) through a request sequence generated from
// the seed before timing starts. Every run reports the end-to-end metrics
// a caller of the engine sees; a traced run adds per-layer metrics timed
// around calls into each module's public functions. README.md beside this
// file explains the workloads, the metrics and the noise findings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gapbs/graph.hpp"
#include "gen/generators.hpp"
#include "ingest/ingest.hpp"

namespace enginebench {

using grb::Index;

// -- fixed settings, recorded with every result ------------------------------

inline constexpr int kClients = 4;        // closed-loop clients (nproc here)
inline constexpr int kKernelThreads = 1;  // grb::Config::num_threads
inline constexpr int kSetupBuilds = 21;   // setup_s is their median
inline constexpr std::size_t kWriteBatch = 64;  // mutations per write batch
inline constexpr double kDeltaLo = 32, kDeltaHi = 64;        // SSSP Δ range
inline constexpr double kDampingLo = 0.80, kDampingHi = 0.90;  // PageRank
inline constexpr std::uint64_t kGraphSeed = 0x6a5eedULL;  // graphs never vary
/// Seed kept out of all tuning, for checking a later claim on fresh inputs.
inline constexpr std::uint64_t kHeldOutSeed = 900001;

// -- workloads ---------------------------------------------------------------

/// Request kinds. rows / count2 / count3 are the three cypher shapes.
enum class Op : std::uint8_t { bfs, sssp, pagerank, rows, count2, count3, write };
inline constexpr int kNumOps = 7;
const char *op_name(Op op);
inline bool is_cypher(Op op) {
  return op == Op::rows || op == Op::count2 || op == Op::count3;
}

struct Workload {
  const char *name;
  gen::GapGraphId graph;  // kron (undirected) or road (directed)
  int scale;
  double share[kNumOps];  // share of requests by count, indexed by Op
  /// Requests per second the mix sustains on the reference box; with
  /// --seconds it fixes how many requests a run serves.
  double rate;
};

const Workload *find_workload(const std::string &name);
const std::vector<Workload> &workloads();

// -- graph inputs ------------------------------------------------------------

/// Edge (src, dst) → weight: the graph content checks compare against.
using EdgeMap = std::map<std::pair<Index, Index>, double>;

struct Inputs {
  gen::EdgeList edges;  // as generated; set-up builds the graph from this
  bool directed = false;
  EdgeMap unique;       // duplicates collapsed, first weight kept (as built)
  gapbs::Graph ref;     // CSR over `unique`: reference and proxy source
};

Inputs make_inputs(const Workload &w, int scale);
gapbs::Graph reference_graph(const EdgeMap &edges, Index n, bool directed);

// -- the request sequence ----------------------------------------------------

struct Item {
  Op op = Op::bfs;
  Index node = 0;          // bfs/sssp source or cypher pin
  double param = 0;        // sssp Δ or pagerank damping
  std::uint32_t batch = 0;  // write: index into Sequence::batches
};

struct Sequence {
  std::size_t warmup = 0;  // items[0, warmup) are served but not measured
  std::vector<Item> items;
  std::vector<std::vector<lagraph::ingest::Mutation>> batches;
  /// Exact text form (17 significant digits), for the determinism test.
  [[nodiscard]] std::string serialize() const;
};

/// Deterministic in (workload, graph, seed, sizes). Kinds take their exact
/// share of each part; every node and parameter is drawn from one stratum
/// of its range (nodes ranked by a cost proxy), then the part is shuffled,
/// so each seed gets the same spread of light and heavy requests while any
/// node, hubs included, can be drawn.
Sequence make_sequence(const Workload &w, const Inputs &in, std::uint64_t seed,
                       std::size_t warmup, std::size_t count);

std::string cypher_text(Op op, Index pin);

// -- statistics --------------------------------------------------------------

/// Exact nearest-rank percentile (p in (0, 1]) of the values; NaN if empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// How many of n samples rank above the p-th percentile. A percentile is
/// reported only where this is at least 10.
std::size_t samples_beyond(std::size_t n, double p);

// -- a run -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string spans_path;     // traced run: Chrome-trace JSON written here
  int scale = 0;              // 0 = the workload's; tests shrink the graph
  std::size_t requests = 0;   // 0 = rate × seconds; tests shrink the run
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;        // end-to-end, or per-layer when traced
  std::vector<Metric> summary;        // per-kind figures, printed for people
  std::vector<std::string> problems;  // check mismatches, broken invariants
  std::string record;                 // JSON object describing the run
};

Result run(const Options &opt);

}  // namespace enginebench

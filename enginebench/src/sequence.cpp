// Workloads, graph inputs, the seeded request sequence, and percentiles.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <random>

#include "bench.hpp"

namespace enginebench {

namespace {

// Shares by count: bfs, sssp, pagerank, rows, count2, count3, write.
const std::vector<Workload> kWorkloads = {
    // Many short requests on a power-law graph: hand-off, BFS batching,
    // query compilation and DFS enumeration. No SSSP, PageRank or writes.
    {"kron_read", gen::GapGraphId::kron, 14, {0.60, 0, 0, 0.19, 0.19, 0.02, 0},
     650},
    // Thousands of cheap iterations per request on a high-diameter grid:
    // per-iteration overhead in lagraph and grb. No cypher, no writes.
    {"road_read", gen::GapGraphId::road, 13, {0.40, 0.40, 0.20, 0, 0, 0, 0},
     115},
    // kron_read's mix plus write batches on the same sequence: ingest and
    // epoch publication beside reads on a changing snapshot.
    {"kron_write", gen::GapGraphId::kron, 14,
     {0.57, 0, 0, 0.1805, 0.1805, 0.019, 0.05}, 560},
};

struct Rng {
  std::mt19937_64 gen;
  explicit Rng(std::uint64_t seed) : gen(seed) {}
  double u01() { return static_cast<double>(gen() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return gen() % n; }
  template <typename T>
  void shuffle(std::vector<T> &v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

// Cost proxies per op: how much work a request on node v does. Only the
// ranking matters; it spreads each op's draws evenly from light to heavy.
std::vector<double> proxy(Op op, const gapbs::Graph &g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> out(n, 0), in(n, 0), w(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    out[v] = static_cast<double>(g.out_degree(static_cast<gapbs::NodeId>(v)));
    in[v] = static_cast<double>(g.in_degree(static_cast<gapbs::NodeId>(v)));
  }
  if (op == Op::bfs || op == Op::sssp) return out;
  // rows walks forward from its pin; the count chains walk back from theirs.
  const bool forward = op == Op::rows;
  const std::vector<double> &deg = forward ? out : in;
  std::vector<double> prev = deg;
  const int hops = op == Op::count3 ? 2 : 1;
  for (int h = 0; h < hops; ++h) {
    for (std::size_t v = 0; v < n; ++v) {
      const auto nv = static_cast<gapbs::NodeId>(v);
      double s = 0;
      for (auto u : forward ? g.out_neigh(nv) : g.in_neigh(nv)) s += prev[u];
      w[v] = s;
    }
    std::swap(prev, w);
  }
  return prev;
}

// One node from each of m equal strata of the proxy ranking, shuffled.
std::vector<Index> stratified_nodes(Rng &rng, const std::vector<double> &cost,
                                    std::size_t m) {
  std::vector<Index> rank(cost.size());
  std::iota(rank.begin(), rank.end(), Index{0});
  std::stable_sort(rank.begin(), rank.end(),
                   [&](Index a, Index b) { return cost[a] < cost[b]; });
  const std::size_t n = rank.size();
  std::vector<Index> picks;
  picks.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t lo = k * n / m;
    const std::size_t hi = std::max(lo + 1, (k + 1) * n / m);
    picks.push_back(rank[lo + rng.below(hi - lo)]);
  }
  rng.shuffle(picks);
  return picks;
}

// One value from each of m equal strata of [lo, hi), shuffled.
std::vector<double> stratified_values(Rng &rng, double lo, double hi,
                                      std::size_t m) {
  std::vector<double> v;
  v.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    v.push_back(lo + (static_cast<double>(k) + rng.u01()) /
                         static_cast<double>(m) * (hi - lo));
  }
  rng.shuffle(v);
  return v;
}

std::vector<lagraph::ingest::Mutation> make_batch(
    Rng &rng, Index n, const std::vector<std::pair<Index, Index>> &edges) {
  namespace ing = lagraph::ingest;
  std::vector<ing::Mutation> b(kWriteBatch);
  for (auto &m : b) {
    const double u = rng.u01();
    m.weight = static_cast<double>(1 + rng.below(255));
    if (u < 0.4) {  // a new edge between two random nodes
      m.op = ing::MutationOp::insert;
      m.src = rng.below(n);
      m.dst = rng.below(n);
      if (m.dst == m.src) m.dst = (m.dst + 1) % n;
    } else {  // re-weight or remove an edge of the original graph
      m.op = u < 0.7 ? ing::MutationOp::upsert : ing::MutationOp::remove;
      const auto &e = edges[rng.below(edges.size())];
      m.src = e.first;
      m.dst = e.second;
    }
  }
  return b;
}

}  // namespace

const char *op_name(Op op) {
  static const char *const kNames[kNumOps] = {
      "bfs", "sssp", "pagerank", "rows", "count2", "count3", "write"};
  return kNames[static_cast<int>(op)];
}

const std::vector<Workload> &workloads() { return kWorkloads; }

const Workload *find_workload(const std::string &name) {
  for (const auto &w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

gapbs::Graph reference_graph(const EdgeMap &edges, Index n, bool directed) {
  gen::EdgeList el;
  el.n = n;
  el.src.reserve(edges.size());
  el.dst.reserve(edges.size());
  el.weight.reserve(edges.size());
  for (const auto &[e, wt] : edges) {
    el.push(e.first, e.second);
    el.weight.push_back(wt);
  }
  return gapbs::Graph::build(el, directed);
}

Inputs make_inputs(const Workload &w, int scale) {
  gen::GapGraph gg = gen::make_gap_graph({w.graph, scale, 8, kGraphSeed});
  Inputs in;
  in.directed = gg.directed;
  in.edges = std::move(gg.edges);
  for (std::size_t e = 0; e < in.edges.size(); ++e) {
    in.unique.emplace(std::make_pair(in.edges.src[e], in.edges.dst[e]),
                      in.edges.weight[e]);
  }
  in.ref = reference_graph(in.unique, in.edges.n, in.directed);
  return in;
}

std::string cypher_text(Op op, Index pin) {
  const auto p = static_cast<unsigned long long>(pin);
  char text[128];
  switch (op) {
    case Op::rows:
      std::snprintf(text, sizeof text,
                    "MATCH (a)-[]->(b)-[]->(c) WHERE a = %llu AND a <> c "
                    "RETURN c LIMIT 100",
                    p);
      break;
    case Op::count2:
      std::snprintf(text, sizeof text,
                    "MATCH (a)-[]->(b)-[]->(c) WHERE c = %llu RETURN COUNT(*)",
                    p);
      break;
    default:
      std::snprintf(text, sizeof text,
                    "MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE d = %llu "
                    "RETURN COUNT(*)",
                    p);
      break;
  }
  return text;
}

Sequence make_sequence(const Workload &w, const Inputs &in, std::uint64_t seed,
                       std::size_t warmup, std::size_t count) {
  Rng rng(seed);
  const Index n = in.edges.n;
  std::vector<std::vector<double>> cost(kNumOps);
  std::vector<std::pair<Index, Index>> edges;
  if (w.share[static_cast<int>(Op::write)] > 0) {
    edges.reserve(in.unique.size());
    for (const auto &kv : in.unique) edges.push_back(kv.first);
  }
  Sequence seq;
  seq.warmup = warmup;
  // Warm-up and measured part are stratified separately, so the measured
  // part alone covers every stratum.
  for (const std::size_t part : {warmup, count}) {
    std::vector<Item> items;
    items.reserve(part);
    double cum = 0;
    std::size_t done = 0;
    for (int k = 0; k < kNumOps; ++k) {
      cum += w.share[k];
      const auto upto = std::min(
          part, static_cast<std::size_t>(std::llround(cum * part)));
      const std::size_t m = upto > done ? upto - done : 0;
      done += m;
      if (m == 0) continue;
      const Op op = static_cast<Op>(k);
      std::vector<Index> nodes(m, 0);
      std::vector<double> params(m, 0);
      if (op == Op::sssp) params = stratified_values(rng, kDeltaLo, kDeltaHi, m);
      if (op == Op::pagerank) {
        params = stratified_values(rng, kDampingLo, kDampingHi, m);
      }
      if (op != Op::pagerank && op != Op::write) {
        if (cost[k].empty()) cost[k] = proxy(op, in.ref);
        nodes = stratified_nodes(rng, cost[k], m);
      }
      for (std::size_t i = 0; i < m; ++i) {
        Item it{op, nodes[i], params[i], 0};
        if (op == Op::write) {
          it.batch = static_cast<std::uint32_t>(seq.batches.size());
          seq.batches.push_back(make_batch(rng, n, edges));
        }
        items.push_back(it);
      }
    }
    rng.shuffle(items);
    seq.items.insert(seq.items.end(), items.begin(), items.end());
  }
  return seq;
}

std::string Sequence::serialize() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "warmup %zu items %zu batches %zu\n",
                warmup, items.size(), batches.size());
  out += line;
  for (const Item &it : items) {
    std::snprintf(line, sizeof line, "%s %" PRIu64 " %.17g %u\n",
                  op_name(it.op), static_cast<std::uint64_t>(it.node),
                  it.param, it.batch);
    out += line;
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (const auto &m : batches[b]) {
      std::snprintf(line, sizeof line, "b%zu %d %" PRIu64 " %" PRIu64 " %.17g\n",
                    b, static_cast<int>(m.op), static_cast<std::uint64_t>(m.src),
                    static_cast<std::uint64_t>(m.dst), m.weight);
      out += line;
    }
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double r = std::ceil(p * static_cast<double>(v.size()) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(1.0, r));
  const std::size_t k = std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::size_t samples_beyond(std::size_t n, double p) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  return n - static_cast<std::size_t>(std::max(0.0, r));
}

}  // namespace enginebench

// SSSP tests: delta-stepping distances against Dijkstra, over several delta
// values, weight ranges, and generated graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "common/test_graphs.hpp"

using grb::Index;

namespace {

void expect_distances(const testutil::TestGraph &t,
                      const grb::Vector<double> &dist, gapbs::NodeId src) {
  auto want = gapbs::dijkstra(t.ref, src);
  for (Index v = 0; v < static_cast<Index>(want.size()); ++v) {
    auto got = dist.get(v);
    if (std::isinf(want[v])) {
      EXPECT_FALSE(got.has_value()) << "unreachable " << v << " has distance";
    } else {
      ASSERT_TRUE(got.has_value()) << "reachable " << v << " missing";
      EXPECT_DOUBLE_EQ(*got, want[v]) << "node " << v;
    }
  }
}

}  // namespace

TEST(Sssp, TinyDirected) {
  auto t = testutil::tiny_directed();
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::sssp(&dist, t.lg, 0, 3.0, msg), LAGRAPH_OK) << msg;
  expect_distances(t, dist, 0);
}

TEST(Sssp, DeltaSweepGivesSameAnswer) {
  auto t = testutil::random_directed(7, 6, 9);
  char msg[LAGRAPH_MSG_LEN];
  grb::Vector<double> ref;
  ASSERT_EQ(lagraph::sssp(&ref, t.lg, 2, 2.0, msg), LAGRAPH_OK);
  for (double delta : {1.0, 4.0, 16.0, 64.0, 1000.0}) {
    grb::Vector<double> dist;
    ASSERT_EQ(lagraph::sssp(&dist, t.lg, 2, delta, msg), LAGRAPH_OK)
        << "delta=" << delta;
    EXPECT_EQ(dist, ref) << "delta=" << delta;
  }
  expect_distances(t, ref, 2);
}

TEST(Sssp, MatchesDijkstraOnGeneratedGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto t = testutil::random_undirected(6, 5, seed);
    grb::Vector<double> dist;
    char msg[LAGRAPH_MSG_LEN];
    ASSERT_EQ(lagraph::sssp(&dist, t.lg, 0, 3.0, msg), LAGRAPH_OK);
    expect_distances(t, dist, 0);
  }
}

TEST(Sssp, RoadGridWithLargeWeights) {
  auto el = gen::road_grid(12, 12, 5);
  gen::add_uniform_weights(el, 1, 255, 77);
  auto t = testutil::TestGraph::from_edges("road", std::move(el), true);
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::sssp(&dist, t.lg, 0, 0.0, msg), LAGRAPH_OK);  // auto Δ
  expect_distances(t, dist, 0);
}

TEST(Sssp, DisconnectedTargetsHaveNoEntry) {
  auto t = testutil::two_components();
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::sssp(&dist, t.lg, 0, 2.0, msg), LAGRAPH_OK);
  EXPECT_FALSE(dist.has(4));
  EXPECT_FALSE(dist.has(6));
  EXPECT_EQ(dist.get(0), 0.0);
}

TEST(Sssp, SourceItselfIsZero) {
  auto t = testutil::tiny_undirected();
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::sssp(&dist, t.lg, 5, 2.0, msg), LAGRAPH_OK);
  EXPECT_EQ(dist.get(5), 0.0);
}

TEST(Sssp, InvalidArgumentsFail) {
  auto t = testutil::tiny_directed();
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::advanced::sssp_delta_stepping(&dist, t.lg, 0, -1.0, msg),
            LAGRAPH_INVALID_VALUE);
  EXPECT_EQ(lagraph::advanced::sssp_delta_stepping(&dist, t.lg, 999, 2.0, msg),
            LAGRAPH_INVALID_VALUE);
  EXPECT_EQ(lagraph::advanced::sssp_delta_stepping<double>(nullptr, t.lg, 0,
                                                           2.0, msg),
            LAGRAPH_NULL_POINTER);
}

TEST(Sssp, HeavyEdgesOnly) {
  // All weights above delta: every relaxation goes through the heavy phase.
  gen::EdgeList el;
  el.n = 4;
  el.push(0, 1);
  el.push(1, 2);
  el.push(2, 3);
  el.weight = {10.0, 20.0, 30.0};
  auto t = testutil::TestGraph::from_edges("heavy", std::move(el), true);
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::sssp(&dist, t.lg, 0, 2.0, msg), LAGRAPH_OK);
  EXPECT_EQ(dist.get(1), 10.0);
  EXPECT_EQ(dist.get(2), 30.0);
  EXPECT_EQ(dist.get(3), 60.0);
}

TEST(Sssp, ShortcutViaLongerHopCount) {
  // A two-hop path that is cheaper than the direct edge.
  gen::EdgeList el;
  el.n = 3;
  el.push(0, 2);
  el.push(0, 1);
  el.push(1, 2);
  el.weight = {10.0, 1.0, 1.0};
  auto t = testutil::TestGraph::from_edges("short", std::move(el), true);
  grb::Vector<double> dist;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::sssp(&dist, t.lg, 0, 5.0, msg), LAGRAPH_OK);
  EXPECT_EQ(dist.get(2), 2.0);
}

// Correctness sweep: every (graph, Δ, source) case matches Dijkstra exactly.
// Each graph gets one isolated node and a three-node component appended, so
// both a source with no out-edges and a source in a small component exist.
// Weights are integers in [1, 255] (GAP's convention); Δ runs from below the
// minimum weight (every edge heavy) to the maximum (every edge light),
// through a non-integer Δ, GAP's Δ = 2 and one from the engine benchmark's
// [32, 64).
namespace {

struct SsspSweep {
  bool road;  // a road grid, else a Kronecker graph
  double delta;
};

void PrintTo(const SsspSweep &p, std::ostream *os) {
  *os << (p.road ? "road" : "kron") << " delta=" << p.delta;
}

testutil::TestGraph sweep_graph(bool road) {
  auto el = road ? gen::road_grid(40, 40, 3) : gen::kronecker(10, 8, 5);
  const Index iso = el.n;
  el.n += 4;  // iso, then the component iso+1 ↔ iso+2 ↔ iso+3
  for (Index k = iso + 1; k < iso + 3; ++k) {
    el.push(k, k + 1);
    el.push(k + 1, k);
  }
  gen::add_uniform_weights(el, 1, 255, 21);
  return testutil::TestGraph::from_edges(road ? "road" : "kron",
                                         std::move(el), road);
}

const testutil::TestGraph &cached_sweep_graph(bool road) {
  static const auto kRoad = sweep_graph(true);
  static const auto kKron = sweep_graph(false);
  return road ? kRoad : kKron;
}

class SsspParam : public ::testing::TestWithParam<SsspSweep> {};

}  // namespace

TEST_P(SsspParam, MatchesDijkstra) {
  const auto p = GetParam();
  const auto &t = cached_sweep_graph(p.road);
  const Index n = t.lg.nodes();
  Index hub = 0;
  for (Index v = 1; v < n; ++v) {
    if (t.ref.out_degree(static_cast<gapbs::NodeId>(v)) >
        t.ref.out_degree(static_cast<gapbs::NodeId>(hub))) {
      hub = v;
    }
  }
  const Index iso = n - 4;
  ASSERT_EQ(t.ref.out_degree(static_cast<gapbs::NodeId>(iso)), 0);
  char msg[LAGRAPH_MSG_LEN];
  for (Index src : {hub, iso, iso + 2}) {
    grb::Vector<double> dist;
    ASSERT_EQ(lagraph::advanced::sssp_delta_stepping(&dist, t.lg, src,
                                                     p.delta, msg),
              LAGRAPH_OK)
        << msg;
    SCOPED_TRACE("source " + std::to_string(src));
    expect_distances(t, dist, static_cast<gapbs::NodeId>(src));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspParam,
    ::testing::Values(SsspSweep{true, 0.5}, SsspSweep{true, 2.0},
                      SsspSweep{true, 7.5}, SsspSweep{true, 48.0},
                      SsspSweep{true, 255.0}, SsspSweep{false, 0.5},
                      SsspSweep{false, 2.0}, SsspSweep{false, 7.5},
                      SsspSweep{false, 48.0}, SsspSweep{false, 255.0}),
    [](const ::testing::TestParamInfo<SsspSweep> &info) {
      std::string name = ::testing::PrintToString(info.param);
      std::replace_if(
          name.begin(), name.end(),
          [](unsigned char ch) { return !std::isalnum(ch); }, '_');
      return name;
    });

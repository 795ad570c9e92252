// BFS tests: levels against the reference BFS, parents validated as a BFS
// tree (any valid parent is acceptable — the paper's benign race), push vs
// direction-optimizing agreement, Basic vs Advanced mode behaviour,
// parameterized over generated graphs.
#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <vector>

#include "common/test_graphs.hpp"

using grb::Index;
using testutil::TestGraph;

namespace {

void check_levels(const TestGraph &t, const grb::Vector<std::int64_t> &level,
                  gapbs::NodeId src) {
  auto want = gapbs::bfs_levels_reference(t.ref, src);
  for (Index v = 0; v < static_cast<Index>(want.size()); ++v) {
    auto got = level.get(v);
    if (want[v] < 0) {
      EXPECT_FALSE(got.has_value()) << t.name << " node " << v;
    } else {
      ASSERT_TRUE(got.has_value()) << t.name << " node " << v;
      EXPECT_EQ(*got, want[v]) << t.name << " node " << v;
    }
  }
}

}  // namespace

TEST(Bfs, TinyDirectedLevelsAndParents) {
  auto t = testutil::tiny_directed();
  grb::Vector<std::int64_t> level;
  grb::Vector<std::int64_t> parent;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::bfs(&level, &parent, t.lg, 0, msg), LAGRAPH_OK) << msg;
  check_levels(t, level, 0);
  testutil::expect_valid_bfs_parents(t, parent, 0);
}

TEST(Bfs, TinyUndirected) {
  auto t = testutil::tiny_undirected();
  grb::Vector<std::int64_t> level;
  grb::Vector<std::int64_t> parent;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::bfs(&level, &parent, t.lg, 3, msg), LAGRAPH_OK) << msg;
  check_levels(t, level, 3);
  testutil::expect_valid_bfs_parents(t, parent, 3);
}

TEST(Bfs, DisconnectedNodesHaveNoEntries) {
  auto t = testutil::two_components();
  grb::Vector<std::int64_t> level;
  grb::Vector<std::int64_t> parent;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::bfs(&level, &parent, t.lg, 0, msg), LAGRAPH_OK);
  EXPECT_EQ(level.nvals(), 4u);  // the 4-cycle only
  EXPECT_FALSE(parent.has(5));
}

TEST(Bfs, LevelOnlyAndParentOnly) {
  auto t = testutil::tiny_directed();
  grb::Vector<std::int64_t> level;
  grb::Vector<std::int64_t> parent;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::bfs(&level, nullptr, t.lg, 0, msg), LAGRAPH_OK);
  check_levels(t, level, 0);
  ASSERT_EQ(lagraph::bfs(nullptr, &parent, t.lg, 0, msg), LAGRAPH_OK);
  testutil::expect_valid_bfs_parents(t, parent, 0);
}

TEST(Bfs, NoOutputsIsAnError) {
  auto t = testutil::tiny_directed();
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_LT(lagraph::bfs<double>(nullptr, nullptr, t.lg, 0, msg), 0);
}

TEST(Bfs, SourceOutOfRangeFails) {
  auto t = testutil::tiny_directed();
  grb::Vector<std::int64_t> level;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_LT(lagraph::bfs(&level, nullptr, t.lg, 100, msg), 0);
}

TEST(Bfs, AdvancedDoRequiresCachedTranspose) {
  // Advanced mode never computes properties behind the caller's back
  // (paper §II-B): a directed graph without AT must error.
  auto t = testutil::tiny_directed();
  grb::Vector<std::int64_t> level;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_FALSE(t.lg.at.has_value());
  EXPECT_EQ(lagraph::advanced::bfs_do(&level, nullptr, t.lg, 0, msg),
            LAGRAPH_PROPERTY_MISSING);
  // and it must NOT have cached anything as a side effect
  EXPECT_FALSE(t.lg.at.has_value());
  // Basic mode computes the property and succeeds
  ASSERT_EQ(lagraph::bfs(&level, nullptr, t.lg, 0, msg), LAGRAPH_OK);
  EXPECT_TRUE(t.lg.at.has_value());
}

TEST(Bfs, PushOnlyMatchesDirectionOptimizing) {
  auto t = testutil::random_kron(8, 8, 7);
  char msg[LAGRAPH_MSG_LEN];
  lagraph::property_at(t.lg, msg);
  grb::Vector<std::int64_t> level_push;
  grb::Vector<std::int64_t> level_do;
  ASSERT_EQ(lagraph::advanced::bfs_push(&level_push, nullptr, t.lg, 1, msg),
            LAGRAPH_OK);
  ASSERT_EQ(lagraph::advanced::bfs_do(&level_do, nullptr, t.lg, 1, msg),
            LAGRAPH_OK);
  EXPECT_EQ(level_push, level_do);
}

TEST(Bfs, CalibrationRanksExactlyTheLevelSpans) {
  // Only a BFS level's direction is weighed by a cost model; the mxv/vxm
  // products inside it run a direction fixed by their descriptor. So the
  // calibration report over a traced direction-optimizing BFS ranks exactly
  // its bfs_level spans and none of the kernel spans they contain.
  auto t = testutil::random_kron(8, 8, 7);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::property_at(t.lg, msg), LAGRAPH_OK) << msg;
  grb::config().trace_sample_every = 1;
  grb::trace::reset();
  grb::Vector<std::int64_t> level;
  const int rc = lagraph::advanced::bfs_do(&level, nullptr, t.lg, 1, msg);
  const std::vector<grb::trace::Span> spans = grb::trace::collect();
  grb::config().trace_sample_every = 0;
  grb::trace::reset();
  ASSERT_EQ(rc, LAGRAPH_OK) << msg;

  std::size_t levels = 0;
  for (const grb::trace::Span &s : spans) {
    if (s.kind == grb::trace::SpanKind::bfs_level) ++levels;
  }
  ASSERT_GT(levels, 1u);
  ASSERT_GT(spans.size(), levels);  // the kernels inside the levels recorded
  const auto report = grb::trace::calibrate(spans, spans.size());
  EXPECT_EQ(report.samples, levels);
  ASSERT_EQ(report.worst.size(), levels);
  for (const auto &row : report.worst) {
    EXPECT_EQ(row.kind, grb::trace::SpanKind::bfs_level);
  }
}

TEST(Bfs, HubFrontierIsPricedByItsEdgesAndPulled) {
  // Source 0 links to 8 hubs, and every hub to each of 200 leaves. The
  // second level's frontier is the 8 hubs: 8 nodes holding 1,608 edges,
  // where 8 · d̄ would count 123. Priced by its edges, a push costs 1,608
  // scans, while a pull probes the 200 unvisited leaves and finds a hub at
  // each one's first in-edge. Both BFS kernels must pull that level.
  constexpr Index kHubs = 8;
  constexpr Index kLeaves = 200;
  gen::EdgeList el;
  el.n = 1 + kHubs + kLeaves;
  for (Index h = 1; h <= kHubs; ++h) {
    el.push(0, h);
    for (Index l = 0; l < kLeaves; ++l) el.push(h, 1 + kHubs + l);
  }
  gen::symmetrize(el);
  auto t = TestGraph::from_edges("hubs", std::move(el), false);
  const std::uint64_t hub_edges = kHubs * (1 + kLeaves);

  char msg[LAGRAPH_MSG_LEN];
  grb::config().trace_sample_every = 1;
  grb::trace::reset();
  grb::Vector<std::int64_t> level;
  const int rc_do = lagraph::advanced::bfs_do(&level, nullptr, t.lg, 0, msg);
  grb::Matrix<std::int64_t> levels;
  const Index src[] = {0};
  const int rc_ms = lagraph::experimental::msbfs_levels(&levels, t.lg, src,
                                                        msg);
  const std::vector<grb::trace::Span> spans = grb::trace::collect();
  grb::config().trace_sample_every = 0;
  grb::trace::reset();
  ASSERT_EQ(rc_do, LAGRAPH_OK) << msg;
  ASSERT_EQ(rc_ms, LAGRAPH_OK) << msg;
  check_levels(t, level, 0);

  const auto push = static_cast<std::uint8_t>(grb::plan::Direction::push);
  const auto pull = static_cast<std::uint8_t>(grb::plan::Direction::pull);
  for (const auto kind :
       {grb::trace::SpanKind::bfs_level, grb::trace::SpanKind::msbfs_level}) {
    SCOPED_TRACE(grb::trace::name(kind));
    std::map<std::int64_t, grb::trace::Span> by_iter;
    for (const auto &s : spans) {
      if (s.kind == kind) by_iter[s.iter] = s;
    }
    ASSERT_TRUE(by_iter.count(1) && by_iter.count(2));
    EXPECT_EQ(by_iter[1].in_nvals, 1u);
    EXPECT_EQ(by_iter[1].extra, static_cast<double>(kHubs));
    EXPECT_EQ(by_iter[1].direction, push);
    EXPECT_EQ(by_iter[2].in_nvals, kHubs);
    EXPECT_EQ(by_iter[2].extra, static_cast<double>(hub_edges));
    EXPECT_EQ(by_iter[2].direction, pull);
  }
}

// gtest prints a parameter that has no PrintTo as its raw bytes, and the
// ctest name carries that dump. Spelling the tail padding out as a zeroed
// member keeps every byte, and so the name, the same from build to build.
struct BfsSweep {
  int scale;
  int ef;
  std::uint64_t seed;
  bool directed;
  char zero_padding[7] = {};
};
static_assert(std::has_unique_object_representations_v<BfsSweep>);

class BfsParam : public ::testing::TestWithParam<BfsSweep> {};

TEST_P(BfsParam, MatchesReferenceOnGeneratedGraphs) {
  auto p = GetParam();
  auto t = p.directed ? testutil::random_directed(p.scale, p.ef, p.seed)
                      : testutil::random_undirected(p.scale, p.ef, p.seed);
  char msg[LAGRAPH_MSG_LEN];
  for (Index src : {Index(0), Index(3), Index((1u << p.scale) - 1)}) {
    grb::Vector<std::int64_t> level;
    grb::Vector<std::int64_t> parent;
    ASSERT_EQ(lagraph::bfs(&level, &parent, t.lg, src, msg), LAGRAPH_OK)
        << msg;
    auto want = gapbs::bfs_levels_reference(t.ref, static_cast<gapbs::NodeId>(src));
    for (Index v = 0; v < t.lg.nodes(); ++v) {
      auto got = level.get(v);
      if (want[v] < 0) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, want[v]);
      }
    }
    testutil::expect_valid_bfs_parents(t, parent, static_cast<gapbs::NodeId>(src));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsParam,
    ::testing::Values(BfsSweep{5, 4, 1, false}, BfsSweep{6, 8, 2, false},
                      BfsSweep{7, 4, 3, true}, BfsSweep{8, 6, 4, true},
                      BfsSweep{8, 16, 5, false}),
    [](const ::testing::TestParamInfo<BfsSweep> &info) {
      return "s" + std::to_string(info.param.scale) + "_e" +
             std::to_string(info.param.ef) + "_seed" +
             std::to_string(info.param.seed) +
             (info.param.directed ? "_dir" : "_und");
    });

TEST(Bfs, HighDiameterRoadGraph) {
  auto t = testutil::small_road(24, 11);
  char msg[LAGRAPH_MSG_LEN];
  grb::Vector<std::int64_t> level;
  ASSERT_EQ(lagraph::bfs(&level, nullptr, t.lg, 0, msg), LAGRAPH_OK);
  auto want = gapbs::bfs_levels_reference(t.ref, 0);
  std::int64_t maxlvl = 0;
  for (auto l : want) maxlvl = std::max(maxlvl, l);
  EXPECT_GE(maxlvl, 24);  // the grid really is high-diameter
  for (Index v = 0; v < t.lg.nodes(); ++v) {
    auto got = level.get(v);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want[v]);
  }
}

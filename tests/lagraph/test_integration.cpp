// End-to-end integration test: the full user pipeline on one graph —
// generate, write to Matrix Market, read back, wrap in a Graph, cache
// properties, run all six GAP kernels plus the experimental tier, and
// validate every result against the direct oracles. This is the "someone
// actually adopts the library" test.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "common/test_graphs.hpp"

using grb::Index;

TEST(Integration, FullPipelineOnKronGraph) {
  char msg[LAGRAPH_MSG_LEN];

  // 1. generate and persist
  auto el = gen::kronecker(7, 8, 0xfeedULL);
  gen::add_uniform_weights(el, 1, 9, 3);
  auto original = gen::to_matrix<double>(el);
  std::stringstream file;
  ASSERT_EQ(lagraph::mm_write(original, file, msg), LAGRAPH_OK);

  // 2. load and build the Graph
  grb::Matrix<double> loaded(0, 0);
  ASSERT_EQ(lagraph::mm_read(loaded, file, msg), LAGRAPH_OK);
  ASSERT_EQ(loaded, original);
  lagraph::Graph<double> g;
  ASSERT_EQ(lagraph::make_graph(g, std::move(loaded),
                                lagraph::Kind::adjacency_undirected, msg),
            LAGRAPH_OK);

  // 3. cache everything an Advanced-mode user would
  ASSERT_EQ(lagraph::property_at(g, msg), LAGRAPH_OK);
  ASSERT_EQ(lagraph::property_row_degree(g, msg), LAGRAPH_OK);
  ASSERT_EQ(lagraph::property_col_degree(g, msg), LAGRAPH_OK);
  ASSERT_EQ(lagraph::property_symmetric_pattern(g, msg), LAGRAPH_OK);
  ASSERT_EQ(lagraph::property_ndiag(g, msg), LAGRAPH_OK);
  ASSERT_EQ(lagraph::check_graph(g, msg), LAGRAPH_OK) << msg;

  // reference views
  auto ref = gapbs::Graph::build(el, /*directed=*/false);

  // 4. the six kernels, each validated
  {  // BFS
    grb::Vector<std::int64_t> level;
    ASSERT_EQ(lagraph::advanced::bfs_do(&level, nullptr, g, 1, msg),
              LAGRAPH_OK);
    auto want = gapbs::bfs_levels_reference(ref, 1);
    for (Index v = 0; v < g.nodes(); ++v) {
      if (want[v] < 0) {
        EXPECT_FALSE(level.has(v));
      } else {
        EXPECT_EQ(level.get(v).value_or(-1), want[v]);
      }
    }
  }
  {  // PR
    grb::Vector<double> r;
    ASSERT_EQ(lagraph::advanced::pagerank_gap(&r, nullptr, g, 0.85, 1e-9,
                                              300, msg),
              LAGRAPH_OK);
    auto want = gapbs::pagerank(ref, 0.85, 1e-9, 300);
    for (Index v = 0; v < g.nodes(); ++v) {
      EXPECT_NEAR(r.get(v).value_or(0), want[v], 1e-6);
    }
  }
  {  // CC
    grb::Vector<Index> comp;
    ASSERT_EQ(lagraph::connected_components(&comp, g, msg), LAGRAPH_OK);
    auto want = gapbs::cc_reference(ref);
    std::map<gapbs::NodeId, Index> m1;
    for (Index v = 0; v < g.nodes(); ++v) {
      auto [it, ins] = m1.try_emplace(want[v], *comp.get(v));
      EXPECT_EQ(it->second, *comp.get(v));
    }
  }
  {  // SSSP
    grb::Vector<double> dist;
    ASSERT_EQ(lagraph::advanced::sssp_delta_stepping(&dist, g, 1, 3.0, msg),
              LAGRAPH_OK);
    auto want = gapbs::dijkstra(ref, 1);
    for (Index v = 0; v < g.nodes(); ++v) {
      if (std::isinf(want[v])) {
        EXPECT_FALSE(dist.has(v));
      } else {
        EXPECT_DOUBLE_EQ(dist.get(v).value_or(-1), want[v]);
      }
    }
  }
  {  // TC
    std::uint64_t count = 0;
    ASSERT_EQ(lagraph::triangle_count(&count, g, msg), LAGRAPH_OK);
    EXPECT_EQ(count, gapbs::tc_reference(ref));
  }
  {  // BC
    const grb::Index srcs[] = {1, 2};
    grb::Vector<double> c;
    ASSERT_EQ(lagraph::betweenness_centrality(&c, g, srcs, msg), LAGRAPH_OK);
    const gapbs::NodeId rsrcs[] = {1, 2};
    auto want = gapbs::bc_reference(ref, rsrcs);
    for (Index v = 0; v < g.nodes(); ++v) {
      EXPECT_NEAR(c.get(v).value_or(0), want[v], 1e-6);
    }
  }

  // 5. experimental tier smoke pass on the same graph
  {
    grb::Vector<grb::Bool> mis;
    ASSERT_EQ(lagraph::experimental::maximal_independent_set(&mis, g, 9, msg),
              LAGRAPH_OK);
    EXPECT_GT(mis.nvals(), 0u);
    grb::Vector<std::int64_t> core;
    ASSERT_EQ(lagraph::experimental::coreness(&core, g, msg), LAGRAPH_OK);
    grb::Vector<double> lcc;
    ASSERT_EQ(lagraph::experimental::local_clustering_coefficient(&lcc, g,
                                                                  msg),
              LAGRAPH_OK);
    grb::Vector<double> bf;
    ASSERT_EQ(lagraph::experimental::bellman_ford(&bf, g, 1, msg),
              LAGRAPH_OK);
  }

  // 6. the cache must have stayed consistent throughout
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_OK) << msg;
}

TEST(Integration, FormatsSurviveTheWholePipeline) {
  // Run BFS + CC with the adjacency matrix in each matrix format; answers
  // must be identical. CC runs first: BFS reads A's row pointer to price
  // its levels, so it leaves A in CSR.
  auto t = testutil::random_kron(7, 6, 5);
  char msg[LAGRAPH_MSG_LEN];
  grb::Vector<std::int64_t> want_level;
  ASSERT_EQ(lagraph::bfs(&want_level, nullptr, t.lg, 0, msg), LAGRAPH_OK);
  grb::Vector<Index> want_comp;
  ASSERT_EQ(lagraph::connected_components(&want_comp, t.lg, msg), LAGRAPH_OK);

  for (int fmt = 0; fmt < 3; ++fmt) {
    auto g2 = t.lg;  // copy
    lagraph::delete_properties(g2, msg);
    if (fmt == 0) {
      g2.a.to_hypersparse();
    } else if (fmt == 1) {
      g2.a.to_bitmap();
    }  // fmt 2: leave CSR
    grb::Vector<Index> comp;
    ASSERT_EQ(lagraph::connected_components(&comp, g2, msg), LAGRAPH_OK);
    EXPECT_EQ(comp, want_comp) << "fmt " << fmt;
    grb::Vector<std::int64_t> level;
    ASSERT_EQ(lagraph::bfs(&level, nullptr, g2, 0, msg), LAGRAPH_OK)
        << "fmt " << fmt;
    EXPECT_EQ(level, want_level) << "fmt " << fmt;
  }
}

TEST(Integration, BinaryFormatFasterPathRoundTrip) {
  // The BinRead/BinWrite pair on a real generated graph, through the Graph.
  auto t = testutil::random_directed(8, 8, 2);
  char msg[LAGRAPH_MSG_LEN];
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_EQ(lagraph::bin_write(t.lg.a, blob, msg), LAGRAPH_OK);
  grb::Matrix<double> back(0, 0);
  ASSERT_EQ(lagraph::bin_read(back, blob, msg), LAGRAPH_OK);
  EXPECT_EQ(back, t.lg.a);
}

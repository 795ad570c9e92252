// Tests for the Graph object: move construction (LAGraph_New), cached
// properties, consistency checking, and display (paper §II-A, §V).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/test_graphs.hpp"

using grb::Index;
using lagraph::BooleanProperty;
using lagraph::Graph;
using lagraph::Kind;

namespace {

grb::Matrix<double> small() {
  grb::Matrix<double> m(4, 4);
  m.set_element(0, 1, 1.0);
  m.set_element(1, 2, 1.0);
  m.set_element(2, 0, 1.0);
  m.set_element(2, 3, 1.0);
  return m;
}

}  // namespace

TEST(Graph, MakeGraphMovesMatrix) {
  auto m = small();
  EXPECT_EQ(m.nvals(), 4u);
  Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::make_graph(g, std::move(m), Kind::adjacency_directed,
                                msg),
            LAGRAPH_OK);
  // The paper's move semantics: "Following this call, M will be NULL."
  EXPECT_EQ(m.nrows(), 0u);
  EXPECT_EQ(g.a.nvals(), 4u);
  EXPECT_EQ(g.kind, Kind::adjacency_directed);
  // properties all unknown initially
  EXPECT_FALSE(g.at.has_value());
  EXPECT_FALSE(g.row_degree.has_value());
  EXPECT_EQ(g.a_pattern_is_symmetric, BooleanProperty::unknown);
  EXPECT_EQ(g.ndiag, -1);
}

TEST(Graph, MakeGraphRejectsRectangular) {
  grb::Matrix<double> m(2, 3);
  Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::make_graph(g, std::move(m), Kind::adjacency_directed,
                                msg),
            LAGRAPH_INVALID_VALUE);
  EXPECT_GT(std::strlen(msg), 0u);
}

TEST(Graph, PropertyAtComputesTranspose) {
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::property_at(g, msg), LAGRAPH_OK);
  ASSERT_TRUE(g.at.has_value());
  EXPECT_TRUE(g.at->has(1, 0));
  EXPECT_TRUE(g.at->has(3, 2));
  // idempotent
  ASSERT_EQ(lagraph::property_at(g, msg), LAGRAPH_OK);
}

TEST(Graph, PropertyAtUndirectedIsNoOp) {
  auto t = testutil::tiny_undirected();
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::property_at(t.lg, msg), LAGRAPH_OK);
  EXPECT_FALSE(t.lg.at.has_value());
  // transpose_view falls back to A itself
  EXPECT_EQ(t.lg.transpose_view(), &t.lg.a);
}

TEST(Graph, PropertyDegrees) {
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::property_row_degree(g, msg), LAGRAPH_OK);
  ASSERT_EQ(lagraph::property_col_degree(g, msg), LAGRAPH_OK);
  EXPECT_EQ(g.row_degree->get(2), 2);
  EXPECT_EQ(g.row_degree->get(0), 1);
  EXPECT_FALSE(g.row_degree->has(3));  // no out-edges: no entry
  EXPECT_EQ(g.col_degree->get(0), 1);
  EXPECT_EQ(g.col_degree->get(3), 1);
}

TEST(Graph, PropertySymmetricPattern) {
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::property_symmetric_pattern(g, msg), LAGRAPH_OK);
  EXPECT_EQ(g.a_pattern_is_symmetric, BooleanProperty::no);

  auto t = testutil::tiny_undirected();
  ASSERT_EQ(lagraph::property_symmetric_pattern(t.lg, msg), LAGRAPH_OK);
  EXPECT_EQ(t.lg.a_pattern_is_symmetric, BooleanProperty::yes);
}

TEST(Graph, PropertyNDiag) {
  auto m = small();
  m.set_element(1, 1, 5.0);
  Graph<double> g(std::move(m), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::property_ndiag(g, msg), LAGRAPH_OK);
  EXPECT_EQ(g.ndiag, 1);
}

TEST(Graph, DeleteProperties) {
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  lagraph::property_at(g, msg);
  lagraph::property_row_degree(g, msg);
  lagraph::property_ndiag(g, msg);
  ASSERT_EQ(lagraph::delete_properties(g, msg), LAGRAPH_OK);
  EXPECT_FALSE(g.at.has_value());
  EXPECT_FALSE(g.row_degree.has_value());
  EXPECT_EQ(g.ndiag, -1);
  EXPECT_EQ(g.a_pattern_is_symmetric, BooleanProperty::unknown);
}

TEST(Graph, CheckGraphAcceptsConsistent) {
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  lagraph::property_at(g, msg);
  lagraph::property_row_degree(g, msg);
  lagraph::property_ndiag(g, msg);
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_OK);
}

TEST(Graph, CheckGraphDetectsStaleTranspose) {
  // The Graph is not opaque: user code can corrupt it; check_graph is the
  // safety net (paper §V).
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  lagraph::property_at(g, msg);
  g.a.set_element(3, 0, 7.0);  // modify A without updating AT
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_INVALID_GRAPH);
  EXPECT_NE(std::string(msg).find("transpose"), std::string::npos);
}

TEST(Graph, CheckGraphDetectsWrongDegrees) {
  Graph<double> g(small(), Kind::adjacency_directed);
  char msg[LAGRAPH_MSG_LEN];
  lagraph::property_row_degree(g, msg);
  g.row_degree->set_element(0, 99);
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_INVALID_GRAPH);
}

TEST(Graph, CheckGraphDetectsBogusSymmetryFlag) {
  Graph<double> g(small(), Kind::adjacency_directed);
  g.a_pattern_is_symmetric = BooleanProperty::yes;  // a lie
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_INVALID_GRAPH);
}

TEST(Graph, CheckGraphDetectsWrongNDiag) {
  Graph<double> g(small(), Kind::adjacency_directed);
  g.ndiag = 3;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_INVALID_GRAPH);
}

TEST(Graph, DisplayGraphPrints) {
  Graph<double> g(small(), Kind::adjacency_directed);
  std::ostringstream os;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::display_graph(g, os, msg), LAGRAPH_OK);
  EXPECT_NE(os.str().find("directed"), std::string::npos);
  EXPECT_NE(os.str().find("4 nodes"), std::string::npos);
}

TEST(Graph, UserCanSetPropertiesDirectly) {
  // Non-opaque design: an algorithm that computes AT may store it itself.
  Graph<double> g(small(), Kind::adjacency_directed);
  g.at = grb::transposed(g.a);
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_OK);
  EXPECT_EQ(g.transpose_view(), &*g.at);
}

namespace {

/// One storage setting for the property test below: the index width build
/// is pinned to (auto picks u32 for these sizes, while a fresh transpose
/// stays u64) and whether A is then converted to hypersparse.
struct Storage {
  grb::ForceIndexWidth width;
  bool hypersparse;
  grb::IndexWidth expect;
};

}  // namespace

TEST(Graph, CachedPropertiesMatchTheirDefinitions) {
  using Edges = std::vector<std::pair<Index, Index>>;
  // n = 5, so rows 3 and 4 are empty unless a case fills them.
  const Edges cases[] = {
      // directed 3-cycle: A and Aᵀ have equal row pointers, but the
      // pattern is not symmetric
      {{0, 1}, {1, 2}, {2, 0}},
      // symmetric, with self-loops and empty rows
      {{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 3}},
      // the 3-cycle plus self-loops and a dangling edge
      {{0, 1}, {1, 1}, {1, 2}, {2, 0}, {4, 4}, {4, 0}},
      // no entries at all
      {},
  };
  const Storage storages[] = {
      {grb::ForceIndexWidth::auto_select, false, grb::IndexWidth::u32},
      {grb::ForceIndexWidth::u32, false, grb::IndexWidth::u32},
      {grb::ForceIndexWidth::u64, false, grb::IndexWidth::u64},
      {grb::ForceIndexWidth::auto_select, true, grb::IndexWidth::u32},
  };
  constexpr Index n = 5;
  char msg[LAGRAPH_MSG_LEN];
  for (const Edges &edges : cases) {
    std::set<std::pair<Index, Index>> pattern(edges.begin(), edges.end());
    std::vector<std::int64_t> deg(n, 0);
    std::int64_t ndiag = 0;
    bool sym = true;
    for (const auto &[i, j] : edges) {
      ++deg[i];
      ndiag += i == j ? 1 : 0;
      sym = sym && pattern.count({j, i}) != 0;
    }
    for (const Storage &st : storages) {
      SCOPED_TRACE(::testing::Message()
                   << edges.size() << " edges, width "
                   << grb::force_index_width_name(st.width)
                   << (st.hypersparse ? ", hypersparse" : ""));
      const grb::ForceIndexWidth saved = grb::config().force_index_width;
      grb::config().force_index_width = st.width;
      std::vector<Index> ri, ci;
      std::vector<double> vv;
      for (const auto &[i, j] : edges) {
        ri.push_back(i);
        ci.push_back(j);
        vv.push_back(1.0);
      }
      grb::Matrix<double> a(n, n);
      a.build(ri, ci, vv);
      if (st.hypersparse) a.to_hypersparse();
      Graph<double> g(std::move(a), Kind::adjacency_directed);
      ASSERT_EQ(g.a.index_width(), st.expect);
      ASSERT_EQ(lagraph::property_row_degree(g, msg), LAGRAPH_OK) << msg;
      ASSERT_EQ(lagraph::property_symmetric_pattern(g, msg), LAGRAPH_OK)
          << msg;
      ASSERT_EQ(lagraph::property_ndiag(g, msg), LAGRAPH_OK) << msg;
      grb::config().force_index_width = saved;

      for (Index i = 0; i < n; ++i) {
        // An empty row has no entry (PageRank's dangling-node leak).
        const auto d = g.row_degree->get(i);
        EXPECT_EQ(d.has_value(), deg[i] != 0) << "row " << i;
        if (d) {
          EXPECT_EQ(*d, deg[i]) << "row " << i;
        }
      }
      EXPECT_EQ(g.a_pattern_is_symmetric,
                sym ? BooleanProperty::yes : BooleanProperty::no);
      EXPECT_EQ(g.ndiag, ndiag);
      EXPECT_EQ(lagraph::check_graph(g, msg), LAGRAPH_OK) << msg;
    }
  }
}

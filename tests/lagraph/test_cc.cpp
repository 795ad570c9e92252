// Connected components (FastSV) tests: labels validated against the BFS
// flood-fill oracle — component partition must match exactly, and FastSV's
// labels are the minimum node id of each component.
#include <gtest/gtest.h>

#include <map>

#include "common/test_graphs.hpp"

using grb::Index;

namespace {

void expect_same_partition(const testutil::TestGraph &t,
                           const grb::Vector<Index> &comp) {
  auto want = gapbs::cc_reference(t.ref);
  ASSERT_EQ(comp.size(), want.size());
  ASSERT_EQ(comp.nvals(), comp.size());  // every node labelled
  // same partition: label equality must match reference label equality
  std::map<gapbs::NodeId, Index> ref_to_got;
  for (Index v = 0; v < comp.size(); ++v) {
    Index got = *comp.get(v);
    auto [it, inserted] = ref_to_got.try_emplace(want[v], got);
    EXPECT_EQ(it->second, got) << "node " << v << " split from its component";
  }
  // distinct reference components must have distinct labels
  std::map<Index, gapbs::NodeId> got_to_ref;
  for (Index v = 0; v < comp.size(); ++v) {
    Index got = *comp.get(v);
    auto [it, inserted] = got_to_ref.try_emplace(got, want[v]);
    EXPECT_EQ(it->second, want[v]) << "node " << v << " merged components";
  }
}

void expect_min_labels(const grb::Vector<Index> &comp) {
  // FastSV converges to the minimum id in each tree.
  for (Index v = 0; v < comp.size(); ++v) {
    Index label = *comp.get(v);
    EXPECT_LE(label, v);
    EXPECT_EQ(*comp.get(label), label) << "label " << label << " not a root";
  }
}

}  // namespace

TEST(Cc, TwoComponents) {
  auto t = testutil::two_components();
  grb::Vector<Index> comp;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::connected_components(&comp, t.lg, msg), LAGRAPH_OK)
      << msg;
  expect_same_partition(t, comp);
  expect_min_labels(comp);
  EXPECT_EQ(*comp.get(0), 0u);
  EXPECT_EQ(*comp.get(4), 4u);
}

TEST(Cc, SingleComponent) {
  auto t = testutil::tiny_undirected();
  grb::Vector<Index> comp;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::connected_components(&comp, t.lg, msg), LAGRAPH_OK);
  for (Index v = 0; v < comp.size(); ++v) EXPECT_EQ(*comp.get(v), 0u);
}

TEST(Cc, IsolatedVertices) {
  gen::EdgeList el;
  el.n = 6;
  el.push(1, 2);
  gen::symmetrize(el);
  auto t = testutil::TestGraph::from_edges("isolated", std::move(el), false);
  grb::Vector<Index> comp;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::connected_components(&comp, t.lg, msg), LAGRAPH_OK);
  EXPECT_EQ(comp.nvals(), 6u);
  EXPECT_EQ(*comp.get(0), 0u);
  EXPECT_EQ(*comp.get(1), 1u);
  EXPECT_EQ(*comp.get(2), 1u);
  EXPECT_EQ(*comp.get(5), 5u);
}

TEST(Cc, DirectedGraphUsesWeakConnectivity) {
  // 0 -> 1 -> 2 with no back edges: weakly one component.
  gen::EdgeList el;
  el.n = 3;
  el.push(0, 1);
  el.push(1, 2);
  auto t = testutil::TestGraph::from_edges("chain", std::move(el), true);
  grb::Vector<Index> comp;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::connected_components(&comp, t.lg, msg), LAGRAPH_OK);
  EXPECT_EQ(*comp.get(0), 0u);
  EXPECT_EQ(*comp.get(1), 0u);
  EXPECT_EQ(*comp.get(2), 0u);
}

TEST(Cc, MatchesOracleOnGeneratedGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    // sparse random graphs: several components at this density
    auto t = testutil::random_undirected(7, 1, seed);
    grb::Vector<Index> comp;
    char msg[LAGRAPH_MSG_LEN];
    ASSERT_EQ(lagraph::connected_components(&comp, t.lg, msg), LAGRAPH_OK);
    expect_same_partition(t, comp);
    expect_min_labels(comp);
    // also against the gapbs SV kernel's partition
    auto got2 = gapbs::cc(t.ref);
    auto want = gapbs::cc_reference(t.ref);
    std::map<gapbs::NodeId, gapbs::NodeId> m;
    for (std::size_t v = 0; v < want.size(); ++v) {
      auto [it, ins] = m.try_emplace(want[v], got2[v]);
      EXPECT_EQ(it->second, got2[v]);
    }
  }
}

TEST(Cc, KronGraphMostlyOneGiantComponent) {
  auto t = testutil::random_kron(8, 8, 9);
  grb::Vector<Index> comp;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::connected_components(&comp, t.lg, msg), LAGRAPH_OK);
  expect_same_partition(t, comp);
}

TEST(Cc, NullOutputIsError) {
  auto t = testutil::two_components();
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::connected_components<double>(nullptr, t.lg, msg),
            LAGRAPH_NULL_POINTER);
}

TEST(Cc, FullVectorPathsGiveIdenticalLabels) {
  // FastSV's min-accumulating mxv, its eWiseAdds and its termination
  // eWiseMult/reduce all run on full vectors. Config::force_format = sparse
  // keeps them off the full-vector paths; the labels must not change.
  auto road = testutil::small_road(24, 5);
  auto kron = testutil::random_kron(9, 8, 6);
  auto urand = testutil::random_undirected(9, 2, 7);
  for (auto *t : {&road, &kron, &urand}) {
    grb::Vector<Index> want;
    grb::Vector<Index> got;
    char msg[LAGRAPH_MSG_LEN];
    grb::config().force_format = grb::ForceFormat::sparse;
    const int want_status = lagraph::connected_components(&want, t->lg, msg);
    grb::config().force_format = grb::ForceFormat::none;
    ASSERT_EQ(want_status, LAGRAPH_OK) << msg;
    ASSERT_EQ(lagraph::connected_components(&got, t->lg, msg), LAGRAPH_OK)
        << msg;
    EXPECT_EQ(want, got) << t->name;
    expect_same_partition(*t, got);
  }
}

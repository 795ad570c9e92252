// PageRank tests: agreement with the GAP-style reference, dangling-node
// behaviour of the two variants, convergence reporting.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/test_graphs.hpp"

using grb::Index;

namespace {

void expect_close(const grb::Vector<double> &got,
                  const std::vector<double> &want, double tol,
                  const char *what) {
  ASSERT_EQ(got.size(), want.size());
  for (Index i = 0; i < got.size(); ++i) {
    auto x = got.get(i);
    ASSERT_TRUE(x.has_value()) << what << " missing rank at " << i;
    EXPECT_NEAR(*x, want[i], tol) << what << " node " << i;
  }
}

}  // namespace

TEST(PageRank, MatchesGapReferenceTiny) {
  auto t = testutil::tiny_directed();
  grb::Vector<double> r;
  int iters = 0;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::pagerank(&r, &iters, t.lg, 0.85, 1e-8, 200, msg),
            LAGRAPH_OK)
      << msg;
  auto want = gapbs::pagerank(t.ref, 0.85, 1e-8, 200);
  expect_close(r, want, 1e-6, "tiny");
  EXPECT_GT(iters, 1);
}

TEST(PageRank, MatchesGapReferenceGenerated) {
  for (std::uint64_t seed : {1ull, 2ull}) {
    auto t = testutil::random_directed(7, 8, seed);
    grb::Vector<double> r;
    char msg[LAGRAPH_MSG_LEN];
    ASSERT_EQ(lagraph::pagerank(&r, nullptr, t.lg, 0.85, 1e-9, 500, msg),
              LAGRAPH_OK);
    auto want = gapbs::pagerank(t.ref, 0.85, 1e-9, 500);
    expect_close(r, want, 1e-6, "generated");
  }
}

TEST(PageRank, UndirectedGraph) {
  auto t = testutil::random_undirected(6, 6, 5);
  grb::Vector<double> r;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::pagerank(&r, nullptr, t.lg, 0.85, 1e-9, 500, msg),
            LAGRAPH_OK);
  auto want = gapbs::pagerank(t.ref, 0.85, 1e-9, 500);
  expect_close(r, want, 1e-6, "undirected");
}

TEST(PageRank, GapVariantLeaksRankOnDanglingNodes) {
  // Graph with a dangling node (2 has no out-edges): the GAP formulation
  // loses its rank mass; the sum of ranks is < 1 (paper §IV-C).
  gen::EdgeList el;
  el.n = 3;
  el.push(0, 1);
  el.push(1, 2);
  auto t = testutil::TestGraph::from_edges("dangle", std::move(el), true);
  grb::Vector<double> r;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::pagerank(&r, nullptr, t.lg, 0.85, 1e-12, 500, msg),
            LAGRAPH_OK);
  double sum = 0;
  grb::reduce(sum, grb::NoAccum{}, grb::PlusMonoid<double>{}, r);
  EXPECT_LT(sum, 0.9);  // mass leaked
  // ...and it matches the equally-leaky GAP reference
  auto want = gapbs::pagerank(t.ref, 0.85, 1e-12, 500);
  expect_close(r, want, 1e-8, "dangling");
}

TEST(PageRank, GraphalyticsVariantConservesRankMass) {
  gen::EdgeList el;
  el.n = 3;
  el.push(0, 1);
  el.push(1, 2);
  auto t = testutil::TestGraph::from_edges("dangle", std::move(el), true);
  grb::Vector<double> r;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::pagerank_dangling_aware(&r, nullptr, t.lg, 0.85, 1e-12,
                                             500, msg),
            LAGRAPH_OK);
  double sum = 0;
  grb::reduce(sum, grb::NoAccum{}, grb::PlusMonoid<double>{}, r);
  EXPECT_NEAR(sum, 1.0, 1e-6);  // dangling mass redistributed
}

TEST(PageRank, VariantsAgreeWithoutDanglingNodes) {
  // On a graph where every node has out-edges the two variants coincide.
  auto t = testutil::tiny_directed();
  grb::Vector<double> r1;
  grb::Vector<double> r2;
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_EQ(lagraph::pagerank(&r1, nullptr, t.lg, 0.85, 1e-10, 500, msg),
            LAGRAPH_OK);
  ASSERT_EQ(lagraph::pagerank_dangling_aware(&r2, nullptr, t.lg, 0.85, 1e-10,
                                             500, msg),
            LAGRAPH_OK);
  for (Index i = 0; i < r1.size(); ++i) {
    EXPECT_NEAR(*r1.get(i), *r2.get(i), 1e-8);
  }
}

TEST(PageRank, IterationLimitGivesWarning) {
  auto t = testutil::random_directed(6, 6, 3);
  grb::Vector<double> r;
  int iters = 0;
  char msg[LAGRAPH_MSG_LEN];
  int status = lagraph::pagerank(&r, &iters, t.lg, 0.85, 1e-15, 3, msg);
  EXPECT_EQ(status, LAGRAPH_WARN_CONVERGENCE);
  EXPECT_EQ(iters, 3);
}

TEST(PageRank, AdvancedModeRequiresProperties) {
  auto t = testutil::tiny_directed();
  grb::Vector<double> r;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::advanced::pagerank_gap(&r, nullptr, t.lg, 0.85, 1e-4,
                                            100, msg),
            LAGRAPH_PROPERTY_MISSING);
  lagraph::property_at(t.lg, msg);
  EXPECT_EQ(lagraph::advanced::pagerank_gap(&r, nullptr, t.lg, 0.85, 1e-4,
                                            100, msg),
            LAGRAPH_PROPERTY_MISSING);  // still missing degrees
  lagraph::property_row_degree(t.lg, msg);
  EXPECT_EQ(lagraph::advanced::pagerank_gap(&r, nullptr, t.lg, 0.85, 1e-4,
                                            100, msg),
            LAGRAPH_OK);
}

TEST(PageRank, NullOutputIsError) {
  auto t = testutil::tiny_directed();
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::pagerank<double>(nullptr, nullptr, t.lg, 0.85, 1e-4, 10,
                                      msg),
            LAGRAPH_NULL_POINTER);
}

TEST(PageRank, IterationsKeepRankVectorsBitmap) {
  // Every rank vector is dense, so each kernel of an iteration must write
  // its result as a bitmap instead of a sparse temporary that is converted
  // back. The vector format-switch count then stays flat however many
  // iterations run.
  auto t = testutil::small_road(48, 3);
  char msg[LAGRAPH_MSG_LEN];
  ASSERT_GE(lagraph::property_at(t.lg, msg), 0) << msg;
  ASSERT_GE(lagraph::property_row_degree(t.lg, msg), 0) << msg;
  grb::Vector<double> r;
  int iters = 0;
  const auto before = grb::stats().snapshot().format_switches;
  ASSERT_GE(lagraph::advanced::pagerank_gap(&r, &iters, t.lg, 0.85, 1e-7,
                                            100, msg),
            0)
      << msg;
  const auto switches = grb::stats().snapshot().format_switches - before;
  EXPECT_GT(iters, 10);
  EXPECT_LE(switches, 2u) << "over " << iters << " iterations";
}

TEST(PageRank, FullVectorPathsAreBitIdenticalToSparseReference) {
  // The in-place full-vector paths (eWise, apply, the accumulating pull)
  // change only speed. Config::force_format = sparse keeps every vector off
  // them, so both runs must give the same ranks bit for bit and take the
  // same number of iterations. The road grid has no dangling node, so every
  // vector of the iteration is full; the Kronecker graph has isolated
  // nodes, so d and w have holes.
  auto road = testutil::small_road(24, 3);
  auto kron = testutil::random_kron(9, 8, 4);
  char msg[LAGRAPH_MSG_LEN];
  for (auto *t : {&road, &kron}) {
    ASSERT_GE(lagraph::property_at(t->lg, msg), 0) << msg;
    ASSERT_GE(lagraph::property_row_degree(t->lg, msg), 0) << msg;
    if (t == &road) {
      ASSERT_EQ(t->lg.row_degree->nvals(), t->lg.nodes());
    } else {
      ASSERT_LT(t->lg.row_degree->nvals(), t->lg.nodes());
    }
    for (const bool graphalytics : {false, true}) {
      auto run = [&](grb::Vector<double> *r, int *iters) {
        return graphalytics
                   ? lagraph::advanced::pagerank_graphalytics(
                         r, iters, t->lg, 0.85, 1e-9, 200, msg)
                   : lagraph::advanced::pagerank_gap(r, iters, t->lg, 0.85,
                                                     1e-9, 200, msg);
      };
      grb::Vector<double> want;
      grb::Vector<double> got;
      int want_iters = 0;
      int got_iters = 0;
      grb::config().force_format = grb::ForceFormat::sparse;
      const int want_status = run(&want, &want_iters);
      grb::config().force_format = grb::ForceFormat::none;
      const int got_status = run(&got, &got_iters);
      const std::string what =
          t->name + (graphalytics ? " graphalytics" : " gap");
      ASSERT_EQ(want_status, got_status) << what;
      EXPECT_EQ(want_iters, got_iters) << what;
      ASSERT_EQ(want.nvals(), got.nvals()) << what;
      for (Index i = 0; i < want.size(); ++i) {
        const double x = *want.get(i);
        const double y = *got.get(i);
        ASSERT_EQ(std::memcmp(&x, &y, sizeof(double)), 0)
            << what << " node " << i << ": " << y << " vs " << x;
      }
    }
  }
}

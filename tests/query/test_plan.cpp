// Multi-op optimizer unit tests: the compiled pruning schedule itself —
// edge-chain reordering away from textual order, mask pushdown into the
// traversal ops, cached-property CSE, the naive baseline's shape, the
// walk-chain schedule that replaces pruning for COUNT(*) and one-column
// projections of paths, and the EXPLAIN renderings the CLI and the request
// log surface.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/generators.hpp"
#include "query/query.hpp"

namespace q = lagraph::query;
using grb::Index;

namespace {

// A directed "funnel": a few hub nodes 0..2 fan out to everything, node
// n-1 has exactly one in-edge. Selectivity differences the optimizer can
// exploit are extreme by construction.
lagraph::Graph<double> funnel_graph(Index n, bool cache_properties) {
  grb::Matrix<double> a(n, n);
  for (Index h = 0; h < 3; ++h) {
    for (Index v = 3; v + 1 < n; ++v) a.set_element(h, v, 1.0);
  }
  a.set_element(3, n - 1, 1.0);
  lagraph::Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(lagraph::make_graph(g, std::move(a),
                                lagraph::Kind::adjacency_directed, msg),
            LAGRAPH_OK)
      << msg;
  g.a.finalize();
  if (cache_properties) {
    EXPECT_EQ(lagraph::property_at(g, msg), LAGRAPH_OK) << msg;
    EXPECT_EQ(lagraph::property_row_degree(g, msg), LAGRAPH_OK) << msg;
    EXPECT_EQ(lagraph::property_col_degree(g, msg), LAGRAPH_OK) << msg;
    (*g.at).finalize();
  }
  return g;
}

q::Query parse_ok(const std::string &text) {
  q::Query p;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(q::parse(&p, text, msg), LAGRAPH_OK) << msg;
  return p;
}

q::QueryPlan compile_ok(const q::Query &p, const lagraph::Graph<double> &g,
                        bool optimize) {
  q::QueryPlan plan;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(q::compile(&plan, p, g, optimize, msg), LAGRAPH_OK) << msg;
  return plan;
}

std::vector<int> prune_edge_sequence(const q::QueryPlan &plan) {
  std::vector<int> seq;
  for (const auto &s : plan.steps) {
    if (s.kind == q::PlanStep::Kind::prune) seq.push_back(s.edge);
  }
  return seq;
}

int masked_prunes(const q::QueryPlan &plan) {
  int k = 0;
  for (const auto &s : plan.steps) {
    if (s.kind == q::PlanStep::Kind::prune && s.masked) ++k;
  }
  return k;
}

// A projection of a middle variable, so the optimized plan prunes and
// enumerates; the same pattern as COUNT(*), or returning an end variable,
// compiles to a walk chain instead.
const char *kChain =
    "MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE d = 63 RETURN b";
const char *kCountChain =
    "MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE d = 63 RETURN COUNT(*)";

}  // namespace

TEST(QueryPlan, NaiveBaselineIsTextualOrderAndUnmasked) {
  auto g = funnel_graph(64, /*cache_properties=*/true);
  q::Query p = parse_ok(kChain);
  q::QueryPlan plan = compile_ok(p, g, /*optimize=*/false);
  EXPECT_FALSE(plan.optimized);
  // One pass over the edges in textual order, each propagated forward.
  EXPECT_EQ(prune_edge_sequence(plan), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(masked_prunes(plan), 0);
  // Enumeration in textual variable order.
  EXPECT_EQ(plan.enum_order, (std::vector<int>{0, 1, 2, 3}));
  for (const auto &s : plan.steps) {
    if (s.kind == q::PlanStep::Kind::prune) {
      EXPECT_TRUE(s.forward);
    }
  }
}

TEST(QueryPlan, OptimizerReordersChainToStartFromThePin) {
  auto g = funnel_graph(64, /*cache_properties=*/true);
  q::Query p = parse_ok(kChain);
  q::QueryPlan plan = compile_ok(p, g, /*optimize=*/true);
  EXPECT_TRUE(plan.optimized);
  auto seq = prune_edge_sequence(plan);
  ASSERT_FALSE(seq.empty());
  // Propagation must begin at the pinned variable d, i.e. with the last
  // textual edge (c)-[]->(d) walked in reverse — not edge 0.
  EXPECT_EQ(seq.front(), 2);
  const auto &first = plan.steps[4];  // after the 4 seeds
  EXPECT_EQ(first.kind, q::PlanStep::Kind::prune);
  EXPECT_FALSE(first.forward);
  EXPECT_EQ(first.from, p.find_var("d"));
  // And the enumeration order starts at the pin too.
  ASSERT_FALSE(plan.enum_order.empty());
  EXPECT_EQ(plan.enum_order.front(), p.find_var("d"));
  // The pinned start makes every estimate strictly smaller than "all
  // nodes"; the naive plan's intermediate estimates stay at n.
  q::QueryPlan naive = compile_ok(p, g, /*optimize=*/false);
  ASSERT_EQ(plan.est.size(), 4u);
  EXPECT_LT(plan.est[1], naive.est[1]);
  EXPECT_LT(plan.est[2], naive.est[2]);
}

TEST(QueryPlan, OptimizerPushesMasksOnceCandidatesAreStrict) {
  auto g = funnel_graph(64, /*cache_properties=*/true);
  q::Query p = parse_ok(kChain);
  q::QueryPlan opt = compile_ok(p, g, /*optimize=*/true);
  q::QueryPlan naive = compile_ok(p, g, /*optimize=*/false);
  // At least the backward-tightening replay runs masked (targets are
  // strict subsets by then); naive never masks.
  EXPECT_GE(masked_prunes(opt), 1);
  EXPECT_EQ(masked_prunes(naive), 0);
}

TEST(QueryPlan, ReverseTraversalUsesTheCachedTransposeWhenPresent) {
  auto with = funnel_graph(64, /*cache_properties=*/true);
  auto without = funnel_graph(64, /*cache_properties=*/false);
  q::Query p = parse_ok(kChain);
  q::QueryPlan cached = compile_ok(p, with, true);
  q::QueryPlan cold = compile_ok(p, without, true);
  EXPECT_TRUE(cached.reuse_transpose);
  EXPECT_TRUE(cached.reuse_row_degree);
  EXPECT_TRUE(cached.reuse_col_degree);
  bool via_at = false;
  for (const auto &s : cached.steps) via_at = via_at || s.via_transpose;
  EXPECT_TRUE(via_at);
  EXPECT_FALSE(cold.reuse_transpose);
  for (const auto &s : cold.steps) EXPECT_FALSE(s.via_transpose);
}

TEST(QueryPlan, DegreePredicateCompilesToAFilterStep) {
  auto g = funnel_graph(64, true);
  q::Query p =
      parse_ok("MATCH (a)-[]->(b) WHERE a.out >= 3 RETURN COUNT(*)");
  q::QueryPlan plan = compile_ok(p, g, true);
  bool filtered = false;
  for (const auto &s : plan.steps) {
    if (s.kind == q::PlanStep::Kind::degree_filter) {
      filtered = true;
      EXPECT_EQ(s.var, p.find_var("a"));
      EXPECT_EQ(s.deg, 0);
    }
  }
  EXPECT_TRUE(filtered);
}

TEST(QueryPlan, ExplainRendersBothModes) {
  auto g = funnel_graph(64, true);
  q::Query p = parse_ok(kChain);
  q::QueryPlan opt = compile_ok(p, g, true);
  q::QueryPlan naive = compile_ok(p, g, false);
  const std::string eo = opt.explain(p);
  const std::string en = naive.explain(p);
  EXPECT_NE(eo.find("query plan (optimized)"), std::string::npos) << eo;
  EXPECT_NE(en.find("query plan (naive)"), std::string::npos) << en;
  EXPECT_NE(eo.find("seed d := pinned"), std::string::npos) << eo;
  EXPECT_NE(eo.find("mask=pushed"), std::string::npos) << eo;
  EXPECT_NE(eo.find("enum order:"), std::string::npos) << eo;
  // One-line summaries (request log / slow-query records) stay short and
  // carry the mode tag.
  const std::string lo = opt.explain_line();
  const std::string ln = naive.explain_line();
  EXPECT_NE(lo.find("cypher[opt]"), std::string::npos) << lo;
  EXPECT_NE(ln.find("cypher[naive]"), std::string::npos) << ln;
  EXPECT_LE(lo.size(), 128u);
  EXPECT_LE(ln.size(), 128u);
}

TEST(QueryPlan, CountChainWalksFromThePinWithoutPruning) {
  auto g = funnel_graph(64, /*cache_properties=*/true);
  q::Query p = parse_ok(kCountChain);
  q::QueryPlan plan = compile_ok(p, g, /*optimize=*/true);
  EXPECT_EQ(plan.finish, q::QueryPlan::Finish::count);
  // One seed (the pinned start; unconstrained variables are never read),
  // then one product per edge from d back to a, every one over the cached
  // A^T because each arc points away from the next variable.
  ASSERT_EQ(plan.steps.size(), 4u);
  EXPECT_EQ(plan.steps[0].kind, q::PlanStep::Kind::seed);
  EXPECT_EQ(plan.steps[0].var, p.find_var("d"));
  const std::vector<int> walk{3, 2, 1, 0};
  EXPECT_EQ(plan.enum_order, walk);
  for (std::size_t i = 1; i < plan.steps.size(); ++i) {
    const auto &s = plan.steps[i];
    EXPECT_EQ(s.kind, q::PlanStep::Kind::count_hop);
    EXPECT_EQ(s.from, walk[i - 1]);
    EXPECT_EQ(s.var, walk[i]);
    EXPECT_FALSE(s.forward);
    EXPECT_TRUE(s.via_transpose);
    EXPECT_FALSE(s.masked);
  }
  EXPECT_TRUE(prune_edge_sequence(plan).empty());
  // Without a cached transpose the reverse products are pull mxv's.
  auto cold = funnel_graph(64, /*cache_properties=*/false);
  for (const auto &s : compile_ok(p, cold, true).steps) {
    EXPECT_FALSE(s.via_transpose);
  }
  // The naive plan keeps prune + enumerate.
  q::QueryPlan naive = compile_ok(p, g, /*optimize=*/false);
  EXPECT_FALSE(naive.chain());
  EXPECT_EQ(prune_edge_sequence(naive), (std::vector<int>{0, 1, 2}));
}

TEST(QueryPlan, CountChainStartsAtTheEndNearerThePinAndMasksFilters) {
  auto g = funnel_graph(64, true);
  // Pin on b (second of four): walk a -> b -> c -> d, masking b by its
  // pin and d by its degree filter.
  q::Query p = parse_ok(
      "MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE b = 3 AND d.in >= 1 "
      "RETURN COUNT(*)");
  q::QueryPlan plan = compile_ok(p, g, true);
  ASSERT_EQ(plan.finish, q::QueryPlan::Finish::count);
  EXPECT_EQ(plan.enum_order, (std::vector<int>{0, 1, 2, 3}));
  std::vector<bool> masked;
  for (const auto &s : plan.steps) {
    if (s.kind == q::PlanStep::Kind::count_hop) {
      EXPECT_TRUE(s.forward);
      masked.push_back(s.masked);
    }
  }
  EXPECT_EQ(masked, (std::vector<bool>{true, false, true}));
  // Seeds: the unconstrained start a, the pinned b and the filtered d.
  int seeds = 0;
  for (const auto &s : plan.steps) {
    if (s.kind == q::PlanStep::Kind::seed) ++seeds;
  }
  EXPECT_EQ(seeds, 3);
}

TEST(QueryPlan, CountChainExplainShowsTheProducts) {
  auto g = funnel_graph(64, true);
  q::Query p = parse_ok(kCountChain);
  q::QueryPlan plan = compile_ok(p, g, true);
  const std::string e = plan.explain(p);
  EXPECT_NE(e.find("hop c <- d over (c)-[]->(d) vxm(A^T)[plus.first]"),
            std::string::npos)
      << e;
  EXPECT_NE(e.find("walk order: d c b a"), std::string::npos) << e;
  EXPECT_NE(e.find("no enumeration"), std::string::npos) << e;
  EXPECT_EQ(e.find("prune"), std::string::npos) << e;
  EXPECT_EQ(e.find("enum order"), std::string::npos) << e;
  const std::string line = plan.explain_line();
  EXPECT_NE(line.find("cypher[opt] vars=4 count=chain hops=3 masked=0 "
                      "order=3,2,1,0"),
            std::string::npos)
      << line;
}

TEST(QueryPlan, ProjectionChainWalksTowardTheReturnedVariable) {
  auto g = funnel_graph(64, true);
  // The pin is at d, but the walk must end at the returned a, so it starts
  // at d; returning d itself reverses it, starting from the unpinned a.
  for (const auto &[ret, walk] :
       {std::pair<const char *, std::vector<int>>{"a", {3, 2, 1, 0}},
        {"d", {0, 1, 2, 3}}}) {
    q::Query p = parse_ok(
        std::string("MATCH (a)-[]->(b)-[]->(c)-[]->(d) WHERE d = 63 RETURN ") +
        ret);
    q::QueryPlan plan = compile_ok(p, g, true);
    EXPECT_EQ(plan.finish, q::QueryPlan::Finish::rows) << ret;
    EXPECT_EQ(plan.enum_order, walk) << ret;
    EXPECT_TRUE(prune_edge_sequence(plan).empty()) << ret;
  }
  // '<>' only between the returned end and a pinned variable.
  EXPECT_TRUE(compile_ok(parse_ok("MATCH (a)-[]->(b)-[]->(c) WHERE a = 3 "
                                  "AND a <> c RETURN c"),
                         g, true)
                  .chain());
  EXPECT_FALSE(compile_ok(parse_ok("MATCH (a)-[]->(b)-[]->(c) WHERE a = 3 "
                                   "AND a <> c RETURN a"),
                          g, true)
                   .chain());
  EXPECT_FALSE(compile_ok(parse_ok("MATCH (a)-[]->(b)-[]->(c) WHERE c = 3 "
                                   "AND a <> c RETURN c"),
                          g, true)
                   .chain());
}

TEST(QueryPlan, ProjectionChainExplainShowsTheFinish) {
  auto g = funnel_graph(64, true);
  q::Query p = parse_ok(
      "MATCH (a)-[]->(b)-[]->(c) WHERE a = 3 AND a <> c RETURN c LIMIT 100");
  q::QueryPlan plan = compile_ok(p, g, true);
  const std::string e = plan.explain(p);
  EXPECT_NE(e.find("walk order: a b c\nrows := c by walk count, ascending, "
                   "minus pinned a, LIMIT 100, no enumeration\n"),
            std::string::npos)
      << e;
  EXPECT_EQ(e.find("prune"), std::string::npos) << e;
  const std::string line = plan.explain_line();
  EXPECT_NE(line.find("cypher[opt] vars=3 rows=chain hops=2 masked=0 "
                      "order=0,1,2"),
            std::string::npos)
      << line;
  // A count chain names its exclusion too.
  q::Query pc = parse_ok(
      "MATCH (a)-[]->(b)-[]->(c) WHERE a = 3 AND a <> c RETURN COUNT(*)");
  EXPECT_NE(compile_ok(pc, g, true)
                .explain(pc)
                .find("count := reduce(plus.uint64) over c, minus pinned a, "
                      "no enumeration"),
            std::string::npos);
}

TEST(QueryPlan, ExplainLineKeepsLongPatternsWhole) {
  // A 30-variable path: its order= field alone runs past 100 characters,
  // and the cse= field after it must still close the one-liner.
  auto g = funnel_graph(64, true);
  std::string text = "MATCH (v0)";
  for (int i = 1; i < 30; ++i) text += "-[]->(v" + std::to_string(i) + ")";
  text += " RETURN v0, v29 LIMIT 1";
  q::Query p = parse_ok(text);
  q::QueryPlan plan = compile_ok(p, g, true);
  std::string cse;
  if (plan.reuse_transpose) cse += "at,";
  if (plan.reuse_row_degree || plan.reuse_col_degree) cse += "deg,";
  if (cse.empty()) {
    cse = "none";
  } else {
    cse.pop_back();
  }
  const std::string tail = " cse=" + cse;
  const std::string line = plan.explain_line();
  EXPECT_GT(line.size(), 128u) << line;
  ASSERT_GE(line.size(), tail.size()) << line;
  EXPECT_EQ(line.substr(line.size() - tail.size()), tail) << line;
}

TEST(QueryPlan, CompileRejectsNullAndEmpty) {
  auto g = funnel_graph(8, false);
  q::Query p = parse_ok("MATCH (a)-[]->(b) RETURN a");
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_LT(q::compile(nullptr, p, g, true, msg), 0);
  q::Query empty;
  q::QueryPlan plan;
  EXPECT_LT(q::compile(&plan, empty, g, true, msg), 0);
}

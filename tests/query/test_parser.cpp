// Parser unit tests: grammar coverage, '<-[]-' normalization, variable
// scoping, keyword case-insensitivity, and the error contract (status
// LAGRAPH_INVALID_VALUE with a position-bearing message).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "query/query.hpp"

namespace q = lagraph::query;

namespace {

q::Query must_parse(const std::string &text) {
  q::Query out;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(q::parse(&out, text, msg), LAGRAPH_OK) << text << ": " << msg;
  return out;
}

std::string must_fail(const std::string &text) {
  q::Query out;
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_EQ(q::parse(&out, text, msg), LAGRAPH_INVALID_VALUE) << text;
  return msg;
}

}  // namespace

TEST(QueryParser, ChainPatternVariablesInFirstAppearanceOrder) {
  q::Query p = must_parse("MATCH (a)-[]->(b)-[]->(c) RETURN a, c");
  ASSERT_EQ(p.vars.size(), 3u);
  EXPECT_EQ(p.vars[0], "a");
  EXPECT_EQ(p.vars[1], "b");
  EXPECT_EQ(p.vars[2], "c");
  ASSERT_EQ(p.edges.size(), 2u);
  EXPECT_EQ(p.edges[0].src, 0);
  EXPECT_EQ(p.edges[0].dst, 1);
  EXPECT_EQ(p.edges[0].dir, q::EdgeDir::out);
  EXPECT_EQ(p.edges[1].src, 1);
  EXPECT_EQ(p.edges[1].dst, 2);
  EXPECT_FALSE(p.count_only);
  ASSERT_EQ(p.returns.size(), 2u);
  EXPECT_EQ(p.returns[0], 0);
  EXPECT_EQ(p.returns[1], 2);
  EXPECT_EQ(p.limit, -1);
}

TEST(QueryParser, ReverseArrowNormalizesToForwardWithSwappedEndpoints) {
  q::Query p = must_parse("MATCH (a)<-[]-(b) RETURN a");
  ASSERT_EQ(p.edges.size(), 1u);
  // (a)<-[]-(b) means an arc b -> a.
  EXPECT_EQ(p.edges[0].src, p.find_var("b"));
  EXPECT_EQ(p.edges[0].dst, p.find_var("a"));
  EXPECT_EQ(p.edges[0].dir, q::EdgeDir::out);
}

TEST(QueryParser, UndirectedEdgeAndMultiplePatterns) {
  q::Query p = must_parse("MATCH (a)-[]-(b), (b)-[]->(c) RETURN COUNT(*)");
  ASSERT_EQ(p.edges.size(), 2u);
  EXPECT_EQ(p.edges[0].dir, q::EdgeDir::both);
  EXPECT_EQ(p.edges[1].dir, q::EdgeDir::out);
  EXPECT_TRUE(p.count_only);
  EXPECT_TRUE(p.returns.empty());
}

TEST(QueryParser, WherePredicatesAndLimit) {
  q::Query p = must_parse(
      "MATCH (x)-[]->(y) WHERE x = 3 AND x <> y AND y.out >= 2 "
      "AND y.in < 5 RETURN y LIMIT 10");
  ASSERT_EQ(p.pins.size(), 1u);
  EXPECT_EQ(p.pins[0].var, 0);
  EXPECT_EQ(p.pins[0].node, 3);
  ASSERT_EQ(p.neqs.size(), 1u);
  EXPECT_EQ(p.neqs[0].a, 0);
  EXPECT_EQ(p.neqs[0].b, 1);
  ASSERT_EQ(p.degs.size(), 2u);
  EXPECT_TRUE(p.degs[0].out_degree);
  EXPECT_EQ(p.degs[0].cmp, q::CmpOp::ge);
  EXPECT_EQ(p.degs[0].bound, 2);
  EXPECT_FALSE(p.degs[1].out_degree);
  EXPECT_EQ(p.degs[1].cmp, q::CmpOp::lt);
  EXPECT_EQ(p.limit, 10);
  // The largest int64 parses everywhere an integer goes.
  q::Query big = must_parse(
      "MATCH (x)-[]->(y) WHERE x = 9223372036854775807 AND "
      "y.out <= 9223372036854775807 RETURN y LIMIT 9223372036854775807");
  ASSERT_EQ(big.pins.size(), 1u);
  EXPECT_EQ(big.pins[0].node, INT64_MAX);
  ASSERT_EQ(big.degs.size(), 1u);
  EXPECT_EQ(big.degs[0].bound, INT64_MAX);
  EXPECT_EQ(big.limit, INT64_MAX);
}

TEST(QueryParser, KeywordsAreCaseInsensitive) {
  q::Query p = must_parse("match (a)-[]->(b) where a = 1 return count(*)");
  EXPECT_TRUE(p.count_only);
  ASSERT_EQ(p.pins.size(), 1u);
  // Variables stay case-sensitive: A and a would be distinct.
  q::Query p2 = must_parse("MATCH (A)-[]->(a) RETURN A, a");
  EXPECT_EQ(p2.vars.size(), 2u);
}

TEST(QueryParser, RepeatedVariableBindsTheSameSlot) {
  // A triangle written as a closed chain: (a)->(b)->(c)->(a).
  q::Query p = must_parse(
      "MATCH (a)-[]->(b)-[]->(c)-[]->(a) RETURN COUNT(*)");
  EXPECT_EQ(p.vars.size(), 3u);
  ASSERT_EQ(p.edges.size(), 3u);
  EXPECT_EQ(p.edges[2].src, 2);
  EXPECT_EQ(p.edges[2].dst, 0);
}

TEST(QueryParser, ErrorsCarryStatusAndContext) {
  must_fail("");
  must_fail("MATCH (a)-[]->(b)");               // missing RETURN
  must_fail("MATCH (a)-[]->(b) RETURN");        // missing projection
  must_fail("MATCH (a)-[->(b) RETURN a");       // bad edge token
  must_fail("MATCH (a)-[]->(b) RETURN a, z");   // unknown return var
  must_fail("MATCH (a)-[]->(b) WHERE z = 1 RETURN a");  // unbound WHERE var
  must_fail("MATCH (a)-[]->(b) RETURN a trailing");     // trailing input
  must_fail("MATCH (a)-[]->(b) WHERE a.sideways > 1 RETURN a");
  // Integers past int64 fail instead of wrapping (2^64 + 1 would pin node
  // 1 and act as LIMIT 1; 2^63 as LIMIT would mean no limit).
  must_fail("MATCH (a)-[]->(b) WHERE a = 18446744073709551617 RETURN a");
  must_fail("MATCH (a)-[]->(b) WHERE a = 92233720368547758070 RETURN a");
  must_fail("MATCH (a)-[]->(b) WHERE a = 9223372036854775808 RETURN a");
  must_fail("MATCH (a)-[]->(b) RETURN a LIMIT 18446744073709551617");
  must_fail("MATCH (a)-[]->(b) RETURN a LIMIT 9223372036854775808");
  must_fail("MATCH (a)-[]->(b) WHERE a.out >= 18446744073709551617 RETURN a");
  must_fail("MATCH (a)-[]->(b) WHERE a.in < 9223372036854775808 RETURN a");
  // Messages carry the failure position and a reason.
  const std::string m = must_fail("MATCH (a)-[]->(b) RETURN z");
  EXPECT_NE(m.find("offset"), std::string::npos) << m;
  EXPECT_NE(m.find("unknown variable"), std::string::npos) << m;
}

TEST(QueryParser, NullOutIsRejectedNotCrashed) {
  char msg[LAGRAPH_MSG_LEN];
  EXPECT_LT(q::parse(nullptr, "MATCH (a)-[]->(b) RETURN a", msg), 0);
}

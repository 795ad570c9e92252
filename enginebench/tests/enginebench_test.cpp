// The benchmark's own tests: the percentile helper, sequence determinism,
// and a tiny-scale smoke run of every workload with the output checks on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

namespace eb = enginebench;

namespace {

std::set<std::string> names(const std::vector<eb::Metric> &ms) {
  std::set<std::string> out;
  for (const auto &m : ms) out.insert(m.name);
  return out;
}

}  // namespace

TEST(Percentile, NearestRankIsExact) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(eb::percentile(v, 0.5), 50);
  EXPECT_EQ(eb::percentile(v, 0.99), 99);
  EXPECT_EQ(eb::percentile(v, 1.0), 100);
  EXPECT_EQ(eb::percentile(v, 0.001), 1);
  EXPECT_EQ(eb::percentile({7}, 0.99), 7);
  EXPECT_EQ(eb::median({3, 1, 2}), 2);
  EXPECT_TRUE(std::isnan(eb::percentile({}, 0.5)));
}

TEST(Percentile, CountsTheSamplesBeyond) {
  // p99 needs 1000 samples for the rule of 10 beyond it; p50 needs 20.
  EXPECT_EQ(eb::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(eb::samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(eb::samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(eb::samples_beyond(19, 0.5), 9u);
  EXPECT_EQ(eb::samples_beyond(0, 0.5), 0u);
  EXPECT_EQ(eb::samples_beyond(7, 1.0), 0u);
}

TEST(Sequence, SameSeedSameBytesOtherSeedDiffers) {
  for (const char *name : {"kron_read", "road_read", "kron_write"}) {
    const eb::Workload &w = *eb::find_workload(name);
    const eb::Inputs in = eb::make_inputs(w, 8);
    const std::string a = eb::make_sequence(w, in, 7, 20, 300).serialize();
    const std::string b = eb::make_sequence(w, in, 7, 20, 300).serialize();
    const std::string c = eb::make_sequence(w, in, 8, 20, 300).serialize();
    EXPECT_EQ(a, b) << name;
    EXPECT_NE(a, c) << name;
  }
}

TEST(Sequence, KindsTakeTheirExactShare) {
  const eb::Workload &w = *eb::find_workload("kron_write");
  const eb::Inputs in = eb::make_inputs(w, 8);
  const eb::Sequence s = eb::make_sequence(w, in, 1, 0, 1000);
  ASSERT_EQ(s.items.size(), 1000u);
  int per_op[eb::kNumOps] = {};
  for (const auto &it : s.items) ++per_op[static_cast<int>(it.op)];
  for (int k = 0; k < eb::kNumOps; ++k) {
    EXPECT_NEAR(per_op[k], w.share[k] * 1000, 1) << eb::op_name(static_cast<eb::Op>(k));
  }
  EXPECT_EQ(s.batches.size(), static_cast<std::size_t>(per_op[6]));
  for (const auto &b : s.batches) EXPECT_EQ(b.size(), eb::kWriteBatch);
}

class Smoke : public ::testing::TestWithParam<const char *> {};

TEST_P(Smoke, TinyRunPassesItsChecks) {
  for (const bool trace : {false, true}) {
    eb::Options opt;
    opt.workload = GetParam();
    opt.seed = 3;
    opt.seconds = 1;
    opt.trace = trace;
    opt.scale = 8;
    opt.requests = 240;
    const eb::Result r = eb::run(opt);
    for (const auto &p : r.problems) ADD_FAILURE() << p;
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.attempted, 240u);
    EXPECT_EQ(r.failed, 0u);
    const auto got = names(r.metrics);
    const std::vector<std::string> want =
        trace ? std::vector<std::string>{"service.exec_p50_ms",
                                         "query.execute_ms",
                                         "lagraph.sssp_vs_gap",
                                         "gapbs.pagerank_ms",
                                         "grb.cypher.kernel_calls",
                                         "ingest.epochs",
                                         "trace.overhead_pct"}
              : std::vector<std::string>{"qps", "p50_ms", "p99_ms",
                                         "bfs_p50_ms", "setup_s",
                                         "peak_rss_mb"};
    for (const auto &n : want) EXPECT_TRUE(got.count(n)) << n;
    for (const auto &m : r.metrics) EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("kron_read", "road_read",
                                           "kron_write"));

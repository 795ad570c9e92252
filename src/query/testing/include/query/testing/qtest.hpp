// query/testing/qtest.hpp — the differential harness for lagraph::query.
//
// Mirrors the grb::testing conformance harness one level up the stack: a
// QueryScenario is a small seeded graph plus one pattern-query text. The
// oracle is a tuple-at-a-time interpreter (nested loops over all variable
// assignments, no grb:: ops, no plan) — the compiled pipeline must match
// it bit-exactly under every point of the grb::testing::sweep_configs()
// grid (threads × force_format × push/pull × index width), for both the
// optimized and the naive compilation mode, and with snapshot properties
// (transpose, degrees) both cached and absent.
//
// Scenarios round-trip through the same append-only-key .repro text
// convention the kernel corpus uses, so shrunk failures are committed
// under tests/corpus/query/ and replayed by tests_conformance.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "grb/testing/differ.hpp"
#include "query/query.hpp"

namespace lagraph {
namespace query {
namespace testing {

/// One fuzzed unit: a graph (edge list, directed or not) and a query.
struct QueryScenario {
  std::uint64_t seed = 0;
  std::uint64_t n = 0;
  bool directed = true;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  std::string text;  // the query source
};

/// Deterministic scenario from a seed: ER / dense / hub-skewed graph
/// shapes, 1–4 variable chain patterns with optional cycle-closing edges,
/// random pins / inequalities / degree predicates, COUNT(*) or projection
/// returns, occasional LIMIT.
QueryScenario generate(std::uint64_t seed);

/// Append-only-key text form ("qscenario v1" header; unknown keys are
/// skipped on parse so the format can grow without invalidating committed
/// corpus files).
std::string serialize(const QueryScenario &s);
bool parse_scenario(const std::string &text, QueryScenario *out,
                    std::string *error);

/// Materialize the scenario's graph. `cache_properties` pre-computes the
/// snapshot-style cached properties (A^T, row/col degrees) so the
/// optimizer's CSE paths are exercised; without it the executor's
/// compute-on-demand fallbacks run instead.
Graph<double> build_graph(const QueryScenario &s, bool cache_properties);

/// The tuple-at-a-time reference: enumerate every assignment of pattern
/// variables to nodes, check all constraints, project/sort/limit.
/// Independent of grb:: kernels and of the compiled plan shape.
int run_oracle(ResultSet *out, const Query &q, const QueryScenario &s);

struct QueryMismatch {
  QueryScenario scenario;
  std::string config;   // RunConfig::name() + compilation mode
  std::string detail;   // expected vs got (or the error that occurred)

  [[nodiscard]] std::string to_string() const;
};

/// Run one scenario under one sweep point and one compilation mode.
std::optional<QueryMismatch> check_one(const QueryScenario &s,
                                       const grb::testing::RunConfig &rc,
                                       bool optimized);

/// Full sweep: every RunConfig × {naive, optimized}. `instances` counts
/// executed (scenario, config, mode) triples; `finish`, when given, is set
/// to how the optimized plan produced its rows (enumerated, or a walk
/// chain's count or projection).
std::optional<QueryMismatch> check_sweep(
    const QueryScenario &s, std::uint64_t *instances = nullptr,
    QueryPlan::Finish *finish = nullptr);

/// Greedy shrink: drop graph edges and trailing nodes while the scenario
/// still mismatches under check_sweep().
QueryScenario minimize(QueryScenario s);

struct QueryFuzzOptions {
  double seconds = 0;               // wall-clock budget; 0 = no time limit
  std::uint64_t max_scenarios = 0;  // scenario budget; 0 = no count limit
  std::uint64_t seed = 1;           // first seed (consecutive after)
  bool shrink = true;               // minimize the first failure
};

struct QueryFuzzReport {
  std::uint64_t scenarios = 0;
  std::uint64_t instances = 0;  // (scenario, config, mode) triples
  /// Scenarios whose optimized plan took a walk chain, for COUNT(*) or
  /// for a one-column projection (the rest, and every naive plan,
  /// enumerated).
  std::uint64_t count_chain = 0;
  std::uint64_t projection_chain = 0;
  bool ok = true;
  std::uint64_t failing_seed = 0;
  std::string detail;
  std::string repro;  // serialize() of the (shrunk) failing scenario
};

/// Seeded fuzz loop over generate(seed), generate(seed+1), …
QueryFuzzReport fuzz(const QueryFuzzOptions &opt);

/// Replay every .repro under `dir` (non-recursive) through check_sweep().
grb::testing::ReplayOutcome replay_corpus(const std::string &dir);

/// Replay one file; *error is set (and nullopt returned) on a parse error.
std::optional<QueryMismatch> replay_file(const std::string &path,
                                         std::string *error);

}  // namespace testing
}  // namespace query
}  // namespace lagraph

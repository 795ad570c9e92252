// query/testing/src/qtest.cpp — oracle, generator, differ, shrinker, and
// .repro round-trip for the query differential harness.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "grb/grb.hpp"
#include "lagraph/lagraph.hpp"
#include "query/testing/qtest.hpp"

namespace lagraph {
namespace query {
namespace testing {

namespace {

// ---------------------------------------------------------------------------
// Deterministic RNG — splitmix64, so scenarios are identical across
// platforms and standard libraries (std distributions are not portable).
// ---------------------------------------------------------------------------

struct Rng {
  std::uint64_t state;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::uint64_t below(std::uint64_t m) { return m == 0 ? 0 : next() % m; }
};

/// Saves the live grb::Config, applies one sweep point, restores on exit —
/// the same discipline as the kernel differ's ConfigGuard.
class ConfigGuard {
 public:
  explicit ConfigGuard(const grb::testing::RunConfig &rc)
      : saved_(grb::config()) {
    grb::Config c = saved_;
    c.num_threads = rc.threads;
    c.force_format = static_cast<grb::ForceFormat>(rc.force_format);
    c.force_push = rc.force_push;
    c.force_pull = rc.force_pull;
    c.force_index_width =
        static_cast<grb::ForceIndexWidth>(rc.force_index_width);
    grb::config() = c;
  }
  ~ConfigGuard() { grb::config() = saved_; }
  ConfigGuard(const ConfigGuard &) = delete;
  ConfigGuard &operator=(const ConfigGuard &) = delete;

 private:
  grb::Config saved_;
};

const char *kVarNames[4] = {"a", "b", "c", "d"};

}  // namespace

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

QueryScenario generate(std::uint64_t seed) {
  Rng r{seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL};
  QueryScenario s;
  s.seed = seed;
  s.n = 3 + r.below(14);  // 3..16 keeps the oracle's n^vars loop cheap
  s.directed = r.below(2) == 0;

  std::set<std::pair<std::uint64_t, std::uint64_t>> edges;
  const std::uint64_t style = r.below(3);
  if (style == 0) {
    // Sparse ER: expected degree ~2.
    for (std::uint64_t i = 0; i < s.n; ++i) {
      for (std::uint64_t j = 0; j < s.n; ++j) {
        if (i != j && r.below(s.n) < 2) edges.insert({i, j});
      }
    }
  } else if (style == 1) {
    // Dense ER: p = 0.3.
    for (std::uint64_t i = 0; i < s.n; ++i) {
      for (std::uint64_t j = 0; j < s.n; ++j) {
        if (i != j && r.below(10) < 3) edges.insert({i, j});
      }
    }
  } else {
    // Hub-skewed (power-law-ish): half the endpoints land on nodes 0..2.
    const std::uint64_t m = s.n + r.below(2 * s.n);
    for (std::uint64_t e = 0; e < m; ++e) {
      const std::uint64_t src =
          r.below(2) == 0 ? r.below(3) % s.n : r.below(s.n);
      const std::uint64_t dst = r.below(s.n);
      if (src != dst) edges.insert({src, dst});
    }
  }
  if (r.below(8) == 0) {
    const std::uint64_t v = r.below(s.n);
    edges.insert({v, v});  // occasional self loop
  }
  s.edges.assign(edges.begin(), edges.end());

  // Query: a chain over 1..4 variables, sometimes with a closing edge.
  std::uint64_t nv = 1 + r.below(3);
  if (nv < 4 && r.below(8) == 0) ++nv;
  const char *arrows[3] = {"-[]->", "<-[]-", "-[]-"};
  std::string text = "MATCH ";
  text += "(";
  text += kVarNames[0];
  text += ")";
  for (std::uint64_t v = 1; v < nv; ++v) {
    text += arrows[r.below(3)];
    text += "(";
    text += kVarNames[v];
    text += ")";
  }
  if (nv >= 3 && r.below(2) == 0) {
    const std::uint64_t i = r.below(nv);
    std::uint64_t j = r.below(nv);
    if (j == i) j = (j + 1) % nv;
    text += ", (";
    text += kVarNames[i];
    text += ")";
    text += arrows[r.below(3)];
    text += "(";
    text += kVarNames[j];
    text += ")";
  }

  std::vector<std::string> preds;
  if (r.below(2) == 0) {
    // Pin; occasionally out of range, which must yield an empty result.
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s = %llu", kVarNames[r.below(nv)],
                  static_cast<unsigned long long>(r.below(s.n + 2)));
    preds.emplace_back(buf);
  }
  if (nv >= 2 && r.below(3) == 0) {
    const std::uint64_t i = r.below(nv);
    std::uint64_t j = r.below(nv);
    if (j == i) j = (j + 1) % nv;
    preds.emplace_back(std::string(kVarNames[i]) + " <> " + kVarNames[j]);
  }
  if (r.below(3) == 0) {
    const char *cmps[5] = {">=", "<=", ">", "<", "="};
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s.%s %s %llu", kVarNames[r.below(nv)],
                  r.below(2) == 0 ? "out" : "in", cmps[r.below(5)],
                  static_cast<unsigned long long>(r.below(4)));
    preds.emplace_back(buf);
  }
  for (std::size_t i = 0; i < preds.size(); ++i) {
    text += i == 0 ? " WHERE " : " AND ";
    text += preds[i];
  }

  if (r.below(2) == 0) {
    text += " RETURN COUNT(*)";
  } else {
    const std::uint64_t nr = 1 + r.below(nv);
    text += " RETURN ";
    for (std::uint64_t i = 0; i < nr; ++i) {
      if (i > 0) text += ", ";
      text += kVarNames[r.below(nv)];
    }
  }
  if (r.below(4) == 0) {
    text += " LIMIT " + std::to_string(r.below(8));
  }
  s.text = text;
  return s;
}

// ---------------------------------------------------------------------------
// .repro round-trip (append-only keys)
// ---------------------------------------------------------------------------

std::string serialize(const QueryScenario &s) {
  std::ostringstream out;
  out << "qscenario v1\n";
  out << "seed " << s.seed << "\n";
  out << "n " << s.n << "\n";
  out << "directed " << (s.directed ? 1 : 0) << "\n";
  for (const auto &[i, j] : s.edges) out << "edge " << i << " " << j << "\n";
  out << "query " << s.text << "\n";
  out << "end\n";
  return out.str();
}

bool parse_scenario(const std::string &text, QueryScenario *out,
                    std::string *error) {
  *out = QueryScenario{};
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line.rfind("qscenario v", 0) != 0) {
    if (error != nullptr) *error = "missing 'qscenario v1' header";
    return false;
  }
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "end") break;
    if (key == "seed") {
      ls >> out->seed;
    } else if (key == "n") {
      ls >> out->n;
    } else if (key == "directed") {
      int d = 1;
      ls >> d;
      out->directed = d != 0;
    } else if (key == "edge") {
      std::uint64_t i = 0;
      std::uint64_t j = 0;
      if (!(ls >> i >> j)) {
        if (error != nullptr) *error = "malformed edge line: " + line;
        return false;
      }
      out->edges.emplace_back(i, j);
    } else if (key == "query") {
      const auto pos = line.find("query ");
      out->text = line.substr(pos + 6);
    }
    // Unknown keys are skipped: the format grows append-only.
  }
  if (out->n == 0) {
    if (error != nullptr) *error = "scenario has no 'n' line";
    return false;
  }
  for (const auto &[i, j] : out->edges) {
    if (i >= out->n || j >= out->n) {
      if (error != nullptr) *error = "edge endpoint out of range";
      return false;
    }
  }
  if (out->text.empty()) {
    if (error != nullptr) *error = "scenario has no 'query' line";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Graph materialization
// ---------------------------------------------------------------------------

Graph<double> build_graph(const QueryScenario &s, bool cache_properties) {
  const auto n = static_cast<grb::Index>(s.n);
  grb::Matrix<double> a(n, n);
  for (const auto &[i, j] : s.edges) {
    a.set_element(static_cast<grb::Index>(i), static_cast<grb::Index>(j),
                  1.0);
    if (!s.directed && i != j) {
      a.set_element(static_cast<grb::Index>(j), static_cast<grb::Index>(i),
                    1.0);
    }
  }
  Graph<double> g;
  char msg[LAGRAPH_MSG_LEN];
  make_graph(g, std::move(a),
             s.directed ? Kind::adjacency_directed
                        : Kind::adjacency_undirected,
             msg);
  g.a.finalize();
  if (cache_properties) {
    property_at(g, msg);
    property_row_degree(g, msg);
    property_col_degree(g, msg);
    if (g.at.has_value()) g.at->finalize();
  }
  return g;
}

// ---------------------------------------------------------------------------
// Oracle: tuple-at-a-time interpretation, no grb:: ops involved.
// ---------------------------------------------------------------------------

int run_oracle(ResultSet *out, const Query &q, const QueryScenario &s) {
  const std::size_t n = s.n;
  std::vector<char> adj(n * n, 0);
  for (const auto &[i, j] : s.edges) {
    adj[i * n + j] = 1;
    if (!s.directed) adj[j * n + i] = 1;
  }
  std::vector<std::int64_t> outdeg(n, 0);
  std::vector<std::int64_t> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (adj[i * n + j]) {
        ++outdeg[i];
        ++indeg[j];
      }
    }
  }
  const auto cmp_ok = [](std::int64_t v, CmpOp op, std::int64_t k) {
    switch (op) {
      case CmpOp::ge: return v >= k;
      case CmpOp::le: return v <= k;
      case CmpOp::gt: return v > k;
      case CmpOp::lt: return v < k;
      case CmpOp::eq: return v == k;
    }
    return false;
  };

  const int nv = static_cast<int>(q.vars.size());
  std::vector<std::int64_t> bind(nv, 0);
  std::vector<std::vector<std::int64_t>> rows;
  std::uint64_t count = 0;

  // Odometer over all n^nv assignments; every constraint checked flat.
  const auto assignment_ok = [&]() {
    for (const PinConstraint &p : q.pins) {
      if (bind[p.var] != p.node) return false;
    }
    for (const NeqConstraint &ne : q.neqs) {
      if (bind[ne.a] == bind[ne.b]) return false;
    }
    for (const DegreeConstraint &d : q.degs) {
      const auto v = static_cast<std::size_t>(bind[d.var]);
      if (!cmp_ok(d.out_degree ? outdeg[v] : indeg[v], d.cmp, d.bound)) {
        return false;
      }
    }
    for (const EdgeConstraint &e : q.edges) {
      const auto si = static_cast<std::size_t>(bind[e.src]);
      const auto di = static_cast<std::size_t>(bind[e.dst]);
      if (e.dir == EdgeDir::out) {
        if (!adj[si * n + di]) return false;
      } else {
        if (!adj[si * n + di] && !adj[di * n + si]) return false;
      }
    }
    return true;
  };

  std::vector<std::size_t> odo(nv, 0);
  for (;;) {
    for (int v = 0; v < nv; ++v) {
      bind[v] = static_cast<std::int64_t>(odo[v]);
    }
    if (assignment_ok()) {
      if (q.count_only) {
        ++count;
      } else {
        std::vector<std::int64_t> row;
        row.reserve(q.returns.size());
        for (const int v : q.returns) row.push_back(bind[v]);
        rows.push_back(std::move(row));
      }
    }
    int v = nv - 1;
    while (v >= 0 && ++odo[v] == n) {
      odo[v] = 0;
      --v;
    }
    if (v < 0) break;
  }

  out->clear();
  if (q.count_only) {
    out->columns.emplace_back("count");
    rows.clear();
    rows.push_back({static_cast<std::int64_t>(count)});
  } else {
    for (const int v : q.returns) out->columns.push_back(q.vars[v]);
    std::sort(rows.begin(), rows.end());
  }
  if (q.limit >= 0 && rows.size() > static_cast<std::size_t>(q.limit)) {
    rows.resize(static_cast<std::size_t>(q.limit));
  }
  out->data.assign(out->columns.size(), {});
  for (const auto &row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out->data[c].push_back(row[c]);
    }
  }
  return LAGRAPH_OK;
}

// ---------------------------------------------------------------------------
// Differ
// ---------------------------------------------------------------------------

std::string QueryMismatch::to_string() const {
  std::string out = "query mismatch under " + config + "\n" + detail +
                    "\nscenario:\n" + serialize(scenario);
  return out;
}

namespace {

/// One sweep leg against a pre-computed oracle result (the oracle is
/// config-independent, so check_sweep computes it once per scenario).
std::optional<QueryMismatch> check_leg(const QueryScenario &s, const Query &q,
                                       const ResultSet &expected,
                                       const grb::testing::RunConfig &rc,
                                       bool optimized,
                                       QueryPlan::Finish *finish = nullptr) {
  const std::string cfg =
      rc.name() + (optimized ? " [optimized]" : " [naive]");
  const auto mismatch = [&](const std::string &detail) {
    return QueryMismatch{s, cfg, detail};
  };
  char msg[LAGRAPH_MSG_LEN] = {0};

  ConfigGuard guard(rc);
  // Cached properties only on the optimized leg, so both the CSE reuse
  // paths and the compute-on-demand fallbacks stay covered.
  Graph<double> g = build_graph(s, optimized);
  QueryPlan plan;
  int rc2 = compile(&plan, q, g, optimized, msg);
  if (rc2 != LAGRAPH_OK) {
    return mismatch(std::string("compile error: ") + msg);
  }
  if (finish != nullptr) *finish = plan.finish;
  ResultSet got;
  rc2 = execute(&got, q, plan, g, msg);
  if (rc2 != LAGRAPH_OK) {
    return mismatch(std::string("execute error: ") + msg);
  }
  if (got != expected) {
    return mismatch("expected:\n" + expected.to_string() + "got:\n" +
                    got.to_string() + "plan:\n" + plan.explain(q));
  }
  return std::nullopt;
}

}  // namespace

std::optional<QueryMismatch> check_one(const QueryScenario &s,
                                       const grb::testing::RunConfig &rc,
                                       bool optimized) {
  char msg[LAGRAPH_MSG_LEN] = {0};
  Query q;
  if (parse(&q, s.text, msg) != LAGRAPH_OK) {
    return QueryMismatch{s, rc.name(),
                         std::string("parse error: ") + msg};
  }
  ResultSet expected;
  run_oracle(&expected, q, s);
  return check_leg(s, q, expected, rc, optimized);
}

std::optional<QueryMismatch> check_sweep(const QueryScenario &s,
                                         std::uint64_t *instances,
                                         QueryPlan::Finish *finish) {
  char msg[LAGRAPH_MSG_LEN] = {0};
  Query q;
  if (parse(&q, s.text, msg) != LAGRAPH_OK) {
    return QueryMismatch{s, "(parse)", std::string("parse error: ") + msg};
  }
  ResultSet expected;
  run_oracle(&expected, q, s);
  for (const grb::testing::RunConfig &rc : grb::testing::sweep_configs()) {
    for (const bool optimized : {false, true}) {
      auto mm = check_leg(s, q, expected, rc, optimized,
                          optimized ? finish : nullptr);
      if (instances != nullptr) ++*instances;
      if (mm) return mm;
    }
  }
  return std::nullopt;
}

QueryScenario minimize(QueryScenario s) {
  const auto still_fails = [](const QueryScenario &c) {
    return check_sweep(c).has_value();
  };
  if (!still_fails(s)) return s;
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    // Drop one edge at a time.
    for (std::size_t i = 0; i < s.edges.size();) {
      QueryScenario c = s;
      c.edges.erase(c.edges.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(c)) {
        s = std::move(c);
        shrunk = true;
      } else {
        ++i;
      }
    }
    // Drop the highest node (and its incident edges).
    while (s.n > 1) {
      QueryScenario c = s;
      --c.n;
      c.edges.erase(std::remove_if(c.edges.begin(), c.edges.end(),
                                   [&](const auto &e) {
                                     return e.first >= c.n ||
                                            e.second >= c.n;
                                   }),
                    c.edges.end());
      if (!still_fails(c)) break;
      s = std::move(c);
      shrunk = true;
    }
  }
  return s;
}

QueryFuzzReport fuzz(const QueryFuzzOptions &opt) {
  QueryFuzzReport rep;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t seed = opt.seed;
  for (;;) {
    if (opt.max_scenarios > 0 && rep.scenarios >= opt.max_scenarios) break;
    if (opt.seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() >= opt.seconds) break;
    }
    if (opt.max_scenarios == 0 && opt.seconds <= 0) break;
    const QueryScenario s = generate(seed);
    QueryPlan::Finish finish = QueryPlan::Finish::enumerate;
    auto mm = check_sweep(s, &rep.instances, &finish);
    ++rep.scenarios;
    if (finish == QueryPlan::Finish::count) ++rep.count_chain;
    if (finish == QueryPlan::Finish::rows) ++rep.projection_chain;
    if (mm) {
      rep.ok = false;
      rep.failing_seed = seed;
      rep.detail = mm->to_string();
      QueryScenario small = opt.shrink ? minimize(s) : s;
      rep.repro = serialize(small);
      break;
    }
    ++seed;
  }
  return rep;
}

std::optional<QueryMismatch> replay_file(const std::string &path,
                                         std::string *error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  QueryScenario s;
  std::string perr;
  if (!parse_scenario(ss.str(), &s, &perr)) {
    if (error != nullptr) *error = path + ": " + perr;
    return std::nullopt;
  }
  if (error != nullptr) error->clear();
  return check_sweep(s);
}

grb::testing::ReplayOutcome replay_corpus(const std::string &dir) {
  grb::testing::ReplayOutcome outcome;
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto &entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".repro") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string &p : paths) {
    ++outcome.files;
    std::ifstream f(p);
    std::stringstream ss;
    ss << f.rdbuf();
    QueryScenario s;
    std::string perr;
    if (!parse_scenario(ss.str(), &s, &perr)) {
      ++outcome.failures;
      outcome.detail += p + ": " + perr + "\n";
      continue;
    }
    auto mm = check_sweep(s, &outcome.instances);
    if (mm) {
      ++outcome.failures;
      outcome.detail += p + ":\n" + mm->to_string() + "\n";
    }
  }
  return outcome;
}

}  // namespace testing
}  // namespace query
}  // namespace lagraph

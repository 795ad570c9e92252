// query/src/exec.cpp — executes compiled query plans.
//
// Phase 1 (pruning) runs the plan's seed/filter/prune steps as grb:: ops
// over per-variable candidate vectors (any.pair semiring — structure
// only). Phase 2 (enumeration) is a depth-first bind over the plan's
// variable order that walks adjacency rows and re-checks every edge and
// inequality constraint, so any sound pruning schedule yields the same
// rows. Rows are sorted lexicographically and truncated by LIMIT, which
// makes the result bit-comparable against the tuple-at-a-time oracle.
//
// A walk-chain plan runs only its seed and degree-filter steps, then its
// products (plus.first over uint64 walk counts) in place of both phases,
// and finishes the last walk vector: a reduce for COUNT(*), or its indices
// by walk count for a one-column RETURN. No pruning, no enumeration.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "grb/grb.hpp"
#include "lagraph/status.hpp"
#include "query/plan.hpp"

namespace lagraph {
namespace query {

namespace {

using grb::Index;
using Cand = grb::Vector<std::int64_t>;
/// Per-node walk counts of a walk chain. Unsigned, like the enumerator's
/// counter: a sum past 2^64 wraps identically on both paths (a signed plus
/// monoid would overflow into undefined behaviour instead).
using Walks = grb::Vector<std::uint64_t>;

/// Dense degree vector with explicit zeros (isolated nodes must satisfy
/// predicates like `a.out < 3`, so implicit-zero sparsity is not enough).
/// Reuses the snapshot's cached property when present (CSE), otherwise
/// computes one the same way lagraph::property_row/col_degree does.
Cand dense_degrees(const Graph<double> &g, bool out_degree) {
  const Index n = g.a.nrows();
  const grb::Vector<std::int64_t> *src = nullptr;
  grb::Vector<std::int64_t> local;
  if (out_degree) {
    if (g.row_degree.has_value()) src = &*g.row_degree;
  } else {
    if (g.col_degree.has_value()) {
      src = &*g.col_degree;
    } else if (g.kind == Kind::adjacency_undirected &&
               g.row_degree.has_value()) {
      src = &*g.row_degree;  // symmetric pattern: col degree == row degree
    }
  }
  if (src == nullptr) {
    local = grb::Vector<std::int64_t>(n);
    grb::Matrix<std::int64_t> pat(g.a.nrows(), g.a.ncols());
    grb::apply(pat, grb::no_mask, grb::NoAccum{}, grb::One{}, g.a);
    grb::reduce(local, grb::no_mask, grb::NoAccum{},
                grb::PlusMonoid<std::int64_t>{}, pat,
                out_degree ? grb::desc::DEFAULT : grb::desc::T0);
    src = &local;
  }
  Cand dense = Cand::full(n, 0);
  src->for_each([&](Index i, const std::int64_t &d) {
    dense.set_element(i, d);
  });
  return dense;
}

/// Candidate seed for one variable: dense unless pinned. Conflicting or
/// out-of-range pins legitimately produce an empty candidate set.
Cand seed_candidates(const Query &q, int var, Index n) {
  bool pinned = false;
  bool conflict = false;
  std::int64_t node = -1;
  for (const PinConstraint &pin : q.pins) {
    if (pin.var != var) continue;
    if (pinned && pin.node != node) conflict = true;
    pinned = true;
    node = pin.node;
  }
  if (!pinned) return Cand::full(n, 1);
  Cand c(n);
  if (!conflict && node >= 0 && node < static_cast<std::int64_t>(n)) {
    c.set_element(static_cast<Index>(node), 1);
  }
  return c;
}

/// Reachable set from `from` across one edge hop. `forward` follows the
/// stored src→dst orientation; reverse traversal prefers the cached A^T
/// (vxm stays a row-major push) and falls back to a pull mxv over A.
/// When `masked`, the target's current candidates are pushed into the op
/// as a structural mask, so the result is already the intersection.
Cand edge_reach(const Cand &from, const grb::Matrix<double> &a,
                const grb::Matrix<double> *at, bool forward, bool masked,
                const Cand &target) {
  Cand r(from.size());
  const grb::AnyPair<std::int64_t> sr{};
  if (forward) {
    if (masked) {
      grb::vxm(r, target, grb::NoAccum{}, sr, from, a, grb::desc::S);
    } else {
      grb::vxm(r, grb::no_mask, grb::NoAccum{}, sr, from, a);
    }
  } else if (at != nullptr) {
    if (masked) {
      grb::vxm(r, target, grb::NoAccum{}, sr, from, *at, grb::desc::S);
    } else {
      grb::vxm(r, grb::no_mask, grb::NoAccum{}, sr, from, *at);
    }
  } else {
    if (masked) {
      grb::mxv(r, target, grb::NoAccum{}, sr, a, from, grb::desc::S);
    } else {
      grb::mxv(r, grb::no_mask, grb::NoAccum{}, sr, a, from);
    }
  }
  return r;
}

/// Run one prune step: cand[var] ∩= reach(cand[from] over edge).
void run_prune(const Query &q, const PlanStep &s, const Graph<double> &g,
               std::vector<Cand> *cand) {
  const EdgeConstraint &e = q.edges[s.edge];
  const grb::Matrix<double> *at = g.transpose_view();
  Cand &target = (*cand)[s.var];
  const Cand &from = (*cand)[s.from];
  Cand reach(from.size());
  if (e.dir == EdgeDir::both) {
    // Union of out- and in-neighborhoods; masking distributes over the
    // union, so both halves can take the pushed-down mask.
    Cand fwd = edge_reach(from, g.a, at, true, s.masked, target);
    Cand bwd = edge_reach(from, g.a, at, false, s.masked, target);
    grb::eWiseAdd(reach, grb::no_mask, grb::NoAccum{},
                  grb::LOr{}, fwd, bwd);
  } else {
    reach = edge_reach(from, g.a, at, s.forward, s.masked, target);
  }
  if (s.masked) {
    target = std::move(reach);
  } else {
    Cand next(from.size());
    grb::eWiseMult(next, grb::no_mask, grb::NoAccum{},
                   grb::Pair{}, reach, target);
    target = std::move(next);
  }
}

/// Degree filter: cand[var] ∩= select(cmp, degrees, bound).
void run_degree_filter(const Query &q, const PlanStep &s,
                       const Graph<double> &g, std::vector<Cand> *cand) {
  const DegreeConstraint &d = q.degs[s.deg];
  const Cand deg = dense_degrees(g, d.out_degree);
  Cand ok(deg.size());
  switch (d.cmp) {
    case CmpOp::ge:
      grb::select(ok, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, deg,
                  d.bound);
      break;
    case CmpOp::le:
      grb::select(ok, grb::no_mask, grb::NoAccum{}, grb::ValueLe{}, deg,
                  d.bound);
      break;
    case CmpOp::gt:
      grb::select(ok, grb::no_mask, grb::NoAccum{}, grb::ValueGt{}, deg,
                  d.bound);
      break;
    case CmpOp::lt:
      grb::select(ok, grb::no_mask, grb::NoAccum{}, grb::ValueLt{}, deg,
                  d.bound);
      break;
    case CmpOp::eq:
      grb::select(ok, grb::no_mask, grb::NoAccum{}, grb::ValueEq{}, deg,
                  d.bound);
      break;
  }
  Cand next(deg.size());
  grb::eWiseMult(next, grb::no_mask, grb::NoAccum{},
                 grb::Pair{}, (*cand)[s.var], ok);
  (*cand)[s.var] = std::move(next);
}

/// One walk-chain product: r(v) = Σ m(u) over the edge's arcs u→v (the
/// walk counts ending at `from` pushed onto `var`), masked by `var`'s
/// candidates when the plan pushed them. Reverse arcs take the cached A^T
/// or, without one, a pull mxv over A (plus.second: the count rides in
/// from the vector side of A ⊕.⊗ m).
template <typename U>
Walks count_hop(const grb::Vector<U> &m, const PlanStep &s,
                const Graph<double> &g, const Cand &target) {
  Walks r(m.size());
  const grb::Matrix<double> *at = g.transpose_view();
  if (s.forward || at != nullptr) {
    const grb::Matrix<double> &op = s.forward ? g.a : *at;
    const grb::PlusFirst<std::uint64_t> sr{};
    if (s.masked) {
      grb::vxm(r, target, grb::NoAccum{}, sr, m, op, grb::desc::S);
    } else {
      grb::vxm(r, grb::no_mask, grb::NoAccum{}, sr, m, op);
    }
  } else {
    const grb::PlusSecond<std::uint64_t> sr{};
    if (s.masked) {
      grb::mxv(r, target, grb::NoAccum{}, sr, g.a, m, grb::desc::S);
    } else {
      grb::mxv(r, grb::no_mask, grb::NoAccum{}, sr, g.a, m);
    }
  }
  return r;
}

void finish_rows(const Query &q, std::vector<std::vector<std::int64_t>> rows,
                 std::uint64_t count, ResultSet *out) {
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
  for (auto &col : out->data) col.reserve(rows.size());
  for (const auto &row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out->data[c].push_back(row[c]);
    }
  }
}

/// Finish a walk chain from `m`, the walk counts ending at each node of
/// its last variable (a candidate vector, one walk per node, when the
/// pattern has a single variable). A '<>' against a pinned variable first
/// drops that variable's seed, at most its one node. COUNT(*) sums the
/// rest; RETURN emits each index in ascending order, repeated by its walk
/// count and cut at LIMIT: the sorted bag the enumerator would build.
template <typename U>
void finish_chain(const Query &q, const QueryPlan &plan,
                  const std::vector<Cand> &cand, grb::Vector<U> m,
                  ResultSet *out) {
  const int last = plan.enum_order.back();
  for (const NeqConstraint &ne : q.neqs) {
    cand[ne.a == last ? ne.b : ne.a].for_each(
        [&](Index i, const std::int64_t &) { m.remove_element(i); });
  }
  if (plan.finish == QueryPlan::Finish::count) {
    std::uint64_t count = 0;
    grb::reduce(count, grb::NoAccum{}, grb::PlusMonoid<std::uint64_t>{}, m);
    finish_rows(q, {}, count, out);
    return;
  }
  out->clear();
  out->columns.push_back(q.vars[last]);
  std::vector<std::int64_t> &col = out->data.emplace_back();
  const std::uint64_t cap = q.limit >= 0 ? static_cast<std::uint64_t>(q.limit)
                                         : UINT64_MAX;
  m.for_each([&](Index i, const U &walks) {
    const std::uint64_t take =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(walks),
                                cap - col.size());
    col.insert(col.end(), take, static_cast<std::int64_t>(i));
  });
}

/// Run a walk chain: the start variable's candidates pushed across every
/// hop (1ᵀ·A·…·A restricted to the seeds), then finished.
void run_chain(const Query &q, const QueryPlan &plan, const Graph<double> &g,
               const std::vector<Cand> &cand, ResultSet *out) {
  std::optional<Walks> m;  // unset until the first hop
  for (const PlanStep &s : plan.steps) {
    if (s.kind != PlanStep::Kind::count_hop) continue;
    m = m ? count_hop(*m, s, g, cand[s.var])
          : count_hop(cand[s.from], s, g, cand[s.var]);
  }
  if (m) {
    finish_chain(q, plan, cand, std::move(*m), out);
  } else {  // a single-variable pattern
    finish_chain(q, plan, cand, cand[plan.enum_order.front()], out);
  }
}

// ---------------------------------------------------------------------------
// Phase 2: depth-first enumeration over the pruned candidate sets.
// ---------------------------------------------------------------------------

struct Enumerator {
  const Query &q;
  const QueryPlan &plan;
  const grb::Matrix<double> &a;
  const grb::Matrix<double> *at;
  Index n;
  std::vector<std::vector<char>> candbit;    // per var, membership
  std::vector<std::vector<Index>> candlist;  // per var, ascending
  std::vector<std::vector<int>> check_edges;  // per depth: edge indices
  std::vector<std::vector<int>> check_neqs;   // per depth: neq indices
  std::vector<int> gen_edge;  // per depth: edge to extend along, or -1
  std::vector<std::int64_t> binding;
  std::uint64_t count = 0;
  std::vector<std::vector<std::int64_t>> rows;

  Enumerator(const Query &qq, const QueryPlan &pp, const Graph<double> &g,
             const std::vector<Cand> &cand)
      : q(qq), plan(pp), a(g.a), at(g.transpose_view()), n(g.a.nrows()) {
    const int nv = static_cast<int>(q.vars.size());
    candbit.resize(nv, std::vector<char>(static_cast<std::size_t>(n), 0));
    candlist.resize(nv);
    for (int v = 0; v < nv; ++v) {
      cand[v].for_each([&](Index i, const std::int64_t &) {
        candbit[v][i] = 1;
        candlist[v].push_back(i);
      });
      std::sort(candlist[v].begin(), candlist[v].end());
    }
    // Position of each variable in the enumeration order.
    std::vector<int> pos(nv, 0);
    for (int d = 0; d < nv; ++d) pos[plan.enum_order[d]] = d;
    check_edges.resize(nv);
    check_neqs.resize(nv);
    gen_edge.assign(nv, -1);
    for (std::size_t i = 0; i < q.edges.size(); ++i) {
      const EdgeConstraint &e = q.edges[i];
      const int d = std::max(pos[e.src], pos[e.dst]);
      check_edges[d].push_back(static_cast<int>(i));
      // The first edge whose other endpoint binds earlier generates this
      // depth's extension candidates from an adjacency row.
      if (e.src != e.dst && gen_edge[d] < 0) {
        gen_edge[d] = static_cast<int>(i);
      }
    }
    for (std::size_t i = 0; i < q.neqs.size(); ++i) {
      const int d = std::max(pos[q.neqs[i].a], pos[q.neqs[i].b]);
      check_neqs[d].push_back(static_cast<int>(i));
    }
    binding.assign(nv, -1);
  }

  [[nodiscard]] bool edge_holds(const EdgeConstraint &e) const {
    const auto s = static_cast<Index>(binding[e.src]);
    const auto d = static_cast<Index>(binding[e.dst]);
    if (e.dir == EdgeDir::out) return a.has(s, d);
    return a.has(s, d) || a.has(d, s);
  }

  /// Sorted, deduped extension candidates for depth `d` binding var `v`.
  void extension(int d, int v, std::vector<Index> *out) const {
    out->clear();
    const int ge = gen_edge[d];
    if (ge < 0) {
      *out = candlist[v];
      return;
    }
    const EdgeConstraint &e = q.edges[ge];
    const bool v_is_dst = (e.dst == v);
    const Index other =
        static_cast<Index>(binding[v_is_dst ? e.src : e.dst]);
    const bool want_out = (e.dir == EdgeDir::both) || v_is_dst;
    const bool want_in = (e.dir == EdgeDir::both) || !v_is_dst;
    if (want_out) {
      a.for_each_in_row(other, [&](Index j, const double &) {
        out->push_back(j);
      });
    }
    if (want_in) {
      if (at != nullptr) {
        at->for_each_in_row(other, [&](Index j, const double &) {
          out->push_back(j);
        });
      } else {
        // No cached transpose: fall back to scanning the (already pruned)
        // candidate list and probing A directly.
        for (const Index c : candlist[v]) {
          if (a.has(c, other)) out->push_back(c);
        }
      }
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }

  void walk(int depth, std::vector<std::vector<Index>> *scratch) {
    const int nv = static_cast<int>(q.vars.size());
    if (depth == nv) {
      if (q.count_only) {
        ++count;
      } else {
        std::vector<std::int64_t> row;
        row.reserve(q.returns.size());
        for (const int v : q.returns) row.push_back(binding[v]);
        rows.push_back(std::move(row));
      }
      return;
    }
    const int v = plan.enum_order[depth];
    std::vector<Index> &opts = (*scratch)[depth];
    extension(depth, v, &opts);
    for (const Index node : opts) {
      if (!candbit[v][node]) continue;
      binding[v] = static_cast<std::int64_t>(node);
      bool ok = true;
      for (const int ei : check_edges[depth]) {
        if (!edge_holds(q.edges[ei])) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const int ni : check_neqs[depth]) {
          if (binding[q.neqs[ni].a] == binding[q.neqs[ni].b]) {
            ok = false;
            break;
          }
        }
      }
      if (ok) walk(depth + 1, scratch);
      binding[v] = -1;
    }
  }
};

}  // namespace

std::string ResultSet::to_string() const {
  std::string out;
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) out += ' ';
    out += columns[c];
  }
  out += '\n';
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < data.size(); ++c) {
      if (c > 0) out += ' ';
      out += std::to_string(data[c][r]);
    }
    out += '\n';
  }
  return out;
}

int execute(ResultSet *out, const Query &q, const QueryPlan &plan,
            const Graph<double> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (out == nullptr) {
      return detail::set_msg(msg, LAGRAPH_NULL_POINTER, "execute: null out");
    }
    if (plan.enum_order.size() != q.vars.size()) {
      return detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                             "execute: plan does not match query");
    }
    const Index n = g.a.nrows();
    const int nv = static_cast<int>(q.vars.size());
    std::vector<Cand> cand(static_cast<std::size_t>(nv));

    // Phase 1: run the pruning schedule (a walk chain's products run
    // after it, once every seed is in place).
    for (const PlanStep &s : plan.steps) {
      switch (s.kind) {
        case PlanStep::Kind::seed:
          cand[s.var] = seed_candidates(q, s.var, n);
          break;
        case PlanStep::Kind::degree_filter:
          run_degree_filter(q, s, g, &cand);
          break;
        case PlanStep::Kind::prune:
          run_prune(q, s, g, &cand);
          break;
        case PlanStep::Kind::count_hop:
          // A forward product over '-[]-' is exact only on the symmetric
          // pattern the plan was compiled against.
          if (q.edges[s.edge].dir == EdgeDir::both &&
              g.transpose_view() != &g.a) {
            return detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                   "execute: walk chain needs a symmetric "
                                   "pattern for '-[]-'");
          }
          break;
      }
    }
    if (plan.chain()) {
      run_chain(q, plan, g, cand, out);
      return LAGRAPH_OK;
    }

    // Phase 2: enumerate bindings and build the result table.
    Enumerator en(q, plan, g, cand);
    std::vector<std::vector<Index>> scratch(static_cast<std::size_t>(nv));
    en.walk(0, &scratch);
    finish_rows(q, std::move(en.rows), en.count, out);
    return LAGRAPH_OK;
  });
}

int run(ResultSet *out, const std::string &text, const Graph<double> &g,
        char *msg) {
  Query q;
  int rc = parse(&q, text, msg);
  if (rc != LAGRAPH_OK) return rc;
  QueryPlan plan;
  rc = compile(&plan, q, g, /*optimize=*/true, msg);
  if (rc != LAGRAPH_OK) return rc;
  return execute(out, q, plan, g, msg);
}

}  // namespace query
}  // namespace lagraph

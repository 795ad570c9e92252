// query/src/plan.cpp — the multi-op query optimizer and EXPLAIN renderers.
//
// Compilation is pure planning: it reads only the graph's shape (n, nnz)
// and which cached properties exist, never runs a kernel, so it is cheap
// enough to serve `EXPLAIN` and the engine's per-request plan summaries.
//
// Estimates are deliberately simple (uniform-degree model): a pinned
// variable has 1 candidate, a degree-filtered one n/2 per predicate, an
// unconstrained one n; propagating across an edge multiplies by the
// average degree. That is enough to pick a propagation root and an
// enumeration order — correctness never depends on the numbers because
// enumeration re-checks every constraint. A walk chain is exact by
// construction instead: its products count every walk the path admits.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "lagraph/status.hpp"
#include "query/plan.hpp"

namespace lagraph {
namespace query {

namespace {

/// Clamped candidate estimate after applying one edge hop.
double hop(double src_est, double avg_degree, double n) {
  const double e = src_est * std::max(avg_degree, 1.0);
  return std::min(e, n);
}

/// Seed + degree-filter steps shared by both compilation modes. Returns
/// the post-filter estimates in `est`.
void emit_seeds(const Query &q, QueryPlan *p, double n) {
  const int nv = static_cast<int>(q.vars.size());
  p->est.assign(static_cast<std::size_t>(nv), n);
  std::vector<char> pinned(static_cast<std::size_t>(nv), 0);
  for (const PinConstraint &pin : q.pins) pinned[pin.var] = 1;
  for (int v = 0; v < nv; ++v) {
    if (pinned[v]) p->est[v] = 1.0;
    PlanStep s;
    s.kind = PlanStep::Kind::seed;
    s.var = v;
    s.est_out = p->est[v];
    p->steps.push_back(s);
  }
  for (std::size_t i = 0; i < q.degs.size(); ++i) {
    const DegreeConstraint &d = q.degs[i];
    PlanStep s;
    s.kind = PlanStep::Kind::degree_filter;
    s.var = d.var;
    s.deg = static_cast<int>(i);
    s.est_in = p->est[d.var];
    p->est[d.var] = std::max(p->est[d.var] * 0.5, 1.0);
    s.est_out = p->est[d.var];
    p->steps.push_back(s);
  }
}

/// Emit one prune step propagating candidates from `from` across edge `e`.
void emit_prune(const Query &q, QueryPlan *p, int eidx, int from, double n) {
  const EdgeConstraint &e = q.edges[eidx];
  const int to = (from == e.src) ? e.dst : e.src;
  PlanStep s;
  s.kind = PlanStep::Kind::prune;
  s.edge = eidx;
  s.from = from;
  s.var = to;
  s.forward = (from == e.src);
  // Reverse traversal (and the reverse half of a '-[]-' edge) is served by
  // the cached transpose when the snapshot carries one (CSE); otherwise the
  // executor falls back to a pull-style mxv over A.
  const bool needs_reverse = !s.forward || e.dir == EdgeDir::both;
  s.via_transpose = needs_reverse && p->reuse_transpose;
  // Mask pushdown: once the target's candidate set is already strict,
  // hand it to the op as a structural mask instead of post-filtering.
  s.masked = p->optimized && p->est[to] < n;
  s.est_in = p->est[from];
  s.est_out = std::min(p->est[to], hop(p->est[from], p->avg_degree, n));
  p->est[to] = s.est_out;
  p->steps.push_back(s);
}

/// Naive baseline: one left-to-right sweep over the edges in textual
/// order, no mask pushdown, enumeration in textual variable order.
void schedule_naive(const Query &q, QueryPlan *p, double n) {
  for (std::size_t i = 0; i < q.edges.size(); ++i) {
    emit_prune(q, p, static_cast<int>(i), q.edges[i].src, n);
  }
  p->enum_order.resize(q.vars.size());
  for (std::size_t v = 0; v < q.vars.size(); ++v) {
    p->enum_order[v] = static_cast<int>(v);
  }
}

/// Optimized schedule: start propagation at the most selective variable,
/// walk the constraint graph outward (BFS), then tighten backwards by
/// replaying the emitted prunes in reverse. Enumeration binds the
/// cheapest connected variable next.
void schedule_optimized(const Query &q, QueryPlan *p, double n) {
  const int nv = static_cast<int>(q.vars.size());
  const int ne = static_cast<int>(q.edges.size());
  std::vector<char> visited(static_cast<std::size_t>(nv), 0);
  std::vector<char> handled(static_cast<std::size_t>(ne), 0);
  const std::size_t first_prune = p->steps.size();

  for (;;) {
    int root = -1;
    for (int v = 0; v < nv; ++v) {
      if (!visited[v] && (root < 0 || p->est[v] < p->est[root])) root = v;
    }
    if (root < 0) break;
    std::vector<int> queue{root};
    visited[root] = 1;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const int x = queue[h];
      for (int eidx = 0; eidx < ne; ++eidx) {
        if (handled[eidx]) continue;
        const EdgeConstraint &e = q.edges[eidx];
        if (e.src != x && e.dst != x) continue;
        handled[eidx] = 1;
        const int y = (e.src == x) ? e.dst : e.src;
        emit_prune(q, p, eidx, x, n);
        if (!visited[y]) {
          visited[y] = 1;
          queue.push_back(y);
        }
      }
    }
  }

  // Backward tightening: the outward pass constrained leaves from the
  // root; replaying it reversed pushes the leaves' (now strict) candidate
  // sets back toward the root.
  const std::size_t last_prune = p->steps.size();
  for (std::size_t i = last_prune; i-- > first_prune;) {
    const PlanStep fwd = p->steps[i];  // copy: emit_prune reallocates
    emit_prune(q, p, fwd.edge, fwd.var, n);
  }

  // Enumeration order: cheapest variable first, preferring one connected
  // to the already-ordered set so extension walks adjacency rows instead
  // of scanning candidate lists.
  std::vector<char> ordered(static_cast<std::size_t>(nv), 0);
  for (int step = 0; step < nv; ++step) {
    int best = -1;
    bool best_conn = false;
    for (int v = 0; v < nv; ++v) {
      if (ordered[v]) continue;
      bool conn = false;
      for (const EdgeConstraint &e : q.edges) {
        const int o = (e.src == v) ? e.dst : (e.dst == v ? e.src : -1);
        if (o >= 0 && o != v && ordered[o]) {
          conn = true;
          break;
        }
      }
      if (best < 0 || (conn && !best_conn) ||
          (conn == best_conn && p->est[v] < p->est[best])) {
        best = v;
        best_conn = conn;
      }
    }
    ordered[best] = 1;
    p->enum_order.push_back(best);
  }
}

/// True when the edges of `q` form one simple path over every variable
/// (then `vars` gets the path's variables from one end and `edges` the
/// edge between each consecutive pair), so its matches are walks. A
/// '-[]-' edge needs a symmetric pattern, where A ∪ Aᵀ = A is one product;
/// on a directed pattern the sum of two products would count reciprocal
/// arcs twice.
bool chain_path(const Query &q, const Graph<double> &g, std::vector<int> *vars,
                std::vector<int> *edges) {
  const int nv = static_cast<int>(q.vars.size());
  if (q.edges.size() + 1 != q.vars.size()) return false;
  std::vector<int> degree(static_cast<std::size_t>(nv), 0);
  for (const EdgeConstraint &e : q.edges) {
    if (e.src == e.dst || ++degree[e.src] > 2 || ++degree[e.dst] > 2) {
      return false;
    }
    if (e.dir == EdgeDir::both && g.transpose_view() != &g.a) return false;
  }
  // Walk the unused edges from an end. With nv - 1 edges and no degree
  // above 2, the walk reaches every variable exactly when the pattern is
  // one connected path (a repeated pair or a second component strands one).
  const int start = nv == 1 ? 0
                            : static_cast<int>(
                                  std::find(degree.begin(), degree.end(), 1) -
                                  degree.begin());
  if (start == nv) return false;
  vars->assign(1, start);
  edges->clear();
  std::vector<char> used(q.edges.size(), 0);
  while (edges->size() < q.edges.size()) {
    const int cur = vars->back();
    int next = -1;
    for (std::size_t i = 0; i < q.edges.size() && next < 0; ++i) {
      const EdgeConstraint &e = q.edges[i];
      if (used[i] || (e.src != cur && e.dst != cur)) continue;
      used[i] = 1;
      next = e.src == cur ? e.dst : e.src;
      edges->push_back(static_cast<int>(i));
    }
    if (next < 0) return false;
    vars->push_back(next);
  }
  return true;
}

/// True when every '<>' of `q` pairs `last` with another, pinned variable.
/// A pinned variable binds only its pin's node, so dropping that node from
/// the walk vector at `last` is exact; a conflicting or out-of-range pin
/// leaves an empty seed, which already empties every walk through it.
bool exclusions_end_at(const Query &q, int last) {
  const auto pinned = [&](int v) {
    return std::any_of(q.pins.begin(), q.pins.end(),
                       [&](const PinConstraint &pin) { return pin.var == v; });
  };
  return std::all_of(
      q.neqs.begin(), q.neqs.end(), [&](const NeqConstraint &ne) {
        const int other = ne.a == last ? ne.b : ne.b == last ? ne.a : last;
        return other != last && pinned(other);
      });
}

/// Orient the path so that it ends at the variable the finish reads, or
/// return false when no orientation can finish `q`. A RETURN of one end
/// variable (or of the only one) ends there. COUNT(*) walks from the end
/// nearer its most selective variable, so a pinned end starts from a
/// single node, unless only the other end meets the '<>'s.
bool orient_chain(const Query &q, const QueryPlan &p, std::vector<int> *vars,
                  std::vector<int> *edges) {
  const auto flip = [&] {
    std::reverse(vars->begin(), vars->end());
    std::reverse(edges->begin(), edges->end());
  };
  if (!q.count_only) {
    if (q.returns.size() != 1) return false;
    if (vars->front() == q.returns[0]) flip();
    return vars->back() == q.returns[0] && exclusions_end_at(q, vars->back());
  }
  const auto most_selective = static_cast<std::size_t>(
      std::min_element(vars->begin(), vars->end(),
                       [&](int x, int y) { return p.est[x] < p.est[y]; }) -
      vars->begin());
  if (2 * most_selective > vars->size() - 1) flip();
  if (exclusions_end_at(q, vars->back())) return true;
  flip();
  return exclusions_end_at(q, vars->back());
}

/// Walk-chain schedule over an oriented path: keep only the seeds a
/// product reads (the start vector and the masks of pinned or
/// degree-filtered variables), then one count_hop per edge.
void schedule_chain(const Query &q, QueryPlan *p, const std::vector<int> &vars,
                    const std::vector<int> &edges, double n) {
  std::vector<char> constrained(q.vars.size(), 0);
  for (const PinConstraint &pin : q.pins) constrained[pin.var] = 1;
  for (const DegreeConstraint &d : q.degs) constrained[d.var] = 1;
  std::erase_if(p->steps, [&](const PlanStep &s) {
    return s.kind == PlanStep::Kind::seed && s.var != vars.front() &&
           !constrained[s.var];
  });
  p->finish = q.count_only ? QueryPlan::Finish::count : QueryPlan::Finish::rows;
  p->enum_order = vars;
  for (std::size_t i = 1; i < vars.size(); ++i) {
    const EdgeConstraint &e = q.edges[edges[i - 1]];
    PlanStep s;
    s.kind = PlanStep::Kind::count_hop;
    s.edge = edges[i - 1];
    s.from = vars[i - 1];
    s.var = vars[i];
    s.forward = e.dir == EdgeDir::both || e.src == s.from;
    s.via_transpose = !s.forward && p->reuse_transpose;
    s.masked = constrained[s.var] != 0;
    s.est_in = p->est[s.from];
    s.est_out = std::min(p->est[s.var], hop(s.est_in, p->avg_degree, n));
    p->est[s.var] = s.est_out;
    p->steps.push_back(s);
  }
}

void append(std::string *out, const char *fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out->append(buf);
}

const char *edge_arrow(EdgeDir dir) {
  return dir == EdgeDir::out ? "-[]->" : "-[]-";
}

}  // namespace

int compile(QueryPlan *out, const Query &q, const Graph<double> &g,
            bool optimize, char *msg) {
  detail::clear_msg(msg);
  if (out == nullptr) {
    return detail::set_msg(msg, LAGRAPH_NULL_POINTER, "compile: out is null");
  }
  if (q.vars.empty()) {
    return detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                           "compile: query has no variables");
  }
  *out = QueryPlan{};
  out->optimized = optimize;
  const double n = static_cast<double>(g.a.nrows());
  out->avg_degree =
      n > 0 ? static_cast<double>(g.a.nvals()) / n : 0.0;
  out->reuse_transpose = g.transpose_view() != nullptr;
  out->reuse_row_degree = g.row_degree.has_value();
  out->reuse_col_degree =
      g.col_degree.has_value() ||
      (g.kind == Kind::adjacency_undirected && g.row_degree.has_value());

  emit_seeds(q, out, n);
  std::vector<int> vars;
  std::vector<int> edges;
  if (!optimize) {
    schedule_naive(q, out, n);
  } else if (chain_path(q, g, &vars, &edges) &&
             orient_chain(q, *out, &vars, &edges)) {
    schedule_chain(q, out, vars, edges, n);
  } else {
    schedule_optimized(q, out, n);
  }
  return LAGRAPH_OK;
}

std::string QueryPlan::explain(const Query &q) const {
  std::string out;
  append(&out, "query plan (%s): %zu vars, %zu edges, avg degree %.2f\n",
         optimized ? "optimized" : "naive", q.vars.size(), q.edges.size(),
         avg_degree);
  append(&out, "cse: transpose=%s row_degree=%s col_degree=%s\n",
         reuse_transpose ? "cached" : "computed",
         reuse_row_degree ? "cached" : "computed",
         reuse_col_degree ? "cached" : "computed");
  int i = 0;
  for (const PlanStep &s : steps) {
    ++i;
    switch (s.kind) {
      case PlanStep::Kind::seed:
        if (s.est_out == 1.0) {
          append(&out, "%3d. seed %s := pinned (est 1)\n", i,
                 q.vars[s.var].c_str());
        } else {
          append(&out, "%3d. seed %s := all (est %.3g)\n", i,
                 q.vars[s.var].c_str(), s.est_out);
        }
        break;
      case PlanStep::Kind::degree_filter: {
        const DegreeConstraint &d = q.degs[s.deg];
        append(&out, "%3d. filter %s.%s %s %lld via select(%s) est %.3g -> %.3g\n",
               i, q.vars[s.var].c_str(), d.out_degree ? "out" : "in",
               cmp_name(d.cmp), static_cast<long long>(d.bound),
               d.out_degree ? "row_degree" : "col_degree", s.est_in,
               s.est_out);
        break;
      }
      case PlanStep::Kind::prune: {
        const EdgeConstraint &e = q.edges[s.edge];
        const char *op;
        if (e.dir == EdgeDir::both) {
          op = s.via_transpose ? "vxm(A)+vxm(A^T)" : "vxm(A)+mxv(A)";
        } else if (s.forward) {
          op = "vxm(A)";
        } else {
          op = s.via_transpose ? "vxm(A^T)" : "mxv(A)";
        }
        append(&out,
               "%3d. prune %s <- %s over (%s)%s(%s) %s[any.pair] mask=%s "
               "est %.3g -> %.3g\n",
               i, q.vars[s.var].c_str(), q.vars[s.from].c_str(),
               q.vars[e.src].c_str(), edge_arrow(e.dir),
               q.vars[e.dst].c_str(), op,
               s.masked ? "pushed" : "post-filter", s.est_in, s.est_out);
        break;
      }
      case PlanStep::Kind::count_hop: {
        const EdgeConstraint &e = q.edges[s.edge];
        const char *op = s.forward         ? "vxm(A)[plus.first]"
                         : s.via_transpose ? "vxm(A^T)[plus.first]"
                                           : "mxv(A)[plus.second]";
        append(&out,
               "%3d. hop %s <- %s over (%s)%s(%s) %s mask=%s "
               "est %.3g -> %.3g\n",
               i, q.vars[s.var].c_str(), q.vars[s.from].c_str(),
               q.vars[e.src].c_str(), edge_arrow(e.dir),
               q.vars[e.dst].c_str(), op, s.masked ? "pushed" : "none",
               s.est_in, s.est_out);
        break;
      }
    }
  }
  out += chain() ? "walk order:" : "enum order:";
  for (const int v : enum_order) {
    out += ' ';
    out += q.vars[v];
  }
  if (chain()) {
    const int last = enum_order.back();
    if (finish == Finish::count) {
      append(&out, "\ncount := reduce(plus.uint64) over %s",
             q.vars[last].c_str());
    } else {
      append(&out, "\nrows := %s by walk count, ascending",
             q.vars[last].c_str());
    }
    for (const NeqConstraint &ne : q.neqs) {
      append(&out, ", minus pinned %s",
             q.vars[ne.a == last ? ne.b : ne.a].c_str());
    }
    if (finish == Finish::rows && q.limit >= 0) {
      append(&out, ", LIMIT %lld", static_cast<long long>(q.limit));
    }
    out += ", no enumeration";
  }
  out += '\n';
  return out;
}

std::string QueryPlan::explain_line() const {
  std::size_t ops = 0;  // prune steps, or count_hop steps of a walk chain
  std::size_t masked = 0;
  for (const PlanStep &s : steps) {
    if (s.kind != PlanStep::Kind::prune &&
        s.kind != PlanStep::Kind::count_hop) {
      continue;
    }
    ++ops;
    if (s.masked) ++masked;
  }
  std::string cse;
  if (reuse_transpose) cse += "at,";
  if (reuse_row_degree || reuse_col_degree) cse += "deg,";
  if (!cse.empty()) cse.pop_back();
  std::string order;
  for (const int v : enum_order) {
    if (!order.empty()) order += ',';
    order += std::to_string(v);
  }
  std::string out = optimized ? "cypher[opt]" : "cypher[naive]";
  out += " vars=" + std::to_string(est.size());
  out += finish == Finish::count  ? " count=chain hops="
         : finish == Finish::rows ? " rows=chain hops="
                                  : " prunes=";
  out += std::to_string(ops) + " masked=" + std::to_string(masked);
  out += " order=" + order + " cse=" + (cse.empty() ? "none" : cse);
  return out;
}

}  // namespace query
}  // namespace lagraph

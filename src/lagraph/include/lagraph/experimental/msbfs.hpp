// lagraph/experimental/msbfs.hpp — multi-source batched BFS (experimental).
//
// Runs a batch of BFS traversals as one computation on an ns×n level matrix
// (the same batching trick as the betweenness-centrality forward phase).
// Two implementations share the same contract:
//
//   - msbfs_levels_reference: the linear-algebra formulation. The frontier F
//     is an ns×n boolean matrix, one row per source, advanced by
//       F⟨¬s(Seen), r⟩ = F any.pair A
//     with the level recorded into L at every step. Kept as the executable
//     specification; the property tests cross-check the fast kernel
//     against it.
//
//   - msbfs_levels: the production kernel behind lagraph::service's query
//     batching. Sources are processed in groups of 64; each group packs its
//     frontier into one machine word per vertex (MS-BFS, Then et al., VLDB
//     2015), so one sweep over the adjacency advances all 64 traversals and
//     overlapping frontiers are deduplicated for free. Each level picks
//     push (iterate frontier vertices' out-edges) or pull (probe unseen
//     vertices' in-edges via the cached transpose) through the same
//     grb::plan traversal cost model as bfs_do, planned fresh per level
//     and priced by the union frontier's exact out-edge count, which the
//     kernel keeps as vertices join the frontier (GAP's scout_count). The
//     loops run on typed u32/u64 CSR spans, one width dispatch per call.
//
// Useful for all-pairs-ish workloads (closeness centrality estimation,
// graph diameter probes) and for serving many concurrent BFS queries.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "lagraph/graph.hpp"

namespace lagraph {
namespace experimental {

/// Reference formulation (see header comment). level(i, v) = hops from
/// sources[i] to v; no entry if unreachable.
template <typename T>
int msbfs_levels_reference(grb::Matrix<std::int64_t> *level, const Graph<T> &g,
                           std::span<const grb::Index> sources, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    if (level == nullptr) {
      return lagraph::detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                                      "msbfs: output is null");
    }
    const grb::Index n = g.nodes();
    const grb::Index ns = static_cast<grb::Index>(sources.size());
    if (ns == 0) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "msbfs: empty source batch");
    }
    grb::Matrix<grb::Bool> frontier(ns, n);
    grb::Matrix<std::int64_t> lv(ns, n);
    for (grb::Index i = 0; i < ns; ++i) {
      if (sources[i] >= n) {
        return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                        "msbfs: source out of range");
      }
      frontier.set_element(i, sources[i], grb::Bool(1));
      lv.set_element(i, sources[i], 0);
    }
    grb::AnyPair<grb::Bool> any_pair;
    std::int64_t depth = 0;
    while (frontier.nvals() != 0) {
      ++depth;
      // F⟨¬s(L), r⟩ = F any.pair A — advance every row one hop, skipping
      // anything any source has already seen in its own row.
      grb::Matrix<grb::Bool> next(ns, n);
      grb::mxm(next, lv, grb::NoAccum{}, any_pair, frontier, g.a,
               grb::desc::RSC);
      frontier = std::move(next);
      if (frontier.nvals() == 0) break;
      // L⟨s(F)⟩ = depth
      grb::assign(lv, frontier, grb::NoAccum{},
                  static_cast<std::int64_t>(depth), grb::Indices::all(),
                  grb::Indices::all(), grb::desc::S);
    }
    *level = std::move(lv);
    return LAGRAPH_OK;
  });
}

namespace detail {

/// The level loop of msbfs_core on typed CSR spans of A (rp, cx) and, when
/// `has_pull`, of Aᵀ (trp, tcx). The frontier's edge count grows as each
/// vertex joins `active`, as GAP's top-down step keeps its scout_count, and
/// prices the level's push exactly.
template <typename T, typename IA, typename IT, typename Record>
void msbfs_sweeps(const grb::Matrix<T> &a, bool has_pull,
                  std::span<const IA> rp, std::span<const IA> cx,
                  std::span<const IT> trp, std::span<const IT> tcx,
                  std::span<const grb::Index> sources, Record &record) {
  const grb::Index n = a.nrows();
  const grb::Index ns = static_cast<grb::Index>(sources.size());
  std::vector<std::uint64_t> frontier(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> visited(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n), 0);
  std::vector<grb::Index> active;   // vertices with a nonzero frontier word
  std::vector<grb::Index> touched;  // vertices gaining bits this level

  for (grb::Index g0 = 0; g0 < ns; g0 += 64) {
    const grb::Index gend = std::min<grb::Index>(g0 + 64, ns);
    const std::uint64_t groupmask =
        gend - g0 == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << (gend - g0)) - 1;
    if (g0 != 0) {
      std::fill(frontier.begin(), frontier.end(), 0);
      std::fill(visited.begin(), visited.end(), 0);
    }
    active.clear();
    grb::Index active_edges = 0;  // out-edges of `active`: the push's work
    for (grb::Index i = g0; i < gend; ++i) {
      const grb::Index s = sources[i];
      const std::uint64_t bit = std::uint64_t{1} << (i - g0);
      if (frontier[s] == 0) {
        active.push_back(s);
        active_edges += rp[s + 1] - rp[s];
      }
      frontier[s] |= bit;
      visited[s] |= bit;
      record(i, s, std::int64_t{0});
    }
    grb::Index nvisited = static_cast<grb::Index>(active.size());

    std::int64_t depth = 0;
    while (!active.empty()) {
      ++depth;
      // One span per word-parallel level: union frontier size and edge
      // count across the group, the plan's push/pull choice, and newly
      // discovered vertices.
      grb::trace::ScopedSpan lsp(grb::trace::SpanKind::msbfs_level);
      lsp.set_iter(depth);
      lsp.set_in_nvals(active.size());
      lsp.set_extra(static_cast<double>(active_edges));
      touched.clear();
      // Same traversal plan as bfs_do, over the union frontier of the whole
      // group.
      grb::plan::OpDesc od;
      od.op = grb::plan::OpKind::traversal;
      od.a_rows = a.nrows();
      od.a_cols = a.ncols();
      od.a_nvals = a.nvals();
      od.u_edges = active_edges;
      od.pull_candidates = n - nvisited;
      od.masked = true;
      od.mask_complement = true;
      od.mask_structural = true;
      od.mask_nvals = nvisited;
      od.has_terminal = true;  // per-vertex early exit once miss bits fill
      od.has_transpose = has_pull;
      const auto pl = grb::plan::make_plan(od);
      lsp.set_plan(pl);
      if (pl.direction == grb::plan::Direction::pull) {
        // Probe each not-fully-visited vertex's in-edges, OR-ing the
        // senders' frontier words; early-exit once every missing bit of
        // this vertex has been found.
        for (grb::Index v = 0; v < n; ++v) {
          const std::uint64_t miss = groupmask & ~visited[v];
          if (miss == 0) continue;
          std::uint64_t w = 0;
          for (std::size_t p = trp[v], e = trp[v + 1]; p < e; ++p) {
            w |= frontier[tcx[p]];
            if ((w & miss) == miss) break;
          }
          w &= miss;
          if (w != 0) {
            next[v] = w;
            touched.push_back(v);
          }
        }
      } else {
        // Scatter each frontier vertex's word along its out-edges.
        for (grb::Index u : active) {
          const std::uint64_t w = frontier[u];
          for (std::size_t p = rp[u], e = rp[u + 1]; p < e; ++p) {
            const grb::Index v = cx[p];
            const std::uint64_t neww = w & ~visited[v];
            if (neww == 0) continue;
            if (next[v] == 0) touched.push_back(v);
            next[v] |= neww;
          }
        }
      }
      for (grb::Index u : active) frontier[u] = 0;
      active.clear();
      active_edges = 0;
      for (grb::Index v : touched) {
        std::uint64_t neww = next[v] & ~visited[v];
        next[v] = 0;
        if (neww == 0) continue;
        visited[v] |= neww;
        frontier[v] = neww;
        active.push_back(v);
        active_edges += rp[v + 1] - rp[v];
        while (neww != 0) {
          const int b = std::countr_zero(neww);
          neww &= neww - 1;
          record(g0 + static_cast<grb::Index>(b), v, depth);
        }
      }
      nvisited += static_cast<grb::Index>(active.size());
      lsp.set_out_nvals(active.size());
    }
  }
}

/// Word-parallel MS-BFS core. Each group of up to 64 sources packs its
/// frontier into one std::uint64_t per vertex; `record(i, v, depth)` is
/// invoked exactly once per reached (source row i, vertex v) pair, in
/// nondecreasing depth order within a group (sources themselves at depth 0).
/// Returns a status (< 0 with msg set on bad input).
template <typename T, typename Record>
int msbfs_core(const Graph<T> &g, std::span<const grb::Index> sources,
               Record &&record, char *msg) {
  const grb::Index n = g.nodes();
  const grb::Index ns = static_cast<grb::Index>(sources.size());
  if (ns == 0) {
    return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                    "msbfs: empty source batch");
  }
  for (grb::Index i = 0; i < ns; ++i) {
    if (sources[i] >= n) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "msbfs: source out of range");
    }
  }

  // The word-parallel sweeps walk raw CSR arrays; materialize the row
  // pointer explicitly (counted, never a silent hypersparse expansion).
  grb::plan::prepare(g.a, grb::plan::MatFormat::csr);
  // Pull steps probe incoming edges: the cached transpose, or A itself for
  // (pattern-)symmetric graphs. Without it the kernel stays push-only.
  const grb::Matrix<T> *atp = g.transpose_view();
  if (atp != nullptr) grb::plan::prepare(*atp, grb::plan::MatFormat::csr);
  // One width dispatch for A and one for Aᵀ per call: the level loop runs
  // on typed spans, so no edge of a push or a pull pays a width branch.
  // Without a pull path A stands in for Aᵀ, and the loop never reads it.
  const grb::Matrix<T> &at = atp != nullptr ? *atp : g.a;
  grb::detail::dispatch_width(g.a.index_width(), [&](auto atag) {
    using IA = decltype(atag);
    grb::detail::dispatch_width(at.index_width(), [&](auto ttag) {
      using IT = decltype(ttag);
      msbfs_sweeps(g.a, atp != nullptr, g.a.rowptr().template as<IA>(),
                   g.a.colidx().template as<IA>(),
                   at.rowptr().template as<IT>(),
                   at.colidx().template as<IT>(), sources, record);
    });
  });
  return LAGRAPH_OK;
}

}  // namespace detail

/// Batched BFS levels: on success level(i, v) = hops from sources[i] to v
/// (no entry if unreachable). Word-parallel MS-BFS kernel; identical results
/// to msbfs_levels_reference (and to per-source bfs levels).
template <typename T>
int msbfs_levels(grb::Matrix<std::int64_t> *level, const Graph<T> &g,
                 std::span<const grb::Index> sources, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    if (level == nullptr) {
      return lagraph::detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                                      "msbfs: output is null");
    }
    const grb::Index n = g.nodes();
    const grb::Index ns = static_cast<grb::Index>(sources.size());
    // Collect (row, vertex, depth) tuples, then assemble the CSR directly:
    // counting-sort by row (no comparison sort) and adopt the rows as
    // "jumbled" — column order inside a row is whatever order the traversal
    // discovered vertices in, and the lazy-sort machinery only pays to sort
    // rows a consumer actually demands sorted.
    std::vector<grb::Index> ti;
    std::vector<grb::Index> tj;
    std::vector<std::int64_t> tv;
    ti.reserve(sources.size());
    tj.reserve(sources.size());
    tv.reserve(sources.size());
    int status = detail::msbfs_core(
        g, sources,
        [&](grb::Index i, grb::Index v, std::int64_t d) {
          ti.push_back(i);
          tj.push_back(v);
          tv.push_back(d);
        },
        msg);
    if (status < 0) return status;

    const std::size_t nz = ti.size();
    std::vector<grb::Index> rowptr(static_cast<std::size_t>(ns) + 1, 0);
    for (std::size_t p = 0; p < nz; ++p) ++rowptr[ti[p] + 1];
    for (grb::Index i = 0; i < ns; ++i) rowptr[i + 1] += rowptr[i];
    std::vector<grb::Index> colidx(nz);
    std::vector<std::int64_t> vals(nz);
    {
      std::vector<grb::Index> cursor(rowptr.begin(), rowptr.end() - 1);
      for (std::size_t p = 0; p < nz; ++p) {
        const grb::Index at = cursor[ti[p]]++;
        colidx[at] = tj[p];
        vals[at] = tv[p];
      }
    }
    grb::Matrix<std::int64_t> lv(ns, n);
    lv.adopt_csr(std::move(rowptr), std::move(colidx), std::move(vals),
                 /*jumbled=*/true);
    *level = std::move(lv);
    return LAGRAPH_OK;
  });
}

/// Demuxed form for query serving: one level vector per source, bitmap
/// format (ready for concurrent hand-off without further deferred work).
/// levels->at(i) corresponds to sources[i].
template <typename T>
int msbfs_levels_demux(std::vector<grb::Vector<std::int64_t>> *levels,
                       const Graph<T> &g,
                       std::span<const grb::Index> sources, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    if (levels == nullptr) {
      return lagraph::detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                                      "msbfs: output is null");
    }
    const grb::Index n = g.nodes();
    const std::size_t ns = sources.size();
    std::vector<std::vector<std::uint8_t>> present(ns);
    std::vector<std::vector<std::int64_t>> dense(ns);
    std::vector<grb::Index> counts(ns, 0);
    for (std::size_t i = 0; i < ns; ++i) {
      present[i].assign(static_cast<std::size_t>(n), 0);
      dense[i].resize(static_cast<std::size_t>(n));
    }
    int status = detail::msbfs_core(
        g, sources,
        [&](grb::Index i, grb::Index v, std::int64_t d) {
          present[i][v] = 1;
          dense[i][v] = d;
          ++counts[i];
        },
        msg);
    if (status < 0) return status;
    levels->clear();
    levels->reserve(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      grb::Vector<std::int64_t> lv(n);
      lv.adopt_bitmap(std::move(present[i]), std::move(dense[i]), counts[i]);
      levels->push_back(std::move(lv));
    }
    return LAGRAPH_OK;
  });
}

}  // namespace experimental
}  // namespace lagraph

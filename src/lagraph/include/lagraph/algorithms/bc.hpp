// lagraph/algorithms/bc.hpp — batched Brandes betweenness centrality
// (paper §IV-B, Alg. 3).
//
// A batch of ns sources runs as one computation on ns×n matrices: P holds
// per-source path counts, F the current frontier, S[d] the (boolean) pattern
// of each BFS level. The forward phase is repeated masked mxm with
// plus.first; the backward phase divides, propagates one level back along
// Aᵀ, and multiply-accumulates — all on the same matrices. Direction
// optimization is the same push/pull swap as the BFS: the push multiplies by
// the explicit transpose B = Aᵀ, the pull multiplies by A under a transposed
// descriptor (a masked dot product), exactly as described in §IV-B. Each
// sweep prices its push by the edges it scans: the row lengths of A
// (forward) or Aᵀ (backward) summed over the frontier matrix's entries.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lagraph/graph.hpp"

namespace lagraph {
namespace advanced {

/// Batched BC. Advanced mode: direction optimization requires the cached
/// transpose on directed graphs; with direction_opt = false only A is used.
/// Output: centrality(j) = Σ over sources of the dependency of j
/// (unnormalized, as in GAP's bc.cc).
template <typename T>
int betweenness_centrality(grb::Vector<double> *centrality, const Graph<T> &g,
                           std::span<const grb::Index> sources,
                           bool direction_opt, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    if (centrality == nullptr) {
      return lagraph::detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                                      "bc: centrality is null");
    }
    const grb::Index n = g.nodes();
    const grb::Index ns = static_cast<grb::Index>(sources.size());
    if (ns == 0) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "bc: empty source batch");
    }
    const grb::Matrix<T> *at = g.transpose_view();
    if (direction_opt && at == nullptr) {
      return lagraph::detail::set_msg(
          msg, LAGRAPH_PROPERTY_MISSING,
          "bc: direction optimization needs the cached transpose");
    }

    grb::PlusFirst<double> plus_first;

    // P(i, sources[i]) = 1 — one unit path at each batch source.
    grb::Matrix<double> paths(ns, n);
    for (grb::Index i = 0; i < ns; ++i) {
      if (sources[i] >= n) {
        return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                        "bc: source out of range");
      }
      paths.set_element(i, sources[i], 1.0);
    }

    // First frontier: F⟨¬s(P)⟩ = P plus.first A
    grb::Matrix<double> frontier(ns, n);
    grb::mxm(frontier, paths, grb::NoAccum{}, plus_first, paths, g.a,
             grb::desc::SC);

    const double total = static_cast<double>(ns) * static_cast<double>(n);

    // Row pointers for the push prices, taken once: the forward push scans
    // rows of A, the backward push rows of Aᵀ (when it can run at all).
    grb::plan::prepare(g.a, grb::plan::MatFormat::csr);
    const grb::IndexSpan a_rp = g.a.rowptr();
    grb::IndexSpan at_rp;
    if (at != nullptr) {
      grb::plan::prepare(*at, grb::plan::MatFormat::csr);
      at_rp = at->rowptr();
    }

    // Forward phase: save each level's pattern.
    std::vector<grb::Matrix<grb::Bool>> levels;
    while (frontier.nvals() != 0) {
      // One span per forward level: batched frontier nnz and edge count +
      // the planner's push/pull choice, so the sweep's switch point shows up
      // in traces.
      grb::trace::ScopedSpan lsp(grb::trace::SpanKind::bc_forward);
      const grb::Index f_edges =
          lagraph::detail::frontier_edges(a_rp, frontier);
      lsp.set_iter(static_cast<std::int64_t>(levels.size()));
      lsp.set_in_nvals(frontier.nvals());
      lsp.set_extra(static_cast<double>(f_edges));
      grb::Matrix<grb::Bool> s(ns, n);
      grb::assign(s, frontier, grb::NoAccum{}, grb::Bool(1),
                  grb::Indices::all(), grb::Indices::all(), grb::desc::S);
      levels.push_back(std::move(s));
      // P += F
      grb::eWiseAdd(paths, grb::no_mask, grb::NoAccum{}, grb::Plus{}, paths,
                    frontier);
      // F⟨¬s(P), r⟩ = F plus.first A  (push) or F plus.first Bᵀ (pull).
      // Pull evaluates one (non-early-exiting) dot per *unvisited*
      // (source, node) pair; push scatters once per frontier entry — the
      // same scout/awake trade-off as GAP's direction-optimizing BFS, so
      // the shared grb::plan traversal model decides. direction_opt = false
      // pins push through the plan hint.
      grb::plan::OpDesc od;
      od.op = grb::plan::OpKind::traversal;
      od.a_rows = g.a.nrows();
      od.a_cols = g.a.ncols();
      od.a_nvals = g.a.nvals();
      od.u_edges = f_edges;
      od.pull_candidates = static_cast<grb::Index>(
          total - static_cast<double>(paths.nvals()));
      od.masked = true;
      od.mask_complement = true;
      od.mask_structural = true;
      od.mask_nvals = paths.nvals();
      od.has_transpose = at != nullptr;
      od.hint = direction_opt ? grb::plan::Direction::none
                              : grb::plan::Direction::push;
      const auto pl = grb::plan::make_plan(od);
      lsp.set_plan(pl);
      if (pl.direction == grb::plan::Direction::pull) {
        grb::mxm(frontier, paths, grb::NoAccum{}, plus_first, frontier, *at,
                 grb::Descriptor{}.T1().S().C().R());
      } else {
        grb::mxm(frontier, paths, grb::NoAccum{}, plus_first, frontier, g.a,
                 grb::desc::RSC);
      }
      lsp.set_out_nvals(frontier.nvals());
    }

    // Backward phase: dependency accumulation.
    auto bc_update = grb::Matrix<double>::full_matrix(ns, n, 1.0);
    grb::Matrix<double> w(ns, n);
    const grb::Descriptor rs = grb::desc::RS;
    for (std::size_t i = levels.size(); i-- > 1;) {
      // Backward levels walk the saved wavefronts in reverse; the span's
      // frontier is the level pattern being propagated back.
      grb::trace::ScopedSpan lsp(grb::trace::SpanKind::bc_backward);
      lsp.set_iter(static_cast<std::int64_t>(i));
      lsp.set_in_nvals(levels[i].nvals());
      // W⟨s(S[i]), r⟩ = bc_update ÷∩ P
      grb::eWiseMult(w, levels[i], grb::NoAccum{}, grb::Div{}, bc_update,
                     paths, rs);
      // The push scans W's rows of Aᵀ; without Aᵀ it cannot run, is forced
      // off below, and scans nothing.
      const grb::Index w_edges =
          at != nullptr ? lagraph::detail::frontier_edges(at_rp, w) : 0;
      lsp.set_extra(static_cast<double>(w_edges));
      // W⟨s(S[i-1]), r⟩ = W plus.first Aᵀ — push multiplies by the explicit
      // transpose B = Aᵀ (saxpy, cost ∝ edges out of level i); pull
      // multiplies by A under a transposed descriptor (one masked dot per
      // S[i-1] entry, always available), so has_transpose holds even when
      // the explicit Aᵀ is missing — then the hint forces pull instead.
      grb::plan::OpDesc od;
      od.op = grb::plan::OpKind::traversal;
      od.a_rows = g.a.nrows();
      od.a_cols = g.a.ncols();
      od.a_nvals = g.a.nvals();
      od.u_edges = w_edges;
      od.pull_candidates = levels[i - 1].nvals();
      od.masked = true;
      od.mask_structural = true;
      od.mask_nvals = levels[i - 1].nvals();
      od.has_transpose = true;
      od.hint = at == nullptr ? grb::plan::Direction::pull
                : !direction_opt ? grb::plan::Direction::push
                                 : grb::plan::Direction::none;
      const auto pl = grb::plan::make_plan(od);
      lsp.set_plan(pl);
      if (pl.direction == grb::plan::Direction::pull) {
        grb::mxm(w, levels[i - 1], grb::NoAccum{}, plus_first, w, g.a,
                 grb::Descriptor{}.T1().S().R());
      } else {
        grb::mxm(w, levels[i - 1], grb::NoAccum{}, plus_first, w, *at,
                 grb::desc::RS);
      }
      lsp.set_out_nvals(w.nvals());
      // bc_update += W ×∩ P
      grb::eWiseMult(bc_update, grb::no_mask, grb::Plus{}, grb::Times{}, w,
                     paths);
    }

    // centrality(j) = Σᵢ bc_update(i, j) − ns (column-wise reduce; the −ns
    // removes the all-ones initialization).
    grb::Vector<double> c(n);
    grb::assign(c, grb::no_mask, grb::NoAccum{},
                -static_cast<double>(ns), grb::Indices::all());
    grb::reduce(c, grb::no_mask, grb::Plus{}, grb::PlusMonoid<double>{},
                bc_update, grb::desc::T0);
    *centrality = std::move(c);
    return LAGRAPH_OK;
  });
}

}  // namespace advanced

/// Basic-mode BC: caches the transpose, then runs the Advanced batched
/// algorithm with direction optimization.
template <typename T>
int betweenness_centrality(grb::Vector<double> *centrality, Graph<T> &g,
                           std::span<const grb::Index> sources,
                           char *msg = nullptr) {
  int status = property_at(g, msg);
  if (status < 0) return status;
  return advanced::betweenness_centrality(centrality, g, sources,
                                          /*direction_opt=*/true, msg);
}

}  // namespace lagraph

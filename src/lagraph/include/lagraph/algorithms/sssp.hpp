// lagraph/algorithms/sssp.hpp — single-source shortest paths by
// delta-stepping (paper §IV-D, Alg. 5; Sridhar et al.).
//
// The adjacency matrix is split once into light (w ≤ Δ) and heavy (w > Δ)
// edges. Buckets of tentative distances t ∈ [iΔ, (i+1)Δ) are settled by
// repeated min.plus relaxations over the light edges (each one vxm push from
// the bucket frontier); the heavy edges of everything settled in the bucket
// are then relaxed once.
//
// t holds entries only for reached nodes but is a bitmap over all n, so the
// per-round t min= tReq runs in place — and any select over t costs O(n).
// No bucket scans it: the loop carries a sparse ring u of the reached nodes
// not yet settled, with their distances. A bucket takes its frontier from
// u, then reads t back only where it could have changed it (its frontier
// and its relaxation candidates) to find what it settled and to bring the
// ring up to date. A bucket so costs bucket + ring + the edges it relaxes,
// the way GAP's bins do, with masked and sparse operations in place of the
// bins (GraphBLAST's argument). Only once those positions are dense does a
// bucket read t whole, at a cost then proportional to them.
#pragma once

#include <cstdint>

#include "lagraph/graph.hpp"

namespace lagraph {
namespace advanced {

/// Delta-stepping SSSP. Advanced mode: g is never mutated; edge weights must
/// be positive (delta-stepping's correctness condition); delta > 0.
template <typename T>
int sssp_delta_stepping(grb::Vector<double> *dist, const Graph<T> &g,
                        grb::Index source, double delta, char *msg) {
  return lagraph::detail::guarded(msg, [&]() {
    if (dist == nullptr) {
      return lagraph::detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                                      "sssp: dist is null");
    }
    if (!(delta > 0)) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "sssp: delta must be positive");
    }
    const grb::Index n = g.nodes();
    if (source >= n) {
      return lagraph::detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                                      "sssp: source out of range");
    }

    // A_L = A⟨0 < A ≤ Δ⟩, A_H = A⟨Δ < A⟩ (Alg. 5 lines 2-3)
    grb::Matrix<double> al(n, n);
    grb::Matrix<double> ah(n, n);
    grb::select(
        al, grb::no_mask, grb::NoAccum{},
        [](const auto &x, Index, Index, const auto &d) {
          return 0 < x && x <= d;
        },
        g.a, delta);
    grb::select(ah, grb::no_mask, grb::NoAccum{}, grb::ValueGt{}, g.a, delta);

    grb::Vector<double> t(n);  // entries only for reached nodes
    t.set_element(source, 0.0);
    // Bitmap from the start (planner-pinnable): the per-round updates
    // (t min= tReq) then run in place instead of rebuilding O(n) arrays
    // each relaxation.
    grb::plan::prepare(t, grb::plan::iterative_output_format(n));

    grb::MinPlus<double> min_plus;
    grb::Vector<double> u(n);      // the ring: reached nodes with t ≥ iΔ
    u.set_element(source, 0.0);
    grb::Vector<double> tb(n);     // current bucket frontier
    grb::Vector<double> treq(n);   // relaxation candidates
    grb::Vector<double> tmp(n);

    for (std::uint64_t i = 0; u.nvals() != 0; ++i) {
      // skip straight to the first non-empty bucket
      double minr = 0;
      grb::reduce(minr, grb::NoAccum{}, grb::MinMonoid<double>{}, u);
      i = std::max(i, static_cast<std::uint64_t>(minr / delta));
      const double lo = static_cast<double>(i) * delta;
      const double hi = lo + delta;

      // bucket i: t ∈ [iΔ, (i+1)Δ) — the ring already holds only t ≥ iΔ
      grb::select(tb, grb::no_mask, grb::NoAccum{}, grb::ValueLt{}, u, hi);

      // One span per bucket: initial bucket size, number of light
      // relaxation rounds (extra), and the bucket's wall time.
      grb::trace::ScopedSpan bsp(grb::trace::SpanKind::sssp_bucket);
      bsp.set_iter(static_cast<std::int64_t>(i));
      bsp.set_in_nvals(tb.nvals());
      std::uint64_t rounds = 0;

      // c gathers every position bucket i may change: its frontier plus
      // each relaxation's candidates. t changes nowhere else, so the ring
      // stays exact outside c. Once c is dense (went bitmap), gathering it
      // costs as much as one scan of t, so the bucket stops and reads t
      // whole at its end instead.
      grb::Vector<double> c = tb;
      auto dense = [&] {
        return c.format() == grb::Vector<double>::Format::bitmap;
      };

      while (tb.nvals() != 0) {
        ++rounds;
        // light relaxation fused with the bucket window (Alg. 5 line 10):
        //   treq = tbᵀ min.plus A_L ; tmp = treq⟨lo ≤ · < hi⟩
        // One sweep produces both the full candidate vector (needed for the
        // t min= treq merge below) and the in-bucket prune; unfused it is
        // the exact vxm + select(ValueGe) + select(ValueLt) chain.
        grb::vxm_select_range(treq, tmp, min_plus, tb, al, lo, hi);
        if (!dense()) {
          grb::eWiseAdd(c, grb::no_mask, grb::NoAccum{}, grb::First{}, c,
                        treq);
        }
        // ...and strictly improve t (or reach a new node):
        //   part 1: candidates at nodes t has never reached
        grb::Vector<double> fresh(n);
        grb::apply(fresh, t, grb::NoAccum{}, grb::Identity{}, tmp,
                   grb::desc::RSC);
        //   part 2: candidates improving an existing entry
        grb::Vector<double> lt(n);
        grb::eWiseMult(lt, grb::no_mask, grb::NoAccum{}, grb::Lt{}, tmp, t);
        grb::select(lt, grb::no_mask, grb::NoAccum{}, grb::ValueGt{}, lt, 0.0);
        grb::Vector<double> improving(n);
        grb::eWiseMult(improving, grb::no_mask, grb::NoAccum{}, grb::First{},
                       tmp, lt);
        grb::eWiseAdd(tb, grb::no_mask, grb::NoAccum{}, grb::Min{}, fresh,
                      improving);

        // t min= treq (Alg. 5 line 15), in place
        grb::assign(t, grb::no_mask, grb::Min{}, treq, grb::Indices::all());
      }

      // Read t back at c, or at every t ≥ lo once c is dense. No light
      // candidate is left below hi unsettled, so the part in [lo, hi) is
      // exactly what bucket i settled.
      const bool whole = dense();
      if (whole) {
        grb::select(c, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, t, lo);
      } else {
        grb::eWiseMult(c, grb::no_mask, grb::NoAccum{}, grb::Second{}, c, t);
        // drop candidates that an earlier bucket already settled
        grb::select(c, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, c, lo);
      }
      grb::Vector<double> settled(n);
      grb::select(settled, grb::no_mask, grb::NoAccum{}, grb::ValueLt{}, c,
                  hi);

      // heavy relaxation from everything settled in bucket i:
      // treq = settledᵀ min.plus A_H ; t min= treq
      if (settled.nvals() != 0) {
        grb::vxm(treq, grb::no_mask, grb::NoAccum{}, min_plus, settled, ah);
        grb::assign(t, grb::no_mask, grb::Min{}, treq, grb::Indices::all());
        if (!whole) {
          grb::eWiseAdd(c, grb::no_mask, grb::NoAccum{}, grb::First{}, c,
                        treq);
          grb::eWiseMult(c, grb::no_mask, grb::NoAccum{}, grb::Second{}, c,
                         t);
        }
      }

      // the next ring: every reached node still at t ≥ hi — the old ring
      // with the current t at c, or all of t once c was dense
      if (whole) {
        grb::select(u, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, t, hi);
      } else {
        grb::eWiseAdd(u, grb::no_mask, grb::NoAccum{}, grb::Second{}, u, c);
        grb::select(u, grb::no_mask, grb::NoAccum{}, grb::ValueGe{}, u, hi);
      }
      bsp.set_out_nvals(settled.nvals());
      bsp.set_extra(static_cast<double>(rounds));
    }

    *dist = std::move(t);
    return LAGRAPH_OK;
  });
}

}  // namespace advanced

/// Basic-mode SSSP: picks Δ from the cached degree/weight profile if the
/// caller does not supply one, then runs delta-stepping. Unreached nodes
/// have no entry in the result.
template <typename T>
int sssp(grb::Vector<double> *dist, Graph<T> &g, grb::Index source,
         double delta = 0.0, char *msg = nullptr) {
  if (delta <= 0) {
    // The GAP benchmark uses Δ = 2 for its [1, 255]-weighted graphs; scale
    // that choice to the actual maximum edge weight.
    double maxw = 1.0;
    int status = detail::guarded(msg, [&]() {
      grb::reduce(maxw, grb::NoAccum{}, grb::MaxMonoid<double>{}, g.a);
      return LAGRAPH_OK;
    });
    if (status < 0) return status;
    delta = grb::plan::sssp_default_delta(maxw);
  }
  return advanced::sssp_delta_stepping(dist, g, source, delta, msg);
}

}  // namespace lagraph

// grb/apply.hpp — apply (unary / bound binary) and select (paper §III-B f).
//
// apply evaluates an operator on every entry; the bound-binary forms
// (apply2nd / apply1st) correspond to GrB_apply with a BinaryOp and a bound
// scalar. select keeps the entries for which an index-unary predicate
// f(value, i, j, thunk) holds, zeroing out (dropping) the rest.
//
// Vector forms keep the input's format. On a bitmap input both write each
// kept entry straight into its result slot, and the slots are the bitmap
// result. On a sparse input apply keeps u's index list and maps its values,
// while select filters, so its chunks emit into their own buffers and
// concatenate in chunk order (grb/parallel.hpp). All match the serial walk
// exactly.
#pragma once

#include <vector>

#include "grb/mask.hpp"
#include "grb/mxv.hpp"
#include "grb/ops.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/trace.hpp"

namespace grb {

/// w⟨m⟩ ⊙= f(u)
template <typename W, typename MaskT, typename Accum, typename F, typename U>
void apply(Vector<W> &w, const MaskT &mask, Accum accum, F f,
           const Vector<U> &u, const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(w.size(), u.size(), "apply: size mismatch");
  const Index n = u.size();
  trace::ScopedSpan sp(trace::SpanKind::apply);
  sp.set_in_nvals(u.nvals());
  const int parts = plan::chunk_parts(u.nvals(), 2);
  sp.set_threads(parts);
  Vector<W> t(n);
  if (u.format() == Vector<U>::Format::sparse) {
    auto ui = u.sparse_indices();
    auto uv = u.sparse_values();
    const Index nv = static_cast<Index>(ui.size());
    std::vector<Index> idx(ui.begin(), ui.end());
    std::vector<W> val(nv);
    detail::for_each_chunk(detail::partition_even(nv, parts),
                           [&](int, Index lo, Index hi) {
                             for (Index p = lo; p < hi; ++p) {
                               val[p] = static_cast<W>(
                                   f(static_cast<W>(uv[p])));
                             }
                           });
    t.adopt_sparse(std::move(idx), std::move(val));
  } else {
    const std::uint8_t *up = u.bitmap_present();
    const U *uvp = u.bitmap_values();
    t = detail::fill_slots<W>(
        n, detail::partition_even(n, parts),
        [&](Index lo, Index hi, std::uint8_t *found, W *out) {
          Index hits = 0;
          for (Index i = lo; i < hi; ++i) {
            if (!up[i]) continue;
            found[i] = 1;
            out[i] = static_cast<W>(f(static_cast<W>(uvp[i])));
            ++hits;
          }
          return hits;
        });
  }
  sp.set_out_nvals(t.nvals());
  detail::write_result(w, std::move(t), mask, accum, d);
}

/// w⟨m⟩ ⊙= op(u, s)  (bind-second)
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename S>
void apply2nd(Vector<W> &w, const MaskT &mask, Accum accum, Op op,
              const Vector<U> &u, const S &s,
              const Descriptor &d = desc::DEFAULT) {
  apply(
      w, mask, accum,
      [&](const W &x) { return op(x, static_cast<W>(s)); }, u, d);
}

/// w⟨m⟩ ⊙= op(s, u)  (bind-first)
template <typename W, typename MaskT, typename Accum, typename Op, typename S,
          typename U>
void apply1st(Vector<W> &w, const MaskT &mask, Accum accum, Op op, const S &s,
              const Vector<U> &u, const Descriptor &d = desc::DEFAULT) {
  apply(
      w, mask, accum,
      [&](const W &x) { return op(static_cast<W>(s), x); }, u, d);
}

/// C⟨M⟩ ⊙= f(A)
template <typename W, typename MaskT, typename Accum, typename F, typename U>
void apply(Matrix<W> &c, const MaskT &mask, Accum accum, F f,
           const Matrix<U> &a, const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(c.nrows(), a.nrows(), "apply: shape mismatch");
  detail::check_same_size(c.ncols(), a.ncols(), "apply: shape mismatch");
  trace::ScopedSpan sp(trace::SpanKind::apply);
  sp.set_in_nvals(a.nvals());
  const Index m = a.nrows();
  a.ensure_sorted();
  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> ci;
  std::vector<W> cv;
  if (a.format() == Matrix<U>::Format::csr) {
    // CSR fast path: same structure, transformed values — a flat map over
    // the nnz positions.
    // One width dispatch; the flat copy loop reads typed spans.
    detail::dispatch_width(a.index_width(), [&](auto tag) {
      using I = decltype(tag);
      auto arp = a.rowptr().template as<I>();
      auto acx = a.colidx().template as<I>();
      auto avx = a.values();
      rp.assign(arp.begin(), arp.end());
      const Index nz = static_cast<Index>(acx.size());
      ci.resize(nz);
      cv.resize(nz);
      const int parts = plan::chunk_parts(nz, 2);
      detail::for_each_chunk(detail::partition_even(nz, parts),
                             [&](int, Index lo, Index hi) {
                               for (Index p = lo; p < hi; ++p) {
                                 ci[p] = acx[p];
                                 cv[p] = static_cast<W>(
                                     f(static_cast<W>(avx[p])));
                               }
                             });
    });
  } else {
    ci.reserve(a.nvals());
    cv.reserve(a.nvals());
    for (Index i = 0; i < m; ++i) {
      a.for_each_in_row(i, [&](Index j, const U &x) {
        ci.push_back(j);
        cv.push_back(static_cast<W>(f(static_cast<W>(x))));
      });
      rp[i + 1] = static_cast<Index>(ci.size());
    }
  }
  Matrix<W> t(m, a.ncols());
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  sp.set_out_nvals(t.nvals());
  detail::write_result(c, std::move(t), mask, accum, d);
}

/// C⟨M⟩ ⊙= op(A, s)  (bind-second)
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename S>
void apply2nd(Matrix<W> &c, const MaskT &mask, Accum accum, Op op,
              const Matrix<U> &a, const S &s,
              const Descriptor &d = desc::DEFAULT) {
  apply(
      c, mask, accum,
      [&](const W &x) { return op(x, static_cast<W>(s)); }, a, d);
}

/// w⟨m⟩ ⊙= u⟨f(u, thunk)⟩ — keep entries where the predicate holds.
template <typename W, typename MaskT, typename Accum, typename F, typename U,
          typename S>
void select(Vector<W> &w, const MaskT &mask, Accum accum, F f,
            const Vector<U> &u, const S &thunk,
            const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(w.size(), u.size(), "select: size mismatch");
  const Index n = u.size();
  trace::ScopedSpan sp(trace::SpanKind::select);
  sp.set_in_nvals(u.nvals());
  const U th = static_cast<U>(thunk);
  const int parts = plan::chunk_parts(u.nvals(), 2);
  sp.set_threads(parts);
  Vector<W> t(n);
  if (u.format() == Vector<U>::Format::sparse) {
    auto ui = u.sparse_indices();
    auto uv = u.sparse_values();
    const Index nv = static_cast<Index>(ui.size());
    auto bounds = detail::partition_even(nv, parts);
    const int nchunks = static_cast<int>(bounds.size()) - 1;
    std::vector<std::vector<Index>> cidx(static_cast<std::size_t>(nchunks));
    std::vector<std::vector<W>> cval(static_cast<std::size_t>(nchunks));
    detail::for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      for (Index p = lo; p < hi; ++p) {
        if (f(uv[p], ui[p], Index{0}, th)) {
          cidx[c].push_back(ui[p]);
          cval[c].push_back(static_cast<W>(uv[p]));
        }
      }
    });
    std::vector<Index> idx;
    std::vector<W> val;
    detail::concat_chunks(cidx, cval, idx, val);
    t.adopt_sparse(std::move(idx), std::move(val));
  } else {
    const std::uint8_t *up = u.bitmap_present();
    const U *uvp = u.bitmap_values();
    t = detail::fill_slots<W>(
        n, detail::partition_even(n, parts),
        [&](Index lo, Index hi, std::uint8_t *found, W *out) {
          Index hits = 0;
          for (Index i = lo; i < hi; ++i) {
            if (!up[i] || !f(uvp[i], i, Index{0}, th)) continue;
            found[i] = 1;
            out[i] = static_cast<W>(uvp[i]);
            ++hits;
          }
          return hits;
        });
  }
  sp.set_out_nvals(t.nvals());
  detail::write_result(w, std::move(t), mask, accum, d);
}

/// C⟨M⟩ ⊙= A⟨f(A, thunk)⟩
template <typename W, typename MaskT, typename Accum, typename F, typename U,
          typename S>
void select(Matrix<W> &c, const MaskT &mask, Accum accum, F f,
            const Matrix<U> &a, const S &thunk,
            const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(c.nrows(), a.nrows(), "select: shape mismatch");
  detail::check_same_size(c.ncols(), a.ncols(), "select: shape mismatch");
  trace::ScopedSpan sp(trace::SpanKind::select);
  sp.set_in_nvals(a.nvals());
  const Index m = a.nrows();
  a.ensure_sorted();
  const U th = static_cast<U>(thunk);

  const int parts = plan::chunk_parts(a.nvals(), 2);
  sp.set_threads(parts);
  if (parts == 1 && a.format() == Matrix<U>::Format::csr) {
    // Serial CSR fast path: one width dispatch, then a flat filter over the
    // typed spans (no per-row finish() and dispatch).
    std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
    std::vector<Index> ci;
    std::vector<W> cv;
    detail::dispatch_width(a.index_width(), [&](auto tag) {
      using I = decltype(tag);
      auto arp = a.rowptr().template as<I>();
      auto acx = a.colidx().template as<I>();
      auto avx = a.values();
      for (Index i = 0; i < m; ++i) {
        for (std::size_t p = arp[i]; p < arp[i + 1]; ++p) {
          const Index j = acx[p];
          if (f(avx[p], i, j, th)) {
            ci.push_back(j);
            cv.push_back(static_cast<W>(avx[p]));
          }
        }
        rp[i + 1] = static_cast<Index>(ci.size());
      }
    });
    Matrix<W> t(m, a.ncols());
    t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
    sp.set_out_nvals(t.nvals());
    detail::write_result(c, std::move(t), mask, accum, d);
    return;
  }

  // Rows filter independently: chunk by row nnz, emit per-chunk buffers,
  // stitch the row pointer from per-chunk row lengths (as in ewise_mat).
  std::vector<Index> bounds =
      parts > 1 ? detail::partition_rows_by_work(
                      m, parts, [&](Index i) { return a.row_nvals(i) + 1; })
                : detail::partition_even(m, 1);
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  std::vector<std::vector<Index>> crlen(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Index>> cci(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<W>> ccv(static_cast<std::size_t>(nchunks));
  detail::for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    auto &rlen = crlen[c];
    auto &ci = cci[c];
    auto &cv = ccv[c];
    rlen.reserve(static_cast<std::size_t>(hi - lo));
    for (Index i = lo; i < hi; ++i) {
      const std::size_t before = ci.size();
      a.for_each_in_row(i, [&](Index j, const U &x) {
        if (f(x, i, j, th)) {
          ci.push_back(j);
          cv.push_back(static_cast<W>(x));
        }
      });
      rlen.push_back(static_cast<Index>(ci.size() - before));
    }
  });

  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  {
    Index at = 0;
    Index i = 0;
    for (int cc = 0; cc < nchunks; ++cc) {
      for (Index len : crlen[cc]) {
        rp[i] = at;
        at += len;
        ++i;
      }
    }
    rp[m] = at;
  }
  std::vector<Index> ci;
  std::vector<W> cv;
  detail::concat_chunks(cci, ccv, ci, cv);
  Matrix<W> t(m, a.ncols());
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  sp.set_out_nvals(t.nvals());
  detail::write_result(c, std::move(t), mask, accum, d);
}

/// Fused relax-and-filter (the SSSP/BC light-edge inner step):
///   w = u ⊕.⊗ A;  pruned = w⟨lo ≤ w < hi⟩
/// — the unmasked vxm product plus the ValueGe/ValueLt select pair, with the
/// range filter folded into the product's epilogue. Both outputs are
/// bit-identical to the unfused chain `vxm; select(ValueGe, lo);
/// select(ValueLt, hi)`, which the entry runs verbatim when a precondition
/// fails (a transposed operand, or a product type other than W).
/// NoAccum/no-mask only — the shape the delta-stepping loop uses.
template <typename W, typename SR, typename AT>
void vxm_select_range(Vector<W> &w, Vector<W> &pruned, SR sr,
                      const Vector<W> &u, const Matrix<AT> &a, const W &lo,
                      const W &hi, const Descriptor &d = desc::DEFAULT) {
  using Z = typename SR::value_type;
  const Index out_size = d.transpose_a ? a.nrows() : a.ncols();
  detail::check_same_size(w.size(), out_size,
                          "vxm_select_range: w/A dimension mismatch");
  detail::check_same_size(pruned.size(), out_size,
                          "vxm_select_range: pruned/A dimension mismatch");
  const plan::ExecPlan pl = detail::plan_fused_op<SR>(
      plan::OpKind::vxm, a, u, no_mask, d, out_size, d.transpose_a);

  // The one-sweep path adopts the product into w verbatim: same value type
  // (signature) and no mask, so the only extra precondition is the
  // untransposed push shape the kernel implements.
  const bool fuse =
      std::is_same_v<W, Z> && !d.transpose_a && !d.mask_complement;
  if (!fuse) {
    vxm(w, no_mask, NoAccum{}, sr, u, a, d);
    select(pruned, no_mask, NoAccum{}, ValueGe{}, w, lo);
    select(pruned, no_mask, NoAccum{}, ValueLt{}, pruned, hi);
    return;
  }

  stats().fused_dispatches.fetch_add(1, std::memory_order_relaxed);
  trace::ScopedSpan sp(trace::SpanKind::fused_vxm_select);
  sp.set_in_nvals(u.nvals());
  sp.set_plan(pl);
  detail::check_same_size(u.size(), a.nrows(),
                          "vxm_select_range: u/A dimension mismatch");
  auto allowed = [](Index) { return true; };
  Vector<Z> t = detail::push_kernel<Z>(
      sr, a, u, allowed,
      [&](const AT &aval, const W &uval, Index j, Index k) {
        return sr.multiply(uval, aval, Index{0}, k, j);
      },
      a.ncols(), pl);
  sp.set_out_nvals(t.nvals());
  detail::write_result(w, std::move(t), no_mask, NoAccum{}, d);

  // Range filter in the same dispatch: exactly the two chained selects'
  // predicates over w's (ascending) entries.
  std::vector<Index> idx;
  std::vector<W> val;
  w.for_each([&](Index i, const W &x) {
    if (ValueGe{}(x, i, Index{0}, lo) && ValueLt{}(x, i, Index{0}, hi)) {
      idx.push_back(i);
      val.push_back(x);
    }
  });
  pruned.adopt_sparse(std::move(idx), std::move(val));
  pruned.maybe_switch_format();
}

}  // namespace grb

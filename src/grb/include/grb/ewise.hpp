// grb/ewise.hpp — element-wise addition (set union) and multiplication
// (set intersection) for vectors and matrices (paper §III-B b,c).
//
// "Addition" and "multiplication" refer to the structure of the result, not
// the operator: any binary op may be used. eWiseAdd applies op on the union
// of the input structures (entries present in only one input pass through
// unchanged); eWiseMult applies op on the intersection.
//
// All paths are parallel (grb/parallel.hpp): the index space is split into
// contiguous chunks. Two full operands, in a call with no mask, accumulator
// or complement, are written into w's own value array in one branch-free
// pass (union and intersection are then the same loop). Two bitmap vectors
// give a bitmap result whose slots each chunk fills in place; the sparse
// paths emit through emit_sparse, reserved to |u| + |v| for a union and
// min(|u|, |v|) for an intersection, straight into the result when the
// operands are one chunk and into per-chunk buffers concatenated in chunk
// order otherwise. Position-wise ops have no cross-chunk state, so the
// result is identical to the serial walk for any thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/trace.hpp"

namespace grb {
namespace detail {

/// u op v over the union or intersection of the structures. When `into` is
/// given (full_target) and the planned operands are both full, the result
/// goes straight into *into and nothing is returned.
template <typename Z, typename Op, typename U, typename V, bool UnionMode>
std::optional<Vector<Z>> ewise_vec(Op op, const Vector<U> &u,
                                   const Vector<V> &v, Vector<Z> *into) {
  check_same_size(u.size(), v.size(), "eWise: dimension mismatch");
  const Index n = u.size();
  trace::ScopedSpan sp(UnionMode ? trace::SpanKind::ewise_add
                                 : trace::SpanKind::ewise_mult);
  sp.set_in_nvals(static_cast<std::uint64_t>(u.nvals()) + v.nvals());

  // Plan operand formats: union promotes mixed inputs to bitmap for the
  // dense walk, intersection keeps them mixed so the sparse side can probe
  // the bitmap side; Config::force_format overrides both ways.
  plan::OpDesc od;
  od.op = UnionMode ? plan::OpKind::ewise_add : plan::OpKind::ewise_mult;
  od.u_format = u.format() == Vector<U>::Format::bitmap ? 1 : 0;
  od.v_format = v.format() == Vector<V>::Format::bitmap ? 1 : 0;
  const auto pl = plan::make_plan(od);
  sp.set_plan(pl);
  plan::prepare(u, pl.u_format);
  plan::prepare(v, pl.v_format);

  if (into != nullptr && u.is_full() && v.is_full()) {
    // Hot path (PageRank's w = t ./ d and t = t - r every iteration): no
    // presence to test or set, and no fresh result. Position i of u and v
    // is read before w(i) is written, so w may be u or v.
    const U *uv = u.bitmap_values();
    const V *vv = v.bitmap_values();
    fill_full(*into, partition_even(n, plan::chunk_parts(n, 2)),
              [&](Index lo, Index hi, Z *wv) {
                for (Index i = lo; i < hi; ++i) {
                  wv[i] = static_cast<Z>(
                      op(static_cast<Z>(uv[i]), static_cast<Z>(vv[i])));
                }
              });
    sp.set_out_nvals(n);
    return std::nullopt;
  }

  if (u.format() == Vector<U>::Format::bitmap &&
      v.format() == Vector<V>::Format::bitmap) {
    // Walk the raw bitmap arrays and fill each position's result slot, so
    // the result is a bitmap. Union over mixed formats lands here too: the
    // planner promoted both sides to bitmap.
    const std::uint8_t *up = u.bitmap_present();
    const U *uv = u.bitmap_values();
    const std::uint8_t *vp = v.bitmap_present();
    const V *vv = v.bitmap_values();
    Vector<Z> t = fill_slots<Z>(
        n, partition_even(n, plan::chunk_parts(n, 2)),
        [&](Index lo, Index hi, std::uint8_t *found, Z *out) {
          Index hits = 0;
          for (Index i = lo; i < hi; ++i) {
            const bool hu = up[i] != 0;
            const bool hv = vp[i] != 0;
            if (hu && hv) {
              out[i] = static_cast<Z>(
                  op(static_cast<Z>(uv[i]), static_cast<Z>(vv[i])));
            } else if (UnionMode && hu) {
              out[i] = static_cast<Z>(uv[i]);
            } else if (UnionMode && hv) {
              out[i] = static_cast<Z>(vv[i]);
            } else {
              continue;
            }
            found[i] = 1;
            ++hits;
          }
          return hits;
        });
    sp.set_out_nvals(t.nvals());
    return t;
  }

  auto combine = [&](std::vector<Index> &oi, std::vector<Z> &ov, Index i,
                     const U *x, const V *y) {
    if (x != nullptr && y != nullptr) {
      oi.push_back(i);
      ov.push_back(static_cast<Z>(op(static_cast<Z>(*x), static_cast<Z>(*y))));
    } else if constexpr (UnionMode) {
      if (x != nullptr) {
        oi.push_back(i);
        ov.push_back(static_cast<Z>(*x));
      } else if (y != nullptr) {
        oi.push_back(i);
        ov.push_back(static_cast<Z>(*y));
      }
    }
  };

  // Mixed formats remain only for an intersection (see the planner note
  // above). Every sparse branch emits through emit_sparse, its buffers
  // reserved to the most entries a chunk can produce.
  const Index nu = u.nvals();
  const Index nv = v.nvals();
  const bool u_sparse = u.format() == Vector<U>::Format::sparse;
  const bool v_sparse = v.format() == Vector<V>::Format::sparse;
  assert(!UnionMode || (u_sparse && v_sparse));
  Vector<Z> t(n);
  if (!u_sparse) {
    // Intersection with a bitmap u and a sparse v: walk v's entries and
    // probe u — O(nnz(v)), not O(n).
    const std::uint8_t *up = u.bitmap_present();
    const U *uv = u.bitmap_values();
    auto vi = v.sparse_indices();
    auto vv = v.sparse_values();
    t = emit_sparse<Z>(
        n, partition_even(nv, plan::chunk_parts(nv, 2)),
        [&](Index lo, Index hi) { return std::min(hi - lo, nu); },
        [&](Index lo, Index hi, std::vector<Index> &oi, std::vector<Z> &ov) {
          for (Index q = lo; q < hi; ++q) {
            const Index i = vi[q];
            if (up[i]) combine(oi, ov, i, &uv[i], &vv[q]);
          }
        });
  } else if (!v_sparse) {
    // The mirror case: walk u's entries and probe v.
    const std::uint8_t *vp = v.bitmap_present();
    const V *vv = v.bitmap_values();
    auto ui = u.sparse_indices();
    auto uv = u.sparse_values();
    t = emit_sparse<Z>(
        n, partition_even(nu, plan::chunk_parts(nu, 2)),
        [&](Index lo, Index hi) { return std::min(hi - lo, nv); },
        [&](Index lo, Index hi, std::vector<Index> &oi, std::vector<Z> &ov) {
          for (Index p = lo; p < hi; ++p) {
            const Index i = ui[p];
            if (vp[i]) combine(oi, ov, i, &uv[p], &vv[i]);
          }
        });
  } else {
    // Sorted sparse-sparse merge, split by *position* ranges of [0, n):
    // each chunk merges the sub-ranges of u and v that fall in [lo, hi),
    // located with a binary search — no cross-chunk state.
    auto ui = u.sparse_indices();
    auto uv = u.sparse_values();
    auto vi = v.sparse_indices();
    auto vv = v.sparse_values();
    t = emit_sparse<Z>(
        n, partition_even(n, plan::chunk_parts(nu + nv, 2)),
        [&](Index lo, Index hi) {
          const auto [p, pe] = positions_in(ui, lo, hi);
          const auto [q, qe] = positions_in(vi, lo, hi);
          return static_cast<Index>(UnionMode ? (pe - p) + (qe - q)
                                              : std::min(pe - p, qe - q));
        },
        [&](Index lo, Index hi, std::vector<Index> &oi, std::vector<Z> &ov) {
          auto [p, pe] = positions_in(ui, lo, hi);
          auto [q, qe] = positions_in(vi, lo, hi);
          while (p < pe || q < qe) {
            if (q >= qe || (p < pe && ui[p] < vi[q])) {
              combine(oi, ov, ui[p], &uv[p], nullptr);
              ++p;
            } else if (p >= pe || vi[q] < ui[p]) {
              combine(oi, ov, vi[q], nullptr, &vv[q]);
              ++q;
            } else {
              combine(oi, ov, ui[p], &uv[p], &vv[q]);
              ++p;
              ++q;
            }
          }
        });
  }
  sp.set_out_nvals(t.nvals());
  return t;
}

template <typename Z, typename Op, typename U, typename V, bool UnionMode>
Matrix<Z> ewise_mat(Op op, const Matrix<U> &u, const Matrix<V> &v) {
  check_same_size(u.nrows(), v.nrows(), "eWise: row dimension mismatch");
  check_same_size(u.ncols(), v.ncols(), "eWise: column dimension mismatch");
  trace::ScopedSpan sp(UnionMode ? trace::SpanKind::ewise_add
                                 : trace::SpanKind::ewise_mult);
  sp.set_in_nvals(static_cast<std::uint64_t>(u.nvals()) + v.nvals());
  const Index m = u.nrows();
  u.ensure_sorted();
  v.ensure_sorted();

  // Rows are independent merges: chunk them by combined nnz, emit into
  // per-chunk buffers, stitch the row pointer from per-chunk row lengths.
  // Matrix operands are walked via for_each_in_row in whatever format they
  // hold, so there is nothing to plan.
  const Index total = u.nvals() + v.nvals();
  const int parts = plan::chunk_parts(total, 2);
  std::vector<Index> bounds =
      parts > 1 ? partition_rows_by_work(
                      m, parts,
                      [&](Index i) {
                        return u.row_nvals(i) + v.row_nvals(i) + 1;
                      })
                : partition_even(m, 1);
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  std::vector<std::vector<Index>> crlen(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Index>> cci(static_cast<std::size_t>(nchunks));
  std::vector<std::vector<Z>> ccv(static_cast<std::size_t>(nchunks));

  for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    auto &rlen = crlen[c];
    auto &ci = cci[c];
    auto &cv = ccv[c];
    rlen.reserve(static_cast<std::size_t>(hi - lo));
    std::vector<std::pair<Index, U>> urow;
    std::vector<std::pair<Index, V>> vrow;
    for (Index i = lo; i < hi; ++i) {
      urow.clear();
      vrow.clear();
      u.for_each_in_row(i,
                        [&](Index j, const U &x) { urow.emplace_back(j, x); });
      v.for_each_in_row(i,
                        [&](Index j, const V &x) { vrow.emplace_back(j, x); });
      const std::size_t before = ci.size();
      std::size_t p = 0;
      std::size_t q = 0;
      auto emit = [&](Index j, const Z &x) {
        ci.push_back(j);
        cv.push_back(x);
      };
      while (p < urow.size() || q < vrow.size()) {
        if (q >= vrow.size() ||
            (p < urow.size() && urow[p].first < vrow[q].first)) {
          if constexpr (UnionMode) {
            emit(urow[p].first, static_cast<Z>(urow[p].second));
          }
          ++p;
        } else if (p >= urow.size() || vrow[q].first < urow[p].first) {
          if constexpr (UnionMode) {
            emit(vrow[q].first, static_cast<Z>(vrow[q].second));
          }
          ++q;
        } else {
          emit(urow[p].first,
               static_cast<Z>(op(static_cast<Z>(urow[p].second),
                                 static_cast<Z>(vrow[q].second))));
          ++p;
          ++q;
        }
      }
      rlen.push_back(static_cast<Index>(ci.size() - before));
    }
  });

  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  {
    Index at = 0;
    Index i = 0;
    for (int c = 0; c < nchunks; ++c) {
      for (Index len : crlen[c]) {
        rp[i] = at;
        at += len;
        ++i;
      }
    }
    rp[m] = at;
  }
  std::vector<Index> ci;
  std::vector<Z> cv;
  concat_chunks(cci, ccv, ci, cv);
  Matrix<Z> t(m, u.ncols());
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  sp.set_out_nvals(t.nvals());
  return t;
}

}  // namespace detail

/// w⟨m⟩ ⊙= u op∪ v
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseAdd(Vector<W> &w, const MaskT &mask, Accum accum, Op op,
              const Vector<U> &u, const Vector<V> &v,
              const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(w.size(), u.size(), "eWiseAdd: output size mismatch");
  auto t = detail::ewise_vec<W, Op, U, V, true>(
      op, u, v, detail::full_target(w, mask, accum, d));
  if (t) detail::write_result(w, std::move(*t), mask, accum, d);
}

/// w⟨m⟩ ⊙= u op∩ v
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseMult(Vector<W> &w, const MaskT &mask, Accum accum, Op op,
               const Vector<U> &u, const Vector<V> &v,
               const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(w.size(), u.size(), "eWiseMult: output size mismatch");
  auto t = detail::ewise_vec<W, Op, U, V, false>(
      op, u, v, detail::full_target(w, mask, accum, d));
  if (t) detail::write_result(w, std::move(*t), mask, accum, d);
}

/// C⟨M⟩ ⊙= A op∪ B
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseAdd(Matrix<W> &c, const MaskT &mask, Accum accum, Op op,
              const Matrix<U> &a, const Matrix<V> &b,
              const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(c.nrows(), a.nrows(), "eWiseAdd: output shape");
  detail::check_same_size(c.ncols(), a.ncols(), "eWiseAdd: output shape");
  auto t = detail::ewise_mat<W, Op, U, V, true>(op, a, b);
  detail::write_result(c, std::move(t), mask, accum, d);
}

/// C⟨M⟩ ⊙= A op∩ B
template <typename W, typename MaskT, typename Accum, typename Op, typename U,
          typename V>
void eWiseMult(Matrix<W> &c, const MaskT &mask, Accum accum, Op op,
               const Matrix<U> &a, const Matrix<V> &b,
               const Descriptor &d = desc::DEFAULT) {
  detail::check_same_size(c.nrows(), a.nrows(), "eWiseMult: output shape");
  detail::check_same_size(c.ncols(), a.ncols(), "eWiseMult: output shape");
  auto t = detail::ewise_mat<W, Op, U, V, false>(op, a, b);
  detail::write_result(c, std::move(t), mask, accum, d);
}

}  // namespace grb

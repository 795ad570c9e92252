// grb/reduce.hpp — reductions (paper §III-B g).
//
// Row-wise matrix→vector reduction (column-wise under a transposed
// descriptor), matrix→scalar, and vector→scalar. Scalar reductions of empty
// objects yield the monoid identity.
//
// Parallel form (grb/parallel.hpp): row reductions chunk by nnz and fill
// independent per-row slots; scalar reductions fold each chunk separately
// (seeded with the identity) and combine the partials in chunk order — for a
// monoid that regrouping leaves the result unchanged.
#pragma once

#include <vector>

#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/semiring.hpp"
#include "grb/trace.hpp"
#include "grb/transpose.hpp"

namespace grb {

/// w⟨m⟩ ⊙= [⊕_j A(:,j)] — row-wise reduce to a column vector.
template <typename W, typename MaskT, typename Accum, typename M, typename A>
void reduce(Vector<W> &w, const MaskT &mask, Accum accum, M monoid,
            const Matrix<A> &a, const Descriptor &d = desc::DEFAULT) {
  using Z = typename M::value_type;
  trace::ScopedSpan sp(trace::SpanKind::reduce);
  sp.set_in_nvals(a.nvals());
  const Matrix<A> *src = &a;
  Matrix<A> at;
  if (d.transpose_a) {
    at = transposed(a);
    src = &at;
  }
  detail::check_same_size(w.size(), src->nrows(), "reduce: size mismatch");
  src->finish();
  const Index m = src->nrows();

  // Row reductions are independent; chunk them by row nnz (the CSR row
  // pointer is the work prefix) so hub rows don't serialize the loop. Each
  // row fills its own result slot, and the slots are the bitmap result.
  const bool csr = src->format() == Matrix<A>::Format::csr;
  const int parts = plan::chunk_parts(src->nvals(), 4);
  std::vector<Index> bounds =
      csr && parts > 1 ? detail::partition_rows_by_work(src->rowptr(), parts)
                       : detail::partition_even(m, parts);
  Vector<Z> t = detail::fill_slots<Z>(
      m, bounds, [&](Index lo, Index hi, std::uint8_t *found, Z *out) {
        Index hits = 0;
        for (Index i = lo; i < hi; ++i) {
          bool hit = false;
          Z acc{};
          src->for_each_in_row(i, [&](Index, const A &x) {
            if (!hit) {
              hit = true;
              acc = static_cast<Z>(x);
            } else {
              acc = monoid(acc, static_cast<Z>(x));
            }
          });
          if (hit) {
            found[i] = 1;
            out[i] = acc;
            ++hits;
          }
        }
        return hits;
      });
  sp.set_out_nvals(t.nvals());
  detail::write_result(w, std::move(t), mask, accum, d);
}

/// s ⊙= [⊕_{i,j} A(i,j)] — reduce a matrix to a scalar.
template <typename S, typename Accum, typename M, typename A>
void reduce(S &s, Accum accum, M monoid, const Matrix<A> &a) {
  using Z = typename M::value_type;
  trace::ScopedSpan sp(trace::SpanKind::reduce);
  sp.set_in_nvals(a.nvals());
  sp.set_out_nvals(1);
  Z acc = M::identity();
  a.finish();
  const bool csr = a.format() == Matrix<A>::Format::csr;
  const int parts = csr ? plan::chunk_parts(a.nvals(), 4) : 1;
  if (parts > 1) {
    auto bounds = detail::partition_rows_by_work(a.rowptr(), parts);
    const int nchunks = static_cast<int>(bounds.size()) - 1;
    std::vector<Z> part(static_cast<std::size_t>(nchunks), M::identity());
    detail::for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      Z p = M::identity();
      for (Index i = lo; i < hi; ++i) {
        a.for_each_in_row(i, [&](Index, const A &x) {
          p = monoid(p, static_cast<Z>(x));
        });
      }
      part[c] = p;
    });
    for (const Z &p : part) acc = monoid(acc, p);
  } else {
    a.for_each([&](Index, Index, const A &x) {
      acc = monoid(acc, static_cast<Z>(x));
    });
  }
  if constexpr (is_accum_v<Accum>) {
    s = static_cast<S>(accum(static_cast<Z>(s), acc));
  } else {
    (void)accum;
    s = static_cast<S>(acc);
  }
}

/// s ⊙= [⊕_i u(i)] — reduce a vector to a scalar.
template <typename S, typename Accum, typename M, typename U>
void reduce(S &s, Accum accum, M monoid, const Vector<U> &u) {
  using Z = typename M::value_type;
  trace::ScopedSpan sp(trace::SpanKind::reduce);
  sp.set_in_nvals(u.nvals());
  sp.set_out_nvals(1);
  // A sparse u's values, or a full u's value array, fold without presence
  // tests; a bitmap with holes tests each slot. Either way in ascending
  // index order.
  const bool sparse = u.format() == Vector<U>::Format::sparse;
  const U *vals = sparse ? u.sparse_values().data() : u.bitmap_values();
  const std::uint8_t *up =
      sparse || u.is_full() ? nullptr : u.bitmap_present();
  const Index m = sparse ? u.nvals() : u.size();
  auto fold = [&](Z p, Index lo, Index hi) {
    if (up == nullptr) {
      for (Index i = lo; i < hi; ++i) p = monoid(p, static_cast<Z>(vals[i]));
    } else {
      for (Index i = lo; i < hi; ++i) {
        if (up[i]) p = monoid(p, static_cast<Z>(vals[i]));
      }
    }
    return p;
  };
  Z acc = M::identity();
  const int parts = plan::chunk_parts(u.nvals(), 4);
  if (parts > 1) {
    auto bounds = detail::partition_even(m, parts);
    const int nchunks = static_cast<int>(bounds.size()) - 1;
    std::vector<Z> part(static_cast<std::size_t>(nchunks), M::identity());
    detail::for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      part[c] = fold(M::identity(), lo, hi);
    });
    for (const Z &p : part) acc = monoid(acc, p);
  } else {
    acc = fold(acc, 0, m);
  }
  if constexpr (is_accum_v<Accum>) {
    s = static_cast<S>(accum(static_cast<Z>(s), acc));
  } else {
    (void)accum;
    s = static_cast<S>(acc);
  }
}

}  // namespace grb

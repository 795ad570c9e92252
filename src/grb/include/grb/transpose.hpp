// grb/transpose.hpp — matrix transposition.
//
// The internal helper produces the explicit transpose in CSR with naturally
// sorted rows in O(m + n + nnz): scanning A in row-major order appends to
// each output row in ascending source-row order. The parallel form is a
// bucket counting sort (grb/parallel.hpp): source rows split into
// nnz-balanced chunks, each chunk counts per-column, a prefix pass gives
// every (chunk, column) pair its own disjoint output range, and the scatter
// pass writes with no synchronization. Chunk ranges within a column follow
// chunk (= source row) order, so the output is byte-identical to the serial
// scan for any thread count.
#pragma once

#include <vector>

#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/trace.hpp"

namespace grb {
namespace detail {

template <typename T>
Matrix<T> transpose_impl(const Matrix<T> &a) {
  const Index m = a.nrows();
  const Index n = a.ncols();
  trace::ScopedSpan sp(trace::SpanKind::transpose);
  sp.set_in_nvals(a.nvals());
  sp.set_out_nvals(a.nvals());
  a.finish();
  const bool csr = a.format() == Matrix<T>::Format::csr;
  const Index nz = a.nvals();

  int nthreads = effective_threads();
  // The parallel sort keeps one count row per chunk: P*(n+1) extra index
  // slots. Gate on that staying proportional to the nnz being moved.
  if (!csr || nz < kParallelGrain ||
      static_cast<std::size_t>(nthreads) * (static_cast<std::size_t>(n) + 1) >
          4 * static_cast<std::size_t>(nz) + 1024) {
    nthreads = 1;
  }

  if (nthreads <= 1) {
    std::vector<Index> rp(static_cast<std::size_t>(n) + 1, 0);
    a.for_each([&](Index, Index j, const T &) { ++rp[j + 1]; });
    for (Index j = 0; j < n; ++j) rp[j + 1] += rp[j];
    std::vector<Index> next(rp.begin(), rp.end() - 1);
    std::vector<Index> ci(a.nvals());
    std::vector<T> cv(a.nvals());
    a.for_each([&](Index i, Index j, const T &x) {
      ci[next[j]] = i;
      cv[next[j]] = x;
      ++next[j];
    });
    Matrix<T> at(n, m);
    at.adopt_csr(std::move(rp), std::move(ci), std::move(cv),
                 /*jumbled=*/false);
    return at;
  }

  std::vector<Index> rp(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Index> ci(static_cast<std::size_t>(nz));
  std::vector<T> cv(static_cast<std::size_t>(nz));
  // One width dispatch: both counting passes and the scatter walk typed
  // spans. Chunk boundaries come from the 64-bit partitioner, so the
  // (chunk, column) ranges — and therefore the output bytes — are identical
  // for either width.
  dispatch_width(a.index_width(), [&](auto tag) {
    using I = decltype(tag);
    auto arp = a.rowptr().template as<I>();
    auto acx = a.colidx().template as<I>();
    auto avx = a.values();
    std::vector<Index> bounds = partition_rows_by_work(arp, nthreads);
    const int nchunks = static_cast<int>(bounds.size()) - 1;

    // Pass 1: per-chunk per-column counts.
    std::vector<std::vector<Index>> count(
        static_cast<std::size_t>(nchunks),
        std::vector<Index>(static_cast<std::size_t>(n), 0));
    for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      auto &cnt = count[c];
      for (std::size_t p = arp[lo]; p < arp[hi]; ++p) ++cnt[acx[p]];
    });

    // Column starts, then per-(chunk, column) offsets: chunk c's slice of
    // column j begins after all earlier chunks' entries for j.
    for (Index j = 0; j < n; ++j) {
      Index total = 0;
      for (int c = 0; c < nchunks; ++c) total += count[c][j];
      rp[j + 1] = rp[j] + total;
    }
    std::vector<std::vector<Index>> off(static_cast<std::size_t>(nchunks));
    for (int c = 0; c < nchunks; ++c) {
      off[c].resize(static_cast<std::size_t>(n));
    }
    for_each_chunk(partition_even(n, nchunks), [&](int, Index lo, Index hi) {
      for (Index j = lo; j < hi; ++j) {
        Index at = rp[j];
        for (int c = 0; c < nchunks; ++c) {
          off[c][j] = at;
          at += count[c][j];
        }
      }
    });

    // Pass 2: scatter — every (chunk, column) range is disjoint.
    for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      auto &nx = off[c];
      for (Index i = lo; i < hi; ++i) {
        for (std::size_t p = arp[i]; p < arp[i + 1]; ++p) {
          const Index j = acx[p];
          ci[nx[j]] = i;
          cv[nx[j]] = avx[p];
          ++nx[j];
        }
      }
    });
  });

  Matrix<T> at(n, m);
  at.adopt_csr(std::move(rp), std::move(ci), std::move(cv), /*jumbled=*/false);
  return at;
}

}  // namespace detail

/// C⟨M⟩ ⊙= Aᵀ (or A itself under desc.transpose_a, matching the C API where
/// GrB_transpose with INP0 transposed is a masked copy).
template <typename W, typename MaskT, typename Accum, typename A>
void transpose(Matrix<W> &c, const MaskT &mask, Accum accum, const Matrix<A> &a,
               const Descriptor &d = desc::DEFAULT) {
  Matrix<A> t = d.transpose_a ? a : detail::transpose_impl(a);
  if constexpr (std::is_same_v<A, W>) {
    detail::write_result(c, std::move(t), mask, accum, d);
  } else {
    Matrix<W> tw(t.nrows(), t.ncols());
    std::vector<Index> rp(t.rowptr().begin(), t.rowptr().end());
    std::vector<Index> ci(t.colidx().begin(), t.colidx().end());
    std::vector<W> cv;
    cv.reserve(t.nvals());
    for (const A &x : t.values()) cv.push_back(static_cast<W>(x));
    tw.adopt_csr(std::move(rp), std::move(ci), std::move(cv), t.jumbled());
    detail::write_result(c, std::move(tw), mask, accum, d);
  }
}

/// Convenience: return Aᵀ directly.
template <typename T>
Matrix<T> transposed(const Matrix<T> &a) {
  return detail::transpose_impl(a);
}

}  // namespace grb

// grb/matrix.hpp — sparse matrix with CSR, bitmap, and full formats.
//
// The CSR ("sparse") format is the workhorse, held by row as in
// SuiteSparse:GraphBLAS. Three pieces of deferred ("non-blocking mode")
// state reproduce the mechanisms the paper describes in §VI-A:
//   - pending tuples: set_element / accum_element append to an unsorted side
//     list instead of rewriting the CSR arrays; finish() merges them in one
//     pass, folding each position's ops in arrival order (set overwrites,
//     accum adds into the current value or inserts);
//   - zombies: remove_element marks the entry dead on a side list rather
//     than compacting the CSR arrays; finish() buries them in the same pass;
//   - lazy sort: kernels that naturally emit a row's entries out of column
//     order (saxpy-style mxm) may leave the matrix "jumbled"; the sort runs
//     only when some consumer actually needs sorted rows (dot products,
//     element-wise merges). If no consumer needs it, the sort never happens.
// The bitmap and full formats store an m×n dense layout; bitmap adds a
// byte-per-slot presence array. They serve dense-ish intermediates such as
// the ns×n frontier matrices in betweenness centrality.
//
// Threading contract ("single writer OR finalized"):
//   The deferred-work machinery above is *logically* const — finish(),
//   ensure_sorted(), and the to_*() format switches mutate internal state
//   behind const methods. That is undefined behavior if two threads touch
//   the same matrix concurrently, even if both only "read". A matrix may
//   therefore be used from exactly one thread at a time, UNLESS it has been
//   finalized: finalize() drains every deferred path (pending tuples,
//   zombies, lazy sort, hypersparse row list) up front, after which all
//   const member functions are genuinely read-only and any number of
//   threads may share the matrix. In debug builds the lazy paths assert
//   that they are never reached on a finalized matrix; any non-const
//   mutation (set_element, build, clear, adopt_csr, ...) returns the
//   matrix to single-writer mode by clearing the finalized flag.
//   lagraph::service::GraphSnapshot is the intended consumer: it finalizes
//   a graph's containers once, then serves it to a worker pool.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

#include "grb/config.hpp"
#include "grb/indexarray.hpp"
#include "grb/ops.hpp"
#include "grb/parallel.hpp"
#include "grb/trace.hpp"
#include "grb/types.hpp"

namespace grb {
namespace detail {

/// One stable counting-sort pass, as build() runs it: lists the positions
/// src(0), ..., src(nz - 1) in dst ordered by key(p) ∈ [0, nkeys), ties in
/// src order. A key out of range throws index_out_of_bounds. Above kParallelGrain (and when the
/// per-chunk count tables stay within a few times nz) the positions are cut
/// into chunks: each counts its keys, the (key, chunk) slices are laid out
/// key-major, and each chunk scatters into its own slices — the serial
/// order, since chunk order is src order within every key.
template <typename Src, typename Key>
void counting_scatter(std::size_t nz, Src &&src, Index nkeys, Key &&key,
                      std::size_t *dst) {
  int nthreads = effective_threads();
  if (nz < kParallelGrain ||
      static_cast<std::size_t>(nthreads) *
              (static_cast<std::size_t>(nkeys) + 1) >
          4 * nz + 1024) {
    nthreads = 1;
  }
  std::vector<Index> start(static_cast<std::size_t>(nkeys) + 1, 0);
  if (nthreads <= 1) {
    for (std::size_t q = 0; q < nz; ++q) {
      const Index k = key(src(q));
      require(k < nkeys, Info::index_out_of_bounds,
              "build: tuple out of bounds");
      ++start[k + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<Index> next(start.begin(), start.end() - 1);
    for (std::size_t q = 0; q < nz; ++q) {
      const std::size_t p = src(q);
      dst[next[key(p)]++] = p;
    }
    return;
  }
  auto bounds = partition_even(static_cast<Index>(nz), nthreads);
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  // Per-chunk key counts, turned into per-chunk write offsets in place.
  std::vector<std::vector<Index>> at(
      static_cast<std::size_t>(nchunks),
      std::vector<Index>(static_cast<std::size_t>(nkeys), 0));
  // No exception may escape an OpenMP region: record bad keys per chunk
  // and throw after the join.
  std::vector<std::uint8_t> bad(static_cast<std::size_t>(nchunks), 0);
  for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    auto &cnt = at[c];
    for (Index q = lo; q < hi; ++q) {
      const Index k = key(src(q));
      if (k >= nkeys) {
        bad[c] = 1;
        continue;
      }
      ++cnt[k];
    }
  });
  for (std::uint8_t b : bad) {
    require(!b, Info::index_out_of_bounds, "build: tuple out of bounds");
  }
  for (Index k = 0; k < nkeys; ++k) {
    Index total = 0;
    for (int c = 0; c < nchunks; ++c) total += at[c][k];
    start[k + 1] = start[k] + total;
  }
  for_each_chunk(partition_even(nkeys, nchunks), [&](int, Index lo, Index hi) {
    for (Index k = lo; k < hi; ++k) {
      Index off = start[k];
      for (int c = 0; c < nchunks; ++c) {
        const Index cnt = at[c][k];
        at[c][k] = off;
        off += cnt;
      }
    }
  });
  for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    auto &next = at[c];
    for (Index q = lo; q < hi; ++q) {
      const std::size_t p = src(q);
      dst[next[key(p)]++] = p;
    }
  });
}

}  // namespace detail

template <typename T>
class Matrix {
 public:
  using value_type = T;

  enum class Format : std::uint8_t { csr, hypersparse, bitmap, full };

  /// Pending-op codes for stage_tuples (the batched mutation entry point).
  static constexpr std::uint8_t kPendSet = 0;     // insert-or-overwrite
  static constexpr std::uint8_t kPendDelete = 1;  // zombie (remove if present)
  static constexpr std::uint8_t kPendAccum = 2;   // add into value, or insert

  Matrix() : m_(0), n_(0) {
    init_width(detail::select_index_width_lenient(0, 0, 0));
    rowptr_.assign(1, 0);
  }

  /// An empty m×n matrix in CSR format. Storage width starts at the
  /// dimension-implied width and is re-selected at every build/finalize
  /// (the non-throwing rule: a forced-u32 overflow is reported by the next
  /// build/stage_tuples, not by the constructor).
  Matrix(Index m, Index n) : m_(m), n_(n) {
    init_width(detail::select_index_width_lenient(m, n, 0));
    rowptr_.assign(static_cast<std::size_t>(m) + 1, 0);
  }

  /// An m×n matrix with every entry present and equal to `fill` ("full").
  static Matrix full_matrix(Index m, Index n, const T &fill) {
    Matrix a(m, n);
    a.fmt_ = Format::full;
    a.rowptr_.clear();
    a.dense_.assign(static_cast<std::size_t>(m) * n, fill);
    return a;
  }

  [[nodiscard]] Index nrows() const noexcept { return m_; }
  [[nodiscard]] Index ncols() const noexcept { return n_; }
  [[nodiscard]] Format format() const noexcept { return fmt_; }

  [[nodiscard]] Index nvals() const {
    finish();
    switch (fmt_) {
      case Format::csr:
      case Format::hypersparse: return static_cast<Index>(colidx_.size());
      case Format::bitmap: return bitmap_nvals_;
      case Format::full: return m_ * n_;
    }
    return 0;
  }

  void clear() {
    finalized_ = false;
    rowptr_.assign(static_cast<std::size_t>(m_) + 1, 0);
    colidx_.clear();
    vals_.clear();
    present_.clear();
    dense_.clear();
    pend_i_.clear();
    pend_j_.clear();
    pend_v_.clear();
    pend_op_.clear();
    hrows_.clear();
    hrowptr_.clear();
    bitmap_nvals_ = 0;
    jumbled_ = false;
    fmt_ = Format::csr;
  }

  // -- element access ---------------------------------------------------------

  /// C(i,j) = x. In CSR format the update lands on the pending-tuple list;
  /// it is merged on the next finish(). Later writes win over earlier ones.
  void set_element(Index i, Index j, const T &x) {
    check_indices(i, j);
    finalized_ = false;
    if (fmt_ == Format::hypersparse) to_csr();
    if (fmt_ != Format::csr) {
      auto p = static_cast<std::size_t>(i) * n_ + j;
      if (fmt_ == Format::bitmap && !present_[p]) {
        present_[p] = 1;
        ++bitmap_nvals_;
      }
      dense_[p] = x;
      return;
    }
    pend_i_.push_back(i);
    pend_j_.push_back(j);
    pend_v_.push_back(x);
    pend_op_.push_back(kPendSet);
  }

  /// C(i,j) = C(i,j) + x if the entry exists, else C(i,j) = x — the deferred
  /// "upsert" the ingest write path uses (GrB_setElement with a plus
  /// accumulator). Rides the same pending-tuple list as set_element, so a
  /// stream of accumulates costs one merge at the next flush boundary, not a
  /// CSR rewrite per call.
  void accum_element(Index i, Index j, const T &x) {
    check_indices(i, j);
    finalized_ = false;
    if (fmt_ == Format::hypersparse) to_csr();
    if (fmt_ != Format::csr) {
      auto p = static_cast<std::size_t>(i) * n_ + j;
      if (fmt_ == Format::bitmap && !present_[p]) {
        present_[p] = 1;
        ++bitmap_nvals_;
        dense_[p] = x;
      } else {
        dense_[p] = static_cast<T>(dense_[p] + x);
      }
      return;
    }
    pend_i_.push_back(i);
    pend_j_.push_back(j);
    pend_v_.push_back(x);
    pend_op_.push_back(kPendAccum);
  }

  /// Delete the entry at (i,j) if present. In CSR format this creates a
  /// "zombie": the deletion is recorded on a side list and applied on the
  /// next finish(), so no CSR compaction happens per call.
  void remove_element(Index i, Index j) {
    check_indices(i, j);
    finalized_ = false;
    if (fmt_ == Format::hypersparse) to_csr();
    if (fmt_ != Format::csr) {
      auto p = static_cast<std::size_t>(i) * n_ + j;
      if (fmt_ == Format::bitmap && present_[p]) {
        present_[p] = 0;
        --bitmap_nvals_;
      } else if (fmt_ == Format::full) {
        // A full matrix has no "missing" state: demote to bitmap first.
        to_bitmap();
        remove_element(i, j);
      }
      return;
    }
    pend_i_.push_back(i);
    pend_j_.push_back(j);
    pend_v_.push_back(T{});
    pend_op_.push_back(kPendDelete);
  }

  /// Batched non-blocking mutation: append `ops[p]`-coded updates (one of
  /// the kPend* codes) for positions (rows[p], cols[p]) to the pending list
  /// in one call — the ingest write path's entry point, amortizing the
  /// per-element virtual bookkeeping over a whole edge batch. Out-of-range
  /// indices throw before anything is staged. Deletes and accumulates obey
  /// exactly the set_element / remove_element / accum_element semantics at
  /// the next flush boundary.
  void stage_tuples(std::span<const Index> rows, std::span<const Index> cols,
                    std::span<const T> values,
                    std::span<const std::uint8_t> ops) {
    detail::require(rows.size() == cols.size() &&
                        rows.size() == values.size() &&
                        rows.size() == ops.size(),
                    Info::invalid_value, "stage_tuples: array length mismatch");
    for (std::size_t p = 0; p < rows.size(); ++p) {
      detail::require(rows[p] < m_ && cols[p] < n_,
                      Info::index_out_of_bounds,
                      "stage_tuples: index out of bounds");
      detail::require(ops[p] <= kPendAccum, Info::invalid_value,
                      "stage_tuples: unknown op code");
    }
    // Overflow guard: under a forced u32 width, reject any batch whose
    // projected entry count (pre-dedup — conservative) would exceed the u32
    // domain, before anything is staged. Auto mode instead promotes to u64
    // at the merge_pending → build boundary.
    if (config().force_index_width == ForceIndexWidth::u32) {
      const Index limit = std::min(config().u32_index_limit, kU32IndexLimit);
      // colidx_.size() is the current materialized entry count (bitmap/full
      // containers route through set_element below, where build re-checks);
      // avoid nvals() here — it would finish() and flush the pending list.
      const Index projected = static_cast<Index>(colidx_.size()) +
                              static_cast<Index>(pend_i_.size()) +
                              static_cast<Index>(rows.size());
      detail::require(std::max({m_, n_, projected}) < limit,
                      Info::index_out_of_bounds,
                      "stage_tuples: batch exceeds the container's u32 index "
                      "width");
    }
    finalized_ = false;
    if (fmt_ == Format::hypersparse) to_csr();
    if (fmt_ != Format::csr) {
      for (std::size_t p = 0; p < rows.size(); ++p) {
        switch (ops[p]) {
          case kPendSet: set_element(rows[p], cols[p], values[p]); break;
          case kPendDelete: remove_element(rows[p], cols[p]); break;
          default: accum_element(rows[p], cols[p], values[p]); break;
        }
      }
      return;
    }
    pend_i_.insert(pend_i_.end(), rows.begin(), rows.end());
    pend_j_.insert(pend_j_.end(), cols.begin(), cols.end());
    pend_v_.insert(pend_v_.end(), values.begin(), values.end());
    pend_op_.insert(pend_op_.end(), ops.begin(), ops.end());
  }

  [[nodiscard]] std::optional<T> get(Index i, Index j) const {
    check_indices(i, j);
    finish();
    if (fmt_ == Format::full) {
      return dense_[static_cast<std::size_t>(i) * n_ + j];
    }
    if (fmt_ == Format::bitmap) {
      auto p = static_cast<std::size_t>(i) * n_ + j;
      if (!present_[p]) return std::nullopt;
      return dense_[p];
    }
    ensure_sorted();
    return detail::dispatch_width(iw_, [&](auto tag) -> std::optional<T> {
      using I = decltype(tag);
      auto cx = colidx_.template as<I>();
      std::size_t lo = 0, hi = 0;
      if (fmt_ == Format::hypersparse) {
        auto hr = hrows_.template as<I>();
        auto hp = hrowptr_.template as<I>();
        auto it = std::lower_bound(hr.begin(), hr.end(), static_cast<I>(i));
        if (it == hr.end() || *it != static_cast<I>(i)) return std::nullopt;
        auto h = static_cast<std::size_t>(it - hr.begin());
        lo = hp[h];
        hi = hp[h + 1];
      } else {
        auto rp = rowptr_.template as<I>();
        lo = rp[i];
        hi = rp[i + 1];
      }
      auto first = cx.begin() + static_cast<std::ptrdiff_t>(lo);
      auto last = cx.begin() + static_cast<std::ptrdiff_t>(hi);
      auto jt = std::lower_bound(first, last, static_cast<I>(j));
      if (jt == last || *jt != static_cast<I>(j)) return std::nullopt;
      return vals_[static_cast<std::size_t>(jt - cx.begin())];
    });
  }

  [[nodiscard]] bool has(Index i, Index j) const { return get(i, j).has_value(); }

  // -- build / extractTuples ----------------------------------------------------

  /// C ↤ {i, j, x}: build from tuples, combining duplicates with `dup`.
  template <typename Dup = Plus>
  void build(std::span<const Index> rows, std::span<const Index> cols,
             std::span<const T> values, Dup dup = {}) {
    detail::require(rows.size() == cols.size() && rows.size() == values.size(),
                    Info::invalid_value, "build: array length mismatch");
    trace::ScopedSpan sp(trace::SpanKind::build);
    sp.set_in_nvals(rows.size());
    const std::size_t nz = rows.size();
    // Width selection happens here, where the entry count is first known
    // (nz counts pre-dedup tuples — conservative: finalize() re-compresses
    // if duplicate combining shrank the matrix back under the limit). In
    // forced-u32 mode an over-limit container throws index_out_of_bounds
    // before any storage is touched.
    const IndexWidth want =
        detail::select_index_width(m_, n_, static_cast<Index>(nz));
    const bool had_entries = !colidx_.empty();
    if (want != iw_ && had_entries) {
      if (want == IndexWidth::u32) {
        stats().index_width_compressions.fetch_add(1,
                                                   std::memory_order_relaxed);
      } else {
        stats().index_width_promotions.fetch_add(1, std::memory_order_relaxed);
      }
    }
    clear();  // also drops the finalized flag: back to single-writer mode
    init_width(want);
    // Order the tuples by (row, column, tuple position) with two stable
    // counting passes, least significant key first: by column, then by row.
    // The tuples of one (row, column) pair so stay in tuple order, and
    // duplicates combine in exactly that order, whether a pass runs serially
    // or chunked. The by-column order is dropped before the emit allocates
    // the result.
    std::vector<std::size_t> order(nz);
    {
      std::vector<std::size_t> by_col(nz);
      detail::counting_scatter(
          nz, [](std::size_t q) { return q; }, n_,
          [&](std::size_t p) { return cols[p]; }, by_col.data());
      detail::counting_scatter(
          nz, [&](std::size_t q) { return by_col[q]; }, m_,
          [&](std::size_t p) { return rows[p]; }, order.data());
    }
    // Emit directly at the selected width: the loop is monomorphic after
    // one dispatch, and the arrays are adopted zero-copy.
    detail::dispatch_width(iw_, [&](auto tag) {
      using I = decltype(tag);
      std::vector<I> rp(static_cast<std::size_t>(m_) + 1, 0);
      std::vector<I> ci;
      std::vector<T> vx;
      ci.reserve(nz);
      vx.reserve(nz);
      Index row = 0;
      for (std::size_t q = 0; q < nz; ++q) {
        std::size_t p = order[q];
        while (row < rows[p]) rp[++row] = static_cast<I>(ci.size());
        if (!ci.empty() && static_cast<Index>(ci.size()) >
                               static_cast<Index>(rp[row]) &&
            ci.back() == static_cast<I>(cols[p])) {
          vx.back() = dup(vx.back(), values[p]);
        } else {
          ci.push_back(static_cast<I>(cols[p]));
          vx.push_back(values[p]);
        }
      }
      while (row < m_) rp[++row] = static_cast<I>(ci.size());
      rowptr_.adopt(std::move(rp));
      colidx_.adopt(std::move(ci));
      vals_ = std::move(vx);
    });
    jumbled_ = false;
    sp.set_out_nvals(colidx_.size());
  }

  /// {i, j, x} ↤ C, in row-major (and within-row ascending column) order.
  void extract_tuples(std::vector<Index> &rows, std::vector<Index> &cols,
                      std::vector<T> &values) const {
    finish();
    ensure_sorted();
    rows.clear();
    cols.clear();
    values.clear();
    rows.reserve(nvals());
    cols.reserve(nvals());
    values.reserve(nvals());
    for_each([&](Index i, Index j, const T &x) {
      rows.push_back(i);
      cols.push_back(j);
      values.push_back(x);
    });
  }

  // -- iteration ----------------------------------------------------------------

  /// Visit each entry of row i as f(column, value). CSR rows may be jumbled
  /// (unsorted) unless ensure_sorted() was called.
  template <typename F>
  void for_each_in_row(Index i, F &&f) const {
    finish();
    if (fmt_ == Format::csr) {
      // One width dispatch per row, monomorphic inner loop.
      detail::dispatch_width(iw_, [&](auto tag) {
        using I = decltype(tag);
        auto rp = rowptr_.template as<I>();
        auto cx = colidx_.template as<I>();
        for (std::size_t p = rp[i]; p < rp[i + 1]; ++p) {
          f(static_cast<Index>(cx[p]), vals_[p]);
        }
      });
    } else if (fmt_ == Format::hypersparse) {
      detail::dispatch_width(iw_, [&](auto tag) {
        using I = decltype(tag);
        auto hr = hrows_.template as<I>();
        auto hp = hrowptr_.template as<I>();
        auto cx = colidx_.template as<I>();
        auto it = std::lower_bound(hr.begin(), hr.end(), static_cast<I>(i));
        if (it == hr.end() || *it != static_cast<I>(i)) return;
        auto h = static_cast<std::size_t>(it - hr.begin());
        for (std::size_t p = hp[h]; p < hp[h + 1]; ++p) {
          f(static_cast<Index>(cx[p]), vals_[p]);
        }
      });
    } else if (fmt_ == Format::bitmap) {
      auto base = static_cast<std::size_t>(i) * n_;
      for (Index j = 0; j < n_; ++j) {
        if (present_[base + j]) f(j, dense_[base + j]);
      }
    } else {
      auto base = static_cast<std::size_t>(i) * n_;
      for (Index j = 0; j < n_; ++j) f(j, dense_[base + j]);
    }
  }

  /// Visit every entry in row-major order as f(row, column, value).
  template <typename F>
  void for_each(F &&f) const {
    finish();
    if (fmt_ == Format::hypersparse) {
      // only the non-empty rows, without the binary search per row
      detail::dispatch_width(iw_, [&](auto tag) {
        using I = decltype(tag);
        auto hr = hrows_.template as<I>();
        auto hp = hrowptr_.template as<I>();
        auto cx = colidx_.template as<I>();
        for (std::size_t h = 0; h < hr.size(); ++h) {
          for (std::size_t p = hp[h]; p < hp[h + 1]; ++p) {
            f(static_cast<Index>(hr[h]), static_cast<Index>(cx[p]), vals_[p]);
          }
        }
      });
      return;
    }
    for (Index i = 0; i < m_; ++i) {
      for_each_in_row(i, [&](Index j, const T &x) { f(i, j, x); });
    }
  }

  [[nodiscard]] Index row_nvals(Index i) const {
    finish();
    if (fmt_ == Format::csr) return rowptr_[i + 1] - rowptr_[i];
    if (fmt_ == Format::hypersparse) {
      return detail::dispatch_width(iw_, [&](auto tag) -> Index {
        using I = decltype(tag);
        auto hr = hrows_.template as<I>();
        auto hp = hrowptr_.template as<I>();
        auto it = std::lower_bound(hr.begin(), hr.end(), static_cast<I>(i));
        if (it == hr.end() || *it != static_cast<I>(i)) return 0;
        auto h = static_cast<std::size_t>(it - hr.begin());
        return static_cast<Index>(hp[h + 1]) - static_cast<Index>(hp[h]);
      });
    }
    if (fmt_ == Format::full) return n_;
    Index c = 0;
    auto base = static_cast<std::size_t>(i) * n_;
    for (Index j = 0; j < n_; ++j) c += present_[base + j];
    return c;
  }

  // -- mask semantics -------------------------------------------------------------

  [[nodiscard]] bool mask_test(Index i, Index j, bool structural) const {
    auto v = get(i, j);
    if (!v) return false;
    return structural || *v != T(0);
  }

  // -- deferred work ----------------------------------------------------------------

  [[nodiscard]] bool jumbled() const noexcept { return jumbled_; }
  [[nodiscard]] bool has_pending() const noexcept { return !pend_i_.empty(); }

  /// Number of staged-but-unmerged mutations (pending tuples + zombies).
  /// The ingest writer polls this to decide when a flush boundary is due.
  [[nodiscard]] Index pending_count() const noexcept {
    return static_cast<Index>(pend_i_.size());
  }

  /// Merge pending tuples into the CSR structure. Logically const: the
  /// matrix's mathematical content does not change.
  void finish() const {
    if (pend_i_.empty()) return;
    assert_lazy_path_allowed("finish");
    auto &self = const_cast<Matrix &>(*this);
    self.merge_pending();
  }

  /// Sort every CSR row by column index if the matrix is jumbled.
  void ensure_sorted() const {
    finish();
    if (!jumbled_) return;
    assert_lazy_path_allowed("ensure_sorted");
    if (fmt_ == Format::hypersparse) to_csr();
    if (fmt_ != Format::csr) return;
    auto &self = const_cast<Matrix &>(*this);
    self.sort_rows();
    stats().row_sorts.fetch_add(1, std::memory_order_relaxed);
  }

  /// GrB_wait equivalent: complete all deferred work.
  void wait() const {
    finish();
    ensure_sorted();
  }

  /// Freeze for concurrent sharing (see the threading contract above).
  /// Drains every deferred path: pending tuples and zombies are merged,
  /// jumbled rows sorted, and hypersparse storage expanded to CSR (so the
  /// kernels' raw-access entry points never need a format write while the
  /// matrix is shared). After finalize() all const member functions are
  /// genuinely read-only; debug builds assert if a lazy path is ever
  /// reached. Any later non-const mutation clears the flag.
  void finalize() const {
    wait();
    if (fmt_ == Format::hypersparse) to_csr();
    // Snapshot-publish is where the memory win lands: with the deferred
    // work drained the entry count is final, so re-select the width and
    // compress u64 → u32 when the auto rule (or a forced override) allows.
    if (fmt_ == Format::csr) {
      refresh_width(static_cast<Index>(colidx_.size()));
      auto &self = const_cast<Matrix &>(*this);
      self.rowptr_.shrink_to_fit();
      self.colidx_.shrink_to_fit();
    }
    finalized_ = true;
    stats().finalize_calls.fetch_add(1, std::memory_order_relaxed);
  }

  /// Physical width of the index arrays (see grb/indexarray.hpp). Merges
  /// pending work first: staged mutations can change the selected width.
  [[nodiscard]] IndexWidth index_width() const {
    finish();
    return iw_;
  }

  /// Heap bytes the index arrays occupy at the current width — the
  /// numerator of the bytes-per-edge accounting (values excluded; their
  /// size is width-independent).
  [[nodiscard]] std::size_t index_bytes() const {
    finish();
    return rowptr_.byte_size() + colidx_.byte_size() + hrows_.byte_size() +
           hrowptr_.byte_size();
  }

  /// True while the matrix is frozen for concurrent readers.
  [[nodiscard]] bool is_finalized() const noexcept { return finalized_; }

  // -- format management ---------------------------------------------------------------

  void to_csr() const {
    finish();
    if (fmt_ == Format::csr) return;
    assert_lazy_path_allowed("to_csr");
    auto &self = const_cast<Matrix &>(*this);
    if (fmt_ == Format::hypersparse) {
      // expand the compressed row list into a full row-pointer array, at
      // the container's width (m_ and nvals both fit: iw_ covered them when
      // the hypersparse form was built)
      detail::dispatch_width(iw_, [&](auto tag) {
        using I = decltype(tag);
        auto hr = hrows_.template as<I>();
        auto hp = hrowptr_.template as<I>();
        std::vector<I> rp(static_cast<std::size_t>(m_) + 1, 0);
        for (std::size_t h = 0; h < hr.size(); ++h) {
          rp[static_cast<std::size_t>(hr[h]) + 1] = hp[h + 1] - hp[h];
        }
        for (Index i = 0; i < m_; ++i) {
          rp[i + 1] = static_cast<I>(rp[i + 1] + rp[i]);
        }
        self.rowptr_.adopt(std::move(rp));
      });
      self.hrows_.clear();
      self.hrows_.shrink_to_fit();
      self.hrowptr_.clear();
      self.hrowptr_.shrink_to_fit();
      self.fmt_ = Format::csr;
      stats().format_switches.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Bitmap/full → CSR. A bitmap can hold more entries than its
    // dimensions suggest (nvals up to m·n), so the width is re-selected
    // for the realized entry count before the index arrays are emitted.
    const Index nz = nvals();
    const IndexWidth want = detail::select_index_width(m_, n_, nz);
    if (want != self.iw_) self.iw_ = want;
    detail::dispatch_width(iw_, [&](auto tag) {
      using I = decltype(tag);
      std::vector<I> rp(static_cast<std::size_t>(m_) + 1, 0);
      std::vector<I> ci;
      std::vector<T> vx;
      ci.reserve(nz);
      vx.reserve(nz);
      for (Index i = 0; i < m_; ++i) {
        for_each_in_row(i, [&](Index j, const T &x) {
          ci.push_back(static_cast<I>(j));
          vx.push_back(x);
        });
        rp[i + 1] = static_cast<I>(ci.size());
      }
      self.rowptr_.adopt(std::move(rp));
      self.colidx_.adopt(std::move(ci));
      self.vals_ = std::move(vx);
    });
    self.present_.clear();
    self.present_.shrink_to_fit();
    self.dense_.clear();
    self.dense_.shrink_to_fit();
    self.bitmap_nvals_ = 0;
    self.jumbled_ = false;
    self.fmt_ = Format::csr;
    stats().format_switches.fetch_add(1, std::memory_order_relaxed);
  }

  void to_bitmap() const {
    finish();
    if (fmt_ == Format::bitmap) return;
    assert_lazy_path_allowed("to_bitmap");
    auto &self = const_cast<Matrix &>(*this);
    std::vector<std::uint8_t> pr(static_cast<std::size_t>(m_) * n_, 0);
    std::vector<T> dn(static_cast<std::size_t>(m_) * n_, T{});
    Index nz = 0;
    for_each([&](Index i, Index j, const T &x) {
      pr[static_cast<std::size_t>(i) * n_ + j] = 1;
      dn[static_cast<std::size_t>(i) * n_ + j] = x;
      ++nz;
    });
    self.rowptr_.clear();
    self.colidx_.clear();
    self.colidx_.shrink_to_fit();
    self.vals_.clear();
    self.vals_.shrink_to_fit();
    self.present_ = std::move(pr);
    self.dense_ = std::move(dn);
    self.bitmap_nvals_ = nz;
    self.jumbled_ = false;
    self.fmt_ = Format::bitmap;
    stats().format_switches.fetch_add(1, std::memory_order_relaxed);
  }

  /// Convert to the hypersparse format (Buluç & Gilbert [8] in the paper):
  /// only the non-empty rows carry a row pointer, so a matrix with m ≫
  /// nnz rows costs O(nnz) instead of O(m) — the format SuiteSparse pairs
  /// with CSR as its two primary sparse structures (§VI-A).
  void to_hypersparse() const {
    wait();  // hypersparse rows are kept sorted and merged
    if (fmt_ == Format::hypersparse) return;
    assert_lazy_path_allowed("to_hypersparse");
    to_csr();
    auto &self = const_cast<Matrix &>(*this);
    detail::dispatch_width(iw_, [&](auto tag) {
      using I = decltype(tag);
      auto rp = rowptr_.template as<I>();
      std::vector<I> hr;
      std::vector<I> hp;
      hp.push_back(0);
      for (Index i = 0; i < m_; ++i) {
        if (rp[i + 1] > rp[i]) {
          hr.push_back(static_cast<I>(i));
          hp.push_back(rp[i + 1]);
        }
      }
      self.hrows_.adopt(std::move(hr));
      self.hrowptr_.adopt(std::move(hp));
    });
    self.rowptr_.clear();
    self.rowptr_.shrink_to_fit();
    self.fmt_ = Format::hypersparse;
    stats().format_switches.fetch_add(1, std::memory_order_relaxed);
  }

  /// Number of non-empty rows (hypersparse row-list length).
  [[nodiscard]] Index nrows_nonempty() const {
    finish();
    if (fmt_ == Format::hypersparse) return static_cast<Index>(hrows_.size());
    Index c = 0;
    for (Index i = 0; i < m_; ++i) c += row_nvals(i) > 0 ? 1 : 0;
    return c;
  }

  // -- raw access for kernels -------------------------------------------------------------

  [[nodiscard]] IndexSpan rowptr() const {
    finish();
    // No silent hypersparse expansion: materializing the O(nrows) row
    // pointer is a planner decision, not a side effect of peeking at raw
    // storage. Callers convert explicitly first — grb::plan::prepare(a,
    // MatFormat::csr) — which also bumps Stats::format_conversions so the
    // blowup is visible in the counters.
    detail::require(fmt_ != Format::hypersparse, Info::invalid_value,
                    "rowptr: hypersparse matrix has no dense row pointer; "
                    "convert via grb::plan::prepare(a, MatFormat::csr)");
    return IndexSpan(rowptr_);
  }
  [[nodiscard]] IndexSpan colidx() const {
    finish();
    return IndexSpan(colidx_);
  }
  [[nodiscard]] std::span<const T> values() const {
    finish();
    return {vals_.data(), vals_.size()};
  }
  [[nodiscard]] const std::uint8_t *bitmap_present() const {
    return present_.data();
  }
  [[nodiscard]] const T *dense_values() const { return dense_.data(); }

  /// Adopt CSR storage built by a kernel. `jumbled` marks rows whose column
  /// order is unspecified (lazy sort). If lazy sort is disabled in Config the
  /// rows are sorted immediately.
  void adopt_csr(std::vector<Index> &&rowptr, std::vector<Index> &&colidx,
                 std::vector<T> &&values, bool jumbled = false) {
    detail::require(rowptr.size() == static_cast<std::size_t>(m_) + 1 &&
                        colidx.size() == values.size(),
                    Info::invalid_value, "adopt_csr: shape mismatch");
    clear();  // also drops the finalized flag: back to single-writer mode
    const Index nz = static_cast<Index>(colidx.size());
    iw_ = IndexWidth::u64;
    rowptr_.adopt(std::move(rowptr));
    colidx_.adopt(std::move(colidx));
    vals_ = std::move(values);
    // Kernel outputs stay u64 zero-copy in auto mode (width is re-picked at
    // finalize/publish); a forced width converts — or, for u32, throws —
    // here, so the conformance sweep's forced-u32 runs exercise the 32-bit
    // kernels on intermediates too.
    if (config().force_index_width != ForceIndexWidth::auto_select) {
      refresh_width(nz);
    }
    jumbled_ = jumbled;
    if (jumbled_ && !config().lazy_sort) {
      sort_rows();
      stats().eager_sorts.fetch_add(1, std::memory_order_relaxed);
    }
  }

  friend bool operator==(const Matrix &a, const Matrix &b) {
    if (a.m_ != b.m_ || a.n_ != b.n_ || a.nvals() != b.nvals()) return false;
    bool eq = true;
    a.for_each([&](Index i, Index j, const T &x) {
      auto y = b.get(i, j);
      if (!y || !(*y == x)) eq = false;
    });
    return eq;
  }

 private:
  void check_indices(Index i, Index j) const {
    detail::require(i < m_ && j < n_, Info::index_out_of_bounds,
                    "matrix index out of bounds");
  }

  /// Set the shared width of every index array without converting payloads
  /// (constructor / post-clear use only — arrays must be empty or about to
  /// be overwritten).
  void init_width(IndexWidth w) {
    iw_ = w;
    rowptr_ = detail::IndexArray(w);
    colidx_ = detail::IndexArray(w);
    hrows_ = detail::IndexArray(w);
    hrowptr_ = detail::IndexArray(w);
  }

  /// Re-select the storage width for the given entry count and convert all
  /// index arrays in place, bumping the transition counters. Throws
  /// Info::index_out_of_bounds when force_index_width=u32 cannot represent
  /// the container (the spec'd overflow guard). Logically const — the
  /// mathematical content is unchanged.
  void refresh_width(Index nvals) const {
    const IndexWidth want = detail::select_index_width(m_, n_, nvals);
    if (want == iw_) return;
    auto &self = const_cast<Matrix &>(*this);
    self.rowptr_.convert(want);
    self.colidx_.convert(want);
    self.hrows_.convert(want);
    self.hrowptr_.convert(want);
    self.iw_ = want;
    if (want == IndexWidth::u32) {
      stats().index_width_compressions.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats().index_width_promotions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Debug tripwire for the threading contract: a finalized matrix must never
  // reach a logically-const mutation (see the header comment).
  void assert_lazy_path_allowed([[maybe_unused]] const char *what) const {
    assert(!finalized_ &&
           "grb::Matrix: deferred mutation on a finalized matrix — the "
           "single-writer-or-finalized threading contract was violated");
  }

  void merge_pending() {
    stats().pending_flushes.fetch_add(1, std::memory_order_relaxed);
    std::vector<Index> pi;
    std::vector<Index> pj;
    std::vector<T> pv;
    std::vector<std::uint8_t> pd;
    pi.swap(pend_i_);
    pj.swap(pend_j_);
    pv.swap(pend_v_);
    pd.swap(pend_op_);
    // pending lists are detached, so these cannot re-enter merge_pending
    if (fmt_ == Format::hypersparse) to_csr();
    ensure_sorted();
    // Collect existing tuples, then pending ops in arrival order, and fold
    // each position's ops in that order: a set overwrites, a zombie buries
    // the entry, an accumulate adds into the running value (or inserts).
    // The stable sort below keys on (i, j) only, so within a position the
    // existing CSR entry comes first and pending ops keep arrival order —
    // exactly the sequential setElement/removeElement semantics.
    std::vector<Index> ri;
    std::vector<Index> rj;
    std::vector<T> rv;
    std::vector<std::uint8_t> rd;
    const std::size_t total = colidx_.size() + pi.size();
    ri.reserve(total);
    rj.reserve(total);
    rv.reserve(total);
    rd.reserve(total);
    for (Index i = 0; i < m_; ++i) {
      for (Index p = rowptr_[i]; p < rowptr_[i + 1]; ++p) {
        ri.push_back(i);
        rj.push_back(colidx_[p]);
        rv.push_back(vals_[p]);
        rd.push_back(kPendSet);
      }
    }
    ri.insert(ri.end(), pi.begin(), pi.end());
    rj.insert(rj.end(), pj.begin(), pj.end());
    rv.insert(rv.end(), pv.begin(), pv.end());
    rd.insert(rd.end(), pd.begin(), pd.end());
    std::vector<std::size_t> order(ri.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (ri[a] != ri[b]) return ri[a] < ri[b];
                       return rj[a] < rj[b];
                     });
    std::vector<Index> fi;
    std::vector<Index> fj;
    std::vector<T> fv;
    for (std::size_t q = 0; q < order.size();) {
      const Index gi = ri[order[q]];
      const Index gj = rj[order[q]];
      bool present = false;
      T val{};
      for (; q < order.size() && ri[order[q]] == gi && rj[order[q]] == gj;
           ++q) {
        const std::size_t p = order[q];
        switch (rd[p]) {
          case kPendDelete: present = false; break;
          case kPendAccum:
            val = present ? static_cast<T>(val + rv[p]) : rv[p];
            present = true;
            break;
          default:  // kPendSet
            val = rv[p];
            present = true;
            break;
        }
      }
      if (!present) continue;  // the zombie is buried here
      fi.push_back(gi);
      fj.push_back(gj);
      fv.push_back(val);
    }
    build(std::span<const Index>(fi), std::span<const Index>(fj),
          std::span<const T>(fv), Second{});
  }

  void sort_rows() {
    // Rows sort independently in place (disjoint CSR slices), so chunk them
    // by nnz — the row pointer is the work prefix (grb/parallel.hpp). One
    // width dispatch up front keeps the per-entry scan monomorphic.
    detail::dispatch_width(iw_, [&](auto tag) {
      using I = decltype(tag);
      auto rp = rowptr_.template as<I>();
      auto cx = colidx_.template as_mut<I>();
      const Index total = rp.empty() ? 0 : static_cast<Index>(rp[m_]);
      const int parts =
          (detail::effective_threads() > 1 && total >= detail::kParallelGrain)
              ? detail::effective_threads() * 4
              : 1;
      std::vector<Index> bounds = parts > 1
                                      ? detail::partition_rows_by_work(rp, parts)
                                      : detail::partition_even(m_, 1);
      detail::for_each_chunk(bounds, [&](int, Index rlo, Index rhi) {
        std::vector<std::pair<I, T>> row;
        for (Index i = rlo; i < rhi; ++i) {
          std::size_t lo = rp[i];
          std::size_t hi = rp[i + 1];
          if (hi - lo < 2) continue;
          bool sorted = true;
          for (std::size_t p = lo + 1; p < hi; ++p) {
            if (cx[p - 1] > cx[p]) {
              sorted = false;
              break;
            }
          }
          if (sorted) continue;
          row.clear();
          row.reserve(hi - lo);
          for (std::size_t p = lo; p < hi; ++p) {
            row.emplace_back(cx[p], vals_[p]);
          }
          std::sort(row.begin(), row.end(), [](const auto &a, const auto &b) {
            return a.first < b.first;
          });
          for (std::size_t p = lo; p < hi; ++p) {
            cx[p] = row[p - lo].first;
            vals_[p] = row[p - lo].second;
          }
        }
      });
    });
    jumbled_ = false;
  }

  Index m_;
  Index n_;
  mutable bool finalized_ = false;  // frozen for concurrent readers
  mutable Format fmt_ = Format::csr;
  // Storage width invariant: rowptr_/colidx_/hrows_/hrowptr_ always share
  // iw_. Pending-tuple staging stays u64 (it is transient and must accept
  // any Index); build() re-selects the width when the lists merge.
  mutable IndexWidth iw_ = IndexWidth::u64;
  mutable detail::IndexArray rowptr_;
  mutable detail::IndexArray colidx_;
  mutable std::vector<T> vals_;
  mutable bool jumbled_ = false;
  // pending ops (deferred set/accum_element + remove_element "zombies"),
  // coded with the kPend* constants
  mutable std::vector<Index> pend_i_;
  mutable std::vector<Index> pend_j_;
  mutable std::vector<T> pend_v_;
  mutable std::vector<std::uint8_t> pend_op_;
  // hypersparse storage (non-empty row ids + their row pointers)
  mutable detail::IndexArray hrows_;
  mutable detail::IndexArray hrowptr_;
  // bitmap / full storage
  mutable std::vector<std::uint8_t> present_;
  mutable std::vector<T> dense_;
  mutable Index bitmap_nvals_ = 0;
};

}  // namespace grb

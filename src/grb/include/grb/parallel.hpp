// grb/parallel.hpp — the parallel-kernel substrate: nnz-balanced work
// partitioning, a chunk executor, and a per-thread saxpy workspace pool.
//
// On power-law graphs per-row work varies by orders of magnitude, so
// parallelizing "by row count" (schedule(dynamic, N) over rows) leaves one
// thread holding the hub rows while the rest idle. Every parallel kernel in
// grb instead partitions its iteration space by *work*: a prefix sum of
// per-item cost (usually row nnz, i.e. the CSR row pointer itself) is split
// into contiguous chunks of ~equal total cost, and threads claim chunks from
// a shared cursor. Chunks are contiguous and merged back in chunk order, so
// the parallel result is combined in exactly the serial left-to-right order —
// the determinism guarantee the test suite pins down (see docs/API.md,
// "Parallelism model").
//
// Threading knob: Config::num_threads (0 = the OpenMP default from
// OMP_NUM_THREADS / the machine). Every kernel routes through
// effective_threads(), so `grb::config().num_threads = 1` pins any workload
// to the bit-exact serial schedule.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "grb/config.hpp"
#include "grb/indexarray.hpp"
#include "grb/types.hpp"
#include "grb/vector.hpp"

namespace grb {
namespace detail {

/// Minimum total work before a kernel bothers with a parallel region; below
/// this the fork/join overhead dominates (BFS tail levels, tiny vectors).
inline constexpr Index kParallelGrain = 4096;

/// Threads a parallel region may use: the Config override if set, else the
/// OpenMP default. Always 1 when built without OpenMP.
inline int effective_threads() {
  const int cfg = config().num_threads;
#ifdef _OPENMP
  return cfg > 0 ? cfg : omp_get_max_threads();
#else
  (void)cfg;
  return 1;
#endif
}

// ---------------------------------------------------------------------------
// nnz-balanced partitioning
// ---------------------------------------------------------------------------

/// Split [0, m) into at most `parts` contiguous chunks of ~equal work, where
/// `prefix` is the inclusive work prefix sum (size m+1, prefix[0] == 0) —
/// for a CSR matrix the row-pointer array is exactly such a prefix. Returns
/// chunk boundaries (size nchunks+1). Empty-work tails collapse, so fewer
/// than `parts` chunks may come back. Templated over the prefix element
/// type so width-typed kernels hand their u32 or u64 row pointer straight
/// in; chunk arithmetic stays 64-bit either way, so the boundaries are
/// identical across widths (the bit-identical guarantee holds).
template <typename I>
std::vector<Index> partition_rows_by_work(std::span<const I> prefix,
                                          int parts) {
  const Index m = prefix.empty() ? 0 : static_cast<Index>(prefix.size() - 1);
  std::vector<Index> bounds;
  bounds.push_back(0);
  if (m == 0 || parts <= 1) {
    bounds.push_back(m);
    return bounds;
  }
  const Index base = prefix[0];  // tolerate prefixes that do not start at 0
  const Index total = static_cast<Index>(prefix[m]) - base;
  if (total == 0) {
    bounds.push_back(m);
    return bounds;
  }
  for (int p = 1; p < parts; ++p) {
    const Index target =
        base + (total / static_cast<Index>(parts)) * static_cast<Index>(p) +
        (total % static_cast<Index>(parts)) * static_cast<Index>(p) /
            static_cast<Index>(parts);
    auto it = std::upper_bound(prefix.begin(), prefix.end(),
                               static_cast<I>(target));
    Index b = static_cast<Index>(it - prefix.begin());
    if (b > m) b = m;
    if (b < bounds.back()) b = bounds.back();
    if (b > bounds.back()) bounds.push_back(b);
  }
  if (bounds.back() < m) bounds.push_back(m);
  return bounds;
}

/// Width-erased overload for callers holding a Matrix::rowptr() view (e.g.
/// reduce over a finalized source): one dispatch, then the typed split.
inline std::vector<Index> partition_rows_by_work(IndexSpan prefix, int parts) {
  return dispatch_width(prefix.width(), [&](auto tag) {
    using I = decltype(tag);
    return partition_rows_by_work(prefix.as<I>(), parts);
  });
}

/// Same, but with per-item work given by a callable (used when no prefix
/// array exists yet, e.g. partitioning a frontier by the nnz of the matrix
/// rows its entries select).
template <typename WorkFn>
std::vector<Index> partition_rows_by_work(Index m, int parts, WorkFn &&work) {
  std::vector<Index> prefix(static_cast<std::size_t>(m) + 1, 0);
  for (Index i = 0; i < m; ++i) {
    prefix[i + 1] = prefix[i] + static_cast<Index>(work(i));
  }
  return partition_rows_by_work(std::span<const Index>(prefix), parts);
}

/// Uniform-work split of [0, m) into at most `parts` chunks.
inline std::vector<Index> partition_even(Index m, int parts) {
  std::vector<Index> bounds;
  bounds.push_back(0);
  if (m == 0 || parts <= 1) {
    bounds.push_back(m);
    return bounds;
  }
  const Index p = static_cast<Index>(parts);
  for (Index c = 1; c < p; ++c) {
    Index b = m / p * c + m % p * c / p;
    if (b > bounds.back()) bounds.push_back(b);
  }
  if (bounds.back() < m) bounds.push_back(m);
  return bounds;
}

// ---------------------------------------------------------------------------
// Chunk executor
// ---------------------------------------------------------------------------

/// Run f(chunk_index, lo, hi) for every chunk described by `bounds`. Chunks
/// are claimed from a shared cursor; a chunk executed by a thread other than
/// its round-robin home counts as stolen (Stats::work_items_stolen — the
/// load-imbalance telemetry). Chunk results must be independent (each chunk
/// writes only its own slots/buffers), which also makes the schedule
/// irrelevant to the output.
template <typename F>
void for_each_chunk(const std::vector<Index> &bounds, F &&f) {
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  int nthreads = std::min(effective_threads(), nchunks);
#ifdef _OPENMP
  if (nthreads > 1 && omp_in_parallel()) nthreads = 1;  // no nested teams
#endif
  if (nthreads <= 1) {
    for (int c = 0; c < nchunks; ++c) f(c, bounds[c], bounds[c + 1]);
    return;
  }
#ifdef _OPENMP
  stats().parallel_regions.fetch_add(1, std::memory_order_relaxed);
  std::atomic<int> cursor{0};
  std::atomic<std::uint64_t> stolen{0};
#pragma omp parallel num_threads(nthreads)
  {
    const int tid = omp_get_thread_num();
    std::uint64_t mine = 0;
    for (;;) {
      const int c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) break;
      if (c % nthreads != tid) ++mine;
      f(c, bounds[c], bounds[c + 1]);
    }
    if (mine != 0) stolen.fetch_add(mine, std::memory_order_relaxed);
  }
  stats().work_items_stolen.fetch_add(stolen.load(std::memory_order_relaxed),
                                      std::memory_order_relaxed);
#endif
}

/// Run f(tid) once on each of `nthreads` threads (tid in [0, nthreads)).
/// Used for the scatter phase of saxpy kernels, where thread t owns
/// workspace t and chunk t. Falls back to a serial loop without OpenMP, so
/// per-thread results are identical either way.
template <typename F>
void parallel_region(int nthreads, F &&f) {
  if (nthreads <= 1) {
    f(0);
    return;
  }
#ifdef _OPENMP
  if (omp_in_parallel()) {  // no nested teams: run the "threads" in sequence
    for (int t = 0; t < nthreads; ++t) f(t);
    return;
  }
  stats().parallel_regions.fetch_add(1, std::memory_order_relaxed);
#pragma omp parallel num_threads(nthreads)
  { f(omp_get_thread_num()); }
#else
  for (int t = 0; t < nthreads; ++t) f(t);
#endif
}

// ---------------------------------------------------------------------------
// Per-thread saxpy workspace pool
// ---------------------------------------------------------------------------

/// Dense accumulator + presence marks + touched list — the classic sparse
/// accumulator (SPA). mark[] gates every read of work[], so stale values
/// from a previous lease are harmless; clear() resets only the touched
/// slots, keeping reuse O(nnz of the last use) instead of O(n).
template <typename Z>
struct SaxpyWorkspace {
  std::vector<Z> work;
  std::vector<std::uint8_t> mark;
  std::vector<Index> touched;

  void ensure(Index n) {
    if (work.size() < static_cast<std::size_t>(n)) {
      work.resize(static_cast<std::size_t>(n));
      mark.assign(static_cast<std::size_t>(n), 0);
      touched.clear();
    }
  }

  void clear() {
    for (Index j : touched) mark[j] = 0;
    touched.clear();
  }
};

/// Process-wide pool of workspaces, one type per accumulator element. The
/// mutex is taken once per kernel invocation per thread (not per element),
/// and reuse means a BFS that calls vxm level after level pays the O(n)
/// allocation exactly once.
template <typename Z>
class WorkspacePool {
 public:
  static WorkspacePool &instance() {
    static WorkspacePool pool;
    return pool;
  }

  SaxpyWorkspace<Z> acquire(Index n) {
    SaxpyWorkspace<Z> ws;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        ws = std::move(free_.back());
        free_.pop_back();
      }
    }
    ws.ensure(n);
    return ws;
  }

  void release(SaxpyWorkspace<Z> &&ws) {
    ws.clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (free_.size() < kMaxPooled) free_.push_back(std::move(ws));
  }

 private:
  static constexpr std::size_t kMaxPooled = 64;
  std::mutex mu_;
  std::vector<SaxpyWorkspace<Z>> free_;
};

/// RAII lease on a pooled workspace.
template <typename Z>
class WorkspaceLease {
 public:
  explicit WorkspaceLease(Index n)
      : ws_(WorkspacePool<Z>::instance().acquire(n)) {}
  ~WorkspaceLease() { WorkspacePool<Z>::instance().release(std::move(ws_)); }
  WorkspaceLease(const WorkspaceLease &) = delete;
  WorkspaceLease &operator=(const WorkspaceLease &) = delete;

  SaxpyWorkspace<Z> &operator*() noexcept { return ws_; }
  SaxpyWorkspace<Z> *operator->() noexcept { return &ws_; }

 private:
  SaxpyWorkspace<Z> ws_;
};

// ---------------------------------------------------------------------------
// Shared output-assembly helpers
// ---------------------------------------------------------------------------

// Three writers, one per result shape: fill_slots (a bitmap result, possibly
// with holes), fill_full (a full result written into w's own arrays) and
// emit_sparse (a sparse result).

/// Build a size-n bitmap result from per-position slots. Each chunk of
/// `bounds` (a split of [0, n)) runs fill(lo, hi, found, out): it sets
/// found[i] = 1 and out[i] for the positions i in [lo, hi) that get an
/// entry and returns how many it set. Chunks own disjoint slots, so the
/// result is the same for any schedule; the slot arrays become the
/// vector's bitmap storage without a copy.
template <typename Z, typename Fill>
Vector<Z> fill_slots(Index n, const std::vector<Index> &bounds, Fill &&fill) {
  std::vector<std::uint8_t> found(static_cast<std::size_t>(n), 0);
  std::vector<Z> out(static_cast<std::size_t>(n));
  std::vector<Index> hits(bounds.size() - 1, 0);
  for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
    hits[c] = fill(lo, hi, found.data(), out.data());
  });
  Index nvals = 0;
  for (Index h : hits) nvals += h;
  Vector<Z> t(n);
  t.adopt_bitmap(std::move(found), std::move(out), nvals);
  return t;
}

/// Write a full result into w in place — the full-vector counterpart of
/// fill_slots. w becomes a bitmap with every slot present, keeping its
/// arrays when it already is one; then each chunk of `bounds` (a split of
/// [0, w.size())) runs write(lo, hi, wv), which stores wv[i] for every i in
/// [lo, hi) and no other position. An element-wise write reads position i
/// of its operands before it stores wv[i], so an operand may be w itself.
template <typename W, typename Write>
void fill_full(Vector<W> &w, const std::vector<Index> &bounds, Write &&write) {
  if (!w.is_full()) w = Vector<W>::full(w.size(), W{});
  W *wv = w.bitmap_values_mut();
  for_each_chunk(bounds, [&](int, Index lo, Index hi) { write(lo, hi, wv); });
}

/// Concatenate per-chunk (idx, val) buffers in chunk order.
template <typename Z>
void concat_chunks(std::vector<std::vector<Index>> &cidx,
                   std::vector<std::vector<Z>> &cval, std::vector<Index> &idx,
                   std::vector<Z> &val) {
  std::size_t total = 0;
  for (const auto &c : cidx) total += c.size();
  idx.reserve(idx.size() + total);
  val.reserve(val.size() + total);
  for (std::size_t c = 0; c < cidx.size(); ++c) {
    idx.insert(idx.end(), cidx[c].begin(), cidx[c].end());
    val.insert(val.end(), cval[c].begin(), cval[c].end());
  }
}

/// The positions [first, last) of a sorted index list whose indices fall in
/// [lo, hi): how a chunk of the index space finds its share of a sparse
/// operand.
inline std::pair<std::size_t, std::size_t> positions_in(
    std::span<const Index> sorted, Index lo, Index hi) {
  return {static_cast<std::size_t>(
              std::lower_bound(sorted.begin(), sorted.end(), lo) -
              sorted.begin()),
          static_cast<std::size_t>(
              std::lower_bound(sorted.begin(), sorted.end(), hi) -
              sorted.begin())};
}

/// Build a size-n sparse result from the chunks of `bounds` — the sparse
/// counterpart of fill_slots. Each chunk runs emit(lo, hi, oi, ov), which
/// appends its entries in ascending index order to buffers reserved to
/// cap(lo, hi), the most entries the chunk can emit (its input entries for
/// a filter, |u| + |v| for a union, min(|u|, |v|) for an intersection), so
/// no append reallocates. One chunk appends straight into the result's
/// arrays; several fill a buffer each, concatenated in chunk order, which
/// is the serial order.
template <typename Z, typename Cap, typename Emit>
Vector<Z> emit_sparse(Index n, const std::vector<Index> &bounds, Cap &&cap,
                      Emit &&emit) {
  std::vector<Index> idx;
  std::vector<Z> val;
  const int nchunks = static_cast<int>(bounds.size()) - 1;
  if (nchunks <= 1) {
    const Index c = cap(bounds.front(), bounds.back());
    idx.reserve(static_cast<std::size_t>(c));
    val.reserve(static_cast<std::size_t>(c));
    emit(bounds.front(), bounds.back(), idx, val);
  } else {
    std::vector<std::vector<Index>> cidx(static_cast<std::size_t>(nchunks));
    std::vector<std::vector<Z>> cval(static_cast<std::size_t>(nchunks));
    for_each_chunk(bounds, [&](int c, Index lo, Index hi) {
      const Index k = cap(lo, hi);
      cidx[c].reserve(static_cast<std::size_t>(k));
      cval[c].reserve(static_cast<std::size_t>(k));
      emit(lo, hi, cidx[c], cval[c]);
    });
    concat_chunks(cidx, cval, idx, val);
  }
  Vector<Z> t(n);
  t.adopt_sparse(std::move(idx), std::move(val));
  return t;
}

}  // namespace detail
}  // namespace grb

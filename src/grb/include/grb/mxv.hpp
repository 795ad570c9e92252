// grb/mxv.hpp — matrix-vector and vector-matrix multiplication.
//
// These two operations are the push/pull pair of the paper (§IV-A):
//   - vxm (w = uᵀ ⊕.⊗ A) iterates the entries of u and scatters along the
//     rows of A — a "push" step, cheap when the frontier u is small;
//   - mxv (w = A ⊕.⊗ u) iterates rows of A and computes sparse dot products
//     against u — a "pull" step, cheap when the mask prunes most rows and
//     the `any` monoid allows the dot product to stop at the first hit.
// A transposed descriptor swaps the kernels (uᵀAᵀ is a pull, Aᵀu is a push),
// so LAGraph's direction-optimizing BFS simply chooses between vxm(u, A) and
// mxv(Aᵀ, u) on the explicitly cached transpose.
//
// Both kernels are parallel (grb/parallel.hpp):
//   - the push kernel reads a sparse frontier's arrays in place and, for a
//     CSR A, dispatches the index width once per call and scatters over
//     typed rowptr/colidx/values spans. It partitions the frontier into
//     contiguous chunks of ~equal scattered nnz; each thread scatters its
//     chunk into a pooled dense accumulator + touched list, and a parallel
//     pass merges the per-thread partials over disjoint output ranges
//     (detail::emit_sparse), folding chunks in ascending frontier order —
//     the exact serial order, so results match num_threads=1 bit-for-bit
//     (any/min/max terminals are absorbing; plus/times over
//     exactly-representable values are associative);
//   - the pull kernel partitions rows by the CSR row-pointer prefix (nnz)
//     instead of row count, so power-law hub rows no longer serialize a
//     dynamic schedule. It picks A's format (CSR per index width, bitmap,
//     full, hypersparse) and u's probe form (full, bitmap or binary search)
//     once per call, and each pair runs its own typed row loop. The loop
//     hands each row's dot to a sink, its one parameter: the row's own
//     result slot, returned as a bitmap vector that the output step folds
//     into w in place, or — for an accumulating pull with no mask into a
//     full w — w(i) itself, as accum(w(i), dot) (SS:GrB's dot4 form).
//
// Masks are pushed down into both kernels (output positions outside the
// effective mask are never computed) and then the common output step in
// mask.hpp applies the full mask/accumulator/replace semantics.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <tuple>
#include <vector>

#include "grb/assign.hpp"
#include "grb/mask.hpp"
#include "grb/parallel.hpp"
#include "grb/plan.hpp"
#include "grb/semiring.hpp"
#include "grb/trace.hpp"

namespace grb {
namespace detail {

/// Push kernel: for each entry u(k), scatter along row k of A into a dense
/// accumulator workspace. `combine(aval, uval, jout, k) -> Z` evaluates the
/// semiring multiply with the caller's operand order and coordinate
/// convention. Parallel saxpy: frontier chunks balanced by row nnz, one
/// pooled workspace per thread, per-thread partials merged in chunk order.
template <typename Z, typename SR, typename AT, typename U, typename Pred,
          typename Combine>
Vector<Z> push_kernel(SR sr, const Matrix<AT> &a, const Vector<U> &u,
                      Pred &&allowed, Combine &&combine, Index out_size,
                      [[maybe_unused]] const plan::ExecPlan &pl) {
  assert(pl.direction == plan::Direction::push);
  stats().push_calls.fetch_add(1, std::memory_order_relaxed);
  using AddM = typename SR::add_monoid;

  // The frontier in ascending index order: a sparse u's own arrays, read in
  // place, or a bitmap u's entries listed once. Chunk boundaries over this
  // list give each thread a contiguous k-range, and merging per-thread
  // partials in chunk order then reproduces the serial scatter order.
  std::vector<Index> listed_k;
  std::vector<U> listed_v;
  std::span<const Index> fk;
  std::span<const U> fv;
  if (u.format() == Vector<U>::Format::sparse) {
    fk = u.sparse_indices();
    fv = u.sparse_values();
  } else {
    listed_k.reserve(static_cast<std::size_t>(u.nvals()));
    listed_v.reserve(static_cast<std::size_t>(u.nvals()));
    u.for_each([&](Index k, const U &uk) {
      listed_k.push_back(k);
      listed_v.push_back(uk);
    });
    fk = listed_k;
    fv = listed_v;
  }
  const Index nf = static_cast<Index>(fk.size());
  a.finish();

  // The scatter and merge, instantiated once per row form so neither the
  // format nor the index width is re-decided per row: scan(k, visit) feeds
  // row k's entries to visit(j, a_kj), row_len(k) is the row's length.
  auto run = [&](auto scan, auto row_len) {
    auto scatter = [&](SaxpyWorkspace<Z> &ws, Index e0, Index e1) {
      for (Index e = e0; e < e1; ++e) {
        const Index k = fk[e];
        const U &uk = fv[e];
        scan(k, [&](Index j, const AT &akj) {
          if (!allowed(j)) return;
          if (ws.mark[j]) {
            if constexpr (AddM::has_terminal) {
              if (AddM::is_terminal(ws.work[j])) return;
            }
            ws.work[j] = sr.add(ws.work[j], combine(akj, uk, j, k));
          } else {
            ws.mark[j] = 1;
            ws.work[j] = combine(akj, uk, j, k);
            ws.touched.push_back(j);
          }
        });
      }
    };

    // Team size: the planner's rule (plan::team_size) on the exact
    // scattered work, so BFS tail levels stay on the serial schedule.
    int nthreads = effective_threads();
    if (nthreads > 1) {
      Index total_work = 0;
      for (Index e = 0; e < nf; ++e) total_work += row_len(fk[e]);
      nthreads = plan::team_size(total_work);
    }

    if (nthreads <= 1 || nf < 2) {
      // Serial schedule — also the reference order the parallel path must
      // reproduce. The pooled workspace makes repeated calls (BFS levels)
      // O(touched) instead of O(out_size) per call.
      WorkspaceLease<Z> lease(out_size);
      auto &ws = *lease;
      scatter(ws, 0, nf);
      std::sort(ws.touched.begin(), ws.touched.end());
      std::vector<Index> idx(ws.touched.begin(), ws.touched.end());
      std::vector<Z> val;
      val.reserve(idx.size());
      for (Index j : idx) val.push_back(ws.work[j]);
      Vector<Z> t(out_size);
      t.adopt_sparse(std::move(idx), std::move(val));
      return t;
    }

    // Frontier chunks of ~equal scattered nnz (+1 biases against degenerate
    // all-empty chunks); exactly one chunk and workspace per thread.
    std::vector<Index> fbounds = partition_rows_by_work(
        nf, nthreads, [&](Index e) { return row_len(fk[e]) + 1; });
    const int P = static_cast<int>(fbounds.size()) - 1;

    auto &pool = WorkspacePool<Z>::instance();
    std::vector<SaxpyWorkspace<Z>> ws;
    ws.reserve(static_cast<std::size_t>(P));
    for (int t = 0; t < P; ++t) ws.push_back(pool.acquire(out_size));

    parallel_region(P, [&](int t) {
      scatter(ws[t], fbounds[t], fbounds[t + 1]);
      std::sort(ws[t].touched.begin(), ws[t].touched.end());
    });

    // Merge pass, parallel over disjoint output ranges. For each output j
    // the per-chunk partials fold in ascending chunk (= frontier) order:
    // `any` keeps the first chunk's value, terminal accumulators stay
    // absorbed, associative ops regroup without reordering. A range emits
    // at most the touched entries its workspaces hold inside it.
    Vector<Z> out = emit_sparse<Z>(
        out_size, partition_even(out_size, P),
        [&](Index lo, Index hi) {
          Index c = 0;
          for (int t = 0; t < P; ++t) {
            const auto [h, e] = positions_in(ws[t].touched, lo, hi);
            c += static_cast<Index>(e - h);
          }
          return c;
        },
        [&](Index lo, Index hi, std::vector<Index> &oi, std::vector<Z> &ov) {
          std::vector<std::size_t> head(static_cast<std::size_t>(P));
          std::vector<std::size_t> tail(static_cast<std::size_t>(P));
          for (int t = 0; t < P; ++t) {
            std::tie(head[t], tail[t]) = positions_in(ws[t].touched, lo, hi);
          }
          for (;;) {
            Index jmin = ALL;
            for (int t = 0; t < P; ++t) {
              if (head[t] < tail[t] && ws[t].touched[head[t]] < jmin) {
                jmin = ws[t].touched[head[t]];
              }
            }
            if (jmin == ALL) break;
            bool first = true;
            Z acc{};
            for (int t = 0; t < P; ++t) {
              if (head[t] < tail[t] && ws[t].touched[head[t]] == jmin) {
                ++head[t];
                const Z &part = ws[t].work[jmin];
                if (first) {
                  first = false;
                  acc = part;
                } else {
                  if constexpr (AddM::has_terminal) {
                    if (AddM::is_terminal(acc)) continue;
                  }
                  acc = sr.add(acc, part);
                }
              }
            }
            oi.push_back(jmin);
            ov.push_back(acc);
          }
        });

    parallel_region(P, [&](int t) { ws[t].clear(); });
    for (int t = 0; t < P; ++t) pool.release(std::move(ws[t]));
    return out;
  };

  // CSR: one width dispatch per call, then the scatter runs on typed
  // rowptr/colidx/values spans. Other formats walk their rows.
  if (a.format() == Matrix<AT>::Format::csr) {
    return dispatch_width(a.index_width(), [&](auto tag) {
      using I = decltype(tag);
      auto rp = a.rowptr().template as<I>();
      auto cx = a.colidx().template as<I>();
      auto vx = a.values();
      return run(
          [rp, cx, vx](Index k, auto &&visit) {
            for (std::size_t p = rp[k]; p < rp[k + 1]; ++p) {
              visit(static_cast<Index>(cx[p]), vx[p]);
            }
          },
          [rp](Index k) { return static_cast<Index>(rp[k + 1] - rp[k]); });
    });
  }
  return run([&a](Index k, auto &&visit) { a.for_each_in_row(k, visit); },
             [n = a.ncols()](Index) { return n; });
}

/// The pull's row loop: for each row i of A passing `row_allowed`, reduce
/// combine(a(i,k), u(k), i, k) over the entries shared with u, and hand each
/// row that has a product to a sink as sink(i, dot). With an all-terminal
/// (`any`) monoid a row stops at its first shared entry — the bottom-up BFS
/// early exit. Rows are chunked by nnz (the CSR row pointer is the work
/// prefix sum), not by count. `into(bounds, rows)` decides where the dots
/// land: it runs rows(lo, hi, sink) over the chunks of `bounds`, and what it
/// returns is returned. Each row reaches the sink only for its own i. A
/// caller whose plan always leaves u bitmap passes SparseProbe = false, so
/// no binary-search row loop is instantiated for it.
template <typename Z, bool SparseProbe, typename SR, typename AT, typename U,
          typename Pred, typename Combine, typename Into>
auto pull_rows(SR sr, const Matrix<AT> &a, const Vector<U> &u,
               Pred &&row_allowed, Combine &&combine,
               [[maybe_unused]] const plan::ExecPlan &pl, Into &&into) {
  stats().pull_calls.fetch_add(1, std::memory_order_relaxed);
  using AddM = typename SR::add_monoid;
  const Index m = a.nrows();
  const Index n = a.ncols();
  assert(pl.direction == plan::Direction::pull);
  assert((u.format() == Vector<U>::Format::bitmap) ==
         (pl.u_format == plan::VecFormat::bitmap));
  a.finish();

  // The row loop, instantiated once per (matrix format, probe form) pair so
  // neither is re-decided per row or per entry. scan(i, step) feeds row i's
  // entries to step, which returns true once the accumulator is terminal;
  // probe(k) returns u(k), or nullptr where u has no entry.
  auto dot_rows = [&](const std::vector<Index> &bounds, auto probe,
                      auto scan) {
    return into(bounds, [&, probe, scan](Index lo, Index hi, auto &&sink) {
      for (Index i = lo; i < hi; ++i) {
        if (!row_allowed(i)) continue;
        bool hit = false;
        Z acc{};
        scan(i, [&](Index k, const AT &aik) -> bool {
          const U *ukp = probe(k);
          if (ukp == nullptr) return false;
          Z prod = combine(aik, *ukp, i, k);
          if (!hit) {
            hit = true;
            acc = prod;
          } else {
            acc = sr.add(acc, prod);
          }
          if constexpr (AddM::has_terminal) {
            return AddM::is_terminal(acc);
          }
          return false;
        });
        if (hit) sink(i, acc);
      }
    });
  };

  // The probed operand's format is a plan decision (bitmap = O(1) probes,
  // "particularly important for the 'pull' phase", §VI-A; sorted sparse =
  // binary-search probes, the format ablation's path). The entry point
  // already converted u via plan::prepare — this kernel only executes. A
  // full u is probed without a presence test.
  auto probed_rows = [&](const std::vector<Index> &bounds, auto scan) {
    if constexpr (SparseProbe) {
      if (u.format() == Vector<U>::Format::sparse) {
        auto ui = u.sparse_indices();
        auto uv = u.sparse_values();
        return dot_rows(
            bounds,
            [ui, uv](Index k) -> const U * {
              auto it = std::lower_bound(ui.begin(), ui.end(), k);
              if (it == ui.end() || *it != k) return nullptr;
              return &uv[static_cast<std::size_t>(it - ui.begin())];
            },
            scan);
      }
    }
    const U *uv = u.bitmap_values();
    if (u.is_full()) {
      return dot_rows(
          bounds, [uv](Index k) -> const U * { return &uv[k]; }, scan);
    }
    const std::uint8_t *up = u.bitmap_present();
    return dot_rows(
        bounds,
        [up, uv](Index k) -> const U * { return up[k] ? &uv[k] : nullptr; },
        scan);
  };

  const auto fmt = a.format();
  if (fmt == Matrix<AT>::Format::csr) {
    // One width dispatch per kernel call: the per-entry scan runs on typed
    // u32 or u64 spans, so halving the index width halves the bytes this
    // bandwidth-bound loop streams.
    return dispatch_width(a.index_width(), [&](auto tag) {
      using I = decltype(tag);
      auto rp = a.rowptr().template as<I>();
      auto cx = a.colidx().template as<I>();
      auto vx = a.values();
      const int parts =
          plan::chunk_parts(rp.empty() ? 0 : static_cast<Index>(rp[m]), 4);
      return probed_rows(parts > 1 ? partition_rows_by_work(rp, parts)
                                   : partition_even(m, 1),
                         [rp, cx, vx](Index i, auto &&step) {
                           for (std::size_t p = rp[i]; p < rp[i + 1]; ++p) {
                             if (step(cx[p], vx[p])) break;  // terminal
                           }
                         });
    });
  }
  const auto bounds = partition_even(m, plan::chunk_parts(m * n, 4));
  if (fmt == Matrix<AT>::Format::bitmap || fmt == Matrix<AT>::Format::full) {
    // Dense rows: direct indexing so a terminal accumulator (`any`, `lor`,
    // ...) breaks out of the row instead of merely saturating.
    const AT *ad = a.dense_values();
    if (fmt == Matrix<AT>::Format::full) {
      return probed_rows(bounds, [ad, n](Index i, auto &&step) {
        const AT *row = ad + static_cast<std::size_t>(i) * n;
        for (Index k = 0; k < n; ++k) {
          if (step(k, row[k])) break;
        }
      });
    }
    const std::uint8_t *ap = a.bitmap_present();
    return probed_rows(bounds, [ad, ap, n](Index i, auto &&step) {
      const std::size_t base = static_cast<std::size_t>(i) * n;
      for (Index k = 0; k < n; ++k) {
        if (ap[base + k] && step(k, ad[base + k])) break;
      }
    });
  }
  // Hypersparse: for_each_in_row cannot break, so saturate instead.
  return probed_rows(bounds, [&a](Index i, auto &&step) {
    bool done = false;
    a.for_each_in_row(i, [&](Index k, const AT &aik) {
      if (!done) done = step(k, aik);
    });
  });
}

/// Dot kernel: the pull's rows with each dot in its own result slot, and
/// the slots returned as a bitmap vector.
template <typename Z, typename SR, typename AT, typename U, typename Pred,
          typename Combine>
Vector<Z> dot_kernel(SR sr, const Matrix<AT> &a, const Vector<U> &u,
                     Pred &&row_allowed, Combine &&combine,
                     const plan::ExecPlan &pl) {
  return pull_rows<Z, /*SparseProbe=*/true>(
      sr, a, u, row_allowed, combine, pl,
      [m = a.nrows()](const std::vector<Index> &bounds, auto rows) {
        return fill_slots<Z>(m, bounds, [&](Index lo, Index hi,
                                            std::uint8_t *found, Z *out) {
          Index hits = 0;
          rows(lo, hi, [&](Index i, const Z &dot) {
            found[i] = 1;
            out[i] = dot;
            ++hits;
          });
          return hits;
        });
      });
}

/// The effective-mask test a kernel applies to each output position, and
/// the semiring multiply of a product entry called as (a, u, out, k), with
/// `out` the output position and k the shared index: u ⊗ a for vxm (u is a
/// row vector at coordinates (0, k)), a ⊗ u for mxv. Each closure type
/// depends only on the operand types, so vxm, mxv and the fused entry points
/// share one kernel instantiation across w types and accumulators.
template <typename MaskT>
auto mask_allows(const MaskT &mask, const Descriptor &d) {
  return [&mask, &d](Index i) { return vmask_test(mask, i, d); };
}

template <typename AT, typename U, typename SR>
auto u_times_a(SR sr) {
  return [sr](const AT &aval, const U &uval, Index out, Index k) {
    return sr.multiply(uval, aval, Index{0}, k, out);
  };
}

template <typename AT, typename U, typename SR>
auto a_times_u(SR sr) {
  return [sr](const AT &aval, const U &uval, Index out, Index k) {
    return sr.multiply(aval, uval, out, k, Index{0});
  };
}

/// Shared planning step for vxm/mxv and the fused entry points that wrap
/// them: `op` and `transpose_a` fix the direction (mxv without transpose =
/// pull dot, with transpose = push scatter; vxm the other way round), and a
/// pull gets its probed operand prepared. The kernels assert what this
/// promised.
template <typename U, typename MaskT>
plan::ExecPlan plan_product(plan::OpKind op, bool transpose_a,
                            const Vector<U> &u, const MaskT &,
                            const Descriptor &d) {
  plan::OpDesc od;
  od.op = op;
  od.transpose_a = transpose_a;
  if constexpr (has_mask_v<MaskT>) {
    od.masked = true;
    od.mask_complement = d.mask_complement;
    od.mask_structural = d.mask_structural;
  }
  plan::ExecPlan pl = plan::make_plan(od);
  if (pl.direction == plan::Direction::pull) plan::prepare(u, pl.u_format);
  return pl;
}

/// The output step of a pull: w⟨mask⟩ ⊙= the dots of the rows of A with u.
/// With no mask, an accumulator and no complement, into a full w that is
/// not u, under a plan that left u bitmap, each row's dot folds into w(i) as
/// accum(w(i), dot), and a row with no product keeps w(i): SS:GrB's dot4,
/// C += A'*B with C full, with no slot array and no fold pass. The fold
/// order is write_result's, so the result is bit-identical. Otherwise the
/// dots fill result slots and write_result folds them into w.
template <typename W, typename MaskT, typename Accum, typename SR, typename AT,
          typename U, typename Combine>
void pull_into(Vector<W> &w, const MaskT &mask, Accum accum, SR sr,
               const Matrix<AT> &a, const Vector<U> &u, Combine &&combine,
               const Descriptor &d, const plan::ExecPlan &pl,
               trace::ScopedSpan &sp) {
  using Z = typename SR::value_type;
  auto allowed = mask_allows(mask, d);
  if constexpr (!has_mask_v<MaskT> && is_accum_v<Accum>) {
    // A complemented descriptor selects no row, and under replace it also
    // clears w: that is write_result's to do.
    if (!d.mask_complement && w.is_full() &&
        pl.u_format == plan::VecFormat::bitmap &&
        static_cast<const void *>(&w) != static_cast<const void *>(&u)) {
      W *wv = w.bitmap_values_mut();
      pull_rows<Z, /*SparseProbe=*/false>(
          sr, a, u, allowed, combine, pl,
          [&](const std::vector<Index> &bounds, auto rows) {
            for_each_chunk(bounds, [&](int, Index lo, Index hi) {
              rows(lo, hi, [&](Index i, const Z &dot) {
                wv[i] = accum_apply<W>(accum, wv[i], dot);
              });
            });
          });
      sp.set_out_nvals(w.nvals());
      return;
    }
  }
  auto t = dot_kernel<Z>(sr, a, u, allowed, combine, pl);
  sp.set_out_nvals(t.nvals());
  write_result(w, std::move(t), mask, accum, d, /*t_is_masked=*/true);
}

/// The output step of a push: scatter u along the rows of A into a sparse
/// product, then fold it into w.
template <typename W, typename MaskT, typename Accum, typename SR, typename AT,
          typename U, typename Combine>
void push_into(Vector<W> &w, const MaskT &mask, Accum accum, SR sr,
               const Matrix<AT> &a, const Vector<U> &u, Combine &&combine,
               const Descriptor &d, const plan::ExecPlan &pl,
               trace::ScopedSpan &sp) {
  auto t = push_kernel<typename SR::value_type>(
      sr, a, u, mask_allows(mask, d), combine, a.ncols(), pl);
  sp.set_out_nvals(t.nvals());
  write_result(w, std::move(t), mask, accum, d, /*t_is_masked=*/true);
}

}  // namespace detail

/// w⟨m⟩ ⊙= uᵀ ⊕.⊗ A  (push; with desc.transpose_a: uᵀ ⊕.⊗ Aᵀ, a pull).
template <typename W, typename MaskT, typename Accum, typename SR, typename U,
          typename AT>
void vxm(Vector<W> &w, const MaskT &mask, Accum accum, SR sr,
         const Vector<U> &u, const Matrix<AT> &a,
         const Descriptor &d = desc::DEFAULT) {
  trace::ScopedSpan sp(trace::SpanKind::vxm);
  sp.set_in_nvals(u.nvals());
  const Index out = d.transpose_a ? a.nrows() : a.ncols();
  detail::check_same_size(u.size(), d.transpose_a ? a.ncols() : a.nrows(),
                          d.transpose_a ? "vxm: u/Aᵀ dimension mismatch"
                                        : "vxm: u/A dimension mismatch");
  detail::check_vector_mask(mask, out);
  detail::check_same_size(w.size(), out,
                          d.transpose_a ? "vxm: w/Aᵀ dimension mismatch"
                                        : "vxm: w/A dimension mismatch");
  const auto pl =
      detail::plan_product(plan::OpKind::vxm, d.transpose_a, u, mask, d);
  sp.set_plan(pl);
  // w(j) = ⊕_k u(k) ⊗ a(k,j) scatters along rows of A; under transpose
  // w(i) = ⊕_k u(k) ⊗ a(i,k) is a dot product per row.
  auto combine = detail::u_times_a<AT, U>(sr);
  if (d.transpose_a) {
    detail::pull_into(w, mask, accum, sr, a, u, combine, d, pl, sp);
  } else {
    detail::push_into(w, mask, accum, sr, a, u, combine, d, pl, sp);
  }
}

/// w⟨m⟩ ⊙= A ⊕.⊗ u  (pull; with desc.transpose_a: Aᵀ ⊕.⊗ u, a push).
template <typename W, typename MaskT, typename Accum, typename SR, typename AT,
          typename U>
void mxv(Vector<W> &w, const MaskT &mask, Accum accum, SR sr,
         const Matrix<AT> &a, const Vector<U> &u,
         const Descriptor &d = desc::DEFAULT) {
  trace::ScopedSpan sp(trace::SpanKind::mxv);
  sp.set_in_nvals(u.nvals());
  const Index out = d.transpose_a ? a.ncols() : a.nrows();
  detail::check_same_size(u.size(), d.transpose_a ? a.nrows() : a.ncols(),
                          d.transpose_a ? "mxv: u/Aᵀ dimension mismatch"
                                        : "mxv: u/A dimension mismatch");
  detail::check_vector_mask(mask, out);
  detail::check_same_size(w.size(), out,
                          d.transpose_a ? "mxv: w/Aᵀ dimension mismatch"
                                        : "mxv: w/A dimension mismatch");
  const auto pl =
      detail::plan_product(plan::OpKind::mxv, d.transpose_a, u, mask, d);
  sp.set_plan(pl);
  // w(i) = ⊕_k a(i,k) ⊗ u(k) is a dot product per row; under transpose
  // w(j) = ⊕_k a(k,j) ⊗ u(k) scatters along rows of A.
  auto combine = detail::a_times_u<AT, U>(sr);
  if (d.transpose_a) {
    detail::push_into(w, mask, accum, sr, a, u, combine, d, pl, sp);
  } else {
    detail::pull_into(w, mask, accum, sr, a, u, combine, d, pl, sp);
  }
}

namespace detail {

/// One-pass stamp epilogue over the freshly written frontier: replicates the
/// two assign bitmap fast paths (grb/assign.hpp) — `copy⟨s(w)⟩ = w` and
/// `konst⟨s(w)⟩ = value` — in a single sweep of w's entries. Caller
/// guarantees both targets are bitmap-format; results are bit-identical to
/// the two separate assigns because each fast path is an unconditional
/// overwrite at w's (ascending) entry positions.
template <typename W, typename PT, typename LT>
void stamp_frontier(const Vector<W> &w, Vector<PT> *copy, Vector<LT> *konst,
                    LT value) {
  std::uint8_t *pp = copy != nullptr ? copy->bitmap_present_mut() : nullptr;
  PT *pv = copy != nullptr ? copy->bitmap_values_mut() : nullptr;
  std::uint8_t *lp = konst != nullptr ? konst->bitmap_present_mut() : nullptr;
  LT *lv = konst != nullptr ? konst->bitmap_values_mut() : nullptr;
  Index pn = copy != nullptr ? copy->nvals() : 0;
  Index ln = konst != nullptr ? konst->nvals() : 0;
  w.for_each([&](Index p, const W &x) {
    if (pp != nullptr) {
      if (!pp[p]) {
        pp[p] = 1;
        ++pn;
      }
      pv[p] = static_cast<PT>(x);
    }
    if (lp != nullptr) {
      if (!lp[p]) {
        lp[p] = 1;
        ++ln;
      }
      lv[p] = value;
    }
  });
  if (copy != nullptr) copy->set_bitmap_nvals(pn);
  if (konst != nullptr) konst->set_bitmap_nvals(ln);
}

/// Shared body of the two fused product+stamp entry points. `pull_form`
/// selects the product shape: mxv-style masked dots (A ⊕.⊗ u) or vxm-style
/// scatter (u ⊕.⊗ A). After the product lands in w through the normal
/// write_result step, one sweep stamps `stamp_copy⟨s(w)⟩ = w` and
/// `stamp_const⟨s(w)⟩ = stamp_value` — the BFS parent and level updates —
/// without two more kernel dispatches. Falls back to the exact unfused
/// composition whenever a fast-path precondition fails, so results are
/// bit-identical by construction.
template <typename W, typename MaskV, typename SR, typename AT, typename PT,
          typename LT>
void fused_product_stamp(bool pull_form, Vector<W> &w,
                         const Vector<MaskV> &mask, SR sr, const Matrix<AT> &a,
                         const Vector<W> &u, const Descriptor &d,
                         Vector<PT> *stamp_copy, Vector<LT> *stamp_const,
                         LT stamp_value) {
  using Z = typename SR::value_type;
  // Transpose-aware dims: a transpose descriptor swaps the product's shape
  // (and lands on the unfused fallback — the fuse gate excludes it).
  const bool eff_rows = pull_form != d.transpose_a;
  const Index out_size = eff_rows ? a.nrows() : a.ncols();
  check_same_size(u.size(), eff_rows ? a.ncols() : a.nrows(),
                  "fused_mxv_apply: u/A dimension mismatch");
  check_vector_mask(mask, out_size);
  check_same_size(w.size(), out_size,
                  "fused_mxv_apply: w/A dimension mismatch");
  // Planned as an mxv: a pull dot unless transposed.
  const plan::ExecPlan pl =
      plan_product(plan::OpKind::mxv, pull_form == d.transpose_a, u, mask, d);

  // The single-sweep path needs the assign fast-path preconditions: bitmap
  // stamp targets and a product the output can adopt verbatim (same value
  // type — guaranteed by the signature — and either replace semantics or an
  // empty output).
  bool fuse = std::is_same_v<W, Z> && !d.transpose_a &&
              (d.replace || w.nvals() == 0);
  if (stamp_copy != nullptr &&
      stamp_copy->format() != Vector<PT>::Format::bitmap) {
    fuse = false;
  }
  if (stamp_const != nullptr &&
      stamp_const->format() != Vector<LT>::Format::bitmap) {
    fuse = false;
  }

  if (!fuse) {
    // Unfused composition — the reference semantics the fused path must
    // reproduce bit-for-bit (and the conformance sweep checks it does).
    if (pull_form) {
      mxv(w, mask, NoAccum{}, sr, a, u, d);
    } else {
      vxm(w, mask, NoAccum{}, sr, u, a, d);
    }
    if (stamp_copy != nullptr) {
      assign(*stamp_copy, w, NoAccum{}, w, Indices::all(), desc::S);
    }
    if (stamp_const != nullptr) {
      assign(*stamp_const, w, NoAccum{}, stamp_value, Indices::all(),
             desc::S);
    }
    return;
  }

  stats().fused_dispatches.fetch_add(1, std::memory_order_relaxed);
  trace::ScopedSpan sp(trace::SpanKind::fused_mxv_apply);
  sp.set_in_nvals(u.nvals());
  sp.set_plan(pl);
  auto allowed = mask_allows(mask, d);
  Vector<Z> t(0);
  if (pull_form) {
    auto combine = a_times_u<AT, W>(sr);
    t = dot_kernel<Z>(sr, a, u, allowed, combine, pl);
  } else {
    auto combine = u_times_a<AT, W>(sr);
    t = push_kernel<Z>(sr, a, u, allowed, combine, a.ncols(), pl);
  }
  sp.set_out_nvals(t.nvals());
  write_result(w, std::move(t), mask, NoAccum{}, d, /*t_is_masked=*/true);
  stamp_frontier(w, stamp_copy, stamp_const, stamp_value);
}

}  // namespace detail

/// Fused masked pull product + stamps (one BFS level, pull direction):
///   w⟨mask,d⟩ = A ⊕.⊗ u;  stamp_copy⟨s(w)⟩ = w;  stamp_const⟨s(w)⟩ = value
/// in one kernel sweep when the fast-path preconditions hold, else the exact
/// mxv + assign + assign chain. Pass nullptr to skip a stamp.
template <typename W, typename MaskV, typename SR, typename AT, typename PT,
          typename LT>
void fused_mxv_apply(Vector<W> &w, const Vector<MaskV> &mask, SR sr,
                     const Matrix<AT> &a, const Vector<W> &u,
                     const Descriptor &d, Vector<PT> *stamp_copy,
                     Vector<LT> *stamp_const, LT stamp_value) {
  detail::fused_product_stamp(/*pull_form=*/true, w, mask, sr, a, u, d,
                              stamp_copy, stamp_const, stamp_value);
}

/// Push-direction form of the same fusion (one BFS level, push direction):
///   w⟨mask,d⟩ = u ⊕.⊗ A;  stamp_copy⟨s(w)⟩ = w;  stamp_const⟨s(w)⟩ = value.
template <typename W, typename MaskV, typename SR, typename AT, typename PT,
          typename LT>
void fused_vxm_apply(Vector<W> &w, const Vector<MaskV> &mask, SR sr,
                     const Vector<W> &u, const Matrix<AT> &a,
                     const Descriptor &d, Vector<PT> *stamp_copy,
                     Vector<LT> *stamp_const, LT stamp_value) {
  detail::fused_product_stamp(/*pull_form=*/false, w, mask, sr, a, u, d,
                              stamp_copy, stamp_const, stamp_value);
}

}  // namespace grb

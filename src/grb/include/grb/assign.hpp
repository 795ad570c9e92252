// grb/assign.hpp — extract and assign (paper §III-B d,e).
//
// Index lists are passed as `Indices`: either an explicit list (possibly
// with duplicates) or the ALL sentinel. Assign follows the C-API semantics:
// the mask is sized like the *output*; positions outside the assigned region
// keep their old content (unless replace clears outside the mask); inside
// the region, missing entries of the source delete the corresponding output
// entries when no accumulator is given.
//
// One documented extension: duplicate indices in a vector-assign index list
// combine sequentially through the accumulator (when one is present). This
// gives scatter-with-reduction well-defined semantics, which the FastSV
// connected-components algorithm relies on for its hooking steps.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "grb/mask.hpp"

namespace grb {

/// An index selection: ALL or an explicit list. The list is viewed, not
/// owned; it must outlive the call.
class Indices {
 public:
  Indices() : all_(true) {}
  Indices(std::span<const Index> list) : all_(false), list_(list) {}
  Indices(const std::vector<Index> &list)
      : all_(false), list_(list.data(), list.size()) {}

  static Indices all() { return Indices{}; }

  [[nodiscard]] bool is_all() const noexcept { return all_; }
  [[nodiscard]] Index size(Index n) const noexcept {
    return all_ ? n : static_cast<Index>(list_.size());
  }
  [[nodiscard]] Index map(Index k) const noexcept {
    return all_ ? k : list_[k];
  }

 private:
  bool all_;
  std::span<const Index> list_{};
};

// ---------------------------------------------------------------------------
// extract
// ---------------------------------------------------------------------------

/// w⟨m⟩ ⊙= u(i)
template <typename W, typename MaskT, typename Accum, typename U>
void extract(Vector<W> &w, const MaskT &mask, Accum accum, const Vector<U> &u,
             const Indices &indices, const Descriptor &d = desc::DEFAULT) {
  const Index out_n = indices.size(u.size());
  detail::check_same_size(w.size(), out_n, "extract: output size mismatch");
  std::vector<Index> idx;
  std::vector<W> val;
  if (indices.is_all()) {
    u.for_each([&](Index i, const U &x) {
      idx.push_back(i);
      val.push_back(static_cast<W>(x));
    });
  } else {
    for (Index k = 0; k < out_n; ++k) {
      Index i = indices.map(k);
      detail::require(i < u.size(), Info::index_out_of_bounds,
                      "extract: index out of bounds");
      auto x = u.get(i);
      if (x) {
        idx.push_back(k);
        val.push_back(static_cast<W>(*x));
      }
    }
  }
  Vector<W> t(out_n);
  t.adopt_sparse(std::move(idx), std::move(val));
  detail::write_result(w, std::move(t), mask, accum, d);
}

/// C⟨M⟩ ⊙= A(i, j) — induced submatrix (with desc.transpose_a: Aᵀ(i, j)).
template <typename W, typename MaskT, typename Accum, typename A>
void extract(Matrix<W> &c, const MaskT &mask, Accum accum, const Matrix<A> &a,
             const Indices &rows, const Indices &cols,
             const Descriptor &d = desc::DEFAULT) {
  const Matrix<A> *src = &a;
  Matrix<A> at;
  if (d.transpose_a) {
    at = transposed(a);
    src = &at;
  }
  const Index out_m = rows.size(src->nrows());
  const Index out_n = cols.size(src->ncols());
  detail::check_same_size(c.nrows(), out_m, "extract: output rows mismatch");
  detail::check_same_size(c.ncols(), out_n, "extract: output cols mismatch");

  // Inverse column map; duplicate output columns fall back to a scan.
  constexpr Index kNone = std::numeric_limits<Index>::max();
  std::vector<Index> invcol;
  std::vector<std::pair<Index, Index>> dup_cols;  // (source col, out col)
  if (!cols.is_all()) {
    invcol.assign(static_cast<std::size_t>(src->ncols()), kNone);
    for (Index q = 0; q < out_n; ++q) {
      Index cj = cols.map(q);
      detail::require(cj < src->ncols(), Info::index_out_of_bounds,
                      "extract: column index out of bounds");
      if (invcol[cj] == kNone) {
        invcol[cj] = q;
      } else {
        dup_cols.emplace_back(cj, q);
      }
    }
  }

  std::vector<Index> rp(static_cast<std::size_t>(out_m) + 1, 0);
  std::vector<Index> ci;
  std::vector<W> cv;
  std::vector<std::pair<Index, W>> rowbuf;
  for (Index r = 0; r < out_m; ++r) {
    Index si = rows.map(r);
    detail::require(si < src->nrows(), Info::index_out_of_bounds,
                    "extract: row index out of bounds");
    rowbuf.clear();
    src->for_each_in_row(si, [&](Index j, const A &x) {
      if (cols.is_all()) {
        rowbuf.emplace_back(j, static_cast<W>(x));
      } else if (invcol[j] != kNone) {
        rowbuf.emplace_back(invcol[j], static_cast<W>(x));
        for (const auto &[cj, q] : dup_cols) {
          if (cj == j) rowbuf.emplace_back(q, static_cast<W>(x));
        }
      }
    });
    std::sort(rowbuf.begin(), rowbuf.end(),
              [](const auto &x, const auto &y) { return x.first < y.first; });
    for (const auto &[j, x] : rowbuf) {
      ci.push_back(j);
      cv.push_back(x);
    }
    rp[r + 1] = static_cast<Index>(ci.size());
  }
  Matrix<W> t(out_m, out_n);
  t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
  detail::write_result(c, std::move(t), mask, accum, d);
}

/// w⟨m⟩ ⊙= A(:, j) — extract column j (row j with desc.transpose_a).
template <typename W, typename MaskT, typename Accum, typename A>
void extract_col(Vector<W> &w, const MaskT &mask, Accum accum,
                 const Matrix<A> &a, Index j,
                 const Descriptor &d = desc::DEFAULT) {
  std::vector<Index> idx;
  std::vector<W> val;
  if (d.transpose_a) {
    detail::require(j < a.nrows(), Info::index_out_of_bounds, "extract_col");
    detail::check_same_size(w.size(), a.ncols(), "extract_col: size mismatch");
    a.ensure_sorted();
    a.for_each_in_row(j, [&](Index k, const A &x) {
      idx.push_back(k);
      val.push_back(static_cast<W>(x));
    });
    Vector<W> t(a.ncols());
    t.adopt_sparse(std::move(idx), std::move(val));
    detail::write_result(w, std::move(t), mask, accum, d);
  } else {
    detail::require(j < a.ncols(), Info::index_out_of_bounds, "extract_col");
    detail::check_same_size(w.size(), a.nrows(), "extract_col: size mismatch");
    for (Index i = 0; i < a.nrows(); ++i) {
      auto x = a.get(i, j);
      if (x) {
        idx.push_back(i);
        val.push_back(static_cast<W>(*x));
      }
    }
    Vector<W> t(a.nrows());
    t.adopt_sparse(std::move(idx), std::move(val));
    detail::write_result(w, std::move(t), mask, accum, d);
  }
}

// ---------------------------------------------------------------------------
// assign
// ---------------------------------------------------------------------------

namespace detail {

/// Shared implementation: region membership + target values are provided as
/// dense scratch arrays over the output positions.
template <typename W, typename MaskT, typename Accum>
void assign_walk(Vector<W> &w, const MaskT &mask, Accum accum,
                 const std::vector<std::uint8_t> &inreg,
                 const std::vector<std::uint8_t> &thas,
                 const std::vector<W> &tval, const Descriptor &d) {
  const Index n = w.size();
  check_vector_mask(mask, n);
  std::vector<std::uint8_t> whas(static_cast<std::size_t>(n), 0);
  std::vector<W> wval(static_cast<std::size_t>(n));
  w.for_each([&](Index i, const W &x) {
    whas[i] = 1;
    wval[i] = x;
  });
  std::vector<Index> idx;
  std::vector<W> val;
  for (Index p = 0; p < n; ++p) {
    const bool in_mask = vmask_test(mask, p, d);
    if (!in_mask) {
      if (!d.replace && whas[p]) {
        idx.push_back(p);
        val.push_back(wval[p]);
      }
      continue;
    }
    if (!inreg[p]) {
      if (whas[p]) {
        idx.push_back(p);
        val.push_back(wval[p]);
      }
      continue;
    }
    if constexpr (is_accum_v<Accum>) {
      if (whas[p] && thas[p]) {
        idx.push_back(p);
        val.push_back(static_cast<W>(accum(wval[p], tval[p])));
      } else if (whas[p]) {
        idx.push_back(p);
        val.push_back(wval[p]);
      } else if (thas[p]) {
        idx.push_back(p);
        val.push_back(tval[p]);
      }
    } else {
      (void)accum;
      if (thas[p]) {
        idx.push_back(p);
        val.push_back(tval[p]);
      }
    }
  }
  w.adopt_sparse(std::move(idx), std::move(val));
  w.maybe_switch_format();
}

}  // namespace detail

/// w⟨m⟩(i) ⊙= u
template <typename W, typename MaskT, typename Accum, typename U>
void assign(Vector<W> &w, const MaskT &mask, Accum accum, const Vector<U> &u,
            const Indices &indices, const Descriptor &d = desc::DEFAULT) {
  const Index n = w.size();
  const Index reg = indices.size(n);
  detail::check_same_size(u.size(), reg, "assign: source size mismatch");

  // In-place fast paths on a bitmap output — these are the per-iteration
  // updates of the iterative algorithms (SSSP's t min= tReq, BFS's
  // p⟨s(q)⟩ = q), where a full O(n) rebuild per step is what the paper's
  // §VI-B calls per-iteration library overhead.
  // With no mask, a complemented descriptor selects nothing (the complement
  // of the implicit all-true mask) — the fast paths must not fire then.
  if (indices.is_all() && !d.replace && !d.mask_complement &&
      w.format() == Vector<W>::Format::bitmap) {
    if constexpr (!has_mask_v<MaskT> && is_accum_v<Accum>) {
      // w(ALL) ⊙= u with no mask: accumulate u's entries in place.
      auto *wp = w.bitmap_present_mut();
      auto *wv = w.bitmap_values_mut();
      Index nv = w.nvals();
      u.for_each([&](Index p, const U &x) {
        if (wp[p]) {
          wv[p] = static_cast<W>(accum(wv[p], static_cast<W>(x)));
        } else {
          wp[p] = 1;
          wv[p] = static_cast<W>(x);
          ++nv;
        }
      });
      w.set_bitmap_nvals(nv);
      return;
    } else if constexpr (std::is_same_v<std::remove_cvref_t<MaskT>,
                                        Vector<U>> &&
                         !is_accum_v<Accum>) {
      // w⟨s(u)⟩ = u where the mask IS the source (the BFS parent update):
      // a pure scatter of u's entries.
      if (&mask == &u && d.mask_structural && !d.mask_complement) {
        auto *wp = w.bitmap_present_mut();
        auto *wv = w.bitmap_values_mut();
        Index nv = w.nvals();
        u.for_each([&](Index p, const U &x) {
          if (!wp[p]) {
            wp[p] = 1;
            ++nv;
          }
          wv[p] = static_cast<W>(x);
        });
        w.set_bitmap_nvals(nv);
        return;
      }
    }
  }
  std::vector<std::uint8_t> inreg(static_cast<std::size_t>(n), 0);
  std::vector<std::uint8_t> thas(static_cast<std::size_t>(n), 0);
  std::vector<W> tval(static_cast<std::size_t>(n));
  for (Index k = 0; k < reg; ++k) {
    Index p = indices.map(k);
    detail::require(p < n, Info::index_out_of_bounds, "assign: index");
    inreg[p] = 1;
  }
  u.for_each([&](Index k, const U &x) {
    Index p = indices.map(k);
    if (thas[p]) {
      if constexpr (is_accum_v<Accum>) {
        tval[p] = static_cast<W>(accum(tval[p], static_cast<W>(x)));
      } else {
        tval[p] = static_cast<W>(x);  // duplicates: last one wins
      }
    } else {
      thas[p] = 1;
      tval[p] = static_cast<W>(x);
    }
  });
  detail::assign_walk(w, mask, accum, inreg, thas, tval, d);
}

/// w⟨m⟩(i) ⊙= s — scalar assign.
template <typename W, typename MaskT, typename Accum, typename S>
  requires(!std::is_same_v<std::remove_cvref_t<S>, Vector<W>>)
void assign(Vector<W> &w, const MaskT &mask, Accum accum, const S &s,
            const Indices &indices, const Descriptor &d = desc::DEFAULT) {
  const Index n = w.size();
  const Index reg = indices.size(n);

  // In-place fast path: masked whole-vector scalar assign onto a bitmap
  // output (e.g. the BFS level update level⟨s(q)⟩ = depth).
  if constexpr (has_mask_v<MaskT>) {
    if (indices.is_all() && !d.replace && !d.mask_complement &&
        w.format() == Vector<W>::Format::bitmap) {
      auto *wp = w.bitmap_present_mut();
      auto *wv = w.bitmap_values_mut();
      Index nv = w.nvals();
      mask.for_each([&](Index p, const auto &mv) {
        if (!d.mask_structural && mv == 0) return;
        W x = static_cast<W>(s);
        if (wp[p]) {
          if constexpr (is_accum_v<Accum>) x = static_cast<W>(accum(wv[p], x));
        } else {
          wp[p] = 1;
          ++nv;
        }
        wv[p] = x;
      });
      w.set_bitmap_nvals(nv);
      return;
    }
  } else if (indices.is_all() && !d.mask_complement &&
             w.format() == Vector<W>::Format::bitmap &&
             !is_accum_v<Accum>) {
    // w(ALL) = s with no mask: fill in place (the PageRank teleport reset),
    // presence and values each in one plain fill.
    auto *wp = w.bitmap_present_mut();
    auto *wv = w.bitmap_values_mut();
    std::fill(wp, wp + n, std::uint8_t{1});
    std::fill(wv, wv + n, static_cast<W>(s));
    w.set_bitmap_nvals(n);
    return;
  }
  std::vector<std::uint8_t> inreg(static_cast<std::size_t>(n), 0);
  std::vector<W> tval(static_cast<std::size_t>(n), static_cast<W>(s));
  for (Index k = 0; k < reg; ++k) {
    Index p = indices.map(k);
    detail::require(p < n, Info::index_out_of_bounds, "assign: index");
    inreg[p] = 1;
  }
  detail::assign_walk(w, mask, accum, inreg, inreg, tval, d);
}

/// C⟨M⟩(i, j) ⊙= s — scalar assign to a submatrix.
template <typename W, typename MaskT, typename Accum, typename S>
  requires(!std::is_same_v<std::remove_cvref_t<S>, Matrix<W>>)
void assign(Matrix<W> &c, const MaskT &mask, Accum accum, const S &s,
            const Indices &rows, const Indices &cols,
            const Descriptor &d = desc::DEFAULT) {
  const Index m = c.nrows();
  const Index n = c.ncols();
  detail::check_matrix_mask(mask, m, n);

  // Fast path for the BC pattern S[d]⟨s(F)⟩ = 1: fresh output, whole-matrix
  // region, plain (non-complemented) mask — the result is exactly the mask's
  // pattern valued s.
  if constexpr (has_mask_v<MaskT> && !is_accum_v<Accum>) {
    if (c.nvals() == 0 && rows.is_all() && cols.is_all() &&
        !d.mask_complement) {
      std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
      std::vector<Index> ci;
      std::vector<W> cv;
      mask.ensure_sorted();
      for (Index i = 0; i < m; ++i) {
        mask.for_each_in_row(i, [&](Index j, const auto &mv) {
          if (!d.mask_structural && mv == 0) return;
          ci.push_back(j);
          cv.push_back(static_cast<W>(s));
        });
        rp[i + 1] = static_cast<Index>(ci.size());
      }
      Matrix<W> t(m, n);
      t.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
      detail::write_result(c, std::move(t), mask, accum, d, true);
      return;
    }
  }

  std::vector<std::uint8_t> rowin(static_cast<std::size_t>(m),
                                  rows.is_all() ? 1 : 0);
  std::vector<std::uint8_t> colin(static_cast<std::size_t>(n),
                                  cols.is_all() ? 1 : 0);
  if (!rows.is_all()) {
    for (Index k = 0; k < rows.size(m); ++k) rowin.at(rows.map(k)) = 1;
  }
  if (!cols.is_all()) {
    for (Index k = 0; k < cols.size(n); ++k) colin.at(cols.map(k)) = 1;
  }

  c.ensure_sorted();
  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> ci;
  std::vector<W> cv;
  std::vector<std::uint8_t> chas(static_cast<std::size_t>(n));
  std::vector<W> cval(static_cast<std::size_t>(n));
  for (Index i = 0; i < m; ++i) {
    std::fill(chas.begin(), chas.end(), 0);
    c.for_each_in_row(i, [&](Index j, const W &x) {
      chas[j] = 1;
      cval[j] = x;
    });
    for (Index j = 0; j < n; ++j) {
      const bool in_mask = detail::mmask_test(mask, i, j, d);
      const bool inreg = rowin[i] && colin[j];
      if (!in_mask) {
        if (!d.replace && chas[j]) {
          ci.push_back(j);
          cv.push_back(cval[j]);
        }
        continue;
      }
      if (!inreg) {
        if (chas[j]) {
          ci.push_back(j);
          cv.push_back(cval[j]);
        }
        continue;
      }
      if constexpr (is_accum_v<Accum>) {
        if (chas[j]) {
          ci.push_back(j);
          cv.push_back(static_cast<W>(accum(cval[j], static_cast<W>(s))));
        } else {
          ci.push_back(j);
          cv.push_back(static_cast<W>(s));
        }
      } else {
        ci.push_back(j);
        cv.push_back(static_cast<W>(s));
      }
    }
    rp[i + 1] = static_cast<Index>(ci.size());
  }
  c.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
}

/// C⟨M⟩(i, j) ⊙= A — matrix assign to a submatrix.
template <typename W, typename MaskT, typename Accum, typename A>
void assign(Matrix<W> &c, const MaskT &mask, Accum accum, const Matrix<A> &a,
            const Indices &rows, const Indices &cols,
            const Descriptor &d = desc::DEFAULT) {
  const Index m = c.nrows();
  const Index n = c.ncols();
  detail::check_matrix_mask(mask, m, n);
  detail::check_same_size(a.nrows(), rows.size(m), "assign: source rows");
  detail::check_same_size(a.ncols(), cols.size(n), "assign: source cols");

  constexpr Index kNone = std::numeric_limits<Index>::max();
  std::vector<Index> rowmap(static_cast<std::size_t>(m), kNone);
  std::vector<Index> colmap(static_cast<std::size_t>(n), kNone);
  for (Index k = 0; k < rows.size(m); ++k) {
    Index p = rows.is_all() ? k : rows.map(k);
    detail::require(p < m, Info::index_out_of_bounds, "assign: row index");
    detail::require(rowmap[p] == kNone, Info::invalid_value,
                    "assign: duplicate row indices are not supported");
    rowmap[p] = k;
  }
  for (Index k = 0; k < cols.size(n); ++k) {
    Index p = cols.is_all() ? k : cols.map(k);
    detail::require(p < n, Info::index_out_of_bounds, "assign: col index");
    detail::require(colmap[p] == kNone, Info::invalid_value,
                    "assign: duplicate col indices are not supported");
    colmap[p] = k;
  }

  c.ensure_sorted();
  a.ensure_sorted();
  std::vector<Index> rp(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> ci;
  std::vector<W> cv;
  std::vector<std::uint8_t> chas(static_cast<std::size_t>(n));
  std::vector<W> cval(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> thas(static_cast<std::size_t>(n));
  std::vector<W> tval(static_cast<std::size_t>(n));
  for (Index i = 0; i < m; ++i) {
    std::fill(chas.begin(), chas.end(), 0);
    std::fill(thas.begin(), thas.end(), 0);
    c.for_each_in_row(i, [&](Index j, const W &x) {
      chas[j] = 1;
      cval[j] = x;
    });
    if (rowmap[i] != kNone) {
      a.for_each_in_row(rowmap[i], [&](Index ak, const A &x) {
        // Source column ak lands at output column cols.map(ak).
        Index out_j = cols.is_all() ? ak : cols.map(ak);
        thas[out_j] = 1;
        tval[out_j] = static_cast<W>(x);
      });
    }
    for (Index j = 0; j < n; ++j) {
      const bool in_mask = detail::mmask_test(mask, i, j, d);
      const bool inreg = rowmap[i] != kNone && colmap[j] != kNone;
      if (!in_mask) {
        if (!d.replace && chas[j]) {
          ci.push_back(j);
          cv.push_back(cval[j]);
        }
        continue;
      }
      if (!inreg) {
        if (chas[j]) {
          ci.push_back(j);
          cv.push_back(cval[j]);
        }
        continue;
      }
      if constexpr (is_accum_v<Accum>) {
        if (chas[j] && thas[j]) {
          ci.push_back(j);
          cv.push_back(static_cast<W>(accum(cval[j], tval[j])));
        } else if (chas[j]) {
          ci.push_back(j);
          cv.push_back(cval[j]);
        } else if (thas[j]) {
          ci.push_back(j);
          cv.push_back(tval[j]);
        }
      } else {
        if (thas[j]) {
          ci.push_back(j);
          cv.push_back(tval[j]);
        }
      }
    }
    rp[i + 1] = static_cast<Index>(ci.size());
  }
  c.adopt_csr(std::move(rp), std::move(ci), std::move(cv), false);
}

}  // namespace grb

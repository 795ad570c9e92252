// differ_structural.cpp — run_real's structural family: reduce, transpose,
// extract, assign, build with duplicates (dup) and the mutation prologue
// alone.
// One of the three translation units run_real's op switch is split into,
// so no single unit instantiates every kernel (see differ_real.hpp).
#include "differ_real.hpp"

namespace grb::testing::real {

bool run_structural(const Scenario &s, const Descriptor &d, Result &r) {
  std::vector<T> observed;
  switch (s.op) {
    case OpKind::reduce_m2v: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(a, s.a.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_monoid(s.monoid, [&](auto mono) {
            reduce(w, m, acc, mono, a, d);
          });
        });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::reduce_m2s: {
      Matrix<T> a = mk_mat(s.a);
      mutate_real(a, s.a.muts, observed);
      T sc = s.scalar;
      with_accum(s.accum, [&](auto acc) {
        with_monoid(s.monoid, [&](auto mono) { reduce(sc, acc, mono, a); });
      });
      r.kind = Result::Kind::scalar;
      r.scalar = sc;
      r.observed = std::move(observed);
      return true;
    }
    case OpKind::reduce_v2s: {
      Vector<T> u = mk_vec(s.u);
      mutate_real(u, s.u.muts, observed);
      T sc = s.scalar;
      with_accum(s.accum, [&](auto acc) {
        with_monoid(s.monoid, [&](auto mono) { reduce(sc, acc, mono, u); });
      });
      r.kind = Result::Kind::scalar;
      r.scalar = sc;
      r.observed = std::move(observed);
      return true;
    }
    case OpKind::transpose_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { transpose(c, m, acc, a, d); });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::extract_v: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      const Indices ix = mk_indices(s.rows_all, s.rows);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { extract(w, m, acc, u, ix, d); });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::extract_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      const Indices rows = mk_indices(s.rows_all, s.rows);
      const Indices cols = mk_indices(s.cols_all, s.cols);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { extract(c, m, acc, a, rows, cols, d); });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::extract_col: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(a, s.a.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { extract_col(w, m, acc, a, s.col, d); });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::assign_vv: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      const Indices ix = mk_indices(s.rows_all, s.rows);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { assign(w, m, acc, u, ix, d); });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::assign_vs: {
      Vector<T> w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      const Indices ix = mk_indices(s.rows_all, s.rows);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { assign(w, m, acc, s.scalar, ix, d); });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::assign_ms: {
      Matrix<T> c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      const Indices rows = mk_indices(s.rows_all, s.rows);
      const Indices cols = mk_indices(s.cols_all, s.cols);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          assign(c, m, acc, s.scalar, rows, cols, d);
        });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::assign_mm: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      const Indices rows = mk_indices(s.rows_all, s.rows);
      const Indices cols = mk_indices(s.cols_all, s.cols);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum,
                   [&](auto acc) { assign(c, m, acc, a, rows, cols, d); });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::dup_m: {
      // build with duplicate combining, then GrB_Matrix_dup (copy) and read
      // the copy back through extractTuples.
      Matrix<T> a(s.a.m, s.a.n);
      with_binop(s.binop, [&](auto dup) { a = mk_mat(s.a, dup); });
      Matrix<T> copy = a;
      r = read_mat(copy, std::move(observed));
      return true;
    }
    case OpKind::dup_v: {
      Vector<T> u(s.u.n);
      with_binop(s.binop, [&](auto dup) { u = mk_vec(s.u, dup); });
      Vector<T> copy = u;
      r = read_vec(copy, std::move(observed));
      return true;
    }
    case OpKind::mutate_m: {
      Matrix<T> a = mk_mat(s.a);
      mutate_real(a, s.a.muts, observed);
      r = read_mat(a, std::move(observed));
      return true;
    }
    case OpKind::mutate_v: {
      Vector<T> u = mk_vec(s.u);
      mutate_real(u, s.u.muts, observed);
      r = read_vec(u, std::move(observed));
      return true;
    }
    default: return false;
  }
}

}  // namespace grb::testing::real

// differ_products.cpp — run_real's product family: mxm, mxv/vxm, kron and
// the fused product entry points (fused_mxv_apply, vxm_select_range).
// One of the three translation units run_real's op switch is split into,
// so no single unit instantiates every kernel (see differ_real.hpp).
#include "differ_real.hpp"

namespace grb::testing::real {

bool run_products(const Scenario &s, const Descriptor &d, Result &r) {
  std::vector<T> observed;
  switch (s.op) {
    case OpKind::mxm: {
      Matrix<T> a = mk_mat(s.a), b = mk_mat(s.b), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_semiring(s.sr, [&](auto sr) { mxm(c, m, acc, sr, a, b, d); });
        });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::mxv:
    case OpKind::vxm: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(a, s.a.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_semiring(s.sr, [&](auto sr) {
            if (s.op == OpKind::mxv) {
              mxv(w, m, acc, sr, a, u, d);
            } else {
              vxm(w, m, acc, sr, u, a, d);
            }
          });
        });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::kron: {
      Matrix<T> a = mk_mat(s.a), b = mk_mat(s.b), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_binop(s.binop,
                     [&](auto op) { kronecker(c, m, acc, op, a, b, d); });
        });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::fused_mxv_apply: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      // Companion stamp targets: the copy target seeded from s.v, the const
      // target empty. Bitmap so the single-sweep fast path is reachable
      // (anything else falls back to the composition, also under test).
      Vector<T> stampc = mk_vec(s.v);
      Vector<T> stampk(w.size());
      stampc.to_bitmap();
      stampk.to_bitmap();
      mutate_real(a, s.a.muts, observed);
      with_semiring(s.sr, [&](auto sr) {
        fused_mxv_apply(w, mask, sr, a, u, d, &stampc, &stampk, s.thunk);
      });
      r = read_vec(w, std::move(observed));
      append_vec_observed(r.observed, stampc);
      append_vec_observed(r.observed, stampk);
      return true;
    }
    case OpKind::fused_vxm_select: {
      Matrix<T> a = mk_mat(s.a);
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> pruned(w.size());
      mutate_real(a, s.a.muts, observed);
      const T lo = std::min(s.thunk, s.scalar);
      const T hi = std::max(s.thunk, s.scalar) + 1;
      with_semiring(s.sr, [&](auto sr) {
        vxm_select_range(w, pruned, sr, u, a, lo, hi, d);
      });
      r = read_vec(w, std::move(observed));
      append_vec_observed(r.observed, pruned);
      return true;
    }
    default: return false;
  }
}

}  // namespace grb::testing::real

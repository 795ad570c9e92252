// differ_elementwise.cpp — run_real's element-wise family: eWiseAdd and
// eWiseMult over vectors and matrices, apply and select.
// One of the three translation units run_real's op switch is split into,
// so no single unit instantiates every kernel (see differ_real.hpp).
#include "differ_real.hpp"

namespace grb::testing::real {

bool run_elementwise(const Scenario &s, const Descriptor &d, Result &r) {
  std::vector<T> observed;
  switch (s.op) {
    case OpKind::ewise_add_m:
    case OpKind::ewise_mult_m: {
      Matrix<T> a = mk_mat(s.a), b = mk_mat(s.b), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_binop(s.binop, [&](auto op) {
            if (s.op == OpKind::ewise_add_m) {
              eWiseAdd(c, m, acc, op, a, b, d);
            } else {
              eWiseMult(c, m, acc, op, a, b, d);
            }
          });
        });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::ewise_add_v:
    case OpKind::ewise_mult_v: {
      Vector<T> u = mk_vec(s.u), v = mk_vec(s.v), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_binop(s.binop, [&](auto op) {
            if (s.op == OpKind::ewise_add_v) {
              eWiseAdd(w, m, acc, op, u, v, d);
            } else {
              eWiseMult(w, m, acc, op, u, v, d);
            }
          });
        });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::apply_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      const T th = s.thunk;
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          switch (s.unop) {
            case UnaryKind::identity: apply(c, m, acc, Identity{}, a, d); break;
            case UnaryKind::ainv: apply(c, m, acc, AInv{}, a, d); break;
            case UnaryKind::abs_op: apply(c, m, acc, Abs{}, a, d); break;
            case UnaryKind::one: apply(c, m, acc, One{}, a, d); break;
            case UnaryKind::plus_thunk:
              apply2nd(c, m, acc, Plus{}, a, th, d);
              break;
            case UnaryKind::times_thunk:
              apply2nd(c, m, acc, Times{}, a, th, d);
              break;
            case UnaryKind::kCount: break;
          }
        });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::apply_v: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      const T th = s.thunk;
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          switch (s.unop) {
            case UnaryKind::identity: apply(w, m, acc, Identity{}, u, d); break;
            case UnaryKind::ainv: apply(w, m, acc, AInv{}, u, d); break;
            case UnaryKind::abs_op: apply(w, m, acc, Abs{}, u, d); break;
            case UnaryKind::one: apply(w, m, acc, One{}, u, d); break;
            case UnaryKind::plus_thunk:
              apply2nd(w, m, acc, Plus{}, u, th, d);
              break;
            case UnaryKind::times_thunk:
              apply2nd(w, m, acc, Times{}, u, th, d);
              break;
            case UnaryKind::kCount: break;
          }
        });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    case OpKind::select_m: {
      Matrix<T> a = mk_mat(s.a), c = mk_mat(s.cinit);
      Matrix<T> mask = mk_mat(s.mmask);
      mutate_real(a, s.a.muts, observed);
      with_mat_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_select(s.sel, [&](auto sel) {
            select(c, m, acc, sel, a, s.thunk, d);
          });
        });
      });
      r = read_mat(c, std::move(observed));
      return true;
    }
    case OpKind::select_v: {
      Vector<T> u = mk_vec(s.u), w = mk_vec(s.winit);
      Vector<T> mask = mk_vec(s.vmask);
      mutate_real(u, s.u.muts, observed);
      with_vec_mask(s.has_mask, mask, [&](const auto &m) {
        with_accum(s.accum, [&](auto acc) {
          with_select(s.sel, [&](auto sel) {
            select(w, m, acc, sel, u, s.thunk, d);
          });
        });
      });
      r = read_vec(w, std::move(observed));
      return true;
    }
    default: return false;
  }
}

}  // namespace grb::testing::real

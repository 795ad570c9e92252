// differ_real.hpp — internal to the conformance harness: what the real
// side's op families share. run_real (differ.cpp) sets up the Config and
// the descriptor, then hands the scenario to one of three families, each
// in its own translation unit: products (differ_products.cpp), element-wise
// ops, apply and select (differ_elementwise.cpp), and assign, extract,
// reduce, transpose, build and mutations (differ_structural.cpp). Every
// family instantiates its kernels for each mask × accumulator × semiring
// (or operator) its scenarios can name, so splitting them bounds the
// compile time and memory of any one unit.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "grb/grb.hpp"
#include "grb/testing/differ.hpp"

namespace grb::testing::real {

using T = std::int64_t;

/// Sentinel a getElement probe reports when the entry is absent.
inline constexpr T kAbsent = std::numeric_limits<T>::min();

// ---------------------------------------------------------------------------
// Enum → real-functor dispatch (each with_* expands the template
// cross-product the kernels need; element type is always std::int64_t).
// ---------------------------------------------------------------------------


template <typename F>
void with_accum(AccumKind k, F &&f) {
  switch (k) {
    case AccumKind::none: f(NoAccum{}); break;
    case AccumKind::plus: f(Plus{}); break;
    case AccumKind::min: f(Min{}); break;
    case AccumKind::max: f(Max{}); break;
    case AccumKind::second: f(Second{}); break;
    case AccumKind::kCount: break;
  }
}

template <typename F>
void with_semiring(SemiringKind k, F &&f) {
  switch (k) {
    case SemiringKind::plus_times: f(PlusTimes<T>{}); break;
    case SemiringKind::min_plus: f(MinPlus<T>{}); break;
    case SemiringKind::plus_second: f(PlusSecond<T>{}); break;
    case SemiringKind::plus_pair: f(PlusPair<T>{}); break;
    case SemiringKind::lor_land: f(LOrLAnd<T>{}); break;
    case SemiringKind::max_first: f(Semiring<MaxMonoid<T>, First>{}); break;
    case SemiringKind::any_secondi: f(AnySecondI<T>{}); break;
    case SemiringKind::kCount: break;
  }
}

template <typename F>
void with_monoid(MonoidKind k, F &&f) {
  switch (k) {
    case MonoidKind::plus: f(PlusMonoid<T>{}); break;
    case MonoidKind::min: f(MinMonoid<T>{}); break;
    case MonoidKind::max: f(MaxMonoid<T>{}); break;
    case MonoidKind::kCount: break;
  }
}

template <typename F>
void with_binop(BinOpKind k, F &&f) {
  switch (k) {
    case BinOpKind::plus: f(Plus{}); break;
    case BinOpKind::times: f(Times{}); break;
    case BinOpKind::min: f(Min{}); break;
    case BinOpKind::max: f(Max{}); break;
    case BinOpKind::first: f(First{}); break;
    case BinOpKind::second: f(Second{}); break;
    case BinOpKind::minus: f(Minus{}); break;
    case BinOpKind::kCount: break;
  }
}

template <typename F>
void with_select(SelectKind k, F &&f) {
  switch (k) {
    case SelectKind::tril: f(Tril{}); break;
    case SelectKind::triu: f(Triu{}); break;
    case SelectKind::diag: f(Diag{}); break;
    case SelectKind::offdiag: f(OffDiag{}); break;
    case SelectKind::value_ne: f(ValueNe{}); break;
    case SelectKind::value_le: f(ValueLe{}); break;
    case SelectKind::row_lt: f(RowIndexLt{}); break;
    case SelectKind::col_lt: f(ColIndexLt{}); break;
    case SelectKind::kCount: break;
  }
}

template <typename F>
void with_mat_mask(bool has, const Matrix<T> &mask, F &&f) {
  if (has) {
    f(mask);
  } else {
    f(no_mask);
  }
}

template <typename F>
void with_vec_mask(bool has, const Vector<T> &mask, F &&f) {
  if (has) {
    f(mask);
  } else {
    f(no_mask);
  }
}

// ---------------------------------------------------------------------------
// Real-side container construction + mutation prologue
// ---------------------------------------------------------------------------

template <typename Dup>
Matrix<T> mk_mat(const MatData &d, Dup dup) {
  Matrix<T> a(d.m, d.n);
  a.build(std::span<const Index>(d.ri), std::span<const Index>(d.ci),
          std::span<const T>(d.vv), dup);
  switch (d.fmt) {
    case MatFmt::csr: break;  // build leaves CSR
    case MatFmt::hypersparse: a.to_hypersparse(); break;
    case MatFmt::bitmap: a.to_bitmap(); break;
    case MatFmt::kCount: break;
  }
  return a;
}

inline Matrix<T> mk_mat(const MatData &d) { return mk_mat(d, Second{}); }

template <typename Dup>
Vector<T> mk_vec(const VecData &d, Dup dup) {
  Vector<T> u(d.n);
  u.build(std::span<const Index>(d.ix), std::span<const T>(d.vv), dup);
  if (d.fmt == VecFmt::bitmap) u.to_bitmap();
  return u;
}

inline Vector<T> mk_vec(const VecData &d) { return mk_vec(d, Second{}); }

/// Apply the non-blocking mutation prologue to the real container,
/// recording probe answers (differ.cpp).
void mutate_real(Matrix<T> &a, const std::vector<Mutation> &muts,
                 std::vector<T> &observed);
void mutate_real(Vector<T> &u, const std::vector<Mutation> &muts,
                 std::vector<T> &observed);

Result read_mat(const Matrix<T> &a, std::vector<T> observed);
Result read_vec(const Vector<T> &u, std::vector<T> observed);
Indices mk_indices(bool all, const std::vector<Index> &list);

/// Fold a fused op's companion output into the probe log (differ.cpp).
void append_vec_observed(std::vector<T> &obs, const Vector<T> &x);

/// The op families: each runs `s` through the real kernels into `r` and
/// returns true, or returns false when s.op belongs to another family.
bool run_products(const Scenario &s, const Descriptor &d, Result &r);
bool run_elementwise(const Scenario &s, const Descriptor &d, Result &r);
bool run_structural(const Scenario &s, const Descriptor &d, Result &r);

}  // namespace grb::testing::real

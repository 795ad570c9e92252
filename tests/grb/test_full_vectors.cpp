// Full-vector fast paths (a bitmap with every slot present): element-wise
// ops and apply written into w's own arrays, and the accumulating pull that
// folds each row's dot straight into a full w. They may change only speed.
// Every call here runs twice on identical inputs — once as is, once under
// Config::force_format = sparse, which keeps every operand off the full
// paths — and the two results must agree bit for bit. The sweep crosses the
// accumulator (none, Plus, Min), the mask (none, a mask, its complement,
// replace, and the no-mask complement that selects nothing, with and
// without replace, which then clears w), aliasing
// (w = u, w = v, w distinct) and formats (w sparse, bitmap with holes, or
// full; u and v full or with holes). Where a fast path applies to a full w,
// w's value array must keep its address.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "grb/grb.hpp"

using grb::Descriptor;
using grb::Index;
using grb::Matrix;
using grb::Vector;
using grb::no_mask;

namespace {

constexpr Index kN = 97;

enum class Kind { sparse, holes, full };
enum class Alias { none, w_is_u, w_is_v };
enum class MaskKind {
  none,
  plain,
  complement,
  replace,
  none_complement,
  none_complement_replace,
};
enum class AccumKind { none, plus, min };

const char *name(Kind k) {
  switch (k) {
    case Kind::sparse: return "sparse";
    case Kind::holes: return "holes";
    case Kind::full: return "full";
  }
  return "?";
}

/// Values with fractional parts and both signs, so any change in the fold
/// order or a dropped operand shows in the bits.
Vector<double> make_vec(Kind kind, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-8.0, 8.0);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const double density = kind == Kind::full ? 1.0 : 0.6;
  std::vector<Index> idx;
  std::vector<double> vals;
  for (Index i = 0; i < kN; ++i) {
    if (u01(rng) < density) {
      idx.push_back(i);
      vals.push_back(val(rng) / 3.0);
    }
  }
  Vector<double> v(kN);
  v.adopt_sparse(std::move(idx), std::move(vals));
  if (kind != Kind::sparse) v.to_bitmap();
  return v;
}

Matrix<double> make_mat(unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(0.1, 4.0);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<Index> ri, ci;
  std::vector<double> vx;
  for (Index i = 0; i < kN; ++i) {
    if (i % 11 == 5) continue;  // empty rows: no product, w(i) is kept
    for (Index j = 0; j < kN; ++j) {
      if (u01(rng) < 0.08) {
        ri.push_back(i);
        ci.push_back(j);
        vx.push_back(val(rng) / 7.0);
      }
    }
  }
  Matrix<double> a(kN, kN);
  a.build(std::span<const Index>(ri), std::span<const Index>(ci),
          std::span<const double>(vx));
  return a;
}

/// A valued mask: some entries are explicit zeros, which a valued mask
/// treats as false.
Vector<double> make_mask() {
  Vector<double> m(kN);
  for (Index i = 0; i < kN; i += 2) m.set_element(i, i % 6 == 0 ? 0.0 : 1.0);
  return m;
}

void expect_same_bits(const Vector<double> &want, const Vector<double> &got,
                      const std::string &what) {
  std::vector<Index> wi, gi;
  std::vector<double> wv, gv;
  want.extract_tuples(wi, wv);
  got.extract_tuples(gi, gv);
  ASSERT_EQ(wi, gi) << what << ": index sets differ";
  for (std::size_t k = 0; k < wv.size(); ++k) {
    ASSERT_EQ(std::memcmp(&wv[k], &gv[k], sizeof(double)), 0)
        << what << ": value at " << wi[k] << " is " << gv[k] << ", want "
        << wv[k];
  }
}

struct SparseReference {
  SparseReference() { grb::config().force_format = grb::ForceFormat::sparse; }
  ~SparseReference() { grb::config().force_format = grb::ForceFormat::none; }
};

template <typename F>
void with_accum(AccumKind k, F &&f) {
  switch (k) {
    case AccumKind::none: f(grb::NoAccum{}); break;
    case AccumKind::plus: f(grb::Plus{}); break;
    case AccumKind::min: f(grb::Min{}); break;
  }
}

/// Calls f(mask, descriptor) for one mask case; `base` carries the
/// descriptor bits the op itself needs (the transpose of vxm).
template <typename F>
void with_mask(MaskKind k, const Vector<double> &mask, Descriptor base,
               F &&f) {
  switch (k) {
    case MaskKind::none: f(no_mask, base); break;
    case MaskKind::plain: f(mask, base); break;
    case MaskKind::complement: f(mask, base.C()); break;
    case MaskKind::replace: f(mask, base.R()); break;
    case MaskKind::none_complement: f(no_mask, base.C()); break;
    case MaskKind::none_complement_replace:
      f(no_mask, base.C().R());
      break;
  }
}

/// Run call(w, u, v) on fresh copies of w0, u0 and v0, with w standing in
/// for u or v as `alias` says. Reports whether w's value array kept the
/// address it had before the call.
template <typename Call>
Vector<double> run(const Vector<double> &w0, const Vector<double> &u0,
                   const Vector<double> &v0, Alias alias, Call &&call,
                   bool *kept) {
  Vector<double> u = u0;
  Vector<double> v = v0;
  Vector<double> w = alias == Alias::w_is_u   ? u0
                     : alias == Alias::w_is_v ? v0
                                              : w0;
  const double *before = w.is_full() ? w.bitmap_values() : nullptr;
  call(w, alias == Alias::w_is_u ? w : u, alias == Alias::w_is_v ? w : v);
  *kept = before != nullptr && w.format() == Vector<double>::Format::bitmap &&
          w.bitmap_values() == before;
  return w;
}

/// The sweep shared by every op. `call(w, u, v, mask, accum, desc)` runs
/// the op; `fast(mask_kind, accum_kind, alias, u, v, w)` says whether a
/// full path applies to these inputs.
template <typename Call, typename Fast>
void sweep(const char *op, bool uses_v, Descriptor base, Call &&call,
           Fast &&fast) {
  const Vector<double> mask = make_mask();
  int fast_runs = 0;
  unsigned seed = 1;
  for (Kind wk : {Kind::sparse, Kind::holes, Kind::full}) {
    for (Kind uk : {Kind::full, Kind::holes}) {
      for (Kind vk : {Kind::full, Kind::holes}) {
        if (!uses_v && vk != Kind::full) continue;
        const Vector<double> w0 = make_vec(wk, ++seed);
        const Vector<double> u0 = make_vec(uk, ++seed);
        const Vector<double> v0 = make_vec(vk, ++seed);
        for (Alias alias : {Alias::none, Alias::w_is_u, Alias::w_is_v}) {
          if (!uses_v && alias == Alias::w_is_v) continue;
          for (MaskKind mk :
               {MaskKind::none, MaskKind::plain, MaskKind::complement,
                MaskKind::replace, MaskKind::none_complement,
                MaskKind::none_complement_replace}) {
            for (AccumKind ak :
                 {AccumKind::none, AccumKind::plus, AccumKind::min}) {
              const std::string what =
                  std::string(op) + " w=" + name(wk) + " u=" + name(uk) +
                  " v=" + name(vk) + " alias=" +
                  std::to_string(static_cast<int>(alias)) +
                  " mask=" + std::to_string(static_cast<int>(mk)) +
                  " accum=" + std::to_string(static_cast<int>(ak));
              auto once = [&](bool *kept) {
                return run(
                    w0, u0, v0, alias,
                    [&](Vector<double> &w, const Vector<double> &u,
                        const Vector<double> &v) {
                      with_mask(mk, mask, base, [&](const auto &m,
                                                    Descriptor d) {
                        with_accum(ak, [&](auto acc) {
                          call(w, u, v, m, acc, d);
                        });
                      });
                    },
                    kept);
              };
              bool kept_ref = false;
              bool kept = false;
              Vector<double> want;
              {
                SparseReference ref;
                want = once(&kept_ref);
              }
              const Vector<double> got = once(&kept);
              expect_same_bits(want, got, what);
              const Vector<double> &w_in = alias == Alias::w_is_u   ? u0
                                           : alias == Alias::w_is_v ? v0
                                                                    : w0;
              if (fast(mk, ak, alias, u0, v0, w_in)) {
                ++fast_runs;
                if (w_in.is_full()) {
                  EXPECT_TRUE(kept) << what << ": w's values were moved";
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(fast_runs, 0) << op << ": the sweep never reached a full path";
}

/// Element-wise ops and apply: no mask, no accumulator, no complement, and
/// every operand full.
auto elementwise_fast(bool uses_v) {
  return [uses_v](MaskKind mk, AccumKind ak, Alias, const Vector<double> &u,
                  const Vector<double> &v, const Vector<double> &) {
    return mk == MaskKind::none && ak == AccumKind::none && u.is_full() &&
           (!uses_v || v.is_full());
  };
}

/// The accumulating pull: no mask, an accumulator, no complement, and a
/// full w that is not u.
bool pull_fast(MaskKind mk, AccumKind ak, Alias alias, const Vector<double> &,
               const Vector<double> &, const Vector<double> &w) {
  return mk == MaskKind::none && ak != AccumKind::none &&
         alias != Alias::w_is_u && w.is_full();
}

}  // namespace

TEST(FullVectors, EWiseAdd) {
  sweep(
      "eWiseAdd", true, Descriptor{},
      [](Vector<double> &w, const Vector<double> &u, const Vector<double> &v,
         const auto &m, auto acc, Descriptor d) {
        grb::eWiseAdd(w, m, acc, grb::Minus{}, u, v, d);
      },
      elementwise_fast(true));
}

TEST(FullVectors, EWiseMult) {
  sweep(
      "eWiseMult", true, Descriptor{},
      [](Vector<double> &w, const Vector<double> &u, const Vector<double> &v,
         const auto &m, auto acc, Descriptor d) {
        grb::eWiseMult(w, m, acc, grb::Div{}, u, v, d);
      },
      elementwise_fast(true));
}

TEST(FullVectors, Apply) {
  sweep(
      "apply", false, Descriptor{},
      [](Vector<double> &w, const Vector<double> &u, const Vector<double> &,
         const auto &m, auto acc, Descriptor d) {
        grb::apply(w, m, acc, grb::Abs{}, u, d);
      },
      elementwise_fast(false));
}

TEST(FullVectors, Apply2nd) {
  sweep(
      "apply2nd", false, Descriptor{},
      [](Vector<double> &w, const Vector<double> &u, const Vector<double> &,
         const auto &m, auto acc, Descriptor d) {
        grb::apply2nd(w, m, acc, grb::Div{}, u, 0.85, d);
      },
      elementwise_fast(false));
}

TEST(FullVectors, MxvAccumulatingPull) {
  const Matrix<double> a = make_mat(7);
  sweep(
      "mxv", false, Descriptor{},
      [&](Vector<double> &w, const Vector<double> &u, const Vector<double> &,
          const auto &m, auto acc, Descriptor d) {
        grb::mxv(w, m, acc, grb::PlusTimes<double>{}, a, u, d);
      },
      pull_fast);
}

TEST(FullVectors, VxmTransposedAccumulatingPull) {
  const Matrix<double> a = make_mat(8);
  sweep(
      "vxm(T0)", false, grb::desc::T0,
      [&](Vector<double> &w, const Vector<double> &u, const Vector<double> &,
          const auto &m, auto acc, Descriptor d) {
        grb::vxm(w, m, acc, grb::PlusTimes<double>{}, u, a, d);
      },
      pull_fast);
}

TEST(FullVectors, MxvIntoItsOwnOperandFallsBack) {
  // w = u: the rows read u(k) for every k, so folding into w(i) while they
  // run would feed later rows a half-updated u. The call must fall back to
  // the slot path and still equal the reference.
  const Matrix<double> a = make_mat(9);
  const Vector<double> u0 = make_vec(Kind::full, 3);
  Vector<double> want = u0;
  {
    SparseReference ref;
    grb::mxv(want, no_mask, grb::Plus{}, grb::PlusTimes<double>{}, a, want);
  }
  Vector<double> got = u0;
  grb::mxv(got, no_mask, grb::Plus{}, grb::PlusTimes<double>{}, a, got);
  expect_same_bits(want, got, "mxv w = u");
  // And the same product into a distinct full w does fold in place.
  Vector<double> w = u0;
  const double *before = w.bitmap_values();
  grb::mxv(w, no_mask, grb::Plus{}, grb::PlusTimes<double>{}, a, u0);
  EXPECT_EQ(w.bitmap_values(), before);
  expect_same_bits(want, w, "mxv w distinct");
}

TEST(FullVectors, NoMaskComplementSelectsNothing) {
  // The complement of the implicit all-true mask selects nothing, so w
  // keeps every entry even though all operands are full.
  const Matrix<double> a = make_mat(10);
  const Vector<double> u = make_vec(Kind::full, 4);
  const Vector<double> w0 = make_vec(Kind::full, 5);
  Vector<double> w = w0;
  grb::eWiseAdd(w, no_mask, grb::NoAccum{}, grb::Plus{}, u, u, grb::desc::C);
  expect_same_bits(w0, w, "eWiseAdd");
  grb::apply(w, no_mask, grb::NoAccum{}, grb::Abs{}, u, grb::desc::C);
  expect_same_bits(w0, w, "apply");
  grb::mxv(w, no_mask, grb::Plus{}, grb::PlusTimes<double>{}, a, u,
           grb::desc::C);
  expect_same_bits(w0, w, "mxv");
  // Under replace everything outside the (empty) selection is cleared.
  grb::mxv(w, no_mask, grb::Plus{}, grb::PlusTimes<double>{}, a, u,
           grb::desc::RC);
  EXPECT_EQ(w.nvals(), 0u) << "mxv, replace";
  w = w0;
  grb::eWiseMult(w, no_mask, grb::NoAccum{}, grb::Times{}, u, u,
                 grb::desc::RC);
  EXPECT_EQ(w.nvals(), 0u) << "eWiseMult, replace";
}

TEST(FullVectors, IsFullIsABitmapProperty) {
  Vector<double> v = Vector<double>::full(5, 1.5);
  EXPECT_TRUE(v.is_full());
  v.remove_element(2);
  EXPECT_FALSE(v.is_full());
  v.set_element(2, 0.5);
  EXPECT_TRUE(v.is_full());
  v.to_sparse();  // all five entries, but not a bitmap
  EXPECT_FALSE(v.is_full());
}

TEST(FullVectors, ScalarAssignAndReduce) {
  // assign(w, s, ALL) fills presence and values; reduce over a full vector
  // sums its values in ascending order, as the bitmap walk does.
  const Vector<double> u = make_vec(Kind::full, 6);
  double want = 0.0;
  for (Index i = 0; i < kN; ++i) want += *u.get(i);
  double got = 0.0;
  grb::reduce(got, grb::NoAccum{}, grb::PlusMonoid<double>{}, u);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);

  Vector<double> w = make_vec(Kind::holes, 7);
  grb::assign(w, no_mask, grb::NoAccum{}, 0.25, grb::Indices::all());
  EXPECT_TRUE(w.is_full());
  for (Index i = 0; i < kN; ++i) EXPECT_EQ(*w.get(i), 0.25);
}

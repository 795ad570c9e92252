// Property-based tests: every grb operation is checked against a brute-force
// dense reference model on randomized inputs, swept over sizes, densities,
// and seeds with parameterized gtest. The reference model stores explicit
// presence flags so structural semantics (union/intersection, masks,
// deletions) are modelled exactly.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "grb/grb.hpp"

using grb::Index;
using grb::Matrix;
using grb::Vector;
using grb::no_mask;

namespace {

struct DenseVec {
  std::vector<bool> has;
  std::vector<double> val;
  explicit DenseVec(Index n) : has(n, false), val(n, 0.0) {}
  void set(Index i, double x) {
    has[i] = true;
    val[i] = x;
  }
};

struct DenseMat {
  Index m, n;
  std::vector<bool> has;
  std::vector<double> val;
  DenseMat(Index m_, Index n_)
      : m(m_), n(n_), has(m_ * n_, false), val(m_ * n_, 0.0) {}
  bool h(Index i, Index j) const { return has[i * n + j]; }
  double v(Index i, Index j) const { return val[i * n + j]; }
  void set(Index i, Index j, double x) {
    has[i * n + j] = true;
    val[i * n + j] = x;
  }
};

// gtest prints a parameter that has no PrintTo as its raw bytes, and the
// ctest name carries that dump. Spelling the tail padding out as a zeroed
// member keeps every byte, and so the name, the same from build to build.
struct Params {
  Index size;
  double density;
  unsigned seed;
  unsigned zero_padding = 0;
};
static_assert(sizeof(Params) ==
              sizeof(Index) + sizeof(double) + 2 * sizeof(unsigned));

class PropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  std::mt19937 rng{GetParam().seed};

  DenseVec random_vec(Index n, double density) {
    DenseVec d(n);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    std::uniform_int_distribution<int> uv(-5, 5);
    for (Index i = 0; i < n; ++i) {
      if (u01(rng) < density) d.set(i, uv(rng));
    }
    return d;
  }

  DenseMat random_mat(Index m, Index n, double density) {
    DenseMat d(m, n);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    std::uniform_int_distribution<int> uv(-5, 5);
    for (Index i = 0; i < m; ++i) {
      for (Index j = 0; j < n; ++j) {
        if (u01(rng) < density) d.set(i, j, uv(rng));
      }
    }
    return d;
  }

  static void set(DenseVec &d, Index i, double x) {
    d.has[i] = true;
    d.val[i] = x;
  }

  static Vector<double> lift(const DenseVec &d) {
    Vector<double> v(d.has.size());
    for (Index i = 0; i < d.has.size(); ++i) {
      if (d.has[i]) v.set_element(i, d.val[i]);
    }
    return v;
  }

  static Matrix<double> lift(const DenseMat &d) {
    Matrix<double> a(d.m, d.n);
    std::vector<Index> ri, ci;
    std::vector<double> vx;
    for (Index i = 0; i < d.m; ++i) {
      for (Index j = 0; j < d.n; ++j) {
        if (d.h(i, j)) {
          ri.push_back(i);
          ci.push_back(j);
          vx.push_back(d.v(i, j));
        }
      }
    }
    a.build(ri, ci, vx);
    return a;
  }

  static void expect_equal(const Vector<double> &got, const DenseVec &want) {
    ASSERT_EQ(got.size(), want.has.size());
    Index nv = 0;
    for (Index i = 0; i < want.has.size(); ++i) {
      if (want.has[i]) {
        ++nv;
        auto x = got.get(i);
        ASSERT_TRUE(x.has_value()) << "missing entry at " << i;
        EXPECT_DOUBLE_EQ(*x, want.val[i]) << "at " << i;
      } else {
        EXPECT_FALSE(got.has(i)) << "spurious entry at " << i;
      }
    }
    EXPECT_EQ(got.nvals(), nv);
  }

  static void expect_equal(const Matrix<double> &got, const DenseMat &want) {
    ASSERT_EQ(got.nrows(), want.m);
    ASSERT_EQ(got.ncols(), want.n);
    Index nv = 0;
    for (Index i = 0; i < want.m; ++i) {
      for (Index j = 0; j < want.n; ++j) {
        if (want.h(i, j)) {
          ++nv;
          auto x = got.get(i, j);
          ASSERT_TRUE(x.has_value()) << "missing (" << i << "," << j << ")";
          EXPECT_DOUBLE_EQ(*x, want.v(i, j));
        } else {
          EXPECT_FALSE(got.has(i, j)) << "spurious (" << i << "," << j << ")";
        }
      }
    }
    EXPECT_EQ(got.nvals(), nv);
  }
};

}  // namespace

TEST_P(PropertyTest, VxmMatchesReference) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto da = random_mat(n, n, GetParam().density);
  auto u = lift(du);
  auto a = lift(da);

  DenseVec want(n);
  for (Index j = 0; j < n; ++j) {
    bool found = false;
    double acc = 0;
    for (Index k = 0; k < n; ++k) {
      if (du.has[k] && da.h(k, j)) {
        acc += du.val[k] * da.v(k, j);
        found = true;
      }
    }
    if (found) set(want, j, acc);
  }
  Vector<double> w(n);
  grb::vxm(w, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, u, a);
  expect_equal(w, want);
}

TEST_P(PropertyTest, MxvMatchesReference) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto da = random_mat(n, n, GetParam().density);
  auto u = lift(du);
  auto a = lift(da);

  DenseVec want(n);
  for (Index i = 0; i < n; ++i) {
    bool found = false;
    double acc = 0;
    for (Index k = 0; k < n; ++k) {
      if (da.h(i, k) && du.has[k]) {
        acc += da.v(i, k) * du.val[k];
        found = true;
      }
    }
    if (found) set(want, i, acc);
  }
  Vector<double> w(n);
  grb::mxv(w, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a, u);
  expect_equal(w, want);
}

TEST_P(PropertyTest, MxvMinPlusMatchesReference) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto da = random_mat(n, n, GetParam().density);
  auto u = lift(du);
  auto a = lift(da);

  DenseVec want(n);
  for (Index i = 0; i < n; ++i) {
    bool found = false;
    double acc = std::numeric_limits<double>::infinity();
    for (Index k = 0; k < n; ++k) {
      if (da.h(i, k) && du.has[k]) {
        acc = std::min(acc, da.v(i, k) + du.val[k]);
        found = true;
      }
    }
    if (found) set(want, i, acc);
  }
  Vector<double> w(n);
  grb::mxv(w, no_mask, grb::NoAccum{}, grb::MinPlus<double>{}, a, u);
  expect_equal(w, want);
}

TEST_P(PropertyTest, MxmMatchesReference) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto db = random_mat(n, n, GetParam().density);
  auto a = lift(da);
  auto b = lift(db);

  DenseMat want(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      bool found = false;
      double acc = 0;
      for (Index k = 0; k < n; ++k) {
        if (da.h(i, k) && db.h(k, j)) {
          acc += da.v(i, k) * db.v(k, j);
          found = true;
        }
      }
      if (found) want.set(i, j, acc);
    }
  }
  Matrix<double> c(n, n);
  grb::mxm(c, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a, b);
  expect_equal(c, want);
}

TEST_P(PropertyTest, MxmDotWithMaskMatchesReference) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto db = random_mat(n, n, GetParam().density);
  auto dm = random_mat(n, n, 0.3);
  auto a = lift(da);
  auto b = lift(db);
  auto m = lift(dm);

  DenseMat want(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (!dm.h(i, j)) continue;  // structural mask
      bool found = false;
      double acc = 0;
      for (Index k = 0; k < n; ++k) {
        if (da.h(i, k) && db.h(j, k)) {  // B transposed
          acc += da.v(i, k) * db.v(j, k);
          found = true;
        }
      }
      if (found) want.set(i, j, acc);
    }
  }
  Matrix<double> c(n, n);
  grb::mxm(c, m, grb::NoAccum{}, grb::PlusTimes<double>{}, a, b,
           grb::Descriptor{}.T1().S());
  expect_equal(c, want);
}

TEST_P(PropertyTest, EWiseAddMultMatchReference) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto dv = random_vec(n, GetParam().density);
  auto u = lift(du);
  auto v = lift(dv);

  DenseVec wadd(n);
  DenseVec wmul(n);
  for (Index i = 0; i < n; ++i) {
    if (du.has[i] && dv.has[i]) {
      set(wadd, i, du.val[i] + dv.val[i]);
      set(wmul, i, du.val[i] * dv.val[i]);
    } else if (du.has[i]) {
      set(wadd, i, du.val[i]);
    } else if (dv.has[i]) {
      set(wadd, i, dv.val[i]);
    }
  }
  Vector<double> a(n);
  Vector<double> m(n);
  grb::eWiseAdd(a, no_mask, grb::NoAccum{}, grb::Plus{}, u, v);
  grb::eWiseMult(m, no_mask, grb::NoAccum{}, grb::Times{}, u, v);
  expect_equal(a, wadd);
  expect_equal(m, wmul);
}

TEST_P(PropertyTest, MaskedAccumulatedVxmMatchesReference) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto da = random_mat(n, n, GetParam().density);
  auto dm = random_vec(n, 0.5);
  auto dw = random_vec(n, 0.4);
  auto u = lift(du);
  auto a = lift(da);
  auto m = lift(dm);
  auto w = lift(dw);

  for (int variant = 0; variant < 8; ++variant) {
    grb::Descriptor d;
    d.mask_structural = variant & 1;
    d.mask_complement = variant & 2;
    d.replace = variant & 4;

    // reference: t = u'A
    DenseVec t(n);
    for (Index j = 0; j < n; ++j) {
      bool found = false;
      double acc = 0;
      for (Index k = 0; k < n; ++k) {
        if (du.has[k] && da.h(k, j)) {
          acc += du.val[k] * da.v(k, j);
          found = true;
        }
      }
      if (found) set(t, j, acc);
    }
    // z = w (+) t on union
    DenseVec z(n);
    for (Index i = 0; i < n; ++i) {
      if (dw.has[i] && t.has[i]) {
        set(z, i, dw.val[i] + t.val[i]);
      } else if (dw.has[i]) {
        set(z, i, dw.val[i]);
      } else if (t.has[i]) {
        set(z, i, t.val[i]);
      }
    }
    // masked write
    DenseVec want(n);
    for (Index i = 0; i < n; ++i) {
      bool in_mask = dm.has[i] && (d.mask_structural || dm.val[i] != 0.0);
      if (d.mask_complement) in_mask = !in_mask;
      if (in_mask) {
        if (z.has[i]) set(want, i, z.val[i]);
      } else if (!d.replace && dw.has[i]) {
        set(want, i, dw.val[i]);
      }
    }
    Vector<double> got = w;
    grb::vxm(got, m, grb::Plus{}, grb::PlusTimes<double>{}, u, a, d);
    expect_equal(got, want);
  }
}

TEST_P(PropertyTest, TransposeRoundTrip) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto a = lift(da);
  auto at = grb::transposed(a);
  DenseMat want(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (da.h(i, j)) want.set(j, i, da.v(i, j));
    }
  }
  expect_equal(at, want);
  EXPECT_EQ(grb::transposed(at), a);
}

TEST_P(PropertyTest, SelectPartitionsEntries) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto u = lift(du);
  Vector<double> lo(n);
  Vector<double> hi(n);
  grb::select(lo, no_mask, grb::NoAccum{}, grb::ValueLt{}, u, 0.0);
  grb::select(hi, no_mask, grb::NoAccum{}, grb::ValueGe{}, u, 0.0);
  EXPECT_EQ(lo.nvals() + hi.nvals(), u.nvals());
  lo.for_each([&](Index, const double &x) { EXPECT_LT(x, 0.0); });
  hi.for_each([&](Index, const double &x) { EXPECT_GE(x, 0.0); });
}

TEST_P(PropertyTest, ReduceRowwiseMatchesScalarReduce) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto a = lift(da);
  Vector<double> rows(n);
  grb::reduce(rows, no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{}, a);
  double via_rows = 0;
  grb::reduce(via_rows, grb::NoAccum{}, grb::PlusMonoid<double>{}, rows);
  double direct = 0;
  grb::reduce(direct, grb::NoAccum{}, grb::PlusMonoid<double>{}, a);
  EXPECT_DOUBLE_EQ(via_rows, direct);
}

TEST_P(PropertyTest, ExtractAssignRoundTrip) {
  const Index n = GetParam().size;
  auto du = random_vec(n, GetParam().density);
  auto u = lift(du);
  // extract even positions then assign them back into an empty vector:
  // the result must equal u restricted to even positions.
  std::vector<Index> evens;
  for (Index i = 0; i < n; i += 2) evens.push_back(i);
  Vector<double> sub(evens.size());
  grb::extract(sub, no_mask, grb::NoAccum{}, u, grb::Indices(evens));
  Vector<double> back(n);
  grb::assign(back, no_mask, grb::NoAccum{}, sub, grb::Indices(evens));
  for (Index i = 0; i < n; ++i) {
    if (i % 2 == 0 && du.has[i]) {
      EXPECT_EQ(back.get(i), du.val[i]);
    } else {
      EXPECT_FALSE(back.has(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropertyTest,
    ::testing::Values(Params{8, 0.3, 1}, Params{8, 0.8, 2}, Params{17, 0.1, 3},
                      Params{17, 0.5, 4}, Params{33, 0.05, 5},
                      Params{33, 0.25, 6}, Params{64, 0.02, 7},
                      Params{64, 0.15, 8}, Params{5, 1.0, 9},
                      Params{41, 0.4, 10}),
    [](const ::testing::TestParamInfo<Params> &info) {
      return "n" + std::to_string(info.param.size) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST_P(PropertyTest, MatrixExtractMatchesReference) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto a = lift(da);
  // pick every third row and every second column, reversed
  std::vector<Index> rows, cols;
  for (Index i = 0; i < n; i += 3) rows.push_back(i);
  for (Index j = n; j-- > 0;) {
    if (j % 2 == 0) cols.push_back(j);
  }
  DenseMat want(rows.size(), cols.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      if (da.h(rows[r], cols[c])) want.set(r, c, da.v(rows[r], cols[c]));
    }
  }
  grb::Matrix<double> got(rows.size(), cols.size());
  grb::extract(got, no_mask, grb::NoAccum{}, a, grb::Indices(rows),
               grb::Indices(cols));
  expect_equal(got, want);
}

TEST_P(PropertyTest, MatrixAssignMatchesReference) {
  const Index n = GetParam().size;
  auto dc = random_mat(n, n, GetParam().density);
  const Index k = n / 2 + 1;
  auto ds = random_mat(k, k, 0.5);
  auto c = lift(dc);
  auto s = lift(ds);
  std::vector<Index> rows, cols;
  for (Index i = 0; i < k; ++i) rows.push_back(n - 1 - i);  // reversed block
  for (Index j = 0; j < k; ++j) cols.push_back(j);
  // reference: inside the region, source content replaces (deleting where
  // the source has no entry); outside, old content survives.
  DenseMat want = dc;
  for (Index r = 0; r < k; ++r) {
    for (Index cc = 0; cc < k; ++cc) {
      auto p = rows[r] * n + cols[cc];
      want.has[p] = ds.h(r, cc);
      want.val[p] = ds.v(r, cc);
    }
  }
  grb::assign(c, no_mask, grb::NoAccum{}, s, grb::Indices(rows),
              grb::Indices(cols));
  expect_equal(c, want);
}

TEST_P(PropertyTest, MatrixScalarAssignWithMaskMatchesReference) {
  const Index n = GetParam().size;
  auto dc = random_mat(n, n, GetParam().density);
  auto dm = random_mat(n, n, 0.4);
  auto c = lift(dc);
  auto m = lift(dm);
  DenseMat want = dc;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      bool in_mask = dm.h(i, j) && dm.v(i, j) != 0.0;  // valued mask
      if (in_mask) want.set(i, j, 7.5);
    }
  }
  grb::assign(c, m, grb::NoAccum{}, 7.5, grb::Indices::all(),
              grb::Indices::all());
  expect_equal(c, want);
}

TEST_P(PropertyTest, MatrixApplySelectComposeToIdentity) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto a = lift(da);
  // split by sign with select, negate the negative part, recombine
  grb::Matrix<double> neg(n, n);
  grb::Matrix<double> nonneg(n, n);
  grb::select(neg, no_mask, grb::NoAccum{}, grb::ValueLt{}, a, 0.0);
  grb::select(nonneg, no_mask, grb::NoAccum{}, grb::ValueGe{}, a, 0.0);
  EXPECT_EQ(neg.nvals() + nonneg.nvals(), a.nvals());
  grb::Matrix<double> back(n, n);
  grb::eWiseAdd(back, no_mask, grb::NoAccum{}, grb::Plus{}, neg, nonneg);
  expect_equal(back, da);
}

TEST_P(PropertyTest, KroneckerMatchesReference) {
  const Index n = std::min<Index>(GetParam().size, 12);  // keep n² small
  auto da = random_mat(n, n, GetParam().density);
  auto db = random_mat(3, 3, 0.6);
  auto a = lift(da);
  auto b = lift(db);
  DenseMat want(n * 3, n * 3);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      if (!da.h(i, j)) continue;
      for (Index k = 0; k < 3; ++k) {
        for (Index l = 0; l < 3; ++l) {
          if (!db.h(k, l)) continue;
          want.set(i * 3 + k, j * 3 + l, da.v(i, j) * db.v(k, l));
        }
      }
    }
  }
  grb::Matrix<double> c(n * 3, n * 3);
  grb::kronecker(c, no_mask, grb::NoAccum{}, grb::Times{}, a, b);
  expect_equal(c, want);
}

TEST_P(PropertyTest, ZombiesAndPendingAgreeWithRebuild) {
  const Index n = GetParam().size;
  auto da = random_mat(n, n, GetParam().density);
  auto a = lift(da);
  std::mt19937 rng(GetParam().seed ^ 0xdead);
  std::uniform_int_distribution<Index> uv(0, n - 1);
  // random interleaving of sets and removes, mirrored on the dense model
  DenseMat want = da;
  for (int op = 0; op < 40; ++op) {
    Index i = uv(rng);
    Index j = uv(rng);
    if (op % 3 == 0) {
      a.remove_element(i, j);
      want.has[i * n + j] = false;
    } else {
      double x = double(op);
      a.set_element(i, j, x);
      want.set(i, j, x);
    }
  }
  expect_equal(a, want);
}

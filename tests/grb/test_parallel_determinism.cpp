// Determinism suite for the parallel kernel layer (ctest label "parallel").
//
// Every parallelized kernel must produce results bit-identical to the serial
// path (Config::num_threads = 1) for any thread count: the nnz-balanced
// partitioner hands each thread a contiguous ascending chunk, and chunk
// partials are always folded in chunk order, which reproduces the serial
// left-to-right fold exactly. These tests pin that contract on an
// Erdős–Rényi graph and a power-law Kronecker graph, at thread counts 4 and
// 8, with integer-valued double weights so floating-point addition is exact.
//
// A std::thread stress test at the bottom doubles as the TSan target for
// -DLAGRAPH_SANITIZE=thread builds. Under TSan the stress threads pin
// num_threads = 1: libgomp is not TSan-instrumented, so OpenMP barriers
// would produce false positives; the sanitizer run instead checks the
// read-only sharing contract of finalized containers plus the workspace
// pool's locking, which are the data structures the OpenMP paths share.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "grb/grb.hpp"

using grb::Index;
using grb::Matrix;
using grb::Vector;
using grb::no_mask;

namespace {

struct ThreadGuard {
  explicit ThreadGuard(int n) { grb::config().num_threads = n; }
  ~ThreadGuard() { grb::config().num_threads = 0; }
};

Matrix<double> make_graph(bool powerlaw, int scale) {
  auto el = powerlaw ? gen::kronecker(scale, 8, 0xfeedULL)
                     : gen::uniform_random(scale, 8, 0xbeefULL);
  gen::add_uniform_weights(el, 1, 255, 0x77ULL);
  Matrix<double> a = gen::to_matrix<double>(el);
  a.finalize();
  return a;
}

Vector<double> make_frontier(Index n, int denom) {
  std::vector<Index> idx;
  std::vector<double> val;
  std::uint64_t state = 0x2468ULL;
  for (Index i = 0; i < n; ++i) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    if (state % static_cast<std::uint64_t>(denom) == 0) {
      idx.push_back(i);
      val.push_back(static_cast<double>(1 + state % 100));
    }
  }
  Vector<double> v(n);
  v.adopt_sparse(std::move(idx), std::move(val));
  return v;
}

template <typename T>
void expect_identical(const Vector<T> &serial, const Vector<T> &par,
                      const char *what) {
  std::vector<Index> si, pi;
  std::vector<T> sv, pv;
  serial.extract_tuples(si, sv);
  par.extract_tuples(pi, pv);
  ASSERT_EQ(si, pi) << what << ": index sets differ";
  ASSERT_EQ(sv.size(), pv.size()) << what;
  for (std::size_t k = 0; k < sv.size(); ++k) {
    ASSERT_EQ(sv[k], pv[k]) << what << " at slot " << k;  // bitwise, no EPS
  }
}

template <typename T>
void expect_identical(const Matrix<T> &serial, const Matrix<T> &par,
                      const char *what) {
  std::vector<Index> sr, sc, pr, pc;
  std::vector<T> sv, pv;
  serial.extract_tuples(sr, sc, sv);
  par.extract_tuples(pr, pc, pv);
  ASSERT_EQ(sr, pr) << what << ": row sets differ";
  ASSERT_EQ(sc, pc) << what << ": column sets differ";
  ASSERT_EQ(sv.size(), pv.size()) << what;
  for (std::size_t k = 0; k < sv.size(); ++k) {
    ASSERT_EQ(sv[k], pv[k]) << what << " at slot " << k;
  }
}

// Run `op` at num_threads=1 and at each parallel thread count and require
// bit-identical results. `op` returns the container to compare.
template <typename MakeResult>
void check_thread_sweep(MakeResult &&op, const char *what) {
  ThreadGuard serial_guard(1);
  auto ref = op();
  for (int t : {4, 8}) {
    grb::config().num_threads = t;
    auto got = op();
    expect_identical(ref, got, what);
  }
}

class ParallelDeterminism : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    a_ = make_graph(GetParam(), 11);
    at_ = grb::transposed(a_);
    at_.finalize();
    n_ = a_.nrows();
    frontier_ = make_frontier(n_, 16);
    grb::Vector<double> d1(n_), d2(n_);
    grb::reduce(d1, no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{}, a_);
    grb::reduce(d2, no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{}, at_);
    d1.to_bitmap();
    d2.to_bitmap();
    dense1_ = std::move(d1);
    dense2_ = std::move(d2);
  }

  Matrix<double> a_, at_;
  Vector<double> frontier_, dense1_, dense2_;
  Index n_ = 0;
};

TEST_P(ParallelDeterminism, VxmPushUnmasked) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::vxm(w, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{},
                 frontier_, a_);
        return w;
      },
      "vxm push (plus.times)");
}

TEST_P(ParallelDeterminism, VxmPushMasked) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::Descriptor d;
        d.mask_complement = true;
        grb::vxm(w, frontier_, grb::NoAccum{}, grb::PlusTimes<double>{},
                 frontier_, a_, d);
        return w;
      },
      "vxm push (complemented mask)");
}

TEST_P(ParallelDeterminism, VxmPushMinPlus) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::vxm(w, no_mask, grb::NoAccum{}, grb::MinPlus<double>{}, frontier_,
                 a_);
        return w;
      },
      "vxm push (min.plus, terminal monoid)");
}

TEST_P(ParallelDeterminism, VxmPushAnySecondi) {
  // The BFS parent semiring: any monoid is all-terminal, secondi is
  // positional. The parallel merge must keep the serial "first product
  // wins" value per slot.
  check_thread_sweep(
      [&] {
        Vector<std::int64_t> w(n_);
        grb::vxm(w, no_mask, grb::NoAccum{}, grb::AnySecondI<std::int64_t>{},
                 frontier_, a_);
        return w;
      },
      "vxm push (any.secondi)");
}

TEST_P(ParallelDeterminism, MxvPull) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::mxv(w, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a_,
                 dense1_);
        return w;
      },
      "mxv pull (plus.times)");
}

TEST_P(ParallelDeterminism, MxvPullTerminal) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::mxv(w, no_mask, grb::NoAccum{}, grb::MinPlus<double>{}, a_,
                 dense1_);
        return w;
      },
      "mxv pull (min.plus short-circuit)");
}

TEST_P(ParallelDeterminism, MxmGustavson) {
  check_thread_sweep(
      [&] {
        Matrix<double> c(n_, n_);
        grb::mxm(c, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, a_, at_);
        return c;
      },
      "mxm gustavson");
}

TEST_P(ParallelDeterminism, MxmDotMasked) {
  check_thread_sweep(
      [&] {
        Matrix<double> c(n_, n_);
        grb::Descriptor d;
        d.transpose_b = true;
        d.mask_structural = true;
        grb::mxm(c, a_, grb::NoAccum{}, grb::PlusPair<double>{}, a_, at_, d);
        return c;
      },
      "mxm dot (structural mask)");
}

TEST_P(ParallelDeterminism, EwiseVectors) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::eWiseAdd(w, no_mask, grb::NoAccum{}, grb::Min{}, dense1_,
                      dense2_);
        Vector<double> w2(n_);
        grb::eWiseMult(w2, no_mask, grb::NoAccum{}, grb::Plus{}, w, dense2_);
        return w2;
      },
      "eWiseAdd + eWiseMult (vector)");
}

TEST_P(ParallelDeterminism, EwiseSparseVectors) {
  Vector<double> f2 = make_frontier(n_, 8);
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::eWiseAdd(w, no_mask, grb::NoAccum{}, grb::Plus{}, frontier_, f2);
        return w;
      },
      "eWiseAdd (sparse-sparse merge)");
}

TEST_P(ParallelDeterminism, EwiseMatrices) {
  check_thread_sweep(
      [&] {
        Matrix<double> c(n_, n_);
        grb::eWiseAdd(c, no_mask, grb::NoAccum{}, grb::Plus{}, a_, at_);
        return c;
      },
      "eWiseAdd (matrix)");
}

TEST_P(ParallelDeterminism, ApplyAndSelect) {
  check_thread_sweep(
      [&] {
        Vector<double> w(n_);
        grb::apply2nd(w, no_mask, grb::NoAccum{}, grb::Times{}, dense1_, 3.0);
        Vector<double> w2(n_);
        grb::select(
            w2, no_mask, grb::NoAccum{},
            [](const double &x, Index, Index, const double &th) {
              return x > th;
            },
            w, 100.0);
        return w2;
      },
      "apply2nd + select (vector)");
}

TEST_P(ParallelDeterminism, ApplyAndSelectMatrix) {
  check_thread_sweep(
      [&] {
        Matrix<double> c(n_, n_);
        grb::apply2nd(c, no_mask, grb::NoAccum{}, grb::Plus{}, a_, 1.0);
        Matrix<double> c2(n_, n_);
        grb::select(
            c2, no_mask, grb::NoAccum{},
            [](const double &x, Index, Index, const double &th) {
              return x > th;
            },
            c, 128.0);
        return c2;
      },
      "apply2nd + select (matrix)");
}

TEST_P(ParallelDeterminism, ReduceAllForms) {
  check_thread_sweep(
      [&] {
        Vector<double> rows(n_);
        grb::reduce(rows, no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{},
                    a_);
        double ms = 0.0;
        grb::reduce(ms, grb::NoAccum{}, grb::PlusMonoid<double>{}, a_);
        double vs = 0.0;
        grb::reduce(vs, grb::NoAccum{}, grb::MinMonoid<double>{}, rows);
        // Fold the scalars back into the vector so one comparison covers
        // all three reduction forms.
        Vector<double> out(n_);
        grb::apply2nd(out, no_mask, grb::NoAccum{}, grb::Plus{}, rows,
                      ms + vs);
        return out;
      },
      "reduce (rows + matrix scalar + vector scalar)");
}

TEST_P(ParallelDeterminism, Transpose) {
  check_thread_sweep([&] { return grb::transposed(a_); },
                     "transpose (parallel counting sort)");
}

TEST_P(ParallelDeterminism, BuildFromTuples) {
  std::vector<Index> bi, bj;
  std::vector<double> bv;
  a_.extract_tuples(bi, bj, bv);
  check_thread_sweep(
      [&] {
        Matrix<double> t(n_, n_);
        t.build(bi, bj, bv);
        t.finalize();
        return t;
      },
      "Matrix::build (column then row counting passes)");
}

// The sparse-result emits: operands below kParallelGrain run as one chunk
// and write straight into the result, operands above it are chunked at 4
// and 8 threads. Both must match the serial walk. Vectors span 2^14
// positions so a dense-ish sparse operand clears the grain; inputs are
// adopted sparse, so select and apply see sparse input.
constexpr Index kWide = Index{1} << 14;

TEST_P(ParallelDeterminism, SelectAndApplySparseVector) {
  for (int denom : {2, 64}) {  // ~8,192 and ~256 entries
    const Vector<double> u = make_frontier(kWide, denom);
    ASSERT_EQ(u.format(), Vector<double>::Format::sparse);
    check_thread_sweep(
        [&] {
          Vector<double> w(kWide);
          grb::select(w, no_mask, grb::NoAccum{}, grb::ValueGt{}, u, 40.0);
          return w;
        },
        "select (sparse vector)");
    check_thread_sweep(
        [&] {
          Vector<double> w(kWide);
          grb::apply2nd(w, no_mask, grb::NoAccum{}, grb::Times{}, u, 3.0);
          return w;
        },
        "apply2nd (sparse vector)");
  }
}

TEST_P(ParallelDeterminism, EwiseMultSparseAndBitmap) {
  for (int denom : {2, 64}) {
    const Vector<double> u = make_frontier(kWide, denom);
    // v: u mirrored, a different pattern of the same size
    std::vector<Index> idx;
    std::vector<double> val;
    u.extract_tuples(idx, val);
    std::reverse(idx.begin(), idx.end());
    std::reverse(val.begin(), val.end());
    for (Index &i : idx) i = kWide - 1 - i;
    Vector<double> v(kWide);
    v.adopt_sparse(std::move(idx), std::move(val));
    Vector<double> vb = v;
    vb.to_bitmap();
    check_thread_sweep(
        [&] {
          Vector<double> w(kWide);
          grb::eWiseMult(w, no_mask, grb::NoAccum{}, grb::Minus{}, u, v);
          return w;
        },
        "eWiseMult (sparse x sparse)");
    check_thread_sweep(
        [&] {
          Vector<double> w(kWide);
          grb::eWiseMult(w, no_mask, grb::NoAccum{}, grb::Minus{}, u, vb);
          return w;
        },
        "eWiseMult (sparse x bitmap)");
    check_thread_sweep(
        [&] {
          Vector<double> w(kWide);
          grb::eWiseMult(w, no_mask, grb::NoAccum{}, grb::Minus{}, vb, u);
          return w;
        },
        "eWiseMult (bitmap x sparse)");
  }
}

// The full-vector paths: eWise ops and apply written into w's own arrays
// (w aliasing an operand, and w fresh), and the accumulating pull folding
// each row's dot into a full w. The vectors span 2^14 positions and the
// pull runs over a scale-13 graph, so both clear kParallelGrain and chunk
// at 4 and 8 threads.
TEST_P(ParallelDeterminism, FullVectorsInPlace) {
  Vector<double> u = make_frontier(kWide, 1);  // every position
  u.to_bitmap();
  ASSERT_TRUE(u.is_full());
  std::vector<Index> idx;
  std::vector<double> val;
  u.extract_tuples(idx, val);
  std::reverse(val.begin(), val.end());
  Vector<double> v(kWide);
  v.adopt_sparse(std::move(idx), std::move(val));
  v.to_bitmap();
  check_thread_sweep(
      [&] {
        Vector<double> w = u;
        grb::eWiseAdd(w, no_mask, grb::NoAccum{}, grb::Minus{}, w, v);
        return w;
      },
      "eWiseAdd (full, w = u)");
  check_thread_sweep(
      [&] {
        Vector<double> w(kWide);
        grb::eWiseMult(w, no_mask, grb::NoAccum{}, grb::Div{}, u, v);
        return w;
      },
      "eWiseMult (full)");
  check_thread_sweep(
      [&] {
        Vector<double> w = v;
        grb::apply2nd(w, no_mask, grb::NoAccum{}, grb::Times{}, w, 0.5);
        return w;
      },
      "apply2nd (full, w = u)");

  const Matrix<double> big = make_graph(GetParam(), 13);
  const Index nb = big.nrows();
  Vector<double> x = make_frontier(nb, 1);
  x.to_bitmap();
  ASSERT_TRUE(x.is_full());
  check_thread_sweep(
      [&] {
        Vector<double> w = Vector<double>::full(nb, 0.25);
        grb::mxv(w, no_mask, grb::Plus{}, grb::PlusSecond<double>{}, big, x);
        return w;
      },
      "mxv (accumulating pull into a full w)");
  check_thread_sweep(
      [&] {
        Vector<double> w = x;
        grb::vxm(w, no_mask, grb::Min{}, grb::MinPlus<double>{}, x, big,
                 grb::desc::T0);
        return w;
      },
      "vxm T0 (accumulating pull into a full w)");
}

TEST_P(ParallelDeterminism, VxmSelectRange) {
  // A frontier of every 2nd node pushes ~8 edges per entry, well above the
  // grain; every 16th stays below it.
  for (int denom : {2, 16}) {
    const Vector<double> u = make_frontier(n_, denom);
    for (const bool want_pruned : {false, true}) {
      check_thread_sweep(
          [&] {
            Vector<double> w(n_);
            Vector<double> pruned(n_);
            grb::vxm_select_range(w, pruned, grb::MinPlus<double>{}, u, a_,
                                  64.0, 192.0);
            return want_pruned ? pruned : w;
          },
          want_pruned ? "vxm_select_range (pruned)" : "vxm_select_range (w)");
    }
  }
}

TEST_P(ParallelDeterminism, MatrixSelectKeepsMost) {
  // Weights lie in [1, 255]: ValueGt 2 keeps ~99% of the entries. The
  // scale-11 graph holds ~16k entries (chunked), the scale-7 one ~1k.
  const Matrix<double> small = make_graph(GetParam(), 7);
  for (const Matrix<double> *a : {&std::as_const(a_), &small}) {
    check_thread_sweep(
        [&] {
          Matrix<double> c(a->nrows(), a->ncols());
          grb::select(c, no_mask, grb::NoAccum{}, grb::ValueGt{}, *a, 2.0);
          return c;
        },
        "select (matrix, most entries kept)");
  }
}

TEST_P(ParallelDeterminism, BuildFromShuffledDuplicates) {
  // a_'s tuples plus repeats at every 3rd and 7th position, each with its
  // own value, shuffled: build must combine every (i, j)'s values in tuple
  // order, whatever the thread count.
  std::vector<Index> bi, bj;
  std::vector<double> bv;
  a_.extract_tuples(bi, bj, bv);
  const std::size_t base = bi.size();
  for (std::size_t p = 0; p < base; ++p) {
    for (std::size_t step : {3, 7}) {
      if (p % step != 0) continue;
      bi.push_back(bi[p]);
      bj.push_back(bj[p]);
      bv.push_back(static_cast<double>(1 + (p / step) % 97));
    }
  }
  std::vector<std::size_t> perm(bi.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::mt19937_64 rng(0x5eedULL);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Index> si(bi.size()), sj(bi.size());
  std::vector<double> sv(bi.size());
  for (std::size_t q = 0; q < perm.size(); ++q) {
    si[q] = bi[perm[q]];
    sj[q] = bj[perm[q]];
    sv[q] = bv[perm[q]];
  }
  auto check = [&](auto dup, const char *what) {
    // The in-order fold: first value, then dup(acc, next) per repeat.
    std::map<std::pair<Index, Index>, double> want;
    for (std::size_t q = 0; q < si.size(); ++q) {
      auto [it, fresh] = want.try_emplace({si[q], sj[q]}, sv[q]);
      if (!fresh) it->second = dup(it->second, sv[q]);
    }
    for (int t : {1, 4, 8}) {
      ThreadGuard guard(t);
      Matrix<double> m(n_, n_);
      m.build(si, sj, sv, dup);
      std::vector<Index> ri, rj;
      std::vector<double> rv;
      m.extract_tuples(ri, rj, rv);
      ASSERT_EQ(ri.size(), want.size()) << what << " at " << t << " threads";
      std::size_t k = 0;
      for (const auto &[ij, x] : want) {
        ASSERT_EQ(ri[k], ij.first) << what << " at " << t << " threads";
        ASSERT_EQ(rj[k], ij.second) << what << " at " << t << " threads";
        ASSERT_EQ(rv[k], x) << what << " at " << t << " threads";
        ++k;
      }
    }
  };
  check(grb::First{}, "build (First)");
  check(grb::Minus{}, "build (Minus, non-commutative)");
}

INSTANTIATE_TEST_SUITE_P(Graphs, ParallelDeterminism, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                           return info.param ? "kron_powerlaw" : "er_uniform";
                         });

// Stress test: several std::threads hammer finalized shared containers with
// the full kernel mix at once, including the in-place full-vector paths.
// This is the TSan target (scripts/check.sh runs ParallelStress.* under
// -DLAGRAPH_SANITIZE=thread): the test pins num_threads = 1 on its first
// line, before its set-up builds anything (libgomp is uninstrumented and
// its barriers would be false positives), so what TSan checks is the
// cross-thread contract — finalized matrices and vectors are read-only, the
// workspace pool locks correctly, and Stats counters are atomic. In normal
// builds the workers keep their thread override, so OpenMP teams from
// concurrent top-level callers also get exercised.
TEST(ParallelStress, ConcurrentKernelsOnSharedGraph) {
#if defined(__SANITIZE_THREAD__)
  // First, before the set-up below forks any OpenMP team that TSan cannot
  // see, and before the workers spawn: Config is plain data under the
  // single-writer contract, so the override must not be written from
  // inside the pool.
  ThreadGuard tsan_serial(1);
#endif
  Matrix<double> a = make_graph(true, 10);
  Matrix<double> at = grb::transposed(a);
  at.finalize();
  const Index n = a.nrows();
  Vector<double> f = make_frontier(n, 16);
  f.finalize();
  // Shared full inputs for the in-place paths: each worker writes only its
  // own outputs, so a path that wrote into an input would race visibly.
  Vector<double> full_u = make_frontier(n, 1);
  full_u.to_bitmap();
  full_u.finalize();
  Vector<double> full_v = Vector<double>::full(n, 0.5);
  full_v.finalize();

  constexpr int kWorkers = 4;
  std::vector<Vector<double>> results(kWorkers, Vector<double>(n));
  std::vector<Vector<double>> in_place(kWorkers, Vector<double>(n));
  std::vector<std::thread> pool;
  for (int w = 0; w < kWorkers; ++w) {
    pool.emplace_back([&, w] {
      for (int iter = 0; iter < 3; ++iter) {
        Vector<double> push(n);
        grb::vxm(push, no_mask, grb::NoAccum{}, grb::PlusTimes<double>{}, f,
                 a);
        Vector<double> rows(n);
        grb::reduce(rows, no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{},
                    w % 2 == 0 ? a : at);
        rows.to_bitmap();
        Vector<double> pull(n);
        grb::mxv(pull, no_mask, grb::NoAccum{}, grb::MinPlus<double>{}, a,
                 rows);
        Vector<double> sum(n);
        grb::eWiseAdd(sum, no_mask, grb::NoAccum{}, grb::Plus{}, push, pull);
        results[w] = std::move(sum);

        // The full-vector paths over the shared inputs, PageRank-style.
        Vector<double> q(n);
        grb::eWiseMult(q, no_mask, grb::NoAccum{}, grb::Div{}, full_u,
                       full_v);
        Vector<double> r = Vector<double>::full(n, 0.125);
        grb::mxv(r, no_mask, grb::Plus{}, grb::PlusSecond<double>{}, at,
                 full_u);
        grb::eWiseAdd(q, no_mask, grb::NoAccum{}, grb::Minus{}, q, r);
        grb::apply(q, no_mask, grb::NoAccum{}, grb::Abs{}, q);
        in_place[w] = std::move(q);
      }
    });
  }
  for (auto &t : pool) t.join();

  // All workers computed the same function of the same inputs.
  for (int w = 1; w < kWorkers; ++w) {
    expect_identical(results[0], results[w], "stress worker result");
    expect_identical(in_place[0], in_place[w], "stress in-place result");
  }
}

}  // namespace

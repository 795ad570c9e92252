// Planner equivalence suite (ctest label "plan").
//
// The grb::plan planner may pick any direction, operand format, or thread
// team it likes — but the numbers must never change. These tests pin that
// property: every kernel entry point, swept over input matrix formats
// (csr / hypersparse / bitmap) × Config::force_format (none / bitmap) ×
// thread counts (1 / 4) × mask shapes (none / structural / complemented),
// must be bit-identical to the forced-serial-sparse reference configuration
// (num_threads = 1, force_format = sparse) on an Erdős–Rényi and a
// power-law Kronecker graph. A push-only BFS level loop is compared against
// the pull-forced one the same way, plus direct unit tests of the decision
// precedence (caller hint > Config override > cost model).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/generators.hpp"
#include "grb/grb.hpp"

using grb::Index;
using grb::Matrix;
using grb::Vector;
using grb::no_mask;

namespace {

// Save/restore every Config knob the planner reads, so tests can't leak
// overrides into each other.
struct ConfigGuard {
  ConfigGuard() { saved_ = snapshot(); }
  ~ConfigGuard() { restore(saved_); }

  struct Knobs {
    int num_threads;
    bool force_push;
    bool force_pull;
    grb::ForceFormat force_format;
  };
  static Knobs snapshot() {
    const auto &c = grb::config();
    return {c.num_threads, c.force_push, c.force_pull, c.force_format};
  }
  static void restore(const Knobs &k) {
    auto &c = grb::config();
    c.num_threads = k.num_threads;
    c.force_push = k.force_push;
    c.force_pull = k.force_pull;
    c.force_format = k.force_format;
  }

 private:
  Knobs saved_;
};

Matrix<double> make_graph(bool powerlaw, int scale) {
  auto el = powerlaw ? gen::kronecker(scale, 8, 0xfaceULL)
                     : gen::uniform_random(scale, 8, 0xcafeULL);
  gen::add_uniform_weights(el, 1, 255, 0x99ULL);
  Matrix<double> a = gen::to_matrix<double>(el);
  a.finish();
  return a;
}

Vector<double> make_frontier(Index n, int denom) {
  std::vector<Index> idx;
  std::vector<double> val;
  std::uint64_t state = 0x1357ULL;
  for (Index i = 0; i < n; ++i) {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    if (state % static_cast<std::uint64_t>(denom) == 0) {
      idx.push_back(i);
      val.push_back(static_cast<double>(1 + state % 50));
    }
  }
  Vector<double> v(n);
  v.adopt_sparse(std::move(idx), std::move(val));
  return v;
}

Vector<grb::Bool> make_mask(Index n, int denom) {
  std::vector<Index> idx;
  std::vector<grb::Bool> val;
  for (Index i = 0; i < n; ++i) {
    if (i % static_cast<Index>(denom) == 0) {
      idx.push_back(i);
      val.push_back(grb::Bool(1));
    }
  }
  Vector<grb::Bool> m(n);
  m.adopt_sparse(std::move(idx), std::move(val));
  return m;
}

template <typename T>
void expect_identical(const Vector<T> &ref, const Vector<T> &got,
                      const char *what) {
  std::vector<Index> ri, gi;
  std::vector<T> rv, gv;
  ref.extract_tuples(ri, rv);
  got.extract_tuples(gi, gv);
  ASSERT_EQ(ri, gi) << what << ": index sets differ";
  ASSERT_EQ(rv.size(), gv.size()) << what;
  for (std::size_t k = 0; k < rv.size(); ++k) {
    ASSERT_EQ(rv[k], gv[k]) << what << " at slot " << k;  // bitwise, no EPS
  }
}

template <typename T>
void expect_identical(const Matrix<T> &ref, const Matrix<T> &got,
                      const char *what) {
  std::vector<Index> rr, rc, gr, gc;
  std::vector<T> rv, gv;
  ref.extract_tuples(rr, rc, rv);
  got.extract_tuples(gr, gc, gv);
  ASSERT_EQ(rr, gr) << what << ": row sets differ";
  ASSERT_EQ(rc, gc) << what << ": column sets differ";
  ASSERT_EQ(rv.size(), gv.size()) << what;
  for (std::size_t k = 0; k < rv.size(); ++k) {
    ASSERT_EQ(rv[k], gv[k]) << what << " at slot " << k;
  }
}

enum class MatFmt { csr, hypersparse, bitmap };

void set_format(const Matrix<double> &a, MatFmt f) {
  switch (f) {
    case MatFmt::csr: a.to_csr(); break;
    case MatFmt::hypersparse: a.to_hypersparse(); break;
    case MatFmt::bitmap: a.to_bitmap(); break;
  }
}

const char *fmt_name(MatFmt f) {
  switch (f) {
    case MatFmt::csr: return "csr";
    case MatFmt::hypersparse: return "hypersparse";
    case MatFmt::bitmap: return "bitmap";
  }
  return "?";
}

// Run `op` once in the reference configuration (serial, force_format =
// sparse, matrix in csr), then sweep every planner-visible knob and demand
// bit-identical results. `op` receives the matrix to use and returns the
// container to compare.
template <typename OpFn>
void sweep_against_reference(const Matrix<double> &a, OpFn &&op,
                             const char *what) {
  ConfigGuard guard;
  auto &cfg = grb::config();
  cfg.num_threads = 1;
  cfg.force_push = false;
  cfg.force_pull = false;
  cfg.force_format = grb::ForceFormat::sparse;
  set_format(a, MatFmt::csr);
  auto ref = op(a);

  for (MatFmt f : {MatFmt::csr, MatFmt::hypersparse, MatFmt::bitmap}) {
    for (grb::ForceFormat ff :
         {grb::ForceFormat::none, grb::ForceFormat::bitmap}) {
      for (int threads : {1, 4}) {
        cfg.num_threads = threads;
        cfg.force_format = ff;
        set_format(a, f);
        auto got = op(a);
        std::string label = std::string(what) + " [" + fmt_name(f) +
                            (ff == grb::ForceFormat::bitmap ? ", force bitmap"
                                                            : ", no force") +
                            ", t=" + std::to_string(threads) + "]";
        expect_identical(ref, got, label.c_str());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  set_format(a, MatFmt::csr);
}

class PlanEquivalence : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    a_ = make_graph(GetParam(), 8);
    n_ = a_.nrows();
    frontier_ = make_frontier(n_, 8);
    mask_ = make_mask(n_, 3);
  }
  Matrix<double> a_{0, 0};
  Index n_ = 0;
  Vector<double> frontier_;
  Vector<grb::Bool> mask_;
};

TEST_P(PlanEquivalence, VxmPush) {
  grb::PlusTimes<double> sr;
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::vxm(w, no_mask, grb::NoAccum{}, sr, frontier_, a);
        return w;
      },
      "vxm push unmasked");
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::vxm(w, mask_, grb::NoAccum{}, sr, frontier_, a, grb::desc::S);
        return w;
      },
      "vxm push structural mask");
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::vxm(w, mask_, grb::NoAccum{}, sr, frontier_, a, grb::desc::SC);
        return w;
      },
      "vxm push complemented mask");
}

TEST_P(PlanEquivalence, VxmPullTransposed) {
  grb::PlusTimes<double> sr;
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::vxm(w, no_mask, grb::NoAccum{}, sr, frontier_, a, grb::desc::T0);
        return w;
      },
      "vxm pull unmasked");
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::vxm(w, mask_, grb::NoAccum{}, sr, frontier_, a,
                 grb::desc::T0.S());
        return w;
      },
      "vxm pull structural mask");
}

TEST_P(PlanEquivalence, MxvBothDirections) {
  grb::PlusTimes<double> sr;
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::mxv(w, no_mask, grb::NoAccum{}, sr, a, frontier_);
        return w;
      },
      "mxv pull unmasked");
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::mxv(w, mask_, grb::NoAccum{}, sr, a, frontier_, grb::desc::SC);
        return w;
      },
      "mxv pull complemented mask");
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::mxv(w, no_mask, grb::NoAccum{}, sr, a, frontier_, grb::desc::T0);
        return w;
      },
      "mxv push (transposed)");
}

TEST_P(PlanEquivalence, MxvTerminalMonoid) {
  // The `any` monoid exercises the terminal short-circuit paths in both
  // kernels and is the BFS workhorse.
  grb::AnySecond<double> sr;
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::mxv(w, mask_, grb::NoAccum{}, sr, a, frontier_, grb::desc::S);
        return w;
      },
      "mxv any.second structural mask");
}

TEST_P(PlanEquivalence, MxmMaskedDot) {
  grb::PlusTimes<double> sr;
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        // The triangle-counting shape: C⟨s(A)⟩ = A ⊕.⊗ Aᵀ via the dot
        // kernel (aliased operands, so the planner must keep A in csr).
        Matrix<double> c(n_, n_);
        grb::mxm(c, a, grb::NoAccum{}, sr, a, a, grb::desc::T1.S());
        return c;
      },
      "mxm masked dot (aliased)");
}

TEST_P(PlanEquivalence, MxmMaskedDotDistinct) {
  grb::PlusTimes<double> sr;
  Matrix<double> b = grb::transposed(a_);
  b.finish();
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Matrix<double> c(n_, n_);
        grb::mxm(c, a, grb::NoAccum{}, sr, a, b, grb::desc::T1.S());
        return c;
      },
      "mxm masked dot (distinct B)");
}

TEST_P(PlanEquivalence, EwiseVector) {
  Vector<double> u = make_frontier(n_, 4);
  Vector<double> v = make_frontier(n_, 2);
  // The planner owns the bitmap-promotion choice; sweep the *input* formats
  // explicitly since the matrix format plays no role here.
  for (bool u_bitmap : {false, true}) {
    for (bool v_bitmap : {false, true}) {
      sweep_against_reference(
          a_,
          [&](const Matrix<double> &) {
            if (u_bitmap) u.to_bitmap(); else u.to_sparse();
            if (v_bitmap) v.to_bitmap(); else v.to_sparse();
            Vector<double> w(n_);
            grb::eWiseAdd(w, no_mask, grb::NoAccum{}, grb::Plus{}, u, v);
            return w;
          },
          "eWiseAdd");
      sweep_against_reference(
          a_,
          [&](const Matrix<double> &) {
            if (u_bitmap) u.to_bitmap(); else u.to_sparse();
            if (v_bitmap) v.to_bitmap(); else v.to_sparse();
            Vector<double> w(n_);
            grb::eWiseMult(w, no_mask, grb::NoAccum{}, grb::Times{}, u, v);
            return w;
          },
          "eWiseMult");
    }
  }
}

TEST_P(PlanEquivalence, ReduceApply) {
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Vector<double> w(n_);
        grb::reduce(w, no_mask, grb::NoAccum{}, grb::PlusMonoid<double>{}, a);
        return w;
      },
      "reduce rows");
  sweep_against_reference(
      a_,
      [&](const Matrix<double> &a) {
        Matrix<double> c(n_, n_);
        grb::apply(c, grb::no_mask, grb::NoAccum{},
                   [](const double &x) { return x * 2.0; }, a);
        return c;
      },
      "apply matrix");
}

// BFS levels must not depend on the per-level direction choice: a push-only
// run (force_push) and a pull-leaning run (force_pull) of the same masked
// traversal loop yield identical level sets. (Parents may legitimately
// differ under the `any` monoid; levels are direction-invariant.)
Vector<std::int64_t> bfs_levels(const Matrix<double> &a,
                                const Matrix<double> &at, Index source) {
  const Index n = a.nrows();
  grb::AnySecondI<std::int64_t> sr;
  Vector<std::int64_t> q(n);
  q.set_element(source, static_cast<std::int64_t>(source));
  Vector<std::int64_t> p(n);
  p.set_element(source, static_cast<std::int64_t>(source));
  grb::plan::prepare(p, grb::plan::iterative_output_format(n));
  Vector<std::int64_t> lv(n);
  lv.set_element(source, 0);
  grb::plan::prepare(lv, grb::plan::iterative_output_format(n));

  Index nvisited = 1;
  std::int64_t depth = 0;
  while (q.nvals() != 0) {
    Index q_edges = 0;  // what a push over q scans
    q.for_each([&](Index v, std::int64_t) { q_edges += a.row_nvals(v); });
    grb::plan::OpDesc od;
    od.op = grb::plan::OpKind::traversal;
    od.a_rows = n;
    od.a_cols = n;
    od.a_nvals = a.nvals();
    od.u_edges = q_edges;
    od.pull_candidates = n - nvisited;
    od.masked = true;
    od.mask_complement = true;
    od.mask_structural = true;
    od.mask_nvals = nvisited;
    od.has_terminal = true;
    od.has_transpose = true;
    const auto pl = grb::plan::make_plan(od);
    if (pl.direction == grb::plan::Direction::pull) {
      grb::mxv(q, p, grb::NoAccum{}, sr, at, q, grb::desc::RSC);
    } else {
      grb::vxm(q, p, grb::NoAccum{}, sr, q, a, grb::desc::RSC);
    }
    if (q.nvals() == 0) break;
    grb::assign(p, q, grb::NoAccum{}, q, grb::Indices::all(), grb::desc::S);
    ++depth;
    grb::assign(lv, q, grb::NoAccum{}, depth, grb::Indices::all(),
                grb::desc::S);
    nvisited += q.nvals();
    if (nvisited == n) break;
  }
  return lv;
}

TEST_P(PlanEquivalence, BfsDirectionInvariance) {
  Matrix<double> at = grb::transposed(a_);
  at.finish();
  ConfigGuard guard;
  auto &cfg = grb::config();
  cfg.num_threads = 1;
  cfg.force_push = true;
  auto ref = bfs_levels(a_, at, 0);
  cfg.force_push = false;

  for (bool force_pull : {false, true}) {
    for (int threads : {1, 4}) {
      cfg.force_pull = force_pull;
      cfg.num_threads = threads;
      auto got = bfs_levels(a_, at, 0);
      expect_identical(ref, got,
                       force_pull ? "bfs levels (force_pull)"
                                  : "bfs levels (cost model)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, PlanEquivalence, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                           return info.param ? "kronecker" : "erdos_renyi";
                         });

// ---- decision-precedence unit tests ------------------------------------

// A traversal over an n-node graph of mean degree 16 whose frontier holds
// `edges` out-edges.
grb::plan::OpDesc traversal_desc(Index n, Index edges, Index candidates,
                                 bool has_transpose) {
  grb::plan::OpDesc od;
  od.op = grb::plan::OpKind::traversal;
  od.a_rows = n;
  od.a_cols = n;
  od.a_nvals = n * 16;
  od.u_edges = edges;
  od.pull_candidates = candidates;
  od.masked = true;
  od.mask_complement = true;
  od.mask_structural = true;
  od.has_terminal = true;
  od.has_transpose = has_transpose;
  return od;
}

TEST(PlanDecision, CostModelPicksPullOnDenseFrontier) {
  ConfigGuard guard;
  ConfigGuard::restore({0, false, false, grb::ForceFormat::none});
  // Dense frontier (2,048 nodes of degree 16), few unvisited candidates:
  // pull is clearly cheaper.
  auto od = traversal_desc(4096, 2048 * 16, 256, true);
  auto pl = grb::plan::make_plan(od);
  EXPECT_EQ(pl.direction, grb::plan::Direction::pull);
  EXPECT_EQ(pl.chosen, grb::plan::Chosen::cost_model);
  EXPECT_LT(pl.cost_pull, pl.cost_push);
  // Tiny frontier: push.
  od = traversal_desc(4096, 2 * 16, 4094, true);
  pl = grb::plan::make_plan(od);
  EXPECT_EQ(pl.direction, grb::plan::Direction::push);
}

TEST(PlanDecision, PushIsPricedByFrontierEdges) {
  ConfigGuard guard;
  ConfigGuard::restore({0, false, false, grb::ForceFormat::none});
  // Two frontiers of 512 nodes with 2,048 unvisited candidates left. Priced
  // as 512 · d̄ the two would tie; priced by their out-edges, 512 leaves
  // (2 edges each) push and 512 hubs (40 edges each) pull.
  constexpr Index kFrontier = 512;
  auto leaves = traversal_desc(4096, 2 * kFrontier, 2048, true);
  auto hubs = traversal_desc(4096, 40 * kFrontier, 2048, true);
  const auto pl_leaves = grb::plan::make_plan(leaves);
  const auto pl_hubs = grb::plan::make_plan(hubs);
  EXPECT_EQ(pl_leaves.direction, grb::plan::Direction::push);
  EXPECT_EQ(pl_hubs.direction, grb::plan::Direction::pull);
  // The push side is the edge count plus the per-call overhead both pay.
  EXPECT_EQ(pl_hubs.cost_push - pl_leaves.cost_push,
            static_cast<double>(38 * kFrontier));
  // A frontier with no out-edges pushes for the overhead alone.
  const auto pl_none =
      grb::plan::make_plan(traversal_desc(4096, 0, 2048, true));
  EXPECT_EQ(pl_none.direction, grb::plan::Direction::push);
  EXPECT_EQ(pl_none.cost_push, pl_leaves.cost_push - 2 * kFrontier);
}

TEST(PlanDecision, PullNeedsTransposePath) {
  ConfigGuard guard;
  ConfigGuard::restore({0, false, false, grb::ForceFormat::none});
  auto od = traversal_desc(4096, 2048 * 16, 256, /*has_transpose=*/false);
  auto pl = grb::plan::make_plan(od);
  EXPECT_EQ(pl.direction, grb::plan::Direction::push);
  // Even a config override cannot conjure a pull path.
  grb::config().force_pull = true;
  pl = grb::plan::make_plan(od);
  EXPECT_EQ(pl.direction, grb::plan::Direction::push);
}

TEST(PlanDecision, PrecedenceHintOverConfigOverModel) {
  ConfigGuard guard;
  ConfigGuard::restore({0, false, false, grb::ForceFormat::none});
  auto od = traversal_desc(4096, 2048 * 16, 256, true);  // model says pull

  grb::config().force_push = true;  // config says push
  auto pl = grb::plan::make_plan(od);
  EXPECT_EQ(pl.direction, grb::plan::Direction::push);
  EXPECT_EQ(pl.chosen, grb::plan::Chosen::config_override);

  od.hint = grb::plan::Direction::pull;  // hint says pull: hint wins
  pl = grb::plan::make_plan(od);
  EXPECT_EQ(pl.direction, grb::plan::Direction::pull);
  EXPECT_EQ(pl.chosen, grb::plan::Chosen::caller_hint);
}

TEST(PlanDecision, OverriddenCounterOnlyOnOutcomeChange) {
  ConfigGuard guard;
  ConfigGuard::restore({0, false, false, grb::ForceFormat::none});
  auto od = traversal_desc(4096, 2 * 16, 4094, true);  // model says push
  const auto before = grb::stats().plans_overridden.load();
  grb::config().force_push = true;  // agrees with the model: no override
  (void)grb::plan::make_plan(od);
  EXPECT_EQ(grb::stats().plans_overridden.load(), before);
  grb::config().force_push = false;
  grb::config().force_pull = true;  // disagrees: counts
  (void)grb::plan::make_plan(od);
  EXPECT_EQ(grb::stats().plans_overridden.load(), before + 1);
}

TEST(PlanFormat, HypersparseRowptrRequiresExplicitPrepare) {
  // The satellite fix: raw access must not silently expand hypersparse
  // storage; the conversion goes through plan::prepare and is counted.
  Matrix<double> a(1u << 20, 1u << 20);
  a.set_element(5, 7, 1.0);
  a.set_element(1000000, 3, 2.0);
  a.finish();
  a.to_hypersparse();
  EXPECT_THROW((void)a.rowptr(), grb::Exception);
  const auto conv_before = grb::stats().format_conversions.load();
  grb::plan::prepare(a, grb::plan::MatFormat::csr);
  EXPECT_EQ(grb::stats().format_conversions.load(), conv_before + 1);
  EXPECT_NO_THROW((void)a.rowptr());
  // Preparing an already-csr matrix is free and uncounted.
  grb::plan::prepare(a, grb::plan::MatFormat::csr);
  EXPECT_EQ(grb::stats().format_conversions.load(), conv_before + 1);
}

}  // namespace

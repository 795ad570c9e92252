// Exhaustive tests of the mask/accumulator/replace output step (spec §2.3 of
// the GraphBLAS C API, Table I footnote of the paper): the eight
// combinations of {valued, structural} × {plain, complemented} × {merge,
// replace}, with and without an accumulator.
#include <gtest/gtest.h>

#include <optional>
#include <type_traits>
#include <vector>

#include "grb/grb.hpp"

using grb::Index;
using grb::Vector;
using grb::no_mask;

namespace {

// Fixture data:
//   w (old):   [10, 20,  -,  -, 50]  (entries at 0,1,4)
//   t (new):   [ -,  2,  3,  4,  -]  (entries at 1,2,3)
//   m (mask):  [ 1,  0,  1,  -,  1]  (entries at 0,1,2,4; value 0 at 1)
struct Fix {
  Vector<int> w{5};
  Vector<int> t{5};
  Vector<int> m{5};
  Fix() {
    w.set_element(0, 10);
    w.set_element(1, 20);
    w.set_element(4, 50);
    t.set_element(1, 2);
    t.set_element(2, 3);
    t.set_element(3, 4);
    m.set_element(0, 1);
    m.set_element(1, 0);  // explicit zero: in structural mask, not in valued
    m.set_element(2, 1);
    m.set_element(4, 1);
  }
};

template <typename V>
void set_format(V &v, bool bitmap) {
  if constexpr (!std::is_same_v<V, grb::NoMaskT>) {
    if (bitmap) {
      v.to_bitmap();
    } else {
      v.to_sparse();
    }
  }
}

// Drive the output step through apply (identity), the simplest op; apply
// keeps its input's format, so t reaches the output step as stored. Each
// case runs with w, t and the mask each sparse and each bitmap, and every
// run must equal the all-sparse run, which is returned.
template <typename MaskT, typename Accum>
Vector<int> run(const Fix &f, const MaskT &mask, Accum accum,
                grb::Descriptor d) {
  std::optional<Vector<int>> want;
  for (int bits = 0; bits < 8; ++bits) {
    Fix g = f;
    MaskT m = mask;
    set_format(g.w, (bits & 1) != 0);
    set_format(g.t, (bits & 2) != 0);
    set_format(m, (bits & 4) != 0);
    grb::apply(g.w, m, accum, grb::Identity{}, g.t, d);
    if (!want) {
      want = g.w;
    } else {
      EXPECT_EQ(g.w, *want) << "bitmap w, t, mask = " << (bits & 1) << ", "
                            << (bits >> 1 & 1) << ", " << (bits >> 2);
    }
  }
  return *want;
}

// Same, with the output as its own mask: w⟨w⟩ ⊙= t. Each position's mask
// bit has to be read before that position of w is written.
template <typename Accum>
Vector<int> run_self_masked(Accum accum, grb::Descriptor d) {
  std::optional<Vector<int>> want;
  for (int bits = 0; bits < 4; ++bits) {
    Fix g;
    set_format(g.w, (bits & 1) != 0);
    set_format(g.t, (bits & 2) != 0);
    grb::apply(g.w, g.w, accum, grb::Identity{}, g.t, d);
    if (!want) {
      want = g.w;
    } else {
      EXPECT_EQ(g.w, *want) << "bitmap w, t = " << (bits & 1) << ", "
                            << (bits >> 1);
    }
  }
  return *want;
}

}  // namespace

TEST(MaskSemantics, NoMaskNoAccumOverwrites) {
  Fix f;
  auto w = run(f, no_mask, grb::NoAccum{}, {});
  EXPECT_EQ(w, f.t);
}

TEST(MaskSemantics, NoMaskAccumMergesUnion) {
  Fix f;
  auto w = run(f, no_mask, grb::Plus{}, {});
  EXPECT_EQ(w.get(0), 10);  // only in w
  EXPECT_EQ(w.get(1), 22);  // both: accumulated
  EXPECT_EQ(w.get(2), 3);   // only in t
  EXPECT_EQ(w.get(3), 4);
  EXPECT_EQ(w.get(4), 50);
}

TEST(MaskSemantics, ValuedMaskMerge) {
  Fix f;
  auto w = run(f, f.m, grb::NoAccum{}, {});
  // mask selects {0,2,4} (1 has explicit zero -> excluded in valued mode)
  EXPECT_FALSE(w.has(0));   // in mask, t missing -> deleted
  EXPECT_EQ(w.get(1), 20);  // outside mask: old kept (merge)
  EXPECT_EQ(w.get(2), 3);   // in mask, t present
  EXPECT_FALSE(w.has(3));   // outside mask, no old entry
  EXPECT_FALSE(w.has(4));   // in mask, t missing -> deleted
}

TEST(MaskSemantics, StructuralMaskMerge) {
  Fix f;
  auto w = run(f, f.m, grb::NoAccum{}, grb::desc::S);
  // structural mask selects {0,1,2,4}
  EXPECT_FALSE(w.has(0));
  EXPECT_EQ(w.get(1), 2);  // now inside mask: overwritten by t
  EXPECT_EQ(w.get(2), 3);
  EXPECT_FALSE(w.has(3));
  EXPECT_FALSE(w.has(4));
}

TEST(MaskSemantics, ValuedMaskReplace) {
  Fix f;
  auto w = run(f, f.m, grb::NoAccum{}, grb::desc::R);
  // replace deletes everything outside the mask
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.get(2), 3);
}

TEST(MaskSemantics, ComplementedValuedMerge) {
  Fix f;
  auto w = run(f, f.m, grb::NoAccum{}, grb::desc::C);
  // complement selects {1,3}
  EXPECT_EQ(w.get(0), 10);  // outside complement: kept
  EXPECT_EQ(w.get(1), 2);
  EXPECT_EQ(w.get(3), 4);
  EXPECT_EQ(w.get(4), 50);
  EXPECT_FALSE(w.has(2));
}

TEST(MaskSemantics, ComplementedStructuralReplace) {
  Fix f;
  auto w = run(f, f.m, grb::NoAccum{}, grb::desc::RSC);
  // structural complement selects {3} only
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.get(3), 4);
}

TEST(MaskSemantics, AccumInsideMaskKeepsOldWhereTMissing) {
  Fix f;
  auto w = run(f, f.m, grb::Plus{}, grb::desc::S);
  // structural mask {0,1,2,4}; accumulator keeps old entries lacking t
  EXPECT_EQ(w.get(0), 10);
  EXPECT_EQ(w.get(1), 22);
  EXPECT_EQ(w.get(2), 3);
  EXPECT_FALSE(w.has(3));  // outside mask, nothing old
  EXPECT_EQ(w.get(4), 50);
}

TEST(MaskSemantics, AccumWithReplace) {
  Fix f;
  auto w = run(f, f.m, grb::Plus{}, grb::desc::RS);
  EXPECT_EQ(w.get(0), 10);
  EXPECT_EQ(w.get(1), 22);
  EXPECT_EQ(w.get(2), 3);
  EXPECT_FALSE(w.has(3));
  EXPECT_EQ(w.get(4), 50);
}

TEST(MaskSemantics, ComplementOfNoMaskSelectsNothing) {
  Fix f;
  auto w = run(f, no_mask, grb::NoAccum{}, grb::desc::C);
  // complement of the implicit all-true mask: nothing computed, w untouched
  EXPECT_EQ(w.get(0), 10);
  EXPECT_EQ(w.get(1), 20);
  EXPECT_EQ(w.get(4), 50);
  EXPECT_EQ(w.nvals(), 3u);
}

TEST(MaskSemantics, ComplementOfNoMaskWithReplaceClearsAll) {
  Fix f;
  auto w = run(f, no_mask, grb::NoAccum{}, grb::desc::RC);
  EXPECT_EQ(w.nvals(), 0u);
}

TEST(MaskSemantics, EmptyMaskSelectsNothing) {
  Fix f;
  Vector<int> empty(5);
  auto w = run(f, empty, grb::NoAccum{}, {});
  EXPECT_EQ(w.nvals(), 3u);  // merge: all old entries survive
}

TEST(MaskSemantics, BitmapMaskMatchesSparseMask) {
  Fix f1;
  Fix f2;
  auto w1 = run(f1, f1.m, grb::NoAccum{}, grb::desc::SC);
  f2.m.to_bitmap();
  auto w2 = run(f2, f2.m, grb::NoAccum{}, grb::desc::SC);
  EXPECT_EQ(w1, w2);
}

// w's pattern {0,1,4} is the mask: 0 and 4 have no new value and are
// deleted, 1 is overwritten.
TEST(MaskSemantics, OutputIsItsOwnMask) {
  auto w = run_self_masked(grb::NoAccum{}, {});
  EXPECT_EQ(w.nvals(), 1u);
  EXPECT_EQ(w.get(1), 2);
}

TEST(MaskSemantics, OutputIsItsOwnMaskWithAccum) {
  auto w = run_self_masked(grb::Plus{}, grb::desc::S);
  EXPECT_EQ(w.nvals(), 3u);
  EXPECT_EQ(w.get(0), 10);
  EXPECT_EQ(w.get(1), 22);
  EXPECT_EQ(w.get(4), 50);
}

// The complement selects {2,3}, where w has no entry. Writing w(2) must not
// change what the mask says about position 2.
TEST(MaskSemantics, OutputIsItsOwnComplementedMask) {
  auto w = run_self_masked(grb::NoAccum{}, grb::desc::C);
  EXPECT_EQ(w.nvals(), 5u);
  EXPECT_EQ(w.get(0), 10);
  EXPECT_EQ(w.get(1), 20);
  EXPECT_EQ(w.get(2), 3);
  EXPECT_EQ(w.get(3), 4);
  EXPECT_EQ(w.get(4), 50);
}

TEST(MaskSemantics, OutputIsItsOwnComplementedMaskWithAccumReplace) {
  auto w = run_self_masked(grb::Plus{}, grb::desc::RC);
  EXPECT_EQ(w.nvals(), 2u);
  EXPECT_EQ(w.get(2), 3);
  EXPECT_EQ(w.get(3), 4);
}

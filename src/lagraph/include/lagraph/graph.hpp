// lagraph/graph.hpp — the LAGraph_Graph data structure (paper §II-A, §V).
//
// A Graph<T> has primary components — the adjacency matrix `a` and the
// `kind` — plus cached properties that any algorithm may compute once and
// reuse: the transpose `at`, row/column degrees, whether the pattern is
// symmetric, and the number of diagonal entries. The struct is deliberately
// NOT opaque: user code may read and write every member (the paper contrasts
// this with the opaque GraphBLAS objects). The flip side of that openness is
// a convention: whoever modifies `a` must invalidate or update the cached
// properties; check_graph() verifies consistency.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "grb/grb.hpp"
#include "lagraph/status.hpp"

namespace lagraph {

using grb::Index;

/// How the adjacency matrix should be interpreted (more kinds to come, per
/// the paper).
enum class Kind { adjacency_undirected, adjacency_directed };

/// Tri-state cached boolean property (LAGRAPH_BOOLEAN_UNKNOWN in the paper).
enum class BooleanProperty : std::int8_t { no = 0, yes = 1, unknown = -1 };

inline const char *kind_name(Kind k) {
  return k == Kind::adjacency_directed ? "directed" : "undirected";
}

template <typename T>
struct Graph {
  // -- primary components ---------------------------------------------------
  grb::Matrix<T> a;  ///< adjacency matrix
  Kind kind = Kind::adjacency_directed;

  // -- cached properties (absent = unknown) -----------------------------------
  std::optional<grb::Matrix<T>> at;                    ///< transpose of a
  std::optional<grb::Vector<std::int64_t>> row_degree;  ///< out-degrees
  std::optional<grb::Vector<std::int64_t>> col_degree;  ///< in-degrees
  BooleanProperty a_pattern_is_symmetric = BooleanProperty::unknown;
  std::int64_t ndiag = -1;  ///< # diagonal entries; -1 = unknown

  Graph() = default;

  /// "Move" constructor matching LAGraph_New (paper Listing 1): the matrix
  /// is moved into the graph, leaving the source empty — this ownership
  /// transfer is what prevents double-free errors in the C original.
  Graph(grb::Matrix<T> &&m, Kind k) : a(std::move(m)), kind(k) {}

  [[nodiscard]] Index nodes() const { return a.nrows(); }
  [[nodiscard]] Index entries() const { return a.nvals(); }

  /// The matrix to navigate along *incoming* edges: the cached transpose if
  /// present, or `a` itself when the graph is undirected (A == Aᵀ).
  [[nodiscard]] const grb::Matrix<T> *transpose_view() const {
    if (at.has_value()) return &*at;
    if (kind == Kind::adjacency_undirected) return &a;
    if (a_pattern_is_symmetric == BooleanProperty::yes) return &a;
    return nullptr;
  }
};

namespace detail {

/// The edges a push step scans from frontier `f`: the row lengths of a CSR
/// row pointer `rp` summed over f's entries — GAP's scout_count, the exact
/// work the traversal cost model prices a push at. One width dispatch per
/// call; `rp` is taken once per traversal.
template <typename T>
Index frontier_edges(grb::IndexSpan rp, const grb::Vector<T> &f) {
  return grb::detail::dispatch_width(rp.width(), [&](auto tag) {
    const auto r = rp.template as<decltype(tag)>();
    Index e = 0;
    if (f.format() == grb::Vector<T>::Format::bitmap) {
      // Branch-free: a frontier's presence pattern is random, so a branch
      // per slot would mispredict.
      const std::uint8_t *present = f.bitmap_present();
      const Index n = f.size();
      for (Index v = 0; v < n; ++v) e += present[v] * (r[v + 1] - r[v]);
    } else {
      for (const Index v : f.sparse_indices()) e += r[v + 1] - r[v];
    }
    return e;
  });
}

/// Batched form: a frontier matrix's row i is source i's frontier, so the
/// push scans row j of the operand once per entry (i, j).
template <typename T>
Index frontier_edges(grb::IndexSpan rp, const grb::Matrix<T> &f) {
  return grb::detail::dispatch_width(rp.width(), [&](auto tag) {
    const auto r = rp.template as<decltype(tag)>();
    Index e = 0;
    f.for_each([&](Index, Index j, const T &) { e += r[j + 1] - r[j]; });
    return e;
  });
}

}  // namespace detail

/// LAGraph_New: construct a graph, taking ownership of the matrix (the
/// source matrix is left empty).
template <typename T>
int make_graph(Graph<T> &g, grb::Matrix<T> &&m, Kind kind, char *msg) {
  return detail::guarded(msg, [&]() {
    if (m.nrows() != m.ncols()) {
      return detail::set_msg(msg, LAGRAPH_INVALID_VALUE,
                             "adjacency matrix must be square");
    }
    g = Graph<T>(std::move(m), kind);
    m = grb::Matrix<T>(0, 0);  // make the move observable, as in LAGraph_New
    return LAGRAPH_OK;
  });
}

// -- property utilities (paper §V "Graph Properties") ---------------------------

/// Clear all cached properties (LAGraph_DeleteProperties).
template <typename T>
int delete_properties(Graph<T> &g, char *msg) {
  detail::clear_msg(msg);
  g.at.reset();
  g.row_degree.reset();
  g.col_degree.reset();
  g.a_pattern_is_symmetric = BooleanProperty::unknown;
  g.ndiag = -1;
  return LAGRAPH_OK;
}

/// Compute and cache G->AT (LAGraph_Property_AT). For undirected graphs this
/// is a no-op: transpose_view() already aliases A.
template <typename T>
int property_at(Graph<T> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (g.kind == Kind::adjacency_undirected) return LAGRAPH_OK;
    if (!g.at.has_value()) g.at = grb::transposed(g.a);
    return LAGRAPH_OK;
  });
}

/// Compute and cache the row degrees (LAGraph_Property_RowDegree): the
/// differences of A's row pointer (A is brought to CSR first). An empty row
/// gets no entry, as a reduce over A's rows would leave it.
template <typename T>
int property_row_degree(Graph<T> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (g.row_degree.has_value()) return LAGRAPH_OK;
    grb::plan::prepare(g.a, grb::plan::MatFormat::csr);
    const Index n = g.a.nrows();
    std::vector<std::uint8_t> found(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> deg(static_cast<std::size_t>(n), 0);
    Index nvals = 0;
    grb::detail::dispatch_width(g.a.index_width(), [&](auto tag) {
      const auto rp = g.a.rowptr().template as<decltype(tag)>();
      for (Index i = 0; i < n; ++i) {
        const auto d = static_cast<std::int64_t>(rp[i + 1] - rp[i]);
        if (d == 0) continue;
        found[i] = 1;
        deg[i] = d;
        ++nvals;
      }
    });
    grb::Vector<std::int64_t> v(n);
    v.adopt_bitmap(std::move(found), std::move(deg), nvals);
    v.maybe_switch_format();
    g.row_degree = std::move(v);
    return LAGRAPH_OK;
  });
}

/// Compute and cache the column degrees (LAGraph_Property_ColDegree).
template <typename T>
int property_col_degree(Graph<T> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (g.col_degree.has_value()) return LAGRAPH_OK;
    grb::Vector<std::int64_t> deg(g.a.ncols());
    grb::Matrix<std::int64_t> pat(g.a.nrows(), g.a.ncols());
    grb::apply(pat, grb::no_mask, grb::NoAccum{}, grb::One{}, g.a);
    grb::reduce(deg, grb::no_mask, grb::NoAccum{},
                grb::PlusMonoid<std::int64_t>{}, pat, grb::desc::T0);
    g.col_degree = std::move(deg);
    return LAGRAPH_OK;
  });
}

/// Determine whether the pattern of A is symmetric
/// (LAGraph_Property_ASymmetricPattern). Undirected graphs are symmetric by
/// definition. Otherwise A and Aᵀ are brought to sorted CSR, the one form
/// each pattern has, and the pattern is symmetric exactly when their row
/// pointers and column arrays are equal (compared across index widths).
template <typename T>
int property_symmetric_pattern(Graph<T> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (g.kind == Kind::adjacency_undirected) {
      g.a_pattern_is_symmetric = BooleanProperty::yes;
      return LAGRAPH_OK;
    }
    if (g.a_pattern_is_symmetric != BooleanProperty::unknown)
      return LAGRAPH_OK;
    if (!g.at.has_value()) g.at = grb::transposed(g.a);
    bool sym = g.a.nrows() == g.a.ncols();
    if (sym) {
      for (const grb::Matrix<T> *x : {&g.a, &*g.at}) {
        grb::plan::prepare(*x, grb::plan::MatFormat::csr);
        x->ensure_sorted();
      }
      const grb::IndexSpan arp = g.a.rowptr(), trp = g.at->rowptr();
      const grb::IndexSpan acx = g.a.colidx(), tcx = g.at->colidx();
      sym = std::equal(arp.begin(), arp.end(), trp.begin(), trp.end()) &&
            std::equal(acx.begin(), acx.end(), tcx.begin(), tcx.end());
    }
    g.a_pattern_is_symmetric = sym ? BooleanProperty::yes : BooleanProperty::no;
    return LAGRAPH_OK;
  });
}

/// Count (and cache) the diagonal entries of A (LAGraph_Property_NDiag):
/// one typed pass over A's CSR rows (A is brought to CSR first).
template <typename T>
int property_ndiag(Graph<T> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (g.ndiag >= 0) return LAGRAPH_OK;
    grb::plan::prepare(g.a, grb::plan::MatFormat::csr);
    std::int64_t count = 0;
    grb::detail::dispatch_width(g.a.index_width(), [&](auto tag) {
      using I = decltype(tag);
      const auto rp = g.a.rowptr().template as<I>();
      const auto cx = g.a.colidx().template as<I>();
      const Index m = g.a.nrows();
      for (Index i = 0; i < m; ++i) {
        for (std::size_t p = rp[i]; p < rp[i + 1]; ++p) {
          count += cx[p] == static_cast<I>(i) ? 1 : 0;
        }
      }
    });
    g.ndiag = count;
    return LAGRAPH_OK;
  });
}

// -- display and debug (paper §V) -------------------------------------------------

/// LAGraph_CheckGraph: validate that the (non-opaque, user-modifiable) graph
/// is internally consistent — A square, AT really the transpose, degrees and
/// flags matching A.
template <typename T>
int check_graph(const Graph<T> &g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (g.a.nrows() != g.a.ncols()) {
      return detail::set_msg(msg, LAGRAPH_INVALID_GRAPH,
                             "adjacency matrix is not square");
    }
    if (g.at.has_value()) {
      if (g.at->nrows() != g.a.ncols() || g.at->ncols() != g.a.nrows() ||
          !(grb::transposed(g.a) == *g.at)) {
        return detail::set_msg(msg, LAGRAPH_INVALID_GRAPH,
                               "cached AT is not the transpose of A");
      }
    }
    if (g.row_degree.has_value()) {
      if (g.row_degree->size() != g.a.nrows()) {
        return detail::set_msg(msg, LAGRAPH_INVALID_GRAPH,
                               "row_degree has the wrong size");
      }
      for (Index i = 0; i < g.a.nrows(); ++i) {
        auto d = g.row_degree->get(i);
        std::int64_t want = static_cast<std::int64_t>(g.a.row_nvals(i));
        std::int64_t got = d ? *d : 0;
        if (got != want) {
          return detail::set_msg(msg, LAGRAPH_INVALID_GRAPH,
                                 "row_degree disagrees with A");
        }
      }
    }
    if (g.kind == Kind::adjacency_undirected ||
        g.a_pattern_is_symmetric == BooleanProperty::yes) {
      // Only the pattern must match; values may differ per direction for a
      // directed graph flagged pattern-symmetric, so compare patterns.
      auto at = grb::transposed(g.a);
      bool sym = at.nvals() == g.a.nvals();
      if (sym) {
        at.for_each([&](Index i, Index j, const T &) {
          if (!g.a.has(i, j)) sym = false;
        });
      }
      if (!sym) {
        return detail::set_msg(
            msg, LAGRAPH_INVALID_GRAPH,
            "graph marked symmetric/undirected but A is not symmetric");
      }
    }
    if (g.ndiag >= 0) {
      std::int64_t count = 0;
      g.a.for_each([&](Index i, Index j, const T &) {
        if (i == j) ++count;
      });
      if (count != g.ndiag) {
        return detail::set_msg(msg, LAGRAPH_INVALID_GRAPH,
                               "ndiag disagrees with A");
      }
    }
    return LAGRAPH_OK;
  });
}

/// LAGraph_DisplayGraph: print a graph and its cached properties.
template <typename T>
int display_graph(const Graph<T> &g, std::ostream &os, char *msg) {
  return detail::guarded(msg, [&]() {
    os << "LAGraph graph: " << kind_name(g.kind) << ", " << g.nodes()
       << " nodes, " << g.a.nvals() << " entries\n";
    os << "  cached: AT=" << (g.at.has_value() ? "yes" : "no")
       << " row_degree=" << (g.row_degree.has_value() ? "yes" : "no")
       << " col_degree=" << (g.col_degree.has_value() ? "yes" : "no")
       << " symmetric_pattern=";
    switch (g.a_pattern_is_symmetric) {
      case BooleanProperty::yes: os << "yes"; break;
      case BooleanProperty::no: os << "no"; break;
      case BooleanProperty::unknown: os << "unknown"; break;
    }
    os << " ndiag=" << g.ndiag << "\n";
    if (g.nodes() <= 16) {
      g.a.for_each([&](Index i, Index j, const T &x) {
        os << "    (" << i << "," << j << ") = " << +x << "\n";
      });
    }
    return LAGRAPH_OK;
  });
}

}  // namespace lagraph

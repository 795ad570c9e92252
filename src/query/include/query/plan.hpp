// query/plan.hpp — multi-op planning and execution for pattern queries.
//
// Compilation lowers a parsed Query onto grb:: ops in two phases:
//
//   1. Candidate pruning (vectorized). Each variable gets a candidate
//      vector seeded from its pins/degree predicates, then edge
//      constraints propagate reachability between candidate sets with
//      masked vxm/mxv over the adjacency (semiring any.pair — pure
//      structure). Pruning is arc-consistency: it only ever removes
//      nodes that cannot appear in any satisfying assignment, so the
//      enumeration phase stays correct regardless of how aggressively
//      (or lazily) the optimizer schedules these steps.
//
//   2. Enumeration (tuple building). A depth-first walk over the plan's
//      variable order binds candidates, extending along adjacency rows
//      where a neighbor is already bound, and re-checks every edge/neq
//      constraint so phase 1 is never load-bearing for correctness.
//
// The *multi-op* optimizer sits above the per-op grb::plan cost model and
// makes the whole-plan decisions (GraphBLAST's observation — the big wins
// come from plan-level choices, not per-op tuning):
//
//   · ordering      — propagation starts from the most selective variable
//                     (pins ≪ degree-filtered ≪ unconstrained) and walks
//                     the constraint graph outward, then tightens
//                     backwards; naive compilation instead sweeps edges
//                     once, left to right, in textual order.
//   · mask pushdown — when a target's candidate set is already strict,
//                     the optimizer passes it as a structural mask into
//                     the vxm/mxv itself (desc::S) instead of computing
//                     the full reach and intersecting afterwards.
//   · CSE           — cached snapshot properties are reused rather than
//                     recomputed: A^T (Graph::transpose_view) serves
//                     reverse traversal, cached row/col degree vectors
//                     serve degree predicates.
//
// Walk chains skip both phases. When a pattern's edges form one simple
// path over all its variables, the number of matches ending at each node
// of an end variable is a walk count, e_pinᵀ·A·A·…: the optimizer compiles
// it to one masked plus.first product per pattern edge, and the executor
// finishes the last walk vector in one of two ways. COUNT(*) sums it
// (walked from the end nearer the most selective seed); a RETURN of that
// end variable emits its indices in ascending order, each repeated by its
// walk count and cut at LIMIT (walked toward the returned variable). A
// '<>' between the final variable and a pinned one drops the pin's node
// from the last vector first. Its cost is bounded by one adjacency pass
// per edge, whatever the number of matches. The seed and degree-filter
// steps become the products' masks.
//
// compile(..., optimize=false) produces the naive baseline plan; EXPLAIN
// prints both so reorderings and pushdowns are diff-visible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lagraph/graph.hpp"
#include "query/ast.hpp"
#include "query/resultset.hpp"

namespace lagraph {
namespace query {

/// One compiled step: candidate pruning, or one product of a walk chain.
struct PlanStep {
  enum class Kind : std::uint8_t {
    seed,           // initialize a variable's candidate vector
    degree_filter,  // intersect candidates with a select() over degrees
    prune,          // propagate candidates across one edge constraint
    count_hop,      // walk chain: walk counts from `from` across an edge
  };

  Kind kind = Kind::seed;
  int var = -1;   // the variable this step constrains
  int from = -1;  // prune/count_hop: source variable
  int edge = -1;  // prune/count_hop: index into Query::edges
  int deg = -1;   // degree_filter: index into Query::degs
  /// prune: true propagates src→dst along the stored orientation,
  /// false propagates dst→src (reverse traversal). count_hop: true when
  /// the product is over A itself (an arc toward `var`, or '-[]-' on a
  /// symmetric pattern), false when it needs the reverse direction.
  bool forward = true;
  /// Mask pushed into the op (prune: vs post-filter; count_hop: `var`'s
  /// seed candidates, vs no mask for an unconstrained variable).
  bool masked = false;
  bool via_transpose = false;  // reverse step served by the cached A^T
  double est_in = 0;           // estimated source candidates
  double est_out = 0;          // estimated target candidates afterwards
};

/// A compiled query plan: the pruning schedule plus the enumeration order,
/// or, for a walk chain, its seeds and products.
struct QueryPlan {
  /// How the plan produces its rows. `enumerate` prunes, then enumerates
  /// by DFS. The other two are walk chains: steps are seeds (only those a
  /// product reads), degree filters and one count_hop per edge, with no
  /// prune steps and no enumeration; `count` sums the last walk vector for
  /// COUNT(*), `rows` emits it as the one returned column.
  enum class Finish : std::uint8_t { enumerate, count, rows };

  bool optimized = true;
  Finish finish = Finish::enumerate;
  std::vector<PlanStep> steps;
  /// Variable indices, outermost first; for a walk chain, the walk order
  /// (start variable first, the variable its finish reads last).
  std::vector<int> enum_order;
  std::vector<double> est;      // final per-variable candidate estimates
  double avg_degree = 0;

  // Cached snapshot properties the plan reuses (CSE) vs must compute.
  bool reuse_transpose = false;
  bool reuse_row_degree = false;
  bool reuse_col_degree = false;

  [[nodiscard]] bool chain() const { return finish != Finish::enumerate; }

  /// Multi-line plan rendering for `lagraph_cli explain query`.
  [[nodiscard]] std::string explain(const Query &q) const;
  /// One-line summary, uncut however long the pattern: the engine's
  /// QueryResult::plan, which request-log and slow-query records carry.
  [[nodiscard]] std::string explain_line() const;
};

/// Compile `q` against `g` (shape + cached properties only — no kernel
/// runs, so this is cheap enough for EXPLAIN).
/// `optimize=false` yields the naive left-to-right baseline, which never
/// takes a walk chain.
int compile(QueryPlan *out, const Query &q, const Graph<double> &g,
            bool optimize, char *msg);

/// Execute a compiled plan. The result matches the tuple-at-a-time oracle
/// bit-exactly for any correct plan (pruning is re-checked during
/// enumeration).
int execute(ResultSet *out, const Query &q, const QueryPlan &plan,
            const Graph<double> &g, char *msg);

/// parse + compile(optimized) + execute in one call.
int run(ResultSet *out, const std::string &text, const Graph<double> &g,
        char *msg);

}  // namespace query
}  // namespace lagraph

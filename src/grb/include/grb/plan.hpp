// grb/plan.hpp — the execution planner: the traversal cost model, and the
// direction and operand formats of every kernel that has a choice to make.
//
// The paper's Table III story is about *which* kernel variant runs — push
// vxm vs bitmap-pull mxv, dot-product mxm on a transposed B, lazy-sort
// tolerant ops. Before this header those choices were smeared across the
// stack: kernels converted formats ad-hoc and each algorithm hand-rolled its
// own GAP-flavoured direction threshold. Following SuiteSparse:GraphBLAS and
// GraphBLAST, the choice is now centralized:
//
//   OpDesc (shapes, nnz, frontier density, mask, semiring traits)
//     → make_plan() — cost model + Config overrides + caller hints
//       → ExecPlan (direction, operand formats)
//         → prepare() — explicit, counted operand conversions
//           → kernel — a pure executor that asserts its preconditions and
//             sizes its own team (team_size / chunk_parts) on the exact
//             work it sees.
//
// The unified traversal cost model (one formula replacing the per-algorithm
// magic constants in BFS/BC/msbfs):
//
//   d̄         = a_nvals / a_rows                   (mean degree)
//   push_cost = u_edges                            (edges scanned forward)
//   probe     = has_terminal ? min(d̄, a_nvals / u_edges) : d̄
//   pull_cost = kPullBias · pull_candidates · probe
//
// plus a fixed per-call overhead on both sides. push scans every edge
// leaving the frontier, and the caller counts them exactly (GAP's
// scout_count): on a power-law graph the frontier two hops out is mostly
// hubs, and |frontier| · d̄ would price it at a fraction of its edges. pull
// runs one dot product per candidate output, each costing ~d̄ probes —
// except under a terminal monoid (`any`, the BFS case), where a dot stops
// at the first frontier neighbour. A probed in-edge starts in the frontier
// with probability u_edges / a_nvals (edge endpoints are degree-biased), so
// the first hit comes after ~a_nvals / u_edges probes. kPullBias accounts
// for the constant-factor cost of probing over sequential scatter.
//
// Only traversal plans carry costs. An mxv/vxm direction is fixed by the op
// and its transpose descriptor, so those plans carry the pull probe's format
// and zero costs; mxm and eWise plans carry formats only.
//
// make_plan() is a pure function of its OpDesc and Config: every call plans
// from the operands in front of it, as each SuiteSparse kernel call does
// (the per-call choice its burble reports, paper §VI-A). So a span's plan
// and predicted cost always describe the op that ran.
#pragma once

#include <cstdint>

#include "grb/config.hpp"
#include "grb/parallel.hpp"
#include "grb/types.hpp"

namespace grb {
namespace plan {

/// Operation kinds the planner understands. `traversal` is the algorithm-
/// level push/pull choice (BFS levels, BC sweeps, msbfs groups); the rest
/// are the grb kernel entry points with a direction or format to fix. The
/// fused single-sweep entry points (grb::fused_mxv_apply,
/// grb::vxm_select_range) plan as the mxv/vxm they wrap.
enum class OpKind : std::uint8_t {
  mxv,
  vxm,
  mxm,
  ewise_add,
  ewise_mult,
  traversal,
};

enum class Direction : std::uint8_t { none, push, pull };

/// Requested matrix operand format. `keep` = leave as found.
enum class MatFormat : std::uint8_t { keep, csr, bitmap };

/// Requested vector operand format. `keep` = leave as found.
enum class VecFormat : std::uint8_t { keep, sparse, bitmap };

/// Who made the call — the per-decision outcome recorded in Stats.
enum class Chosen : std::uint8_t {
  cost_model,       // the cost model's own pick
  config_override,  // Config::force_push / force_pull / force_format
  caller_hint,      // an Advanced-mode algorithm forced it
};

const char *name(Direction d) noexcept;
const char *name(MatFormat f) noexcept;
const char *name(Chosen c) noexcept;

/// Everything the cost model may consult. Callers fill in what their op has;
/// unused fields stay zero and do not perturb the decision.
struct OpDesc {
  OpKind op = OpKind::mxv;
  Index a_rows = 0;      // primary matrix operand
  Index a_cols = 0;
  Index a_nvals = 0;
  Index u_edges = 0;     // traversal: edges leaving the frontier (push work)
  Index mask_nvals = 0;
  Index pull_candidates = 0;  // traversal: outputs a pull would compute
  int u_format = -1;     // eWise: Vector<T>::Format as int, -1 when n/a
  int v_format = -1;
  bool masked = false;
  bool mask_complement = false;
  bool mask_structural = false;
  bool transpose_a = false;
  bool transpose_b = false;
  bool has_terminal = false;      // additive monoid short-circuits (any/lor)
  bool operands_aliased = false;  // mxm: A and B are the same object
  bool has_transpose = false;     // traversal: a pull path exists
  Direction hint = Direction::none;  // Advanced-mode forced direction
};

/// The planner's decision. Kernels execute it verbatim and assert the
/// preconditions it promises (formats already converted by prepare()).
struct ExecPlan {
  Direction direction = Direction::none;
  MatFormat a_format = MatFormat::keep;
  MatFormat b_format = MatFormat::keep;
  MatFormat mask_format = MatFormat::keep;
  VecFormat u_format = VecFormat::keep;
  VecFormat v_format = VecFormat::keep;
  Chosen chosen = Chosen::cost_model;
  double cost_push = 0.0;  // traversal model estimates (0 for kernel plans)
  double cost_pull = 0.0;
  OpDesc desc;  // the inputs the decision was made from (spans read the mask)
};

/// Build a plan for `d`: apply caller hints and Config overrides, otherwise
/// run the cost model. Depends on nothing but `d` and config(); bumps the
/// Stats planner counters.
ExecPlan make_plan(const OpDesc &d);

/// Thread-team size for `total_work` units: the PR-2 gating rule
/// (effective_threads() when the work clears kParallelGrain, else the
/// bit-exact serial schedule), stated once here instead of inline in every
/// kernel.
inline int team_size(Index total_work) noexcept {
  const int t = detail::effective_threads();
  return (t > 1 && total_work >= detail::kParallelGrain) ? t : 1;
}

/// Chunk count for a chunked kernel loop: team size × an oversubscription
/// factor (nnz-imbalance headroom), or 1 when the serial schedule is pinned.
inline int chunk_parts(Index total_work, int oversub = 1) noexcept {
  const int t = team_size(total_work);
  return t > 1 ? t * oversub : 1;
}

/// Format for an iteratively-updated output vector (the BFS parent/level
/// vectors, SSSP's tentative distances): bitmap so per-round masked assigns
/// scatter in place, unless Config pins sparse.
VecFormat iterative_output_format(Index size) noexcept;

/// Triangle-counting presort decision (paper Alg. 6): permute by degree when
/// the sampled distribution is skewed.
bool tc_presort(double mean_degree, double median_degree) noexcept;

/// Default Δ for delta-stepping SSSP, scaled from the maximum edge weight
/// (the GAP benchmark's Δ = 2 on [1, 255] weights).
double sssp_default_delta(double max_weight) noexcept;

/// Apply a planned matrix conversion explicitly. This is the only sanctioned
/// way to change an operand's format on behalf of a kernel — it bumps
/// Stats::format_conversions so formerly-silent O(n) expansions (hypersparse
/// raw access, rowptr() before this refactor) show up in the counters.
template <typename Mat>
void prepare(const Mat &a, MatFormat f) {
  using F = typename Mat::Format;
  switch (f) {
    case MatFormat::keep:
      break;
    case MatFormat::csr:
      if (a.format() != F::csr) {
        stats().format_conversions.fetch_add(1, std::memory_order_relaxed);
        a.to_csr();
      }
      break;
    case MatFormat::bitmap:
      if (a.format() != F::bitmap) {
        stats().format_conversions.fetch_add(1, std::memory_order_relaxed);
        a.to_bitmap();
      }
      break;
  }
}

/// Apply a planned vector conversion explicitly (counted, as above).
template <typename Vec>
void prepare(const Vec &u, VecFormat f) {
  using F = typename Vec::Format;
  switch (f) {
    case VecFormat::keep:
      break;
    case VecFormat::sparse:
      if (u.format() != F::sparse) {
        stats().format_conversions.fetch_add(1, std::memory_order_relaxed);
        u.to_sparse();
      }
      break;
    case VecFormat::bitmap:
      if (u.format() != F::bitmap) {
        stats().format_conversions.fetch_add(1, std::memory_order_relaxed);
        u.to_bitmap();
      }
      break;
  }
}

}  // namespace plan
}  // namespace grb

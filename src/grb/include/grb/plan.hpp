// grb/plan.hpp — the execution planner: one cost model for format,
// direction, and thread-team dispatch across every layer.
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
//       → ExecPlan (direction, operand formats, thread-team size)
//         → prepare() — explicit, counted operand conversions
//           → kernel — a pure executor that asserts its preconditions.
//
// The unified traversal cost model (one formula replacing the per-algorithm
// magic constants in BFS/BC/msbfs):
//
//   d̄         = a_nvals / a_rows                   (mean degree)
//   push_cost = frontier_nvals · d̄                 (edges scanned forward)
//   probe     = has_terminal ? min(d̄, out_size / frontier_nvals) : d̄
//   pull_cost = kPullBias · pull_candidates · probe
//
// push scans every edge leaving the frontier; pull runs one dot product per
// candidate output, each costing ~d̄ probes — except under a terminal monoid
// (`any`, the BFS case), where a dot stops at the first frontier neighbour,
// after ~out_size/frontier_nvals probes on average. kPullBias accounts for
// the constant-factor cost of probing over sequential scatter.
//
// make_plan() is a pure function of its OpDesc and Config: every call plans
// from the operands in front of it, as each SuiteSparse kernel call does
// (the per-call choice its burble reports, paper §VI-A). So explain output
// and a span's predicted cost always describe the op that ran.
#pragma once

#include <cstdint>
#include <string>

#include "grb/config.hpp"
#include "grb/parallel.hpp"
#include "grb/types.hpp"

namespace grb {
namespace plan {

/// Operation kinds the planner understands. `traversal` is the algorithm-
/// level push/pull choice (BFS levels, BC sweeps, msbfs groups); the rest
/// are the grb kernel entry points. The fused single-sweep entry points
/// (grb::fused_mxv_apply, grb::vxm_select_range) plan as the mxv/vxm they
/// wrap.
enum class OpKind : std::uint8_t {
  mxv,
  vxm,
  mxm,
  ewise_add,
  ewise_mult,
  apply,
  reduce,
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

const char *name(OpKind k) noexcept;
const char *name(Direction d) noexcept;
const char *name(MatFormat f) noexcept;
const char *name(VecFormat f) noexcept;
const char *name(Chosen c) noexcept;

/// Everything the cost model may consult. Callers fill in what their op has;
/// unused fields stay zero and do not perturb the decision.
struct OpDesc {
  OpKind op = OpKind::mxv;
  Index out_size = 0;    // output cells (vector length, or ns·n for BC)
  Index a_rows = 0;      // primary matrix operand
  Index a_cols = 0;
  Index a_nvals = 0;
  Index u_nvals = 0;     // vector operand / frontier nnz
  Index v_nvals = 0;     // second vector operand (eWise)
  Index b_nvals = 0;     // second matrix operand (mxm)
  Index mask_nvals = 0;
  Index pull_candidates = 0;  // traversal: outputs a pull would compute
  IndexWidth a_width = IndexWidth::u64;  // primary operand's storage width
  IndexWidth b_width = IndexWidth::u64;  // second matrix operand (mxm)
  int u_format = -1;     // Vector<T>::Format as int, -1 when n/a
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
  OpKind op = OpKind::mxv;
  Direction direction = Direction::none;
  MatFormat a_format = MatFormat::keep;
  MatFormat b_format = MatFormat::keep;
  MatFormat mask_format = MatFormat::keep;
  VecFormat u_format = VecFormat::keep;
  VecFormat v_format = VecFormat::keep;
  bool use_dot = false;  // mxm: dot kernel instead of Gustavson
  int threads = 1;       // team-size cap (team_size() below)
  Chosen chosen = Chosen::cost_model;
  double cost_push = 0.0;  // model estimates (0 when not applicable)
  double cost_pull = 0.0;
  OpDesc desc;  // the inputs the decision was made from (for explain)

  /// Human-readable decision record — `lagraph_cli explain` output.
  [[nodiscard]] std::string explain() const;

  /// Compact one-line form of explain() — what per-request roll-ups and the
  /// slow-query log carry as the "plan summary".
  [[nodiscard]] std::string explain_line() const;
};

/// Build a plan for `d`: apply caller hints and Config overrides, otherwise
/// run the cost model. Depends on nothing but `d` and config(); bumps the
/// Stats planner counters.
ExecPlan make_plan(const OpDesc &d);

/// Fixed per-call overhead in cost-model units, charged on every kernel
/// dispatch. The calibration run (EXPERIMENTS.md §Observability) measured
/// single-vertex push frontiers ~6.8× under-estimated because the model
/// priced only the edge scan; dispatch + plan probe + write_result dominate
/// at that size. Both directions pay it, so large-frontier decisions are
/// unchanged.
inline constexpr double kCallOverheadUnits = 64.0;

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

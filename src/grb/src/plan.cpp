// grb/plan.cpp — cost model and overrides for the execution planner. See
// plan.hpp for the model; this file is the only place a push/pull threshold
// or format-switch constant lives.

#include "grb/plan.hpp"

#include <algorithm>

namespace grb {
namespace plan {

namespace {

/// Constant-factor bias of a pull-side probe over a push-side sequential
/// scatter (random access vs streaming). Calibrated on the BC backward
/// threshold, pull iff 2·|next level| < |W|, for W's entries reaching d̄
/// edges of Aᵀ each.
constexpr double kPullBias = 2.0;

/// Fixed per-level overhead in cost-model units, charged on both directions
/// of a traversal. Single-vertex push frontiers ran ~6.8× over a model that
/// priced only the edge scan, because dispatch and write_result dominate at
/// that size. Both directions pay it, so large-frontier decisions are
/// unchanged.
constexpr double kCallOverheadUnits = 64.0;

/// Degree-distribution skew at which the TC presort pays for itself
/// (paper Alg. 6: mean > 4 × median).
constexpr double kTcSkew = 4.0;

/// GAP uses Δ = 2 on [1, 255]-weighted graphs; scale to the actual max.
constexpr double kDeltaDivisor = 128.0;

double mean_degree(const OpDesc &d) noexcept {
  return d.a_rows > 0
             ? static_cast<double>(d.a_nvals) / static_cast<double>(d.a_rows)
             : 0.0;
}

bool bitmap_allowed() noexcept {
  return config().bitmap_switch_density <= 1.0 &&
         config().force_format != ForceFormat::sparse;
}

/// Resolve the traversal direction: cost model first, then Config overrides,
/// then the caller hint (an Advanced-mode algorithm's structural
/// requirement, which always wins). A pull is only ever chosen when the
/// caller reported a pull path (cached transpose) exists.
void decide_direction(const OpDesc &d, ExecPlan &p) {
  const double davg = mean_degree(d);
  p.cost_push = kCallOverheadUnits + static_cast<double>(d.u_edges);
  double probe = davg;
  if (d.has_terminal && d.u_edges > 0) {
    // Terminal monoid (`any`): a dot product stops at the first frontier
    // neighbour. A probed edge comes from the frontier with probability
    // u_edges / a_nvals, so the first hit is ~a_nvals / u_edges probes in.
    probe = std::min(davg, static_cast<double>(d.a_nvals) /
                               static_cast<double>(d.u_edges));
  }
  p.cost_pull = kCallOverheadUnits +
                kPullBias * static_cast<double>(d.pull_candidates) * probe;

  const Direction model = (d.has_transpose && p.cost_pull < p.cost_push)
                              ? Direction::pull
                              : Direction::push;
  Direction dir = model;
  Chosen chosen = Chosen::cost_model;
  if (config().force_pull && d.has_transpose) {
    dir = Direction::pull;
    chosen = Chosen::config_override;
  } else if (config().force_push) {
    dir = Direction::push;
    chosen = Chosen::config_override;
  }
  if (d.hint == Direction::push) {
    dir = Direction::push;
    chosen = Chosen::caller_hint;
  } else if (d.hint == Direction::pull) {
    dir = d.has_transpose ? Direction::pull : Direction::push;
    chosen = Chosen::caller_hint;
  }
  if (chosen != Chosen::cost_model && dir != model) {
    stats().plans_overridden.fetch_add(1, std::memory_order_relaxed);
  }
  p.direction = dir;
  p.chosen = chosen;
  if (dir == Direction::pull) {
    stats().plan_pull_decisions.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats().plan_push_decisions.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Vector format for the dot (pull) kernel's probed operand: bitmap gives
/// O(1) probes (§VI-A); the sparse fallback (binary search) is the format
/// ablation's reference path.
void decide_dot_operand(ExecPlan &p) {
  if (config().force_format == ForceFormat::bitmap) {
    p.u_format = VecFormat::bitmap;
    p.chosen = Chosen::config_override;
  } else if (config().force_format == ForceFormat::sparse) {
    p.u_format = VecFormat::sparse;
    p.chosen = Chosen::config_override;
  } else {
    p.u_format = bitmap_allowed() ? VecFormat::bitmap : VecFormat::sparse;
  }
}

void plan_mxv_vxm(const OpDesc &d, ExecPlan &p) {
  // Direction is structural here: (vxm, no transpose) and (mxv, transpose)
  // scatter — push; the other two run dot products — pull. The planner's
  // only choice is the probed operand's format; there is no cost to weigh.
  if ((d.op == OpKind::vxm) != d.transpose_a) {
    p.direction = Direction::push;
  } else {
    p.direction = Direction::pull;
    decide_dot_operand(p);
  }
}

void plan_mxm(const OpDesc &d, ExecPlan &p) {
  // A masked A ⊕.⊗ Bᵀ runs the dot kernel; everything else is Gustavson.
  const double cells = static_cast<double>(d.a_rows) *
                       static_cast<double>(d.a_cols);
  if (d.transpose_b && d.masked) {
    // A bitmap first operand turns each dot into O(|B row|) probes — worth
    // it when A is dense enough. Aliased operands (C⟨s(A)⟩ = A ⊕.⊗ Aᵀ)
    // must share one format, so the bitmap path is off.
    bool a_bitmap = !d.operands_aliased && bitmap_allowed() && cells > 0 &&
                    static_cast<double>(d.a_nvals) >
                        cells * std::max(0.125, config().bitmap_switch_density);
    if (config().force_format == ForceFormat::bitmap &&
        !d.operands_aliased) {
      a_bitmap = true;
      p.chosen = Chosen::config_override;
    } else if (config().force_format == ForceFormat::sparse) {
      a_bitmap = false;
      p.chosen = Chosen::config_override;
    }
    p.a_format = a_bitmap ? MatFormat::bitmap : MatFormat::csr;
    p.b_format = MatFormat::csr;
    p.direction = Direction::pull;
  } else {
    p.direction = Direction::push;  // Gustavson scatters row-at-a-time
  }
  if (d.masked) {
    // Dense or complemented masks are probed per candidate product: pay one
    // conversion for O(1) tests (the BC mask ¬s(P) grows dense).
    const bool dense_mask =
        cells > 0 && (d.mask_complement ||
                      static_cast<double>(d.mask_nvals) >
                          cells * config().bitmap_switch_density);
    if (config().force_format == ForceFormat::sparse) {
      p.mask_format = MatFormat::keep;
    } else if (dense_mask || config().force_format == ForceFormat::bitmap) {
      p.mask_format = MatFormat::bitmap;
    }
  }
}

void plan_ewise(const OpDesc &d, ExecPlan &p) {
  // Vector formats are encoded as ints in the desc (sparse=0, bitmap=1).
  // Matrix eWise walks its operands in whatever format they hold and plans
  // nothing.
  const bool u_bitmap = d.u_format == 1;
  const bool v_bitmap = d.v_format == 1;
  if (config().force_format == ForceFormat::sparse) {
    p.u_format = VecFormat::sparse;
    p.v_format = VecFormat::sparse;
    if (u_bitmap || v_bitmap) p.chosen = Chosen::config_override;
  } else if (config().force_format == ForceFormat::bitmap) {
    p.u_format = VecFormat::bitmap;
    p.v_format = VecFormat::bitmap;
    if (!u_bitmap || !v_bitmap) p.chosen = Chosen::config_override;
  } else if (d.op == OpKind::ewise_add && (u_bitmap || v_bitmap)) {
    // Union over mixed formats has no fast path: promote both to bitmap
    // and take the dense walk. Intersection keeps mixed formats — the
    // sparse-probes-bitmap path is O(nnz(sparse)).
    p.u_format = VecFormat::bitmap;
    p.v_format = VecFormat::bitmap;
  }
}

}  // namespace

const char *name(Direction d) noexcept {
  switch (d) {
    case Direction::none: return "n/a";
    case Direction::push: return "push";
    case Direction::pull: return "pull";
  }
  return "?";
}

const char *name(MatFormat f) noexcept {
  switch (f) {
    case MatFormat::keep: return "keep";
    case MatFormat::csr: return "csr";
    case MatFormat::bitmap: return "bitmap";
  }
  return "?";
}

const char *name(Chosen c) noexcept {
  switch (c) {
    case Chosen::cost_model: return "cost model";
    case Chosen::config_override: return "config override";
    case Chosen::caller_hint: return "caller hint";
  }
  return "?";
}

ExecPlan make_plan(const OpDesc &d) {
  stats().plans_built.fetch_add(1, std::memory_order_relaxed);
  ExecPlan p;
  p.desc = d;
  switch (d.op) {
    case OpKind::mxv:
    case OpKind::vxm:
      plan_mxv_vxm(d, p);
      break;
    case OpKind::mxm:
      plan_mxm(d, p);
      break;
    case OpKind::ewise_add:
    case OpKind::ewise_mult:
      plan_ewise(d, p);
      break;
    case OpKind::traversal:
      decide_direction(d, p);
      break;
  }
  return p;
}

VecFormat iterative_output_format(Index) noexcept {
  // Bitmap keeps per-round masked assigns O(|update|) instead of rebuilding
  // O(n) arrays (the BFS/SSSP hot loops); the sparse pin is the reference
  // path of the equivalence suite.
  return config().force_format == ForceFormat::sparse ? VecFormat::sparse
                                                      : VecFormat::bitmap;
}

bool tc_presort(double mean_deg, double median_deg) noexcept {
  return mean_deg > kTcSkew * median_deg;
}

double sssp_default_delta(double max_weight) noexcept {
  return std::max(1.0, max_weight / kDeltaDivisor);
}

}  // namespace plan
}  // namespace grb

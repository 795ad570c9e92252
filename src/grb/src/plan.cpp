// grb/plan.cpp — cost model and overrides for the execution planner. See
// plan.hpp for the model; this file is the only place a push/pull threshold
// or format-switch constant lives.

#include "grb/plan.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace grb {
namespace plan {

namespace {

/// Constant-factor bias of a pull-side probe over a push-side sequential
/// scatter (random access vs streaming). Calibrated so the unified model
/// reproduces the BC backward threshold (pull iff 2·|next level| < |W|).
constexpr double kPullBias = 2.0;

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

/// Bytes-moved factor for an edge visit on operand width `w`. The model's
/// units are edge visits; a visit streams one column index plus one 8-byte
/// value, so u32 storage moves 12 bytes where u64 moves 16 — charge 0.75.
/// Both directions of the same operand share the factor, so push/pull
/// crossovers only shift where the constant call overhead matters.
double width_byte_factor(IndexWidth w) noexcept {
  return w == IndexWidth::u32 ? 0.75 : 1.0;
}

bool bitmap_allowed() noexcept {
  return config().bitmap_switch_density <= 1.0 &&
         config().force_format != ForceFormat::sparse;
}

/// Resolve the traversal direction: cost model first, then Config overrides,
/// then the caller hint (an Advanced-mode algorithm's structural
/// requirement, which always wins). A pull is only ever chosen when the
/// caller reported a pull path (cached transpose) exists.
///
/// Both directions carry kCallOverheadUnits (calibration bias #2): a
/// single-vertex frontier was ~6.8× under-estimated because dispatch and
/// write_result dominate when the edge scan is one row. The same constant on
/// both sides leaves large-frontier decisions untouched.
void decide_direction(const OpDesc &d, ExecPlan &p) {
  const double davg = mean_degree(d);
  const double bytes = width_byte_factor(d.a_width);
  p.cost_push =
      kCallOverheadUnits + static_cast<double>(d.u_nvals) * davg * bytes;
  double probe = davg;
  if (d.has_terminal && d.u_nvals > 0) {
    // Terminal monoid (`any`): a dot product stops at the first frontier
    // neighbour, ~out_size/frontier probes in on average.
    probe = std::min(davg, static_cast<double>(d.out_size) /
                               static_cast<double>(d.u_nvals));
  }
  p.cost_pull =
      kCallOverheadUnits +
      kPullBias * static_cast<double>(d.pull_candidates) * probe * bytes;

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
    p.threads = team_size(static_cast<Index>(p.cost_pull));
  } else {
    stats().plan_push_decisions.fetch_add(1, std::memory_order_relaxed);
    p.threads = team_size(static_cast<Index>(p.cost_push));
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
  // job is the probed operand's format and the team size.
  const bool push = (d.op == OpKind::vxm) != d.transpose_a;
  const double davg = mean_degree(d);
  const double bytes = width_byte_factor(d.a_width);
  p.cost_push = kCallOverheadUnits +
                static_cast<double>(d.u_nvals) * std::max(1.0, davg) * bytes;
  // Early-exit-aware pull cost (calibration bias #1): a masked dot kernel
  // computes only the mask's candidate outputs, and a terminal additive
  // monoid stops each dot at its first frontier hit. The old model charged
  // the full matrix nnz — ~100× over what late BFS levels actually probe.
  double pull_units = static_cast<double>(d.a_nvals);
  if (d.masked) {
    const double candidates = static_cast<double>(
        d.mask_complement ? std::max<Index>(d.out_size - d.mask_nvals, 1)
                          : std::max<Index>(d.mask_nvals, 1));
    double probe = std::max(1.0, davg);
    if (d.has_terminal && d.u_nvals > 0) {
      probe = std::min(probe, static_cast<double>(d.out_size) /
                                  static_cast<double>(d.u_nvals));
    }
    pull_units = candidates * probe;
  }
  p.cost_pull = kCallOverheadUnits + pull_units * bytes;
  if (push) {
    p.direction = Direction::push;
    p.threads = team_size(static_cast<Index>(p.cost_push));
  } else {
    p.direction = Direction::pull;
    decide_dot_operand(p);
    p.threads = team_size(static_cast<Index>(pull_units));
  }
}

void plan_mxm(const OpDesc &d, ExecPlan &p) {
  p.use_dot = d.transpose_b && d.masked;
  const double cells = static_cast<double>(d.a_rows) *
                       static_cast<double>(d.a_cols);
  if (p.use_dot) {
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
  p.threads = team_size(d.a_nvals + d.b_nvals);
}

void plan_ewise(const OpDesc &d, ExecPlan &p) {
  // Vector formats are encoded as ints in the desc (sparse=0, bitmap=1,
  // -1 = matrix operands, nothing to decide).
  if (d.u_format >= 0) {
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
  p.direction = Direction::none;
  p.threads = team_size(d.u_nvals + d.v_nvals);
}

}  // namespace

const char *name(OpKind k) noexcept {
  switch (k) {
    case OpKind::mxv: return "mxv";
    case OpKind::vxm: return "vxm";
    case OpKind::mxm: return "mxm";
    case OpKind::ewise_add: return "ewise_add";
    case OpKind::ewise_mult: return "ewise_mult";
    case OpKind::apply: return "apply";
    case OpKind::reduce: return "reduce";
    case OpKind::traversal: return "traversal";
  }
  return "?";
}

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

const char *name(VecFormat f) noexcept {
  switch (f) {
    case VecFormat::keep: return "keep";
    case VecFormat::sparse: return "sparse";
    case VecFormat::bitmap: return "bitmap";
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
  p.op = d.op;
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
    case OpKind::apply:
    case OpKind::reduce:
      p.threads = team_size(std::max(d.a_nvals, d.u_nvals));
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

std::string ExecPlan::explain_line() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s dir=%s (%s) A %" PRIu64 "x%" PRIu64 " nnz=%" PRIu64
                " %s u=%" PRIu64 " t=%d cost push=%.0f pull=%.0f",
                name(op), name(direction), name(chosen),
                static_cast<std::uint64_t>(desc.a_rows),
                static_cast<std::uint64_t>(desc.a_cols),
                static_cast<std::uint64_t>(desc.a_nvals),
                index_width_name(desc.a_width),
                static_cast<std::uint64_t>(desc.u_nvals), threads, cost_push,
                cost_pull);
  return buf;
}

std::string ExecPlan::explain() const {
  char buf[640];
  std::string out;
  std::snprintf(buf, sizeof(buf), "plan %s: direction=%s (%s)\n", name(op),
                name(direction), name(chosen));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  inputs: A %" PRIu64 "x%" PRIu64 " nnz=%" PRIu64
      " (mean degree %.1f), frontier/u nnz=%" PRIu64 ", pull candidates=%"
      PRIu64 "\n",
      static_cast<std::uint64_t>(desc.a_rows),
      static_cast<std::uint64_t>(desc.a_cols),
      static_cast<std::uint64_t>(desc.a_nvals),
      desc.a_rows > 0 ? static_cast<double>(desc.a_nvals) /
                            static_cast<double>(desc.a_rows)
                      : 0.0,
      static_cast<std::uint64_t>(desc.u_nvals),
      static_cast<std::uint64_t>(desc.pull_candidates));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  storage: A index width=%s (%zu B/index, %.2fx edge-scan"
                " bytes)%s%s\n",
                index_width_name(desc.a_width),
                index_width_bytes(desc.a_width),
                width_byte_factor(desc.a_width),
                op == OpKind::mxm ? ", B index width=" : "",
                op == OpKind::mxm ? index_width_name(desc.b_width) : "");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  mask: %s%s%s, add monoid %s, pull path %s, hint %s\n",
                desc.masked ? "yes" : "none",
                desc.mask_complement ? " complemented" : "",
                desc.mask_structural ? " structural" : "",
                desc.has_terminal ? "terminal (early exit)" : "non-terminal",
                desc.has_transpose ? "available" : "unavailable",
                name(desc.hint));
  out += buf;
  if (cost_push > 0.0 || cost_pull > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "  model: push cost=%.0f edge scans, pull cost=%.0f probes"
                  " (bias %.1fx, call overhead %.0f)\n",
                  cost_push, cost_pull, kPullBias, kCallOverheadUnits);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  formats: A=%s B=%s mask=%s u=%s v=%s%s\n", name(a_format),
                name(b_format), name(mask_format), name(u_format),
                name(v_format), use_dot ? "  kernel=dot" : "");
  out += buf;
  std::snprintf(buf, sizeof(buf), "  threads: %d\n", threads);
  out += buf;
  return out;
}

}  // namespace plan
}  // namespace grb

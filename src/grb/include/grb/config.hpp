// grb/config.hpp — library-wide tunables and instrumentation counters.
//
// The paper's §VI-A discusses SuiteSparse-specific optimizations (bitmap
// format for pull steps, lazy sort under non-blocking mode). These knobs let
// the benchmark harness turn each one on and off to reproduce those ablations.
#pragma once

#include <atomic>
#include <cstdint>

#include "grb/types.hpp"

namespace grb {

/// Global operand-format override for the execution planner (grb/plan.hpp).
/// `sparse` pins CSR matrices / sorted-sparse vectors (the forced-serial-CSR
/// reference path of the equivalence suite); `bitmap` pins bitmap operands
/// wherever the kernels support them; `none` lets the cost model choose.
enum class ForceFormat : std::uint8_t { none, sparse, bitmap };

/// Global index-width override for container storage (grb/indexarray.hpp).
/// `auto_select` applies the 2^31 rule at build/finalize time; `u32`/`u64`
/// pin the storage width — forcing u32 on a container whose dimensions or
/// entry count exceed the u32 limit throws Info::index_out_of_bounds rather
/// than truncating.
enum class ForceIndexWidth : std::uint8_t { auto_select, u32, u64 };

inline const char *force_index_width_name(ForceIndexWidth w) noexcept {
  switch (w) {
    case ForceIndexWidth::u32: return "u32";
    case ForceIndexWidth::u64: return "u64";
    default: return "auto";
  }
}

struct Config {
  /// Density threshold (nvals/size) above which a vector auto-switches to the
  /// bitmap format. The bitmap format is what makes "pull" steps cheap
  /// (paper §VI-A); set to > 1.0 to disable bitmap switching entirely.
  double bitmap_switch_density = 1.0 / 16.0;

  /// Lazy sort ("jumbled" matrices, paper §VI-A): operations that produce
  /// rows in arbitrary column order leave them unsorted; the sort happens
  /// only when a consumer requires sorted rows. If disabled, producers sort
  /// eagerly.
  bool lazy_sort = true;

  /// Thread-count override for every parallel kernel. 0 = the OpenMP default
  /// (OMP_NUM_THREADS / hardware); 1 pins the bit-exact serial schedule
  /// (used by the determinism suite); N > 1 requests exactly N threads.
  /// See detail::effective_threads() in grb/parallel.hpp.
  int num_threads = 0;

  /// Planner overrides (grb/plan.hpp). force_push / force_pull pin the
  /// traversal direction wherever both kernels exist (a pull without a cached
  /// transpose still falls back to push); force_format pins operand formats.
  /// Overrides outrank the cost model but not an Advanced-mode caller hint,
  /// which encodes an algorithmic requirement rather than a preference.
  bool force_push = false;
  bool force_pull = false;
  ForceFormat force_format = ForceFormat::none;

  /// grb::trace sampling gate (grb/trace.hpp): 0 disables span recording
  /// entirely (the default — a ScopedSpan then costs one branch and touches
  /// no global state), 1 records every span, N records every Nth span per
  /// thread. Toggle at runtime between ops; changing it mid-kernel is
  /// harmless (each span consults it once, on entry).
  std::uint32_t trace_sample_every = 0;

  /// Storage index width (grb/indexarray.hpp). auto_select picks u32 when
  /// max(nrows, ncols, nvals) < u32_index_limit at build/finalize time and
  /// u64 otherwise; u32/u64 pin the width for every subsequent build. The
  /// conformance differ sweeps this knob to prove u32 and u64 storage are
  /// bit-identical.
  ForceIndexWidth force_index_width = ForceIndexWidth::auto_select;

  /// The auto-selection threshold. Defaults to grb::kU32IndexLimit (2^31);
  /// tests lower it so the u32→u64 promotion boundary can be exercised with
  /// tiny containers instead of two billion entries. Must never exceed
  /// kU32IndexLimit (values above it would let u32 storage overflow).
  Index u32_index_limit = kU32IndexLimit;

  /// Burble-style narration (SuiteSparse:GraphBLAS's diagnostic): one
  /// stderr line per algorithm iteration — BFS level, PageRank sweep,
  /// FastSV round — with frontier size, chosen direction, and duration.
  /// Independent of trace_sample_every: narration works with recording off.
  bool burble = false;
};

inline Config &config() {
  static Config c;
  return c;
}

/// Every instrumentation counter, in exposition order, as X(name). This one
/// list generates the StatsSnapshot fields, StatsSnapshot::for_each, the
/// Stats atomics, Stats::snapshot() and Stats::reset(), so the five cannot
/// drift apart. The names are a public surface: the service's
/// `grb_stats{counter=...}` exposition, `lagraph_cli stats --json` and the
/// engine benchmark read them. Append new counters; never reorder.
#define GRB_STATS_COUNTERS(X)                                                \
  X(row_sorts)       /* deferred sorts performed */                         \
  X(eager_sorts)     /* eager sorts performed */                            \
  X(pending_flushes) /* pending-tuple merges */                             \
  X(format_switches) /* vector format conversions */                        \
  /* Index-width transitions (grb/indexarray.hpp): u64→u32 compressions at \
     build/finalize time, u32→u64 promotions when a rebuild or mutation    \
     merge pushes a container past the u32 limit. */                        \
  X(index_width_compressions)                                               \
  X(index_width_promotions)                                                 \
  /* Service layer (lagraph::service): container freezes and batching. */   \
  X(finalize_calls)  /* Matrix/Vector finalize() */                         \
  X(snapshot_builds) /* GraphSnapshot::build */                             \
  X(batched_queries) /* queries merged into a batch */                      \
  X(solo_queries)    /* queries run one-at-a-time */                        \
  X(batch_sweeps)    /* msbfs sweeps issued */                              \
  /* Parallel kernels (grb/parallel.hpp): push/pull mix, OpenMP teams      \
     forked, and work chunks run off their round-robin home. */             \
  X(push_calls)        /* saxpy (vxm-style) kernels */                      \
  X(pull_calls)        /* dot (mxv-style) kernels */                        \
  X(parallel_regions)  /* OpenMP teams forked */                            \
  X(work_items_stolen) /* chunks run off-home */                            \
  /* Execution planner (grb/plan.hpp). plans_cached is never incremented   \
     (every plan is built fresh); it stays because the engine benchmark    \
     reports it per probe kind. */                                          \
  X(plans_built)         /* cost model evaluated */                         \
  X(plans_cached)        /* always 0, see above */                          \
  X(plans_overridden)    /* hint/override decided */                        \
  X(plan_push_decisions) /* plans choosing push */                          \
  X(plan_pull_decisions) /* plans choosing pull */                          \
  X(format_conversions)  /* planner-driven converts */                      \
  X(fused_dispatches)    /* fused single-sweep kernel ran */                \
  /* Ingest (lagraph::ingest): mutation commands accepted, writer drains,  \
     snapshot publications, retired snapshots reclaimed after grace. */     \
  X(edges_ingested)                                                         \
  X(ingest_batches)                                                         \
  X(epochs_published)                                                       \
  X(snapshots_reclaimed)

/// Plain-value copy of the Stats counters at one instant. Readers (CLI JSON
/// dumps, the service Prometheus exposition, bench reports) should take a
/// snapshot() instead of touching the hot atomics field-by-field: each
/// counter is loaded exactly once, so a report can't show the same counter
/// with two different values.
struct StatsSnapshot {
#define GRB_STATS_FIELD(name) std::uint64_t name = 0;
  GRB_STATS_COUNTERS(GRB_STATS_FIELD)
#undef GRB_STATS_FIELD

  /// Visit every counter as (name, value), in declaration order — what
  /// serializers (lagraph_cli stats JSON, the service /metrics exposition)
  /// iterate.
  template <typename F>
  void for_each(F &&f) const {
#define GRB_STATS_VISIT(name) f(#name, name);
    GRB_STATS_COUNTERS(GRB_STATS_VISIT)
#undef GRB_STATS_VISIT
  }
};

/// Instrumentation counters, cheap enough to leave always-on. Used by the
/// ablation benchmarks to show, e.g., that the BFS/BC pipelines never pay for
/// a sort when lazy sort is enabled ("if the sort is lazy enough, it might
/// never occur").
struct Stats {
#define GRB_STATS_ATOMIC(name) std::atomic<std::uint64_t> name{0};
  GRB_STATS_COUNTERS(GRB_STATS_ATOMIC)
#undef GRB_STATS_ATOMIC

  /// Race-free value copy: every counter loaded exactly once (relaxed).
  /// The set is not a consistent cut across counters — increments land
  /// between loads — but each value is a real observed count, and repeated
  /// reads of the snapshot are stable. This is what serializers and
  /// concurrent readers (the service engine may be running) must use.
  [[nodiscard]] StatsSnapshot snapshot() const noexcept {
    StatsSnapshot s;
#define GRB_STATS_LOAD(name) s.name = name.load(std::memory_order_relaxed);
    GRB_STATS_COUNTERS(GRB_STATS_LOAD)
#undef GRB_STATS_LOAD
    return s;
  }

  /// Zero every counter. NOT safe concurrently with running kernels or a
  /// live service engine: the stores race member-by-member with in-flight
  /// fetch_adds, so some increments survive the reset and others vanish —
  /// the resulting mix never corresponds to any real instant. Quiesce all
  /// workers (Engine::stop(), join benches) before calling; concurrent
  /// *readers* should use snapshot() and never reset().
  void reset() noexcept {
#define GRB_STATS_ZERO(name) name = 0;
    GRB_STATS_COUNTERS(GRB_STATS_ZERO)
#undef GRB_STATS_ZERO
  }
};

inline Stats &stats() {
  static Stats s;
  return s;
}

}  // namespace grb

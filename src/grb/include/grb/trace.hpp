// grb/trace.hpp — per-op span tracing, latency histograms, burble narration,
// and plan-vs-actual calibration.
//
// SuiteSparse:GraphBLAS answers "why was this fast?" with its burble
// diagnostic; GraphBLAST's direction-optimization analysis needed
// per-iteration instrumentation, not end-to-end timers. This header is our
// equivalent observability layer, sitting directly on top of grb::plan:
//
//   ScopedSpan (RAII, in every kernel entry point and algorithm iteration)
//     → per-thread ring buffer of plain Spans
//       → collect() / write_chrome_trace()   (Perfetto-inspectable JSON)
//       → op_histogram()                     (log₂ latency buckets, p50/95/99)
//       → calibrate()                        (rank cost-model mispredictions)
//
// Each span records the op kind, the direction/format its ExecPlan chose,
// input/output nnz, mask kind, wall-time ns, and — for the traversal levels
// whose direction a cost decided — the plan's *predicted* cost, so the
// calibration report can compare what the cost model promised against what
// the level actually took. Kernel plans weigh no cost and record 0.
//
// Threading contract:
//   - recording is allocation-free after a thread's first recorded span:
//     each thread owns a fixed-capacity ring of Spans behind its own mutex,
//     which only collect() and reset() ever contend for, briefly (a registry
//     mutex is taken only on a thread's *first* recorded span, to lease a
//     ring);
//   - collect() may run concurrently with writers: it copies each ring under
//     that ring's mutex, so a span is never torn;
//   - when tracing is disabled (Config::trace_sample_every == 0, the
//     default), a ScopedSpan is one branch and touches no global state — no
//     ring is ever leased, nothing allocates.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "grb/config.hpp"
#include "grb/plan.hpp"

namespace grb {
namespace trace {

/// What a span measured. The first group mirrors the kernel entry points;
/// the second group is one algorithm iteration (a BFS level, a PageRank
/// sweep, ...) — the unit of burble narration; `query` wraps one
/// lagraph::service request.
enum class SpanKind : std::uint8_t {
  // kernel entry points
  mxv,
  vxm,
  mxm,
  mxm_reduce,
  ewise_add,
  ewise_mult,
  apply,
  select,
  reduce,
  transpose,
  build,
  fused_mxv_apply,
  fused_vxm_select,
  // algorithm iterations
  bfs_level,
  bc_forward,
  bc_backward,
  pr_iter,
  sssp_bucket,
  tc_phase,
  cc_iter,
  msbfs_level,
  // service
  query,
};

inline constexpr int kNumSpanKinds = static_cast<int>(SpanKind::query) + 1;

const char *name(SpanKind k) noexcept;

/// Iteration-level kinds get burble narration; kernel kinds stay silent.
inline constexpr bool is_iteration(SpanKind k) noexcept {
  return k >= SpanKind::bfs_level && k <= SpanKind::msbfs_level;
}

/// Span::mask bit set (0 = unmasked).
inline constexpr std::uint8_t kMaskValued = 1;
inline constexpr std::uint8_t kMaskStructural = 2;
inline constexpr std::uint8_t kMaskComplement = 4;

/// One recorded event. Plain data: the ring slots hold Spans as they are.
struct Span {
  SpanKind kind = SpanKind::mxv;
  std::uint8_t direction = 0;  // plan::Direction
  std::uint8_t a_format = 0;   // plan::MatFormat of the matrix operand
  std::uint8_t mask = 0;       // kMask* bits
  std::uint8_t chosen = 0;     // plan::Chosen — who made the call
  bool planned = false;        // set_plan ran: `chosen` describes a decision
  std::uint16_t depth = 0;     // nesting depth on the recording thread
  std::uint32_t tid = 0;       // ring id (stable per thread lease)
  std::uint32_t batch_members = 0;  // sweep width when the request batched
  std::int64_t iter = -1;      // iteration / level number, -1 when n/a
  std::uint64_t t0_ns = 0;     // steady-clock start
  std::uint64_t dur_ns = 0;
  std::uint64_t in_nvals = 0;   // frontier / input nnz
  std::uint64_t out_nvals = 0;  // result nnz
  std::uint64_t request_id = 0;  // owning service request (0 = none)
  double predicted_cost = 0.0;  // traversal plans: estimate for the chosen path
  double extra = 0.0;  // per-kind payload (PR norm, CC changed, traversal
                       // levels: the frontier's edge count the push is
                       // priced from, ...)
};

/// Spans each per-thread ring retains; older spans are overwritten (the
/// histograms keep aggregate totals regardless).
inline constexpr std::size_t kRingCapacity = 4096;

namespace detail {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The sampling gate: 0 = off, 1 = every span, N = every Nth span per
/// thread. Inline so the disabled path costs one compare.
inline bool should_sample(std::uint32_t every) noexcept {
  if (every == 0) return false;
  if (every == 1) return true;
  thread_local std::uint32_t tick = 0;
  return (tick++ % every) == 0;
}

}  // namespace detail

/// Log₂-bucketed latency histogram: bucket b counts durations in
/// [2^b, 2^(b+1)) ns, so percentiles come from a fixed 48-slot array of
/// relaxed counters — recordable from any thread with no lock, readable
/// live with bounded skew.
class Histogram {
 public:
  static constexpr int kBuckets = 48;  // 2^47 ns ≈ 39 hours; plenty

  void record(std::uint64_t ns) noexcept {
    int b = 0;  // floor(log₂ ns), clamped: bucket b covers [2^b, 2^(b+1))
    for (std::uint64_t v = ns; v > 1 && b < kBuckets - 1; v >>= 1) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum_ns() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(int b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket b in ns.
  [[nodiscard]] static std::uint64_t bucket_upper_ns(int b) noexcept {
    return b + 1 >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (b + 1)) - 1);
  }

  /// Approximate percentile (p in [0, 100]): linear interpolation inside the
  /// bucket where the cumulative count crosses p. 0 when empty.
  [[nodiscard]] double percentile_ns(double p) const noexcept;

  /// Not thread-safe against concurrent record(); callers must quiesce
  /// writers first (same contract as Stats::reset()).
  void reset() noexcept {
    for (auto &b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Global latency histogram for one op kind; fed automatically whenever a
/// span of that kind is recorded.
Histogram &op_histogram(SpanKind k) noexcept;

/// Request-id propagation: a service worker installs the owning request's
/// id thread-locally for the duration of one query execution, and every
/// span recorded on that thread while the scope is active is stamped with
/// it (Span::request_id / Span::batch_members). Scopes nest (the previous
/// id is restored on destruction); kernels never call this — only the
/// layer that owns request identity does. `members` is the batch width a
/// merged MS-BFS sweep serves (1 for a solo query).
class RequestScope {
 public:
  RequestScope(std::uint64_t id, std::uint32_t members = 1) noexcept;
  ~RequestScope();
  RequestScope(const RequestScope &) = delete;
  RequestScope &operator=(const RequestScope &) = delete;

  /// Spans recorded on this thread since the scope opened.
  [[nodiscard]] std::uint64_t spans_recorded() const noexcept;

 private:
  std::uint64_t prev_id_;
  std::uint32_t prev_members_;
  std::uint64_t count_at_open_;
};

/// The id the current thread's spans are being stamped with (0 = none).
std::uint64_t current_request_id() noexcept;

/// RAII measurement scope. Construct at the top of a kernel entry point or
/// around one algorithm iteration, fill in what the op knows, and the
/// destructor records the span (and prints the burble line for iteration
/// kinds when Config::burble is set).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind k) noexcept {
    const Config &cfg = config();
    record_ = detail::should_sample(cfg.trace_sample_every);
    burble_ = cfg.burble && is_iteration(k);
    if (record_ || burble_) begin(k);
  }
  ~ScopedSpan() {
    if (record_ || burble_) end();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  [[nodiscard]] bool active() const noexcept { return record_ || burble_; }

  /// Copy the decision out of an ExecPlan: direction, matrix format, who
  /// chose, mask kind, and the predicted cost of the direction it chose
  /// (0 unless a traversal cost model made the choice).
  void set_plan(const plan::ExecPlan &pl) noexcept {
    if (!active()) return;
    s_.direction = static_cast<std::uint8_t>(pl.direction);
    s_.a_format = static_cast<std::uint8_t>(pl.a_format);
    s_.chosen = static_cast<std::uint8_t>(pl.chosen);
    s_.planned = true;
    if (pl.desc.masked) {
      s_.mask = pl.desc.mask_structural ? kMaskStructural : kMaskValued;
      if (pl.desc.mask_complement) s_.mask |= kMaskComplement;
    }
    s_.predicted_cost =
        pl.direction == plan::Direction::pull ? pl.cost_pull : pl.cost_push;
  }

  void set_in_nvals(std::uint64_t n) noexcept {
    if (active()) s_.in_nvals = n;
  }
  void set_out_nvals(std::uint64_t n) noexcept {
    if (active()) s_.out_nvals = n;
  }
  void set_iter(std::int64_t i) noexcept {
    if (active()) s_.iter = i;
  }
  void set_extra(double x) noexcept {
    if (active()) s_.extra = x;
  }
  void set_direction(plan::Direction d) noexcept {
    if (active()) s_.direction = static_cast<std::uint8_t>(d);
  }

 private:
  void begin(SpanKind k) noexcept;  // trace.cpp: clock + depth bookkeeping
  void end() noexcept;              // trace.cpp: record + histogram + burble

  Span s_{};
  bool record_ = false;
  bool burble_ = false;
};

/// Snapshot every ring: spans not yet overwritten and not discarded by
/// reset(), sorted by start time. Safe concurrently with writers (each ring
/// is copied under its own mutex).
std::vector<Span> collect();

/// Discard all collected-so-far spans (ring tails jump to heads) and zero
/// the per-op histograms. Safe concurrently with writers; histogram counts
/// are exact only once writers quiesce.
void reset();

/// Number of per-thread rings ever leased — observable proof that disabled
/// tracing allocates nothing (see tests).
std::size_t ring_count() noexcept;

/// Chrome trace-event JSON ("traceEvents" array of complete "X" events,
/// timestamps µs relative to the earliest span) — loadable in Perfetto /
/// chrome://tracing. Iteration spans carry args.frontier + args.direction;
/// kernel spans carry nnz, direction and mask. Only decisions that were
/// made are exported: `chosen` when the span's op built a plan, `format`
/// when that plan fixed a matrix format. Every span carries its predicted
/// cost (0 unless a traversal cost model chose) and `extra`.
void write_chrome_trace(std::ostream &os, const std::vector<Span> &spans);

/// One plan-vs-actual comparison row: ratio > 1 means the op ran slower
/// than the fitted model predicted, < 1 faster.
struct CalibrationRow {
  SpanKind kind = SpanKind::mxv;
  std::uint8_t direction = 0;
  std::int64_t iter = -1;
  std::uint64_t in_nvals = 0;
  double predicted = 0.0;
  std::uint64_t actual_ns = 0;
  double ratio = 1.0;
};

/// Cost-model calibration over a span set: fits one global ns-per-cost-unit
/// scale (median of actual/predicted over spans that carried a prediction —
/// the BFS, BC and msbfs levels whose direction the traversal model chose)
/// plus per-direction scales, computes the p95 of |log₂ ratio| — the
/// headline model-accuracy number the planner-loop work is gated on — and
/// ranks spans by |log₂ ratio|, the worst mispredictions first.
struct CalibrationReport {
  double ns_per_cost = 0.0;
  double push_ns_per_cost = 0.0;  // 0 when no push-direction samples
  double pull_ns_per_cost = 0.0;  // 0 when no pull-direction samples
  double p95_abs_log2 = 0.0;      // p95 of |log2(actual/model)| over samples
  std::size_t samples = 0;
  std::vector<CalibrationRow> worst;
  [[nodiscard]] std::string text() const;
};

CalibrationReport calibrate(const std::vector<Span> &spans,
                            std::size_t top_n = 12);

/// Prometheus text exposition for one histogram: cumulative `le` buckets in
/// seconds plus _sum and _count, with `labels` (e.g. `kind="bfs"`) spliced
/// into every sample. Set `with_type_header` on the first series of a
/// metric family only — the exposition format requires `# HELP` / `# TYPE`
/// exactly once per family, before any of its samples. `help` is the HELP
/// text emitted alongside the TYPE line (nullptr = a generic one).
void write_prometheus_histogram(std::ostream &os, const std::string &metric,
                                const std::string &labels, const Histogram &h,
                                bool with_type_header,
                                const char *help = nullptr);

/// Escape a Prometheus label *value* per the text exposition format:
/// backslash, double-quote, and newline become \\, \", and \n.
std::string prometheus_escape_label(const std::string &value);

/// Convenience: `name="escaped-value"`.
std::string prometheus_label(const char *label_name, const std::string &value);

}  // namespace trace
}  // namespace grb

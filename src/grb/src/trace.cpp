// grb/src/trace.cpp — span rings, chrome export, calibration, burble.
//
// The ring design: each ring is a fixed array of plain Spans plus a head
// (spans ever recorded) and a tail (the first span not discarded by
// reset()), all guarded by the ring's own mutex. Its one writer, the owning
// thread, takes the mutex per span; collect() and reset() take it once per
// ring. So the mutex is uncontended except while a collector copies that
// ring, and a span is never torn. Rings are leased from a process-global
// registry on a thread's first recorded span and returned to a free list at
// thread exit, so short-lived threads (test stress loops, service workers)
// reuse rings instead of growing the registry without bound. The registry
// itself is deliberately leaked: a detached thread may record during static
// destruction.

#include "grb/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

namespace grb {
namespace trace {

const char *name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::mxv: return "mxv";
    case SpanKind::vxm: return "vxm";
    case SpanKind::mxm: return "mxm";
    case SpanKind::mxm_reduce: return "mxm_reduce";
    case SpanKind::ewise_add: return "ewise_add";
    case SpanKind::ewise_mult: return "ewise_mult";
    case SpanKind::apply: return "apply";
    case SpanKind::select: return "select";
    case SpanKind::reduce: return "reduce";
    case SpanKind::transpose: return "transpose";
    case SpanKind::build: return "build";
    case SpanKind::fused_mxv_apply: return "fused_mxv_apply";
    case SpanKind::fused_vxm_select: return "fused_vxm_select";
    case SpanKind::bfs_level: return "bfs_level";
    case SpanKind::bc_forward: return "bc_forward";
    case SpanKind::bc_backward: return "bc_backward";
    case SpanKind::pr_iter: return "pr_iter";
    case SpanKind::sssp_bucket: return "sssp_bucket";
    case SpanKind::tc_phase: return "tc_phase";
    case SpanKind::cc_iter: return "cc_iter";
    case SpanKind::msbfs_level: return "msbfs_level";
    case SpanKind::query: return "query";
  }
  return "?";
}

double Histogram::percentile_ns(double p) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const double target = (p / 100.0) * static_cast<double>(n);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = bucket(b);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double lo = b == 0 ? 0.0 : static_cast<double>(std::uint64_t{1} << b);
      const double hi = static_cast<double>(bucket_upper_ns(b)) + 1.0;
      const double frac =
          std::min(1.0, std::max(0.0, (target - static_cast<double>(cum)) /
                                          static_cast<double>(c)));
      return lo + frac * (hi - lo);
    }
    cum += c;
  }
  return static_cast<double>(bucket_upper_ns(kBuckets - 1));
}

namespace {

Histogram g_op_hist[kNumSpanKinds];

/// Thread-local request tag (see RequestScope). Plain thread_local data:
/// only the owning thread reads or writes it, spans copy it at begin().
struct RequestTag {
  std::uint64_t id = 0;
  std::uint32_t members = 0;
  std::uint64_t recorded = 0;  // spans recorded on this thread, ever
};

RequestTag &request_tag() noexcept {
  thread_local RequestTag tag;
  return tag;
}

struct Ring {
  explicit Ring(std::uint32_t id)
      : slots(std::make_unique<Span[]>(kRingCapacity)), tid(id) {}
  std::mutex mu;
  std::unique_ptr<Span[]> slots;  // span id k lives in slots[k % capacity]
  std::uint64_t head = 0;         // spans ever recorded
  std::uint64_t tail = 0;         // first span id not discarded by reset()
  const std::uint32_t tid;
};

/// Mutex-guarded ring registry. The mutex is off the hot path: a recording
/// thread touches it once, on its first span ever.
class Registry {
 public:
  Ring *acquire() {
    std::lock_guard<std::mutex> lk(mu_);
    if (!free_.empty()) {
      Ring *r = free_.back();
      free_.pop_back();
      return r;
    }
    rings_.push_back(
        std::make_unique<Ring>(static_cast<std::uint32_t>(rings_.size())));
    return rings_.back().get();
  }

  void release(Ring *r) {
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(r);  // ring stays in rings_ for collection
  }

  std::vector<Ring *> all() {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Ring *> out;
    out.reserve(rings_.size());
    for (auto &r : rings_) out.push_back(r.get());
    return out;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lk(mu_);
    return rings_.size();
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::vector<Ring *> free_;
};

Registry &registry() {
  static Registry *g = new Registry;  // leaked: threads may outlive statics
  return *g;
}

struct RingLease {
  Ring *ring = nullptr;
  ~RingLease() {
    if (ring != nullptr) registry().release(ring);
  }
};

Ring &my_ring() {
  thread_local RingLease lease;
  if (lease.ring == nullptr) lease.ring = registry().acquire();
  return *lease.ring;
}

int &depth_counter() noexcept {
  thread_local int depth = 0;
  return depth;
}

void record(const Span &s) {
  Ring &r = my_ring();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    r.slots[r.head % kRingCapacity] = s;
    ++r.head;
  }
  ++request_tag().recorded;
}

/// One burble line per algorithm iteration, SuiteSparse-style: what ran,
/// how big the frontier was, which direction the planner chose, how long it
/// took. Kept on stderr so algorithm stdout (CLI JSON) stays machine-clean.
void narrate(const Span &s) {
  const double ms = static_cast<double>(s.dur_ns) / 1e6;
  char buf[256];
  switch (s.kind) {
    case SpanKind::bfs_level:
    case SpanKind::msbfs_level:
    case SpanKind::bc_forward:
    case SpanKind::bc_backward:
      std::snprintf(buf, sizeof(buf),
                    "%s %" PRId64 ": frontier %" PRIu64 ", dir %s, out %" PRIu64
                    ", %.3f ms",
                    name(s.kind), s.iter, s.in_nvals,
                    plan::name(static_cast<plan::Direction>(s.direction)),
                    s.out_nvals, ms);
      break;
    case SpanKind::pr_iter:
      std::snprintf(buf, sizeof(buf),
                    "pr_iter %" PRId64 ": rdiff %.3e, %.3f ms", s.iter, s.extra,
                    ms);
      break;
    case SpanKind::cc_iter:
      std::snprintf(buf, sizeof(buf),
                    "cc_iter %" PRId64 ": changed %.0f, %.3f ms", s.iter,
                    s.extra, ms);
      break;
    case SpanKind::sssp_bucket:
      std::snprintf(buf, sizeof(buf),
                    "sssp_bucket %" PRId64 ": size %" PRIu64 ", relaxations %.0f"
                    ", %.3f ms",
                    s.iter, s.in_nvals, s.extra, ms);
      break;
    case SpanKind::tc_phase:
      std::snprintf(buf, sizeof(buf),
                    "tc_phase %" PRId64 ": nnz %" PRIu64 ", %.3f ms", s.iter,
                    s.in_nvals, ms);
      break;
    default:
      std::snprintf(buf, sizeof(buf),
                    "%s %" PRId64 ": in %" PRIu64 ", out %" PRIu64 ", %.3f ms",
                    name(s.kind), s.iter, s.in_nvals, s.out_nvals, ms);
      break;
  }
  std::fprintf(stderr, "[burble] %s\n", buf);
}

}  // namespace

Histogram &op_histogram(SpanKind k) noexcept {
  return g_op_hist[static_cast<int>(k)];
}

RequestScope::RequestScope(std::uint64_t id, std::uint32_t members) noexcept {
  RequestTag &tag = request_tag();
  prev_id_ = tag.id;
  prev_members_ = tag.members;
  count_at_open_ = tag.recorded;
  tag.id = id;
  tag.members = members;
}

RequestScope::~RequestScope() {
  RequestTag &tag = request_tag();
  tag.id = prev_id_;
  tag.members = prev_members_;
}

std::uint64_t RequestScope::spans_recorded() const noexcept {
  return request_tag().recorded - count_at_open_;
}

std::uint64_t current_request_id() noexcept { return request_tag().id; }

void ScopedSpan::begin(SpanKind k) noexcept {
  s_.kind = k;
  s_.depth = static_cast<std::uint16_t>(depth_counter()++);
  const RequestTag &tag = request_tag();
  s_.request_id = tag.id;
  s_.batch_members = tag.members;
  s_.t0_ns = detail::now_ns();
}

void ScopedSpan::end() noexcept {
  s_.dur_ns = detail::now_ns() - s_.t0_ns;
  --depth_counter();
  if (record_) {
    record(s_);
    op_histogram(s_.kind).record(s_.dur_ns);
  }
  if (burble_) narrate(s_);
}

std::vector<Span> collect() {
  std::vector<Span> out;
  for (Ring *r : registry().all()) {
    std::lock_guard<std::mutex> lk(r->mu);
    const std::uint64_t lo = std::max(
        r->tail, r->head > kRingCapacity ? r->head - kRingCapacity : 0);
    for (std::uint64_t id = lo; id < r->head; ++id) {
      out.push_back(r->slots[id % kRingCapacity]);
      out.back().tid = r->tid;
    }
  }
  std::sort(out.begin(), out.end(), [](const Span &a, const Span &b) {
    return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns
                              : a.dur_ns > b.dur_ns;  // parents before children
  });
  return out;
}

void reset() {
  for (Ring *r : registry().all()) {
    std::lock_guard<std::mutex> lk(r->mu);
    r->tail = r->head;
  }
  for (auto &h : g_op_hist) h.reset();
}

std::size_t ring_count() noexcept { return registry().size(); }

void write_chrome_trace(std::ostream &os, const std::vector<Span> &spans) {
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const Span &s : spans) t0 = std::min(t0, s.t0_ns);
  if (spans.empty()) t0 = 0;
  os << "{\"traceEvents\":[";
  bool first = true;
  char num[96];
  for (const Span &s : spans) {
    if (!first) os << ",\n";
    first = false;
    const double ts = static_cast<double>(s.t0_ns - t0) / 1e3;
    const double dur = static_cast<double>(s.dur_ns) / 1e3;
    os << "{\"name\":\"" << name(s.kind) << "\",\"cat\":\""
       << (is_iteration(s.kind)
               ? "algorithm"
               : (s.kind == SpanKind::query ? "service" : "kernel"))
       << "\",\"ph\":\"X\"";
    std::snprintf(num, sizeof(num), ",\"ts\":%.3f,\"dur\":%.3f", ts, dur);
    os << num << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{";
    os << "\"" << (is_iteration(s.kind) ? "frontier" : "in_nvals")
       << "\":" << s.in_nvals << ",\"out_nvals\":" << s.out_nvals
       << ",\"direction\":\""
       << plan::name(static_cast<plan::Direction>(s.direction)) << "\"";
    const auto fmt = static_cast<plan::MatFormat>(s.a_format);
    if (fmt != plan::MatFormat::keep) {
      os << ",\"format\":\"" << plan::name(fmt) << "\"";
    }
    if (s.planned) {
      os << ",\"chosen\":\""
         << plan::name(static_cast<plan::Chosen>(s.chosen)) << "\"";
    }
    os << ",\"depth\":" << s.depth
       << ",\"iter\":" << s.iter << ",\"mask\":" << static_cast<int>(s.mask)
       << ",\"request_id\":" << s.request_id
       << ",\"batch_members\":" << s.batch_members;
    // %.10g keeps integral costs and edge counts exact below 10^10.
    std::snprintf(num, sizeof(num), ",\"predicted_cost\":%.10g,\"extra\":%.10g",
                  s.predicted_cost, s.extra);
    os << num << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

CalibrationReport calibrate(const std::vector<Span> &spans,
                            std::size_t top_n) {
  CalibrationReport rep;
  // Only spans that carried a model estimate participate — the traversal
  // levels whose direction the cost model weighed; a fresh process may
  // legitimately have none (tracing off, or no traversal ran).
  std::vector<const Span *> have;
  std::vector<double> scales;
  for (const Span &s : spans) {
    if (s.predicted_cost > 0.0 && s.dur_ns > 0) {
      have.push_back(&s);
      scales.push_back(static_cast<double>(s.dur_ns) / s.predicted_cost);
    }
  }
  rep.samples = have.size();
  if (have.empty()) return rep;
  std::nth_element(scales.begin(), scales.begin() + scales.size() / 2,
                   scales.end());
  rep.ns_per_cost = scales[scales.size() / 2];

  // Per-direction fits: push and pull levels have different unit costs
  // (streaming scatter vs random probe), so each gets its own coefficient.
  // Median again — robust to the tail this report exists to expose.
  const auto median_of = [](std::vector<double> &v) {
    if (v.empty()) return 0.0;
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  std::vector<double> push_scales, pull_scales;
  for (const Span *s : have) {
    const double scale = static_cast<double>(s->dur_ns) / s->predicted_cost;
    if (static_cast<plan::Direction>(s->direction) == plan::Direction::pull)
      pull_scales.push_back(scale);
    else
      push_scales.push_back(scale);
  }
  rep.push_ns_per_cost = median_of(push_scales);
  rep.pull_ns_per_cost = median_of(pull_scales);

  rep.worst.reserve(have.size());
  for (const Span *s : have) {
    CalibrationRow row;
    row.kind = s->kind;
    row.direction = s->direction;
    row.iter = s->iter;
    row.in_nvals = s->in_nvals;
    row.predicted = s->predicted_cost;
    row.actual_ns = s->dur_ns;
    row.ratio = static_cast<double>(s->dur_ns) /
                (rep.ns_per_cost * s->predicted_cost);
    rep.worst.push_back(row);
  }
  std::sort(rep.worst.begin(), rep.worst.end(),
            [](const CalibrationRow &a, const CalibrationRow &b) {
              return std::fabs(std::log2(a.ratio)) >
                     std::fabs(std::log2(b.ratio));
            });
  // p95 of |log2 ratio| — the model-accuracy gate. Rows are already sorted
  // by that key descending, so index straight into it.
  if (!rep.worst.empty()) {
    const std::size_t n = rep.worst.size();
    // Nearest-rank: ascending index ceil(0.95·n)−1 ↔ descending n−ceil(0.95·n).
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(n)));
    const std::size_t idx = n - std::max<std::size_t>(rank, 1);
    rep.p95_abs_log2 = std::fabs(std::log2(rep.worst[idx].ratio));
  }
  if (rep.worst.size() > top_n) rep.worst.resize(top_n);
  return rep;
}

std::string CalibrationReport::text() const {
  std::ostringstream os;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "plan-vs-actual calibration: %zu spans with predictions, "
                "fitted %.2f ns/cost-unit\n",
                samples, ns_per_cost);
  os << buf;
  if (samples > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  per-direction fit: push %.2f, pull %.2f ns/cost-unit; "
                  "|log2 ratio| p95 = %.3f\n",
                  push_ns_per_cost, pull_ns_per_cost, p95_abs_log2);
    os << buf;
  }
  if (worst.empty()) {
    os << "  (no spans carried a cost prediction — enable tracing and run a "
          "traversal: bfs, bc or msbfs)\n";
    return os.str();
  }
  os << "  worst mispredictions (ratio = actual / model):\n";
  std::snprintf(buf, sizeof(buf), "  %-12s %-5s %5s %10s %12s %12s %7s\n",
                "op", "dir", "iter", "in_nvals", "pred cost", "actual ms",
                "ratio");
  os << buf;
  for (const CalibrationRow &r : worst) {
    std::snprintf(buf, sizeof(buf),
                  "  %-12s %-5s %5" PRId64 " %10" PRIu64 " %12.4g %12.4f "
                  "%6.2fx\n",
                  name(r.kind),
                  plan::name(static_cast<plan::Direction>(r.direction)),
                  r.iter, r.in_nvals, r.predicted,
                  static_cast<double>(r.actual_ns) / 1e6, r.ratio);
    os << buf;
  }
  return os.str();
}

std::string prometheus_escape_label(const std::string &value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string prometheus_label(const char *label_name, const std::string &value) {
  return std::string(label_name) + "=\"" + prometheus_escape_label(value) +
         "\"";
}

void write_prometheus_histogram(std::ostream &os, const std::string &metric,
                                const std::string &labels, const Histogram &h,
                                bool with_type_header, const char *help) {
  if (with_type_header) {
    os << "# HELP " << metric << ' '
       << (help != nullptr ? help : "latency histogram (seconds)") << '\n';
    os << "# TYPE " << metric << " histogram\n";
  }
  const std::string sep = labels.empty() ? "" : ",";
  std::uint64_t cum = 0;
  char buf[64];
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    const std::uint64_t c = h.bucket(b);
    if (c == 0) continue;
    cum += c;
    const double le =
        static_cast<double>(Histogram::bucket_upper_ns(b) + 1) / 1e9;
    std::snprintf(buf, sizeof(buf), "%.9g", le);
    os << metric << "_bucket{" << labels << sep << "le=\"" << buf << "\"} "
       << cum << "\n";
  }
  os << metric << "_bucket{" << labels << sep << "le=\"+Inf\"} " << h.count()
     << "\n";
  std::snprintf(buf, sizeof(buf), "%.9g",
                static_cast<double>(h.sum_ns()) / 1e9);
  os << metric << "_sum{" << labels << "} " << buf << "\n";
  os << metric << "_count{" << labels << "} " << h.count() << "\n";
}

}  // namespace trace
}  // namespace grb

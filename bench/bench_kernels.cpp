// bench_kernels — per-kernel timings for the parallel grb layer: push (vxm
// saxpy), pull (mxv dot), eWiseAdd/eWiseMult, apply, reduce, transpose,
// build, and masked mxm, swept over thread counts on a Kron graph.
//
// Emits a Table III-style text table plus machine-readable
// BENCH_kernels.json (op, graph, threads, reps, median_ms) so the perf
// trajectory is recorded per commit; tools/bench_diff.py compares two such
// files and flags regressions.
//
// Flags / env:
//   --smoke                  scale-12 sanity run (used by the perf-smoke
//                            ctest label); exits nonzero if any kernel
//                            exceeds a generous wall-clock bound.
//   --width u32|u64          pin index storage width (default: auto-select)
//                            for A/B memory + speed comparisons.
//   LAGRAPH_BENCH_SCALE      kron scale for the full run (default 13)
//   LAGRAPH_BENCH_THREADS    comma list of thread counts (default "1,2,4,8")
//   LAGRAPH_BENCH_REPS       reps per (op, threads) cell (default 5, min 5)
//   LAGRAPH_BENCH_JSON       output path (default BENCH_kernels.json)
#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"

using grb::Index;

namespace {

std::vector<int> parse_threads(const char *spec) {
  std::vector<int> out;
  int cur = 0;
  bool have = false;
  for (const char *p = spec;; ++p) {
    if (*p >= '0' && *p <= '9') {
      cur = cur * 10 + (*p - '0');
      have = true;
    } else {
      if (have && cur > 0) out.push_back(cur);
      cur = 0;
      have = false;
      if (*p == '\0') break;
    }
  }
  if (out.empty()) out = {1};
  return out;
}

}  // namespace

int main(int argc, char **argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    // Pin index storage width for A/B runs (auto-selection is the default);
    // feed both JSONs to tools/bench_diff.py to quantify the u32 win.
    if (std::strcmp(argv[i], "--width") == 0 && i + 1 < argc) {
      ++i;
      if (std::strcmp(argv[i], "u32") == 0) {
        grb::config().force_index_width = grb::ForceIndexWidth::u32;
      } else if (std::strcmp(argv[i], "u64") == 0) {
        grb::config().force_index_width = grb::ForceIndexWidth::u64;
      } else {
        std::fprintf(stderr, "bench_kernels: --width expects u32|u64\n");
        return 2;
      }
    }
  }
  const int scale = smoke ? 12 : bench::suite_scale();
  const int reps = std::max(5, bench::env_int("LAGRAPH_BENCH_REPS", 5));
  std::vector<int> threads = parse_threads(
      std::getenv("LAGRAPH_BENCH_THREADS") != nullptr
          ? std::getenv("LAGRAPH_BENCH_THREADS")
          : (smoke ? "1,4" : "1,2,4,8"));
  const std::string graph_name = "kron" + std::to_string(scale);
  const std::string json_path =
      std::getenv("LAGRAPH_BENCH_JSON") != nullptr
          ? std::getenv("LAGRAPH_BENCH_JSON")
          : std::string("BENCH_kernels.json");

  // One directed kron graph; integer-valued double weights keep every
  // accumulation exact, so thread sweeps are bit-comparable.
  auto el = gen::kronecker(scale, 8, 0xabcdULL);
  gen::add_uniform_weights(el, 1, 255, 0x5eedULL);
  grb::Matrix<double> a = gen::to_matrix<double>(el);
  a.finalize();
  grb::Matrix<double> at = grb::transposed(a);
  at.finalize();
  const Index n = a.nrows();

  // Sparse frontier (~3% of vertices) for the push kernel; a dense vector
  // for pull/eWise (bitmap format) built from the row degrees.
  grb::Vector<double> frontier(n);
  {
    std::uint64_t state = 0x12345ULL;
    std::vector<Index> idx;
    std::vector<double> val;
    for (Index i = 0; i < n; ++i) {
      state ^= state >> 12;
      state ^= state << 25;
      state ^= state >> 27;
      if (state % 32 == 0) {
        idx.push_back(i);
        val.push_back(static_cast<double>(1 + state % 100));
      }
    }
    frontier.adopt_sparse(std::move(idx), std::move(val));
  }
  grb::Vector<double> dense1(n);
  grb::Vector<double> dense2(n);
  {
    grb::reduce(dense1, grb::no_mask, grb::NoAccum{},
                grb::PlusMonoid<double>{}, a);
    grb::reduce(dense2, grb::no_mask, grb::NoAccum{},
                grb::PlusMonoid<double>{}, at);
    dense1.to_bitmap();
    dense2.to_bitmap();
  }
  // Tuple arrays for the build benchmark.
  std::vector<Index> bi;
  std::vector<Index> bj;
  std::vector<double> bv;
  a.extract_tuples(bi, bj, bv);

  // Storage footprint of the bench graph: CSR index bytes (width-dependent —
  // u32 snapshots halve this) plus the value array, per edge. Attached to
  // every JSON entry so bench_diff can gate memory like it gates medians.
  const double edges = static_cast<double>(a.nvals());
  const double index_bpe = static_cast<double>(a.index_bytes()) / edges;
  const double bytes_per_edge =
      (static_cast<double>(a.index_bytes()) + edges * sizeof(double)) / edges;

  struct Op {
    const char *name;
    std::function<void()> fn;
  };
  std::vector<Op> ops;
  ops.push_back({"vxm_push", [&] {
                   grb::Vector<double> w(n);
                   grb::vxm(w, grb::no_mask, grb::NoAccum{},
                            grb::PlusTimes<double>{}, frontier, a);
                 }});
  ops.push_back({"mxv_pull", [&] {
                   grb::Vector<double> w(n);
                   grb::mxv(w, grb::no_mask, grb::NoAccum{},
                            grb::PlusTimes<double>{}, a, dense1);
                 }});
  ops.push_back({"ewise_add", [&] {
                   grb::Vector<double> w(n);
                   grb::eWiseAdd(w, grb::no_mask, grb::NoAccum{}, grb::Min{},
                                 dense1, dense2);
                 }});
  ops.push_back({"ewise_mult", [&] {
                   grb::Vector<double> w(n);
                   grb::eWiseMult(w, grb::no_mask, grb::NoAccum{},
                                  grb::Plus{}, dense1, dense2);
                 }});
  ops.push_back({"apply", [&] {
                   grb::Vector<double> w(n);
                   grb::apply2nd(w, grb::no_mask, grb::NoAccum{}, grb::Times{},
                                 dense1, 3.0);
                 }});
  ops.push_back({"reduce_rows", [&] {
                   grb::Vector<double> w(n);
                   grb::reduce(w, grb::no_mask, grb::NoAccum{},
                               grb::PlusMonoid<double>{}, a);
                 }});
  ops.push_back({"transpose", [&] {
                   auto t = grb::transposed(a);
                   (void)t.nvals();
                 }});
  ops.push_back({"build", [&] {
                   grb::Matrix<double> t(n, n);
                   t.build(bi, bj, bv);
                 }});
  // Fused kernels: the BFS level stamp (masked pull product + level write
  // in one sweep) and the SSSP relax-and-filter (push product + range
  // select). Benchmarked in the shapes the algorithms use so BENCH_smoke
  // tracks the fused paths, not just their unfused parts.
  ops.push_back({"fused_mxv", [&] {
                   grb::Vector<double> w(n);
                   grb::Vector<double> stampc(n);
                   grb::Vector<double> stampk(n);
                   stampc.to_bitmap();
                   stampk.to_bitmap();
                   grb::fused_mxv_apply(w, frontier, grb::PlusTimes<double>{},
                                        at, dense1, grb::desc::RSC, &stampc,
                                        &stampk, 7.0);
                 }});
  ops.push_back({"fused_vxm", [&] {
                   grb::Vector<double> w(n);
                   grb::Vector<double> pruned(n);
                   grb::vxm_select_range(w, pruned, grb::MinPlus<double>{},
                                         frontier, a, 0.0, 512.0);
                 }});
  if (!smoke) {
    ops.push_back({"mxm_masked", [&] {
                     grb::Matrix<double> c(n, n);
                     grb::Descriptor d;
                     d.transpose_b = true;
                     d.mask_structural = true;
                     grb::mxm(c, a, grb::NoAccum{}, grb::PlusPair<double>{}, a,
                              at, d);
                   }});
  }

  std::vector<bench::JsonEntry> entries;
  std::printf("bench_kernels: graph=%s nnz=%llu reps=%d%s\n",
              graph_name.c_str(),
              static_cast<unsigned long long>(a.nvals()), reps,
              smoke ? " (smoke)" : "");
  std::printf("%-12s", "op");
  for (int t : threads) std::printf("  t=%-2d (ms)", t);
  std::printf("\n");

  // Generous per-op bound for the smoke run: catches order-of-magnitude
  // slowdowns without flaking on slow CI boxes.
  const double smoke_bound_ms = 30000.0;
  bool smoke_ok = true;

  for (auto &op : ops) {
    std::printf("%-12s", op.name);
    for (int t : threads) {
      grb::config().num_threads = t;
      op.fn();  // warm-up (also primes the workspace pool at this size)
      const bench::RepStatsMs st = bench::rep_stats_ms(reps, op.fn);
      const double ms = st.median_ms;
      bench::JsonEntry je{op.name,  graph_name, t,        reps,
                          ms,       st.p50_ms,  st.p95_ms, st.p99_ms};
      je.bytes_per_edge = bytes_per_edge;
      je.peak_rss_mb = bench::peak_rss_mb();
      entries.push_back(je);
      std::printf("  %9.3f", ms);
      if (smoke && ms > smoke_bound_ms) smoke_ok = false;
    }
    std::printf("\n");
  }
  grb::config().num_threads = 0;

  std::printf("storage: %s indices, %.2f index B/edge, %.2f total B/edge, "
              "peak RSS %.1f MB\n",
              grb::index_width_name(a.index_width()), index_bpe,
              bytes_per_edge, bench::peak_rss_mb());

  const grb::Stats &st = grb::stats();
  std::printf("planner: %llu plans built, %llu overridden; "
              "%llu push / %llu pull decisions; %llu format conversions\n",
              static_cast<unsigned long long>(st.plans_built.load()),
              static_cast<unsigned long long>(st.plans_overridden.load()),
              static_cast<unsigned long long>(st.plan_push_decisions.load()),
              static_cast<unsigned long long>(st.plan_pull_decisions.load()),
              static_cast<unsigned long long>(st.format_conversions.load()));

  bench::write_bench_json(json_path, "kernels", scale, entries);
  std::printf("wrote %s (%zu entries)\n", json_path.c_str(), entries.size());
  if (smoke && !smoke_ok) {
    std::printf("perf-smoke FAILED: a kernel exceeded %.0f ms\n",
                smoke_bound_ms);
    return 1;
  }
  return 0;
}

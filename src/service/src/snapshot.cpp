// service/snapshot.cpp — GraphSnapshot construction.

#include "service/snapshot.hpp"

#include <atomic>

namespace lagraph {
namespace service {

namespace {

std::atomic<std::uint64_t> next_id{1};

// Drain every deferred mutation (pending tuples, sort, format) and arm the
// debug-mode tripwires: from here on, const access is genuinely read-only
// (grb threading contract, matrix.hpp).
void freeze_graph(Graph<double> &g) {
  g.a.finalize();
  if (g.at.has_value()) g.at->finalize();
  if (g.row_degree.has_value()) g.row_degree->finalize();
  if (g.col_degree.has_value()) g.col_degree->finalize();
}

}  // namespace

int make_snapshot(SnapshotPtr *out, Graph<double> &&g, char *msg) {
  return detail::guarded(msg, [&]() {
    if (out == nullptr) {
      return detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                             "make_snapshot: output is null");
    }
    if (g.a.nrows() != g.a.ncols()) {
      return detail::set_msg(msg, LAGRAPH_INVALID_GRAPH,
                             "make_snapshot: adjacency matrix is not square");
    }

    // Cache every property the query kernels consult so no Advanced-mode
    // algorithm run by a worker will ever want to mutate the graph.
    int st;
    if ((st = property_at(g, msg)) < 0) return st;
    if ((st = property_row_degree(g, msg)) < 0) return st;
    if ((st = property_symmetric_pattern(g, msg)) < 0) return st;
    if ((st = property_ndiag(g, msg)) < 0) return st;

    freeze_graph(g);

    auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
    snap->g_ = std::move(g);
    snap->id_ = next_id.fetch_add(1, std::memory_order_relaxed);

    grb::stats().snapshot_builds.fetch_add(1, std::memory_order_relaxed);
    *out = std::move(snap);
    return LAGRAPH_OK;
  });
}

int publish_snapshot(SnapshotPtr *out, Graph<double> &&g, std::uint64_t epoch,
                     char *msg) {
  return detail::guarded(msg, [&]() {
    if (out == nullptr) {
      return detail::set_msg(msg, LAGRAPH_NULL_POINTER,
                             "publish_snapshot: output is null");
    }
    if (g.a.nrows() != g.a.ncols()) {
      return detail::set_msg(
          msg, LAGRAPH_INVALID_GRAPH,
          "publish_snapshot: adjacency matrix is not square");
    }

    // The writer maintains properties incrementally; trust whatever it
    // populated and recompute nothing. Only drain + freeze.
    freeze_graph(g);

    auto snap = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
    snap->g_ = std::move(g);
    snap->id_ = next_id.fetch_add(1, std::memory_order_relaxed);
    snap->epoch_ = epoch;

    grb::stats().snapshot_builds.fetch_add(1, std::memory_order_relaxed);
    grb::stats().epochs_published.fetch_add(1, std::memory_order_relaxed);
    *out = std::move(snap);
    return LAGRAPH_OK;
  });
}

}  // namespace service
}  // namespace lagraph

// enginebench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Prints the run record and per-kind figures, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics. Exits 1
// when an output check or a fixed-work invariant fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: enginebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:");
  for (const auto &w : enginebench::workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char **argv) {
  enginebench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char *k = argv[i];
    const char *v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      opt.seconds = std::atoi(v);
    } else if (std::strcmp(k, "--trace") == 0) {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (std::strcmp(k, "--spans") == 0) {
      opt.spans_path = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || enginebench::find_workload(opt.workload) == nullptr ||
      opt.seconds < 1) {
    return usage();
  }

  enginebench::Result res;
  try {
    res = enginebench::run(opt);
  } catch (const std::exception &e) {
    std::fprintf(stderr, "enginebench: %s\n", e.what());
    return 1;
  }
  for (const auto &m : res.metrics) {
    if (!std::isfinite(m.value)) res.problems.push_back(m.name + " is not a number");
  }
  if (!res.problems.empty()) res.correct = false;

  std::printf("record %s\n", res.record.c_str());
  for (const auto &m : res.summary) {
    std::printf("%-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto &p : res.problems) std::fprintf(stderr, "FAILED: %s\n", p.c_str());

  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto &m = res.metrics[i];
    char val[64];
    if (std::isfinite(m.value)) {
      std::snprintf(val, sizeof val, "%.17g", m.value);
    } else {
      std::snprintf(val, sizeof val, "null");
    }
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + val +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return res.correct ? 0 : 1;
}

#!/usr/bin/env bash
# scripts/check.sh — the one-button pre-merge gate.
#
# Runs, in order:
#   1. tier-1 verify (configure + build + full ctest, per ROADMAP.md),
#   2. the focused suites behind their ctest labels:
#        parallel     bit-identical serial/parallel kernel determinism,
#        concurrency  lagraph::service snapshot/engine races + the
#                     lagraph::ingest reader-vs-mutation-stream stress
#                     (tests_ingest_stress, the TSan target),
#        plan         planner equivalence across formats × directions,
#        obs          grb::trace rings, histograms, calibration,
#        storage      index-width selection/promotion/guards + u32-vs-u64
#                     kernel bit-identity (plus the same suite under
#                     UBSan as the narrowing-conversion smoke),
#        conformance  differential oracle suite incl. corpus replay (kernel
#                     and query corpora) and the ingest snapshot-vs-rebuild
#                     fuzz sweep (tests_ingest),
#        query        lagraph::query parser/plan/exec units, optimizer
#                     decision tests, golden-file queries, the EXPLAIN
#                     stability golden, and a budgeted differential fuzz,
#   2b. a budgeted conformance fuzz: lagraph_cli fuzz replays the committed
#       corpus (tests/corpus/*.repro) then runs fresh seeded scenarios for
#       --fuzz-seconds (default 30) wall-clock seconds; any mismatch exits
#       non-zero and prints the failing seed + a shrunk repro — mutation
#       prologues now interleave insert/delete/accumulate across flush
#       boundaries, so the pending-tuple write path is fuzzed here too,
#   2b'. a budgeted query fuzz: lagraph_cli fuzz --query replays the
#        committed query corpus (tests/corpus/query/*.repro) then checks
#        QUERY_FUZZ_OPS fresh pattern-query scenarios (default 10000)
#        bit-exactly against the tuple-at-a-time oracle across the full
#        config sweep in both compilation modes,
#   2b''. a TSan leg: tests_query_stress rebuilt with
#        -DLAGRAPH_SANITIZE=thread in a side build tree (BUILD_DIR-tsan)
#        and run under the sanitizer — concurrent cypher traffic against a
#        mutating ingest::Writer (SKIP_TSAN=1 skips),
#   2c. an ingest smoke: lagraph_cli mutate streams a synthetic mixed
#       mutation load through an ingest::Writer and check_graph-validates
#       the final published snapshot,
#   2d. the engine benchmark's own tests: enginebench/ configured into
#       .bench_build/enginebench the way enginebench/run.py does it, then
#       enginebench_tests built and run — a tiny smoke of every workload
#       with all of its output checks on (SSSP distances exactly against
#       Dijkstra, PageRank within 1e-12, BFS levels, cypher results, the
#       write-log replay),
#   3. a trace smoke: lagraph_cli trace bfs on a generated kron graph, with
#      the emitted Chrome trace-event JSON validated by python3,
#   3b. a telemetry smoke: lagraph_cli serve --telemetry-port 0 on a
#       generated graph, the printed ephemeral port scraped over HTTP —
#       /healthz must answer "ok" and /metrics must expose a non-zero
#       lagraph_requests_total,
#   4. a perf smoke: bench_kernels --smoke, gated by tools/bench_diff.py
#      against the committed baseline bench/baselines/BENCH_smoke.json.
#
# Env knobs:
#   BUILD_DIR          build tree to use                 (default: build)
#   JOBS               parallel build/test jobs          (default: nproc)
#   SMOKE_THRESHOLD    relative slowdown that fails the
#                      perf smoke; generous by default
#                      because smoke timings on shared
#                      CI boxes are noisy                (default: 0.50)
#   SMOKE_MIN_MS       cells whose baseline median is
#                      below this many ms are shown but
#                      never fail the gate (sub-ms cells
#                      are noise)                        (default: 0.5)
#   SKIP_SMOKE=1       skip step 4, the perf smoke
#   SKIP_TSAN=1        skip the TSan query-stress leg
#   QUERY_FUZZ_OPS     scenario budget for the query fuzz   (default: 10000)
#
# Args:
#   --fuzz-seconds N   wall-clock budget for the fresh-seed conformance
#                      fuzz stage (default 30; 0 skips the fresh fuzz but
#                      still replays the corpus)
#
# To (re)record the perf baseline on a quiet machine:
#   LAGRAPH_BENCH_JSON=bench/baselines/BENCH_smoke.json \
#       "$BUILD_DIR"/bench/bench_kernels --smoke
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
SMOKE_THRESHOLD=${SMOKE_THRESHOLD:-0.50}
SMOKE_MIN_MS=${SMOKE_MIN_MS:-0.5}
BASELINE=bench/baselines/BENCH_smoke.json
FUZZ_SECONDS=30
FUZZ_SEED=${FUZZ_SEED:-1}
QUERY_FUZZ_OPS=${QUERY_FUZZ_OPS:-10000}

while [[ $# -gt 0 ]]; do
  case "$1" in
    --fuzz-seconds)
      FUZZ_SECONDS=${2:?--fuzz-seconds needs a value}
      shift 2
      ;;
    *)
      echo "check.sh: unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: configure + build ($BUILD_DIR, -j$JOBS)"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$JOBS"

step "tier-1: full ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

for label in parallel concurrency plan obs storage conformance query; do
  step "ctest -L $label"
  ctest --test-dir "$BUILD_DIR" -L "$label" --output-on-failure -j"$JOBS"
done

step "UBSan narrowing smoke: tests_storage_ubsan"
# The storage suite compiled under -fsanitize=undefined: runs the u64 -> u32
# narrowing stores of the width-erased index paths on real kernel traffic
# with the sanitizer watching (the plain-build run above checks semantics;
# this run checks the casts themselves). The ctest -L storage loop already
# executes it when present; this explicit pass fails loudly if the target
# was configured out.
if [[ -x "$BUILD_DIR"/tests/grb/tests_storage_ubsan ]]; then
  "$BUILD_DIR"/tests/grb/tests_storage_ubsan \
      --gtest_filter='IndexArray.*:IndexSpan.*:*WidthIdentity*' >/dev/null \
    && echo "UBSan narrowing smoke OK"
else
  echo "check.sh: tests_storage_ubsan missing (global sanitizer build?) — skipped"
fi

step "conformance fuzz: corpus replay + ${FUZZ_SECONDS}s budget (seed $FUZZ_SEED)"
# Replays every committed tests/corpus/*.repro through the full config
# sweep, then fuzzes fresh seeded scenarios for the wall-clock budget. On a
# mismatch the CLI exits non-zero, prints the failing seed, and writes a
# shrunk self-contained repro to fuzz_failure.repro — commit the fixed
# kernel plus the repro (as tests/corpus/<name>.repro) together.
"$BUILD_DIR"/tools/lagraph_cli fuzz --corpus tests/corpus \
    --seconds "$FUZZ_SECONDS" --seed "$FUZZ_SEED"

step "query fuzz: corpus replay + $QUERY_FUZZ_OPS scenarios (seed $FUZZ_SEED)"
# Same contract one layer up: replays tests/corpus/query/*.repro, then
# checks fresh pattern-query scenarios against the tuple-at-a-time oracle
# under every RunConfig x {naive, optimized} compilation. A mismatch prints
# the failing seed and writes a shrunk qscenario repro to
# fuzz_failure.repro — commit it under tests/corpus/query/ with the fix.
"$BUILD_DIR"/tools/lagraph_cli fuzz --query --corpus tests/corpus/query \
    --ops "$QUERY_FUZZ_OPS" --seed "$FUZZ_SEED"

if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
  step "TSan query stress: skipped (SKIP_TSAN=1)"
else
  step "TSan query stress: tests_query_stress under -DLAGRAPH_SANITIZE=thread"
  # Rebuilds only the query-stress target (plus its library closure) in a
  # dedicated TSan tree and runs the concurrent-cypher-vs-mutating-writer
  # suite under the sanitizer. This is the race gate for the new
  # Engine::cypher path and the snapshot handoff it rides on.
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DLAGRAPH_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_DIR" -j"$JOBS" --target tests_query_stress >/dev/null
  "$TSAN_DIR"/tests/query/tests_query_stress
fi

step "ingest smoke: lagraph_cli mutate --gen kron 10 --mutations 2048"
# Streams a synthetic insert/upsert/delete mix through the epoch-publishing
# write path and check_graph-validates the final snapshot: a cheap
# end-to-end pass over stage_tuples → merge_pending → incremental property
# maintenance. Exits non-zero if the published graph is inconsistent.
"$BUILD_DIR"/tools/lagraph_cli mutate --gen kron 10 --mutations 2048

step "engine benchmark tests: enginebench_tests in .bench_build/enginebench"
# Same tree and build type as enginebench/run.py, so this reuses (and warms)
# the build the benchmark runs from.
BENCH_BUILD=.bench_build/enginebench
if [[ ! -f "$BENCH_BUILD/CMakeCache.txt" ]]; then
  cmake -S enginebench -B "$BENCH_BUILD" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
fi
cmake --build "$BENCH_BUILD" --target enginebench_tests -j"$JOBS" >/dev/null
ctest --test-dir "$BENCH_BUILD" --output-on-failure

step "trace smoke: lagraph_cli trace bfs --gen kron 10"
trace_json=$(mktemp --suffix=.json)
"$BUILD_DIR"/tools/lagraph_cli trace bfs --gen kron 10 --trace-out "$trace_json"
python3 - "$trace_json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
levels = [e for e in events if e["name"] == "bfs_level"]
assert levels, "trace has no bfs_level spans"
for e in levels:
    assert e["ph"] == "X", e
    assert "frontier" in e["args"], e
    assert e["args"]["direction"] in ("push", "pull"), e
print(f"trace smoke OK: {len(events)} events, {len(levels)} bfs levels")
EOF
rm -f "$trace_json"

step "telemetry smoke: lagraph_cli serve --telemetry-port 0 --serve-seconds 8"
# Serves a generated graph with the embedded HTTP telemetry endpoint on an
# ephemeral port, parses the printed port, and scrapes /healthz + /metrics
# while the engine is live. The gate: the Prometheus exposition must carry a
# non-zero lagraph_requests_total (requests actually flowed through the
# instrumented path).
serve_log=$(mktemp)
"$BUILD_DIR"/tools/lagraph_cli serve --gen kron 10 --telemetry-port 0 \
    --serve-seconds 8 --slow-query-ms 60000 >"$serve_log" 2>&1 &
serve_pid=$!
tele_port=""
for _ in $(seq 1 100); do
  tele_port=$(sed -n 's/^telemetry: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$serve_log")
  [[ -n "$tele_port" ]] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
  sleep 0.1
done
if [[ -z "$tele_port" ]]; then
  echo "check.sh: serve never printed its telemetry port:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
if ! python3 - "$tele_port" <<'EOF'
import sys
import urllib.request

port = sys.argv[1]

health = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/healthz", timeout=10).read().decode()
assert health.strip() == "ok", f"unexpected /healthz body: {health!r}"

metrics = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
for line in metrics.splitlines():
    if line.startswith("lagraph_requests_total "):
        value = float(line.split()[-1])
        assert value > 0, f"lagraph_requests_total is zero: {line!r}"
        print(f"telemetry smoke OK: /healthz ok, "
              f"lagraph_requests_total = {value:.0f}")
        break
else:
    sys.exit("no lagraph_requests_total sample in /metrics")
EOF
then
  kill "$serve_pid" 2>/dev/null || true
  cat "$serve_log" >&2
  exit 1
fi
wait "$serve_pid"
rm -f "$serve_log"

if [[ "${SKIP_SMOKE:-0}" == "1" ]]; then
  step "perf smoke: skipped (SKIP_SMOKE=1)"
else
  step "perf smoke: bench_kernels --smoke vs $BASELINE"
  smoke_json=$(mktemp --suffix=.json)
  trap 'rm -f "$smoke_json"' EXIT
  LAGRAPH_BENCH_JSON="$smoke_json" "$BUILD_DIR"/bench/bench_kernels --smoke
  # bench_diff exits with a friendly message if the baseline has not been
  # recorded yet; that is a hard failure here, since the baseline is
  # supposed to be committed.
  python3 tools/bench_diff.py "$BASELINE" "$smoke_json" \
      --threshold "$SMOKE_THRESHOLD" --min-ms "$SMOKE_MIN_MS"
fi

printf '\ncheck.sh: all gates passed\n'

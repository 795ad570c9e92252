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
#   2b''. a TSan leg: tests_query_stress, tests_trace, tests_parallel and
#        tests_service rebuilt with -DLAGRAPH_SANITIZE=thread in a side
#        build tree (BUILD_DIR-tsan) and run under the sanitizer —
#        concurrent cypher traffic against a mutating ingest::Writer, span
#        writers against a concurrent collect() over the per-thread rings,
#        tests_parallel --gtest_filter='ParallelStress.*': kernel workers,
#        the in-place full-vector paths among them, over shared finalized
#        containers, and the whole engine suite: the worker loop's queue,
#        BFS sweeps, counters and promises under snapshot swaps and
#        shutdown (SKIP_TSAN=1 skips),
#   2b'''. an ASan leg: tests_service and tests_telemetry rebuilt with
#        -DLAGRAPH_SANITIZE=address in a side build tree (BUILD_DIR-asan)
#        and run under the sanitizer — the engine's request path (queue,
#        roll-up ring, slow-query log, telemetry server),
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
#      the emitted Chrome trace-event JSON validated by python3 — no span
#      carries a threads argument, every BFS level carries its traversal
#      plan's positive cost and its frontier's edge count (`extra`), every
#      push level is priced at that count plus one shared overhead, every
#      mxv/vxm/fused product carries cost 0, and no span that built no plan
#      names a `chosen`,
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
#   SKIP_TSAN=1        skip the TSan leg
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
  step "TSan: skipped (SKIP_TSAN=1)"
else
  step "TSan: tests_query_stress + tests_trace + ParallelStress + tests_service under -DLAGRAPH_SANITIZE=thread"
  # Rebuilds only these four targets (plus their library closure) in a
  # dedicated TSan tree and runs them under the sanitizer: the
  # concurrent-cypher-vs-mutating-writer suite is the race gate for the
  # Engine::cypher path and the snapshot handoff it rides on; tests_trace
  # races span writers against collect() and reset() over the per-thread
  # rings; ParallelStress.* runs the kernel mix, the in-place full-vector
  # paths among it, from several threads over shared finalized inputs;
  # tests_service is the race gate for the engine's worker loop (it pins
  # its kernels to one OpenMP thread under TSan).
  TSAN_DIR="${BUILD_DIR}-tsan"
  cmake -B "$TSAN_DIR" -S . -DLAGRAPH_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_DIR" -j"$JOBS" \
      --target tests_query_stress tests_trace tests_parallel tests_service \
      >/dev/null
  "$TSAN_DIR"/tests/query/tests_query_stress
  "$TSAN_DIR"/tests/grb/tests_trace
  "$TSAN_DIR"/tests/grb/tests_parallel --gtest_filter='ParallelStress.*'
  "$TSAN_DIR"/tests/service/tests_service
fi

step "ASan request path: tests_service + tests_telemetry under -DLAGRAPH_SANITIZE=address"
# Rebuilds the two service test binaries (plus their library closure; neither
# links the differ) in a dedicated ASan tree and runs them: the submit /
# execute / roll-up / slow-query / telemetry path with AddressSanitizer and
# its leak check watching.
ASAN_DIR="${BUILD_DIR}-asan"
cmake -B "$ASAN_DIR" -S . -DLAGRAPH_SANITIZE=address >/dev/null
cmake --build "$ASAN_DIR" -j"$JOBS" --target tests_service tests_telemetry \
    >/dev/null
"$ASAN_DIR"/tests/service/tests_service
"$ASAN_DIR"/tests/service/tests_telemetry

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
    # A level's direction is weighed by the traversal cost model.
    assert e["args"]["predicted_cost"] > 0, e
    # ...from the out-edges its frontier holds.
    assert e["args"]["extra"] >= e["args"]["frontier"] > 0, e
# Each push is priced by its own frontier's edges: cost minus edge count is
# the same per-call overhead on every push level.
push_overheads = {e["args"]["predicted_cost"] - e["args"]["extra"]
                  for e in levels if e["args"]["direction"] == "push"}
assert len(push_overheads) == 1, push_overheads
# Spans report the plan that ran: no team guess, and no cost for products
# whose direction their descriptor fixed.
for e in events:
    assert "threads" not in e["args"], e
products = [e for e in events
            if e["name"] in ("mxv", "vxm", "fused_mxv_apply")]
assert products, "trace has no mxv/vxm/fused_mxv_apply spans"
for e in products:
    assert e["args"]["predicted_cost"] == 0, e
# A span names who chose only when its op built a plan: a build decides
# nothing.
for e in events:
    if e["name"] == "build":
        assert "chosen" not in e["args"] and "format" not in e["args"], e
print(f"trace smoke OK: {len(events)} events, {len(levels)} bfs levels, "
      f"{len(products)} products")
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

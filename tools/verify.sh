#!/usr/bin/env bash
# One-command verification: every recipe from ROADMAP.md "How to verify",
# in order, plus the ingest-while-serving acceptance bench.
#
#   tier-1   default build + full ctest suite
#   tsan     ThreadSanitizer preset (parallel engine, server pool, pipelined
#            crawl, live store)
#   chaos    corruption-fuzz labels, then the model-session and fit suites
#            (fetch-at-most-once bitmap words and reset), the par suite
#            (the pool's active-job list), the stats suite (the inline
#            alias sampler), the query suite (bitmap word and tail
#            arithmetic at block ends), the net suite (the HTTP reader's
#            buffer offsets and compaction), the worker-pool server and load
#            suites (parked-connection ownership, pipelined batches), and the
#            crawler suite (JSON number writer, seeded parser fuzz, windowed
#            crawl), under ASan
#   load     worker-pool server + load-harness labels (default build), then
#            bench_serving: the response cache on vs off (no exit gate)
#   query    query-engine label (default build), then bench_query: exits
#            non-zero below the 2x planned-vs-full-scan floor
#   recovery durability suite (WAL, checkpoints, crash fuzz) under ASan,
#            then bench_recovery with its replay-throughput floors
#   ingest   bench_ingest: live vs stop-the-world, exits non-zero below the
#            5x floor or on any cross-regime checksum divergence
#   gameday  scenario + admission suite (default build), then bench_gameday:
#            exits non-zero if adaptive admission at 2x saturation loses the
#            queue-delay budget or too much goodput vs the fixed cliff
#   federation  sharded gateway suite under default AND TSan presets (ring
#            properties, hedge determinism, cross-shard golden parity), then
#            bench_federation: exits non-zero when a fan-out endpoint's p99
#            breaches 3x the single-shard p99 at the same offered load
#
# Usage: tools/verify.sh [stage ...]     (no args = all stages)
# Env:   JOBS=<n> to cap build parallelism (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

STAGES=("$@")
[[ ${#STAGES[@]} -eq 0 ]] && STAGES=(tier1 tsan chaos load query recovery ingest gameday federation)

want() {
  local stage
  for stage in "${STAGES[@]}"; do
    [[ "$stage" == "$1" ]] && return 0
  done
  return 1
}

banner() { printf '\n==== %s ====\n' "$1"; }

if want tier1; then
  banner "tier-1: default build + full test suite"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS"
fi

if want tsan; then
  banner "tsan: ThreadSanitizer preset"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$JOBS"
  ctest --preset tsan
fi

if want chaos; then
  banner "chaos: corruption fuzz + model sessions + par pool + alias sampler + query kernels + HTTP reader + server pool + JSON codec under ASan"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS"
  ctest --test-dir build-asan -L chaos --output-on-failure
  ctest --test-dir build-asan -R '^(models_test|fit_test|par_test|stats_test|query_test|net_test|server_pool_test|load_test|crawler_test)$' --output-on-failure
fi

if want load; then
  banner "load: server pool + load harness, then bench_serving"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build -L load --output-on-failure
  ./build/bench/bench_serving --metrics-out=results/BENCH_serving_metrics.json
fi

if want query; then
  banner "query: query engine label, then bench_query (floor 2x)"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build -L query --output-on-failure
  ./build/bench/bench_query --metrics-out=results/BENCH_query_metrics.json
fi

if want recovery; then
  banner "recovery: durability suite under ASan + bench_recovery floors"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS" --target recovery_test
  ctest --test-dir build-asan -L recovery --output-on-failure
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target bench_recovery
  ./build/bench/bench_recovery --metrics-out=results/BENCH_recovery_metrics.json
fi

if want ingest; then
  banner "ingest: live store vs stop-the-world rebuild (floor 5x)"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target bench_ingest
  ./build/bench/bench_ingest --metrics-out=results/BENCH_ingest_metrics.json
fi

if want gameday; then
  banner "gameday: scenario + admission suite, then the SLO gate"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target gameday_test bench_gameday
  ctest --test-dir build -L gameday --output-on-failure
  ./build/bench/bench_gameday --metrics-out=results/BENCH_gameday_metrics.json
fi

if want federation; then
  banner "federation: sharded gateway suite (default + TSan), then the fan-out floor"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target federation_test bench_federation
  ctest --test-dir build -L federation --output-on-failure
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$JOBS" --target federation_test
  ctest --test-dir build-tsan -L federation --output-on-failure
  ./build/bench/bench_federation --metrics-out=results/BENCH_federation_metrics.json
fi

banner "all requested stages passed: ${STAGES[*]}"

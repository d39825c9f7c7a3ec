#!/usr/bin/env bash
# Tier-1 verification plus static analysis and the sanitizer suite,
# exactly as CI runs it:
#   1. RelWithDebInfo build (preset "default", -Werror) + full ctest,
#   2. static analysis, before any sanitizer spend: `hivesim lint`
#      (determinism, concurrency & layering rules D1-D5/C1/S1/L1/P1
#      over the cross-TU call graph of every TU in
#      compile_commands.json, plus U1: no src/ function that only tests
#      reach from tools/, bench/, examples/ and perfbench/cpp/, and K1:
#      no config field that code those roots reach never varies;
#      docs/STATIC_ANALYSIS.md), publishing a
#      machine-readable --json artifact and self-benchmarking its own
#      wall clock against a hard budget, then clang-tidy with the
#      committed .clang-tidy profile (skipped with a notice when
#      clang-tidy is not installed),
#   3. ASan/UBSan build (preset "asan", -Werror) + full ctest,
#   4. ThreadSanitizer build (preset "tsan", -Werror) running the
#      concurrency surface — sweep_test (thread pool, parallel cells,
#      aggregator) and telemetry_test (thread-local sink routing),
#      (every -Werror configure also promotes Clang's -Wthread-safety
#      over the annotations in common/thread_annotations.h; on GCC the
#      macros expand to nothing and `hivesim lint` rule C1 still gates
#      the annotation coverage),
#   5. a smoke run of the telemetry pipeline (the `hivesim fleet` tour on
#      tools/testdata/bad-afternoon.json -> trace JSON ->
#      scripts/trace_summary.py) so the observability path stays healthy,
#   6. an analyze smoke: `hivesim analyze` over two identically seeded
#      tour runs must produce byte-identical analysis.json
#      (docs/OBSERVABILITY.md's determinism contract),
#   7. a bounded chaos-fuzz soak (`hivesim fuzz`, fixed seed, wall-clock
#      capped): every generated world must pass the determinism oracle
#      set, then the committed regression reproducers under
#      tests/scenarios/ are replayed and must stay green
#      (docs/SCENARIOS.md),
#   8. a perf smoke: BM_Fleet/1000 (bench_fleet) runs once, bounded, so
#      a fleet-scale hang or determinism break surfaces before the full
#      gate spends time on the other areas,
#   9. the perf gate: the six gated bench binaries run with
#      --bench-json (each self-checks determinism first and exits
#      non-zero on divergence; bench_fleet runs twice, its 100k-peer
#      world once under its own area whose baseline floors the 100k/1k
#      completions/s ratio), then `hivesim perfgate` compares the
#      fresh BENCH_<area>.json artifacts against the committed baselines
#      in bench/baselines/ and fails loudly — with a before/after table —
#      on any regression past the per-bench threshold or any drift in a
#      deterministic check value. docs/PERFORMANCE.md describes the
#      workflow; HIVESIM_UPDATE_PERF_BASELINE=1 re-records the baselines
#      instead of comparing (the perf analogue of --update-golden).
set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "=== tier-1: configure + build + test (preset: default, -Werror) ==="
cmake --preset default -DHIVESIM_WERROR=ON
cmake --build --preset default -j "$(nproc)"
ctest --preset default -j "$(nproc)"

echo "=== lint: hivesim lint (D1-D5, C1, S1, L1, U1, K1, P1) ==="
# The analyzer lexes and call-graph-links every TU, so it is itself a
# perf-sensitive tool: fail the stage if the full-repo run blows its
# wall-clock budget (it takes well under a second today — the budget
# only catches an accidental quadratic blowup, not machine noise).
lint_budget_sec=30
lint_start="$(date +%s)"
./build/tools/hivesim lint \
  --root . --compile-commands build/compile_commands.json \
  --json="$tmpdir/lint.json"
lint_secs="$(( $(date +%s) - lint_start ))"
echo "lint artifact: $tmpdir/lint.json (hivesim-lint/1, ${lint_secs}s)"
if (( lint_secs > lint_budget_sec )); then
  echo "hivesim lint took ${lint_secs}s (budget ${lint_budget_sec}s):" >&2
  echo "the analyzer itself has a performance regression" >&2
  exit 1
fi

echo "=== lint: clang-tidy (.clang-tidy profile) ==="
if command -v run-clang-tidy > /dev/null 2>&1; then
  run-clang-tidy -quiet -p build "^$(pwd)/(src|tools|bench)/"
elif command -v clang-tidy > /dev/null 2>&1; then
  # shellcheck disable=SC2046 -- file list is intentionally word-split.
  clang-tidy --quiet -p build $(find src tools bench -name '*.cc' | sort)
else
  echo "clang-tidy not installed — skipping (hivesim lint above still"
  echo "gates the determinism/layering rules; install clang-tidy to run"
  echo "the bugprone/performance/concurrency profile locally)"
fi

echo "=== sanitizers: configure + build + test (preset: asan, -Werror) ==="
cmake --preset asan -DHIVESIM_WERROR=ON
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan -j "$(nproc)"

echo "=== concurrency: configure + build + test (preset: tsan, -Werror) ==="
cmake --preset tsan -DHIVESIM_WERROR=ON
cmake --build --preset tsan -j "$(nproc)" --target sweep_test telemetry_test
ctest --preset tsan -j "$(nproc)" --tests-regex 'Sweep|ThreadPool|Telemetry'

echo "=== telemetry smoke: fleet tour -> trace_summary.py ==="
tour=(./build/tools/hivesim fleet --spec gc-us:2,gc-eu:2 --hours 1.5
  --scenario tools/testdata/bad-afternoon.json)
"${tour[@]}" --trace-out="$tmpdir/tour.trace.json" \
  --metrics-out="$tmpdir/tour.metrics.json" > /dev/null
python3 scripts/trace_summary.py "$tmpdir/tour.trace.json" --top 5

echo "=== analyze smoke: byte-identical analysis across seeded reruns ==="
./build/tools/hivesim analyze --trace="$tmpdir/tour.trace.json" \
  --metrics="$tmpdir/tour.metrics.json" \
  --out="$tmpdir/tour.analysis.1.json" > /dev/null
"${tour[@]}" --trace-out="$tmpdir/tour2.trace.json" \
  --metrics-out="$tmpdir/tour2.metrics.json" > /dev/null
./build/tools/hivesim analyze --trace="$tmpdir/tour2.trace.json" \
  --metrics="$tmpdir/tour2.metrics.json" \
  --out="$tmpdir/tour.analysis.2.json" > /dev/null
cmp "$tmpdir/tour.analysis.1.json" "$tmpdir/tour.analysis.2.json"

echo "=== fuzz soak: bounded chaos-fuzz campaign + regression replay ==="
# Fixed seed keeps the soak reproducible; --budget-sec only stops early
# on a slow machine (the campaign stays green either way).
./build/tools/hivesim fuzz --seed 1 --runs 1500 --budget-sec 30 \
  --sim-minutes 30 --max-events 8
./build/tools/hivesim fuzz --replay-dir tests/scenarios

echo "=== perf smoke: BM_Fleet/1000 bounded sanity run ==="
cmake --build --preset default -j "$(nproc)" --target bench_fleet
# One bounded pass of the smallest fleet world: exercises the SoA solver
# slabs and cohort dispatch end to end (the binary's determinism
# self-check runs first and exits non-zero on divergence).
./build/bench/bench_fleet --benchmark_filter='BM_Fleet/1000$' \
  --benchmark_min_time=0 > /dev/null

echo "=== perf gate: benches --bench-json vs bench/baselines ==="
cmake --build --preset default -j "$(nproc)" \
  --target bench_kernel_net bench_kernel_sim bench_kernel_telemetry \
  bench_sec7_chaos bench_fig3_tbs_throughput bench_fleet hivesim
perfdir="$tmpdir/perf"
mkdir -p "$perfdir"
./build/bench/bench_kernel_net --benchmark_min_time=0.1 \
  --bench-json="$perfdir/BENCH_kernel_net.json" > /dev/null
./build/bench/bench_kernel_sim --benchmark_min_time=0.1 \
  --bench-json="$perfdir/BENCH_kernel_sim.json" > /dev/null
./build/bench/bench_kernel_telemetry --benchmark_min_time=0.1 \
  --bench-json="$perfdir/BENCH_kernel_telemetry.json" > /dev/null
./build/bench/bench_sec7_chaos --benchmark_min_time=0.1 \
  --bench-json="$perfdir/BENCH_chaos.json" > /dev/null
./build/bench/bench_fig3_tbs_throughput --benchmark_min_time=0.1 \
  --bench-json="$perfdir/BENCH_fig3.json" > /dev/null
./build/bench/bench_fleet --benchmark_filter='BM_Fleet/(1000|10000)$' \
  --benchmark_min_time=0.1 \
  --bench-json="$perfdir/BENCH_fleet.json" > /dev/null
# The 100k-peer world (about half a second per iteration, so one
# iteration) in its own area, so the fleet area's max_rss_bytes keeps
# gating the 1k/10k worlds. BM_Fleet/1000 rides along as the denominator
# of the scaling floor in BENCH_fleet_100k.json.
./build/bench/bench_fleet --benchmark_filter='BM_Fleet/(1000|100000)$' \
  --benchmark_min_time=0.1 --bench-area=fleet_100k \
  --bench-json="$perfdir/BENCH_fleet_100k.json" > /dev/null
if [[ "${HIVESIM_UPDATE_PERF_BASELINE:-0}" == "1" ]]; then
  ./build/tools/hivesim perfgate --current-dir="$perfdir" \
    --baseline-dir=bench/baselines --update
  echo "perf baselines re-recorded; review and commit bench/baselines/"
else
  ./build/tools/hivesim perfgate --current-dir="$perfdir" \
    --baseline-dir=bench/baselines
fi

echo "=== ci.sh: all green ==="

#!/usr/bin/env bash
# Builds the project, runs the full test suite, regenerates every table
# and figure of the paper, and re-runs the headline figure *grids* as
# concurrent sweeps. Outputs land next to this script's repo root as
# test_output.txt, bench_output.txt, and results/sweeps/.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
build/tools/hivesim reproduce 2>&1 | tee bench_output.txt

# The figure grids once more as sweeps: every cell an independent
# simulation on a thread pool, outputs byte-identical to --threads 1
# (proven continuously by tests/sweep_test.cc; see docs/SWEEPS.md).
SWEEP=build/tools/hivesim
THREADS="$(nproc)"
OUT=results/sweeps

echo "### sweep: Fig. 3 suitability grid (models x TBS on 2xA10)"
"$SWEEP" sweep --title "fig3 suitability" --fleets "lambda:2" \
  --models suitability --tbs 8192,16384,32768 --hours 1 \
  --threads "$THREADS" --out "$OUT/fig3"

echo "### sweep: Figs. 7-10 scalability series (A/B/C/D, both models)"
"$SWEEP" sweep --title "figs7-10 scalability" --series A,B,C,D \
  --models CONV,RXLM --threads "$THREADS" --out "$OUT/figs7_10"

echo "### sweep: Section 7 chaos matrix (C series under every preset)"
"$SWEEP" sweep --title "sec7 chaos" --series C \
  --chaos none,wan-degrade,partition,churn --telemetry \
  --threads "$THREADS" --out "$OUT/sec7_chaos"

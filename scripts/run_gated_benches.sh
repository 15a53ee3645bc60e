#!/usr/bin/env bash
# Build and run the gated benches — the one list the CI perf job and
# scripts/update_bench_baseline.sh share.
#
#   scripts/run_gated_benches.sh BUILD_DIR OUT_DIR [REPETITIONS]
#
# BUILD_DIR must already be configured (Release); paths are relative to
# the repository root. Each bench writes OUT_DIR/BENCH_<name>.json with
# REPETITIONS timed repetitions per kernel (default 7), the files
# scripts/compare_bench.py reads.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR [REPETITIONS]" >&2
  exit 2
fi
build_dir="$1"
out_dir="$2"
repetitions="${3:-7}"

benches=(
  bench_a10_disk_map
  bench_a5_throughput
  bench_a13_serve
  bench_a14_pagescan
  bench_a15_cluster
  bench_a16_placement
  bench_a17_repair
)

cmake --build "$build_dir" -j "$(nproc)" --target "${benches[@]}"
mkdir -p "$out_dir"
for bench in "${benches[@]}"; do
  "$build_dir/bench/$bench" \
    --bench-json="$out_dir/BENCH_${bench#bench_}.json" \
    --bench-repetitions="$repetitions"
done

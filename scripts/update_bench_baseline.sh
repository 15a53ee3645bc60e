#!/usr/bin/env bash
# Regenerate the CI perf-gate baselines under bench/baselines/.
#
#   scripts/update_bench_baseline.sh [--repetitions N]
#
# Builds Release into build-baseline/ and reruns every gated bench (the
# list in scripts/run_gated_benches.sh, the same one the CI perf job runs)
# with pinned repetitions, overwriting bench/baselines/BENCH_*.json. Commit the
# result together with the change that legitimately moved the numbers, and
# say why in the commit message — the perf job compares every PR against
# these files.
set -euo pipefail

cd "$(dirname "$0")/.."

repetitions=7
if [[ "${1-}" == "--repetitions" ]]; then
  repetitions="$2"
  shift 2
fi

cmake -B build-baseline -S . -DCMAKE_BUILD_TYPE=Release
scripts/run_gated_benches.sh build-baseline bench/baselines "$repetitions"

echo "baselines updated:"
ls -l bench/baselines/

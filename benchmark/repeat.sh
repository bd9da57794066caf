#!/usr/bin/env bash
# Run the full untraced set twice on the same build and compare the two:
# exits non-zero if any end-to-end median of the second set is worse than
# the first by more than the metric's own bound (BENCHMARK.json), if any
# exact count (gpusim.* counts, tuner.candidates, codegen.cuda_bytes,
# per-window request totals) differs at all, or if any operation failed.
#
#   bash benchmark/repeat.sh [--seed N] [--seconds S]
set -u
cd "$(dirname "$0")/.." || exit 1

for set in first second; do
  for workload in exec2d exec3d exec_nonlinear compile serve; do
    bash benchmark/run.sh --workload "$workload" --trace 0 "$@" \
      --out "benchmark/out/repeat/$set" >/dev/null || exit 1
  done
done
bash benchmark/run.sh --compare benchmark/out/repeat/first benchmark/out/repeat/second

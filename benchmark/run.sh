#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (the form BENCHMARK.json's driver uses);
#       the last line of stdout is the result object.
#   bash benchmark/run.sh [--seed N] [--seconds S]
#       every workload in its own process, tracing off, then once more with
#       tracing on; prints one "workload metric unit value n q1 q3" row per
#       metric and exits non-zero if any output was wrong or any traced
#       run's layers did not add up.
#
# Builds the benchmark package (benchmark/Cargo.toml, its own workspace)
# in release mode first. Output files go to benchmark/out/.
set -u
cd "$(dirname "$0")/.." || exit 1

# Nothing from the caller's environment may select a backend, pool size,
# tune DB or fault plan: the workloads choose their own.
unset AN5D_BACKEND AN5D_POOL_THREADS AN5D_TUNE_DB AN5D_FAULTS
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --quiet --release --offline --manifest-path benchmark/Cargo.toml >&2 || exit 1
binary="$CARGO_TARGET_DIR/release/an5d_benchmark"

for arg in "$@"; do
  case "$arg" in
    --workload | --compare) exec "$binary" "$@" ;;
  esac
done

status=0
for trace in 0 1; do
  for workload in exec2d exec3d exec_nonlinear compile serve; do
    output="$("$binary" --workload "$workload" --trace "$trace" "$@")" || status=1
    printf '%s\n' "$output"
    case "$(printf '%s\n' "$output" | tail -n 1)" in
      '{"correct":true,'*) ;;
      *) status=1 ;;
    esac
  done
done
exit "$status"

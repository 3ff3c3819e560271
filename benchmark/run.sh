#!/usr/bin/env bash
# The benchmark's one command: build the package, then run one workload.
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh <name|all> [--seed N] [--seconds S] [--trace 0|1]
#
# Prints every metric as `name value unit` and, as the last line of a
# workload, one JSON object; exits non-zero if a check fails. Compilation is
# outside every metric.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/slide-benchmark"

workloads=()
if [[ $# -gt 0 && "$1" != --* ]]; then
    if [[ "$1" == all ]]; then
        workloads=(train_xc train_w2v serve_inproc serve_net_i8)
    else
        workloads=("$1")
    fi
    shift
fi
if [[ ${#workloads[@]} -eq 0 ]]; then
    exec "$bin" --out-dir "$here/out" "$@"
fi
status=0
for w in "${workloads[@]}"; do
    "$bin" --out-dir "$here/out" --workload "$w" "$@" || status=$?
done
exit "$status"

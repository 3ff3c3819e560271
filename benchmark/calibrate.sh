#!/usr/bin/env bash
# benchmark/calibrate.sh K: K traced runs of every workload, then for every
# probe-paired phase the run-to-run spread of its normalised time under a
# grid of sensitivities, beside the one the code uses. This is how the
# `sensitivity` constants (probe.rs, train.rs, serve.rs) were chosen; rerun
# it on a new host, or after a change that shifts what a phase is bound by.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/calibrate.py" "$here" "${1:-10}"

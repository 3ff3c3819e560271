#!/usr/bin/env bash
# benchmark/repeat.sh K S: S sets of K untraced runs of every workload (run k
# of every set uses seed k), then per workload x metric the quartile spread
# of each set and the set-to-set disagreement of the medians, beside the
# bound. This is the check the driver makes; the table in README.md is its
# output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 "$here/repeat.py" "$here" "${1:-3}" "${2:-3}"

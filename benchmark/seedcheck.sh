#!/usr/bin/env bash
# Seed hygiene: all four workloads pass every check at seed 2, and the
# metrics that must not depend on the host repeat bit for bit across two
# runs of the same seed: `quality` and `model_mib` wherever training is
# single-threaded (every workload but train_w2v, whose HOGWILD updates race
# by design). Runs at --seconds 3 to stay short.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
pick() { python3 -c 'import json,sys; m=json.loads(sys.stdin.read().strip().splitlines()[-1]); assert m["correct"]; print(*(repr(m["metrics"][k]["value"]) for k in sys.argv[1:]))' "$@"; }
for w in train_xc train_w2v serve_inproc serve_net_i8; do
    a="$(bash "$here/run.sh" --workload "$w" --seed 2 --seconds 3 --trace 0 | pick quality model_mib ok_share)"
    b="$(bash "$here/run.sh" --workload "$w" --seed 2 --seconds 3 --trace 0 | pick quality model_mib ok_share)"
    echo "$w: run 1: $a | run 2: $b"
    if [[ "$w" == train_w2v ]]; then
        [[ "${a#* }" == "${b#* }" ]] || { echo "$w: model_mib/ok_share differ" >&2; exit 1; }
    else
        [[ "$a" == "$b" ]] || { echo "$w: same seed, different result" >&2; exit 1; }
    fi
done
echo "seed hygiene ok"

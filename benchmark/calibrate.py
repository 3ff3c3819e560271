"""Refit the probe sensitivities from traced runs; see calibrate.sh."""
import collections
import json
import os
import statistics
import subprocess
import sys

here, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0)


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def normalised(chunks, alpha):
    return [t * (0.5 * (before + after)) ** alpha for t, before, after in chunks]


for workload in (w["name"] for w in spec["workloads"]):
    # phases[name] = (sensitivity in use, [chunks of run 1, chunks of run 2, ...])
    phases = collections.OrderedDict()
    for seed in range(1, runs + 1):
        subprocess.run(
            ["bash", os.path.join(here, "run.sh"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "1"],
            check=True, capture_output=True)
        trace = json.load(open(os.path.join(here, "out", workload + ".trace.json")))
        merged = collections.OrderedDict()
        for phase in trace["phases"]:  # the three set-ups of a run count as one phase
            merged.setdefault(phase["name"], [phase["sensitivity"], []])[1].extend(phase["chunks"])
        for name, (sensitivity, chunks) in merged.items():
            phases.setdefault(name, (sensitivity, []))[1].append(chunks)
        print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    for name, (in_use, per_run) in phases.items():
        print(f"{workload} / {name}: {len(per_run)} runs x {len(per_run[0])} chunks, sensitivity in use {in_use}")
        for alpha in sorted(set(GRID) | {in_use}):
            totals = [sum(normalised(c, alpha)) for c in per_run]
            medians = [statistics.median(normalised(c, alpha)) for c in per_run]
            mark = "  <- in use" if alpha == in_use else ""
            print(f"  sensitivity {alpha:4.2f}: spread of the sum {spread(totals):.4f}, of the chunk median {spread(medians):.4f}{mark}")

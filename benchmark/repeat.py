"""Driver-style repeatability check; see repeat.sh."""
import json
import os
import statistics
import subprocess
import sys

here, runs, sets = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
spec = json.load(open(os.path.join(here, "..", "BENCHMARK.json")))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]


def one_run(workload, seed):
    out = subprocess.run(
        ["bash", os.path.join(here, "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"], f"{workload} seed {seed}: a check failed"
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


# values[workload][set] = list of per-run metric dicts
values = {w: [[] for _ in range(sets)] for w in workloads}
for s in range(sets):
    for w in workloads:
        for k in range(1, runs + 1):
            values[w][s].append(one_run(w, k))
            print(f"set {s + 1} {w} seed {k} done", file=sys.stderr, flush=True)

os.makedirs(os.path.join(here, "out"), exist_ok=True)
json.dump(values, open(os.path.join(here, "out", "repeat.json"), "w"))

print(f"| workload | metric | median (set 1) | worst spread in a set | worst set-to-set worsening | bound |")
print("|---|---|---|---|---|---|")
worst_ok = True
for w in workloads:
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        per_set = [[r[name] for r in values[w][s]] for s in range(sets)]
        medians = [statistics.median(v) for v in per_set]
        worst_spread = max(spread(v) for v in per_set)
        worsening = 0.0
        for a in range(sets):
            for b in range(sets):
                if a != b and medians[a]:
                    delta = (medians[b] - medians[a]) / medians[a]
                    worsening = max(worsening, delta if better == "lower" else -delta)
        ok = worsening <= bound and (name == "setup_s" or worst_spread <= bound)
        worst_ok &= ok
        print(f"| {w} | {name} | {medians[0]:.5g} | {worst_spread:.4f} | {worsening:.4f} | {bound}{'' if ok else ' EXCEEDED'} |")
sys.exit(0 if worst_ok else 1)

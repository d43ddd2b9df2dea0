#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and every end-to-end metric this prints the median,
the first and third quartiles (Python's ``statistics.quantiles(values,
n=4)``), and the spread: (Q3 - Q1) / median. A metric is *steady* when its
spread is below a third of its bound in BENCHMARK.json, and *wide* when it
exceeds the bound. Every metric is judged, ``setup_s`` too.

``--compare`` checks that two sets of runs of the same code agree: each
metric's second median must lie within its bound of the first, in either
direction. The bound and the run length always come from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py                      # all workloads, 10 seeds
    python3 perfbench/spread.py --workloads kv-read --seeds 5
    python3 perfbench/spread.py --compare a.json b.json   # two saved sets

``--out FILE`` saves the raw values so two sets can be compared later.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def differs_by(first, second):
    """How far the second median lies from the first, as a share of it."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    return abs(second - first) / first


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    out = subprocess.run(args, stdout=subprocess.PIPE, check=False, text=True)
    wall = time.monotonic() - started
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    steal = [s[3] for s in json.loads(lines[-2])["perfbench"]["slices"]]
    return result, wall, steal or [0.0]


def collect(bench, workloads, seeds):
    data = {}
    for w in workloads:
        data[w] = {}
        for seed in seeds:
            result, wall, steal = run_once(bench["command"], w, seed,
                                           bench["run_seconds"])
            for name, m in result["metrics"].items():
                data[w].setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: {wall:.1f} s wall, "
                  f"failed {result['failed']}/{result['attempted']}, "
                  f"host steal {statistics.mean(steal):.0%} (seconds up to "
                  f"{max(steal):.0%})",
                  file=sys.stderr)
    return data


def report(bench, data):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w, per_metric in data.items():
        print(f"{w}:")
        for name, values in per_metric.items():
            med, q1, q3, s = spread(values)
            bound = metrics[name]["bound"]
            if s < bound / 3:
                verdict = "steady"
            else:
                verdict = "WIDE" if s > bound else "within bound"
                ok = ok and s <= bound
            print(f"  {name:18s} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {s:7.2%}  bound {bound:.0%}  {verdict}")
    return ok


def compare(bench, first, second):
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in first:
        print(f"{w}:")
        for name, values in first[w].items():
            m1 = statistics.median(values)
            m2 = statistics.median(second[w][name])
            d = differs_by(m1, m2)
            bound = metrics[name]["bound"]
            verdict = "agree" if d <= bound else "DISAGREE"
            ok = ok and d <= bound
            print(f"  {name:18s} first {m1:<14.6g} second {m2:<14.6g}"
                  f" differs by {d:7.2%}  bound {bound:.0%}  {verdict}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if a.compare:
        sets = []
        for path in a.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(bench, *sets) else 1)
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(a.first_seed, a.first_seed + a.seeds)
    data = collect(bench, workloads, seeds)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(data, f, indent=1)
    sys.exit(0 if report(bench, data) else 1)


if __name__ == "__main__":
    main()

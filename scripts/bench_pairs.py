#!/usr/bin/env python3
"""Run the benchmark in two checkouts, in alternating pairs, and compare.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds S]

PARENT and CHANGE are two lcklab checkouts.  Pair i (i = 1 .. --pairs) runs
``python3 bench/run.py --workload W --seed i --seconds S --trace 0`` once in
each, with the same seed: the parent first on odd i, the change first on
even i.  ``--seconds`` defaults to the ``run_seconds`` of BENCHMARK.json.

For every end-to-end metric of CHANGE's ``BENCHMARK.json`` it prints both
medians over the pairs, the pairs the change wins (a tie counts for neither
side), the parent's interquartile range, whether the change's median
stays within the metric's bound (worse than the parent's median by at most
that fraction), whether the metric is unresolved and whether the change
shows a gain, then every run's value.  A metric is unresolved when the
parent's interquartile range is wider than its bound times the parent's
median, so that the runs spread too widely for the bound to tell a
regression, unless every run of the change is better than every run of the
parent.  A gain needs both: the change wins at least nine tenths of the
pairs, and its median is better than the parent's by more than the
parent's interquartile range.  Exit status 1 if any run reports a
failed check.  Nothing outside ``BENCHMARK.json`` and ``bench/`` of the two
checkouts is read or run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3), inclusive method, as ``bench/run.py`` reports them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(end_to_end, parent, change):
    """One row per end-to-end metric comparing two equally long lists of
    runs, pair i being (parent[i], change[i]).  A run is the JSON object
    ``bench/run.py`` prints last; ``end_to_end`` is the BENCHMARK.json list
    of {name, unit, better, bound}."""
    rows = []
    for metric in end_to_end:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        old = [run["metrics"][name]["value"] for run in parent]
        new = [run["metrics"][name]["value"] for run in change]
        q1, old_med, q3 = quartiles(old)
        new_med = statistics.median(new)
        worse_by = (new_med - old_med) if lower else (old_med - new_med)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        all_better = max(new) < min(old) if lower else min(new) > max(old)
        rows.append({
            "metric": name, "unit": metric["unit"], "bound": bound,
            "parent_median": old_med, "change_median": new_med,
            "change_wins": wins, "pairs": len(old), "parent_iqr": q3 - q1,
            "within_bound": worse_by <= bound * abs(old_med),
            "unresolved": q3 - q1 > bound * abs(old_med) and not all_better,
            "gain": 10 * wins >= 9 * len(old) and -worse_by > q3 - q1,
            "parent": old, "change": new,
        })
    return rows


def run_bench(checkout, workload, seed, seconds):
    """The last stdout line of one benchmark run in ``checkout``, parsed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {checkout} (exit {done.returncode}):\n"
                         f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    parent, change = [], []
    for seed in range(1, args.pairs + 1):
        order = [(args.parent, parent), (args.change, change)]
        for checkout, runs in order if seed % 2 else order[::-1]:
            runs.append(run_bench(checkout, args.workload, seed, seconds))
        print(f"pair {seed} done", file=sys.stderr)

    print(f"workload {args.workload}: {args.pairs} pairs, seeds 1..{args.pairs}, "
          f"{seconds:g} s per run")
    print(f"  {'metric':<12s} {'parent':>10s} {'change':>10s} {'wins':>7s} "
          f"{'parent_iqr':>10s} {'bound':>6s}  within  unresolved  gain")
    rows = summarize(spec["end_to_end"], parent, change)
    for r in rows:
        print(f"  {r['metric']:<12s} {r['parent_median']:10.4g} {r['change_median']:10.4g} "
              f"{r['change_wins']:>3d}/{r['pairs']:<3d} {r['parent_iqr']:10.3g} "
              f"{r['bound']:6g}  {'yes' if r['within_bound'] else 'NO':6s}  "
              f"{'YES' if r['unresolved'] else 'no':10s}  "
              f"{'yes' if r['gain'] else 'no'}")
    for r in rows:
        for side in ("parent", "change"):
            print(f"  {r['metric']} {side}: " + " ".join(f"{v:.4g}" for v in r[side]))
    failed = [sum(run["failed"] for run in runs) for runs in (parent, change)]
    print(f"  failed checks: parent {failed[0]}, change {failed[1]}")
    return 1 if any(failed) else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""lcklab benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload gallery --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates plain and traced passes and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the same
figures for a reader, plus the machine.  A fuller record, with every pass
and every residual, goes to ``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS, Tracer, instrument, layer_metrics
from workloads import Tally, call_label, check_call, load_answers, residuals, run_pass

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PROBES = 7  # fresh processes timed for setup_s
MIN_PASSES = 3  # measured passes per run even when --seconds runs out first

# Runs in a fresh interpreter: import lcklab, build each fixture once, then
# print the system-wide monotonic clock so the parent can take the difference.
_PROBE = """
import sys, time
from lcklab import cli, manifolds
for fx in sys.argv[1:]:
    name, params = cli.parse_fixture(fx)
    manifolds.gallery(name, **params)
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
"""


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def machine():
    """The settings a timing depends on, recorded with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup_times(fixtures):
    """Fresh process to lcklab imported and every fixture built, SETUP_PROBES times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", _PROBE, *fixtures], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return out


class Runner:
    """Passes of one workload, each checked against the known answers."""

    def __init__(self, answers, workload, seed):
        self.answers = answers
        self.calls = answers["workloads"][workload]["calls"]
        self.seed = seed
        self.tally = Tally()
        self.first = None
        self.last = None

    def timed_pass(self):
        c0, t0 = time.process_time(), time.perf_counter()
        results = run_pass(self.calls, self.seed)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        self.check(results)
        return wall, cpu

    def check(self, results):
        from lcklab.cli import strip_volatile

        stripped = [json.dumps(strip_volatile(r), sort_keys=True) for r, _ in results]
        for i, (call, (report, code)) in enumerate(zip(self.calls, results)):
            check_call(self.tally, self.answers, call, report, code)
            if self.first is not None:
                self.tally.expect(stripped[i] == self.first[i],
                                  f"{call_label(call)}: report differs from the first pass")
        if self.first is None:
            self.first = stripped
        self.last = results


def measure_end_to_end(runner, seconds, fixtures):
    setup = setup_times(fixtures)
    runner.timed_pass()  # warm-up: first-call costs users pay once per process
    walls, cpus = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(walls) < MIN_PASSES:
        wall, cpu = runner.timed_pass()
        walls.append(wall)
        cpus.append(cpu)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
    return metrics, samples


def measure_per_layer(runner, seconds):
    runner.timed_pass()  # warm-up, untraced
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not traced:
        plain.append(runner.timed_pass()[0])
        tracer = Tracer()
        with instrument(tracer), tracer.run():
            results = run_pass(runner.calls, runner.seed)
        runner.check(results)
        traced.append(layer_metrics(tracer))
    metrics = {}
    for name, (_, unit) in traced[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in traced), unit)
    overhead = metrics["trace.wall_s"][0] - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"plain_wall_s": plain, "traced": [{k: v for k, (v, _) in m.items()} for m in traced]}
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lcklab" / "__init__.py").is_file():
        print(f"error: no lcklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    answers = load_answers()
    if args.workload not in answers["workloads"]:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(answers['workloads'])}", file=sys.stderr)
        return 2
    spec = answers["workloads"][args.workload]
    runner = Runner(answers, args.workload, args.seed)
    if args.trace:
        metrics, samples = measure_per_layer(runner, args.seconds)
    else:
        metrics, samples = measure_end_to_end(runner, args.seconds, spec["setup"])

    info = machine()
    tally = runner.tally
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        line = f"  {name:<30s} {value:14.6g} {unit}"
        if name in samples:
            q1, _, q3 = quartiles(samples[name])
            line += f"   (median of {len(samples[name])}; quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    if args.trace:
        gap = max(abs(sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.harness_s"]
                      - m["trace.wall_s"]) for m in samples["traced"])
        print(f"  layer self times + trace.harness_s = trace.wall_s within {gap:.3g} s"
              f" in each of {len(samples['traced'])} traced passes")
    print(f"  {'checks_failed':<30s} {tally.failed:14d} count   (of checks_total {tally.attempted})")
    for problem in tally.problems:
        print(f"  known-answer mismatch: {problem}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples, "checks_total": tally.attempted,
        "checks_failed": tally.failed, "problems": tally.problems,
        "residuals": residuals(runner.last, runner.calls),
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print every benchmark workload's reports as one canonical JSON document.

Runs each call of the named workloads in ``bench/known_answers.json`` (read
only) once, in order, at one seed, and drops the wall-clock fields with
``lcklab.cli.strip_volatile``.  The document has sorted keys, one value per
line and every float written by ``repr`` (the shortest string that reads
back to the same double), so two digests taken from two checkouts differ
exactly where a reported value moved:

    python3 scripts/report_digest.py --seed 42 gallery orbit_n3 > change.json
    diff parent.json change.json

With no workload named, every workload is run.  An lcklab error is recorded
as the message and exit code the command line would give it.
"""

import argparse
import json
import sys
from pathlib import Path

from lcklab import cli
from lcklab.errors import GalleryError, InadmissibleInput, NumericalError

ANSWERS = Path(__file__).resolve().parents[1] / "bench" / "known_answers.json"


def run_call(call, seed):
    """{call, exit, report} of one known-answers call at ``seed``."""
    args = call.get("args", [])
    kwargs = call.get("kwargs", {})
    try:
        report, code = getattr(cli, call["entry"])(*args, seed=seed, **kwargs)
    except (GalleryError, NumericalError, InadmissibleInput) as exc:
        report, code = {"error": str(exc)}, cli._exit_code_for(exc)
    label = ",".join([*map(str, args), *(f"{k}={v}" for k, v in kwargs.items())])
    return {"call": f"{call['entry']}({label})", "exit": code,
            "report": cli.strip_volatile(report)}


def digest(workloads, seed):
    with open(ANSWERS) as fh:
        known = json.load(fh)["workloads"]
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {sorted(known)}")
    return {"seed": seed,
            "workloads": {name: [run_call(call, seed) for call in known[name]["calls"]]
                          for name in workloads or sorted(known)}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workload names (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    json.dump(digest(args.workloads, args.seed), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

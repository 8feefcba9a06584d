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

``--against FILE`` compares the digest with one written earlier instead of
printing it: each leaf that moved is printed as ``path: old -> new``
(``<absent>`` where a side lacks it), and the exit status is 1 if any exit
code, ``pass``/``all_pass`` flag or verdict moved, else 0:

    python3 scripts/report_digest.py --seed 42 --against parent.json
"""

import argparse
import json
import sys
from pathlib import Path

from lcklab import cli
from lcklab.errors import EXIT_ERRORS

ANSWERS = Path(__file__).resolve().parents[1] / "bench" / "known_answers.json"
# leaves whose move changes an outcome, not only a value
GATES = {"exit", "pass", "all_pass", "verdict"}
LABELS = ("name", "call", "fixture")


def run_call(call, seed):
    """{call, exit, report} of one known-answers call at ``seed``."""
    args = call.get("args", [])
    kwargs = call.get("kwargs", {})
    try:
        report, code = getattr(cli, call["entry"])(*args, seed=seed, **kwargs)
    except EXIT_ERRORS as exc:
        report, code = {"error": str(exc)}, exc.exit_code
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


def leaves(doc, path=""):
    """{path: value} of every leaf of a digest.  A list item is named by its
    ``name``, ``call`` or ``fixture`` when that is unique in the list, else
    by index."""
    if isinstance(doc, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in doc.items()]
    elif isinstance(doc, list):
        labels = [next((x[k] for k in LABELS if k in x), None)
                  if isinstance(x, dict) else None for x in doc]
        items = [(f"{path}[{i if lab is None or labels.count(lab) > 1 else lab}]", x)
                 for i, (lab, x) in enumerate(zip(labels, doc))]
    else:
        return {path: doc}
    out = {}
    for p, v in items:
        out.update(leaves(v, p))
    return out


def compare(old, new):
    """The lines ``path: old -> new`` of the leaves that moved between two
    digests, and whether any of them is a gate (exit code, pass flag or
    verdict)."""
    before, after = leaves(old), leaves(new)
    lines, gated = [], False
    for path in sorted(before.keys() | after.keys()):
        # compared as written, so 1 and 1.0 differ and NaN equals NaN
        x, y = (json.dumps(side[path]) if path in side else "<absent>"
                for side in (before, after))
        if x != y:
            lines.append(f"{path}: {x} -> {y}")
            gated |= path.rsplit(".", 1)[-1] in GATES
    return lines, gated


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workload names (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--against", metavar="FILE",
                        help="print the leaves that moved since this digest")
    args = parser.parse_args(argv)
    doc = digest(args.workloads, args.seed)
    if args.against is None:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    with open(args.against) as fh:
        lines, gated = compare(json.load(fh), doc)
    for line in lines:
        print(line)
    return 1 if gated else 0


if __name__ == "__main__":
    raise SystemExit(main())

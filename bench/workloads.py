"""Workload passes and the known-answers check.

A workload is a fixed list of calls into ``lcklab.cli`` (see
``known_answers.json``).  One pass makes every call once, in order, each with
the benchmark's seed; the next call starts only after the last returned.
"""

from __future__ import annotations

import json
from pathlib import Path

ANSWERS_PATH = Path(__file__).resolve().parent / "known_answers.json"


def load_answers(path=ANSWERS_PATH):
    with open(path) as fh:
        return json.load(fh)


def call_label(call):
    args = ",".join(str(a) for a in call.get("args", ()))
    return f"{call['entry']}({args})"


def run_pass(calls, seed):
    """Make every call once; returns [(report, exit code)] in call order.

    An lcklab error becomes the exit code the command line gives it, so a
    call that raises is counted as a changed exit code, not a crash.
    """
    from lcklab import cli
    from lcklab.errors import GalleryError, InadmissibleInput, NumericalError

    exit_codes = {GalleryError: 2, NumericalError: 3, InadmissibleInput: 4}
    out = []
    for call in calls:
        entry = getattr(cli, call["entry"])
        try:
            out.append(entry(*call.get("args", ()), seed=seed, **call.get("kwargs", {})))
        except tuple(exit_codes) as exc:
            code = next(c for cls, c in exit_codes.items() if isinstance(exc, cls))
            out.append(({"error": str(exc)}, code))
    return out


class Tally:
    """Rows compared against the known answers, and the ones that differ."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(what)


def _suite_of(call):
    if call["entry"] == "run_potential":
        return f"potential:{call['args'][0]}"
    return call["args"][0].partition(":")[0]


def check_suite(tally, where, report, suite):
    """Every expected row present with pass true, no extra rows, same verdicts."""
    rows = {c["name"]: c for c in report.get("checks", [])}
    for name in suite["checks"]:
        row = rows.get(name)
        tally.expect(row is not None and row["pass"] is True,
                     f"{where}: check {name} " + ("missing" if row is None else "failed"))
    for name in rows.keys() - set(suite["checks"]):
        tally.expect(False, f"{where}: unexpected check {name}")
    got = [v["verdict"] for v in report.get("verdicts", [])]
    want = suite["verdicts"]
    for i in range(max(len(got), len(want))):
        g = got[i] if i < len(got) else None
        w = want[i] if i < len(want) else None
        tally.expect(g == w, f"{where}: verdict {g} where {w} is known")


def check_call(tally, answers, call, report, code):
    label = call_label(call)
    tally.expect(code == call["exit"], f"{label}: exit {code} where {call['exit']} is known")
    if call["entry"] != "run_report":
        check_suite(tally, label, report, answers["suites"][_suite_of(call)])
        return
    by_id = {f["fixture"]: f for f in report.get("fixtures", [])}
    summary = report.get("summary", {})
    for fx, want in call["fixtures"].items():
        tally.expect(summary.get(fx) == want,
                     f"{label}/{fx}: exit {summary.get(fx)} where {want} is known")
        check_suite(tally, f"{label}/{fx}", by_id.get(fx, {}),
                    answers["suites"][fx.partition(":")[0]])
    for fx in by_id.keys() - set(call["fixtures"]):
        tally.expect(False, f"{label}: unexpected fixture {fx}")


def residuals(results, calls):
    """{call label: {check name: residual}} for the record; never compared."""
    out = {}
    for call, (report, _) in zip(calls, results):
        label = call_label(call)
        for rep in report.get("fixtures", [report]):
            key = f"{label}/{rep['fixture']}" if "fixtures" in report else label
            out[key] = {c["name"]: c["residual"] for c in rep.get("checks", [])}
    return out

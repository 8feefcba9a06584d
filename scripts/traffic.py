#!/usr/bin/env python3
"""Print, per module of lcklab, the statements and functions no benchmark
call runs.

Runs each call of the named workloads in ``bench/known_answers.json`` (read
only) once, in order, at one seed, as ``report_digest.py`` does, with a
``sys.settrace`` line tracer on the frames of the lcklab package.  A
statement is a line of a function body that holds bytecode; a def line and
module or class level code run at import, so they are not counted.  Each
module prints how many of its statements no call ran, then those lines as
ranges under the function that holds them, then the named functions (not
lambdas or comprehensions) that no call entered at all, by first line:

    python3 scripts/traffic.py --seed 42 gallery orbit_n3

With no workload named, every workload is run.  Tracing makes the calls a
few times slower (about 1.2 s against 0.35 s for all workloads, warm, on a
2-vCPU host).
"""

import argparse
import inspect
import json
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

# this checkout's lcklab first, whatever PYTHONPATH names
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lcklab
from report_digest import ANSWERS, run_call

PACKAGE = os.path.dirname(lcklab.__file__)


def _function_codes(path):
    """The code objects of the functions compiled from the source file
    ``path``, module and class bodies left out."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS:
            yield code


def statements(path):
    """{line: qualified name} of the statement lines of the functions
    compiled from the source file ``path``."""
    out = {}
    for code in _function_codes(path):
        for _, _, line in code.co_lines():
            # a lambda or comprehension starts on a line of its body
            if line is not None and (line != code.co_firstlineno
                                     or code.co_name.startswith("<")):
                out.setdefault(line, code.co_qualname)
    return out


def functions(path):
    """{(qualified name, first line)} of the named functions compiled from
    the source file ``path``: lambdas and comprehensions left out."""
    return {(code.co_qualname, code.co_firstlineno) for code in _function_codes(path)
            if not code.co_name.startswith("<")}


def executed(calls, seed):
    """({source path: lines}, {source path: functions}) of the lcklab lines
    that running ``calls`` at ``seed`` executed and the functions it
    entered, each as (qualified name, first line)."""
    ran, entered = defaultdict(set), defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE + os.sep):
            return None
        entered[code.co_filename].add((code.co_qualname, code.co_firstlineno))
        return local

    before = sys.gettrace()
    sys.settrace(enter)
    try:
        for call in calls:
            run_call(call, seed)
    finally:
        sys.settrace(before)
    return ran, entered


def unrun(calls, seed):
    """{module file name: (statements, statements not run, ranges,
    functions not entered)}: the ranges (function, first line, last line)
    merge the consecutive statements of one function that no call ran; the
    functions (qualified name, first line) are in line order."""
    ran, entered = executed(calls, seed)
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        stmts = statements(path)
        missed = sorted(set(stmts) - ran[path])
        ranges, prev = [], None
        for line in sorted(stmts):
            if line in ran[path]:
                prev = None
            elif prev == stmts[line]:
                ranges[-1][2] = line
            else:
                prev = stmts[line]
                ranges.append([prev, line, line])
        idle = sorted(functions(path) - entered[path], key=lambda f: f[1])
        out[name] = (len(stmts), len(missed), [tuple(r) for r in ranges], idle)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help="workload names (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    with open(ANSWERS) as fh:
        known = json.load(fh)["workloads"]
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; choose from {sorted(known)}")
    calls = [c for w in args.workloads or sorted(known) for c in known[w]["calls"]]
    for name, (total, missed, ranges, idle) in unrun(calls, args.seed).items():
        print(f"{name}: {missed} of {total} statements not run")
        for fn, first, last in ranges:
            print(f"  {first}-{last} {fn}" if last > first else f"  {first} {fn}")
        print(f"  {len(idle)} functions not entered")
        for fn, first in idle:
            print(f"    {first} {fn}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

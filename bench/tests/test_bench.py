"""Tests of the benchmark's own code: span arithmetic, unwrapping, answers.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import copy
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from spans import LAYERS, Tracer, instrument, layer_metrics  # noqa: E402
from workloads import Tally, check_call, load_answers, run_pass  # noqa: E402


class StepClock:
    """A clock that reads ``now`` and advances by ``tick`` on every read."""

    def __init__(self, tick=0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        t = self.now
        self.now += self.tick
        return t


def _synthetic_tree(tr, clock):
    # cli.a [0,10] > fields.b [1,6] > (jets.c [2,3], jets.d [4,5]);
    #               fields.e [7,9] > fields.f [7.5,8.5]
    with tr.run():
        with tr.span("cli", "a"):
            clock.now += 1
            with tr.span("fields", "b"):
                clock.now += 1
                with tr.span("jets", "c"):
                    clock.now += 1
                clock.now += 1
                with tr.span("jets", "d"):
                    clock.now += 1
                clock.now += 1
            clock.now += 1
            with tr.span("fields", "e"):
                clock.now += 0.5
                with tr.span("fields", "f"):
                    clock.now += 1
                clock.now += 0.5
            clock.now += 1


def test_self_time_of_a_synthetic_span_tree():
    clock = StepClock()
    tr = Tracer(clock=clock)
    _synthetic_tree(tr, clock)
    assert tr.self_s["cli"] == pytest.approx(10 - 5 - 2)
    assert tr.self_s["fields"] == pytest.approx((5 - 2) + (2 - 1) + 1)
    assert tr.self_s["jets"] == pytest.approx(2)
    # busy time counts only the outermost span of a layer
    assert tr.busy_s["fields"] == pytest.approx(5 + 2)
    assert tr.fn_busy_s["f"] == pytest.approx(1)
    assert tr.calls == {"cli": 1, "fields": 3, "jets": 2}
    assert tr.wall_s == pytest.approx(10)
    assert tr.harness_s == pytest.approx(0)


def test_self_times_and_harness_add_up_to_wall_time():
    # every clock read costs 0.01, so bookkeeping is visible as harness time
    clock = StepClock(tick=0.01)
    tr = Tracer(clock=clock)
    _synthetic_tree(tr, clock)
    assert tr.harness_s > 0
    assert sum(tr.self_s.values()) + tr.harness_s == pytest.approx(tr.wall_s)


def test_wrappers_are_removed_after_the_traced_run():
    from lcklab import cli, fields, forms, jets, manifolds, torus

    before = {
        "mul": jets.Jet.__dict__["__mul__"],
        "rmul": jets.Jet.__dict__["__rmul__"],
        "eval": fields.ScalarField.eval,
        "constant": fields.constant,
        "fields.compose_multi": fields.compose_multi,
        "basis": forms.Form.__dict__["basis"],
        "cli.exterior_d": cli.exterior_d,
        "gallery": manifolds.gallery,
        "pairings": torus.averaged_pairings,
    }
    tr = Tracer()
    with instrument(tr):
        assert jets.Jet.__dict__["__mul__"] is not before["mul"]
        assert jets.Jet.__dict__["__rmul__"] is jets.Jet.__dict__["__mul__"]
        assert fields.compose_multi is jets.compose_multi
        assert fields.compose_multi.__wrapped__ is before["fields.compose_multi"]
        assert isinstance(forms.Form.__dict__["basis"], staticmethod)
        with tr.run():
            run_pass([{"entry": "run_verify", "args": ["hxc_cover"],
                       "kwargs": {"points": 10}}], seed=3)
    assert tr.calls["jets"] > 0 and tr.calls["cli"] > 0
    after = {
        "mul": jets.Jet.__dict__["__mul__"],
        "rmul": jets.Jet.__dict__["__rmul__"],
        "eval": fields.ScalarField.eval,
        "constant": fields.constant,
        "fields.compose_multi": fields.compose_multi,
        "basis": forms.Form.__dict__["basis"],
        "cli.exterior_d": cli.exterior_d,
        "gallery": manifolds.gallery,
        "pairings": torus.averaged_pairings,
    }
    assert all(after[k] is before[k] for k in before)
    for layer in LAYERS:
        mod = sys.modules[f"lcklab.{layer}"]
        assert not any(hasattr(v, "__wrapped__") for v in vars(mod).values()
                       if inspect.isfunction(v))
    calls = dict(tr.calls)
    run_pass([{"entry": "run_verify", "args": ["hxc_cover"], "kwargs": {"points": 10}}], seed=3)
    assert dict(tr.calls) == calls


def test_traced_pass_counts_work_at_the_layer_boundaries():
    tr = Tracer()
    calls = [{"entry": "run_verify", "args": ["hopf_nondiag"], "kwargs": {"points": 20, "nodes": 512}}]
    with instrument(tr), tr.run():
        (report, code), = run_pass(calls, seed=5)
    assert code == 0
    m = {k: v for k, (v, _) in layer_metrics(tr).items()}
    # verdict probe of 12 points on a 32 x 32 node grid of the 2-torus
    assert m["torus.pairing_points"] == 12 * 32 ** 2
    assert m["jets.mul_calls"] > 0 and 0 < m["jets.mul_zero_operand_share"] < 1
    assert 0 < m["fields.cache_hit_share"] < 1
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.harness_s"] == \
        pytest.approx(m["trace.wall_s"])


def _gallery_result():
    """A report shaped like the gallery's known answers, built by hand."""
    answers = load_answers()
    suites = answers["suites"]

    def suite_report(name):
        return {"checks": [{"name": c, "pass": True, "residual": 0.0} for c in suites[name]["checks"]],
                "verdicts": [{"verdict": v} for v in suites[name]["verdicts"]]}

    call = answers["workloads"]["gallery"]["calls"][0]
    report = {"fixtures": [dict(suite_report(fx), fixture=fx) for fx in call["fixtures"]],
              "summary": {fx: 0 for fx in call["fixtures"]}}
    return answers, call, report


def _tally(answers, call, report, code):
    tally = Tally()
    check_call(tally, answers, call, report, code)
    return tally


def test_known_answers_accept_the_expected_report():
    answers, call, report = _gallery_result()
    tally = _tally(answers, call, report, 0)
    assert tally.failed == 0 and tally.attempted > 60


def test_known_answers_flag_a_flipped_verdict():
    answers, call, report = _gallery_result()
    bad = copy.deepcopy(report)
    bad["fixtures"][1]["verdicts"][0]["verdict"] = "PurelyReal"
    tally = _tally(answers, call, bad, 0)
    assert tally.failed == 1
    assert "hopf_nondiag: verdict PurelyReal" in tally.problems[0]


def test_known_answers_flag_a_changed_exit_code():
    answers, call, report = _gallery_result()
    assert _tally(answers, call, report, 1).failed == 1
    bad = copy.deepcopy(report)
    bad["summary"]["leeolo"] = 3
    assert _tally(answers, call, bad, 0).failed == 1


def test_known_answers_flag_a_failed_missing_or_extra_row():
    answers, call, report = _gallery_result()
    bad = copy.deepcopy(report)
    bad["fixtures"][0]["checks"][0]["pass"] = False
    del bad["fixtures"][2]["checks"][-1]
    bad["fixtures"][5]["checks"].append({"name": "new_row", "pass": True})
    assert _tally(answers, call, bad, 0).failed == 3

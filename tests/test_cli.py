"""CLI contract: exit codes, JSON schema, determinism, polarity metadata."""

import cmath
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lcklab import cli
from lcklab import manifolds as M
from lcklab import potential as P
from lcklab.errors import GalleryError, InadmissibleInput


def test_parse_fixture_strings():
    name, params = cli.parse_fixture("hopf_diag:n=2,beta=0.5")
    assert name == "hopf_diag" and params == {"n": 2, "beta": 0.5}
    name, params = cli.parse_fixture("hopf_nondiag:beta=0.4+0.1j,m=2")
    assert params["beta"] == 0.4 + 0.1j and params["m"] == 2
    name, params = cli.parse_fixture("inoue_splus")
    assert name == "inoue_splus" and params == {}


def test_verify_exit_codes(tmp_path):
    rc = cli.main(["verify", "hopf_diag:n=2,beta=0.5", "--points", "40",
                   "--json", str(tmp_path / "out.json")])
    assert rc == 0
    body = json.loads((tmp_path / "out.json").read_text())
    assert body["fixture"] == "hopf_diag:n=2,beta=0.5"
    assert body["seed"] == 42 and body["points"] == 40
    for check in body["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "polarity",
                              "pass", "paper_anchor"}
        small = check["residual"] < check["tolerance"]
        expected = small if check["polarity"] == "expect_small" else not small
        assert check["pass"] == expected
    assert body["verdicts"][0]["verdict"] == "VaismanExists"
    assert "runtime_ms" in body


@pytest.mark.parametrize("beta", ["0.3+0.2j", "-0.5"])
def test_hopf_diag_beta_off_the_positive_axis_verifies(beta):
    # the suite's torus uses the Lee circle that closes via gamma
    body, code = cli.run_verify(f"hopf_diag:beta={beta}", points=40)
    assert code == 0
    assert body["verdicts"][0]["verdict"] == "VaismanExists"
    assert body["verdicts"][0]["generators"] == ["A", "L"]


def test_unknown_fixture_exits_2(capsys):
    assert cli.main(["verify", "unknown_thing"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "hopf_diag:foo=1"],
    ["verify", "hopf_diag:n=abc"],
    ["verify", "hopf_diag", "--points", "0"],
    ["report", "--all", "--points", "0"],
    ["verify", "hopf_diag:beta=1.5"],
    ["verify", "hopf_nondiag:beta=0.99"],
    ["verify", "hopf_nondiag:lam=0"],
    ["verify", "inoue_splus:r=0"],
    ["verify", "hopf_diag:n=1"],
    ["verify", "leeolo:n=1"],
    ["verify", "hopf_diag:beta=0.001"],
    ["verify", "hopf_nondiag:lam=1000"],
    ["verify", "hopf_nondiag:m=5"],
    ["verify", "hopf_nondiag:beta=0.5,lam=0.75,m=5"],
    ["verify", "hopf_nondiag:lam=0.00001"],
    ["verify", "leeolo:eps=0"],
    ["verify", "leeolo:eps=0.00001", "--seed", "7"],
    ["verify", "leeolo:eps=-0.00003", "--seed", "12345"],
    ["verify", "product:a=hxc_cover,b=hxc_cover"],
    ["potential", "first-order", "--f", "cos:abc"],
    ["potential", "orbit", "--periods", "0"],
    ["potential", "orbit", "--periods", "-1"],
    ["verify", "hopf_diag", "--seed", "-1"],
    ["report", "--all", "--seed", "-1"],
    ["potential", "first-order", "--seed", "-1"],
    ["verify", "leeolo:eps=nan"],
    ["verify", "inoue_splus", "--nodes", "0"],
    ["verify", "hopf_diag", "--nodes", "-5"],
    ["report", "--all", "--nodes", "0"],
    ["verify", "hopf_diag", "--tol", "nan"],
    ["verify", "hopf_diag", "--tol", "-1"],
    ["report", "--all", "--tol", "nan"],
    ["verify", "inoue_splus:t=nan"],
    ["verify", "inoue_splus:t=inf"],
    ["verify", "hopf_nondiag:lam=nan"],
    ["verify", "product:a=3"],
    ["verify", "product:b=3.5"],
    ["verify", "inoue_splus:N=abc"],
    ["verify", "inoue_splus:N=1j"],
])
def test_bad_parameters_exit_2_without_traceback(argv, capsys):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.out + out.err


def _values_of_the_wrong_kind(default):
    """CLI values that a parameter with this default cannot take."""
    rank = M._numeric_rank(default)
    if rank is None:
        return ["3", "1j"]
    return ["abc"] if rank == 2 else ["abc", "1j"]


@pytest.mark.parametrize("fixture,param,bad", [
    (fx, p, bad) for fx, builder in M._BUILDERS.items()
    for p, spec in inspect.signature(builder).parameters.items()
    for bad in _values_of_the_wrong_kind(spec.default)])
def test_every_fixture_parameter_refuses_a_value_of_the_wrong_kind(fixture, param, bad,
                                                                   capsys):
    assert cli.main(["verify", f"{fixture}:{param}={bad}"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.out + out.err


def test_orbit_periods_are_refused_past_the_certified_edge(tmp_path, capsys):
    # 56 periods keep the flowed integrand 5 |z|^2 e^{-2s} at the sampler's
    # inner radius a normal double; uncapped, the seed-42 probe's was
    # subnormal at 57 and rounded to 0 at 60 (exit 3)
    edge = P._ORBIT_MAX_PERIODS
    assert edge == 56
    out_json = tmp_path / "edge.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["potential", "orbit", "--periods", str(edge),
                         "--json", str(out_json)]) == 0
    capsys.readouterr()
    checks = json.loads(out_json.read_text())["orbit_checks"]
    assert sys.float_info.min <= checks["min_f_along_flow"]
    for periods in (edge + 1, 60):
        assert cli.main(["potential", "orbit", "--periods", str(periods)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith(f"error: the orbit pipeline certifies at most {edge}")
        assert "falls below the normal double range" in out.err
        assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("fixture", ["hopf_nondiag:lam=1.3", "hopf_nondiag:m=1",
                                     "hopf_nondiag:lam=0.6+0.6j", "hopf_nondiag:lam=1j"])
def test_hopf_nondiag_inside_its_domain_verifies(fixture):
    body, code = cli.run_verify(fixture, points=40)
    assert code == 0
    assert body["verdicts"][0]["verdict"] == "PositivePotentialExists"


@pytest.mark.parametrize("fixture", [
    "hopf_nondiag:m=3",    # xi2 orbit stretch 14.3 of 16
    "hopf_nondiag:m=3 --seed 8",  # a sample near z1 = 0, where xi2 ~ xi1
    "hopf_nondiag:beta=0.5,lam=0.75,m=4",  # the largest m accepted
    "hopf_nondiag:lam=2",  # stretch 11.8
    "hopf_nondiag:lam=0.0001",  # the smallest |lam| accepted
    "hopf_diag:beta=0.01",  # the smallest |beta| hopf_diag accepts
    "leeolo:eps=0.001",    # the smallest |eps| leeolo accepts
])
def test_parameters_at_the_edge_of_their_domain_exit_0(fixture, capsys):
    assert cli.main(["verify", *fixture.split()]) == 0
    assert "FAIL" not in capsys.readouterr().out


def _complex_in_disc(radius):
    # radii on a grid of step 0.05, so most draws land inside the domain
    return st.builds(cmath.rect, st.integers(0, int(radius * 20)).map(lambda k: k / 20),
                     st.floats(-cmath.pi, cmath.pi))


# Each domain reaches past its fixture's accepted parameters on every side.
FIXTURE_DOMAINS = {
    "hopf_diag": st.builds("hopf_diag:n={},beta={}".format,
                           st.integers(1, 4), _complex_in_disc(1.1)),
    "hopf_nondiag": st.builds("hopf_nondiag:beta={},lam={},m={}".format,
                              _complex_in_disc(1.05), st.floats(-2.0, 2.0),
                              st.integers(1, 6)),
    "leeolo": st.builds("leeolo:eps={!r}".format, st.floats(-1.2, 1.2)),
    "inoue_splus": st.builds("inoue_splus:p={},q={},r={},t={}".format,
                             st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2),
                             st.one_of(st.floats(-2.0, 2.0), _complex_in_disc(1.0))),
    "product": st.builds("product:a={},b={}".format,
                         *[st.sampled_from([*sorted(M._BUILDERS), "no_such_fixture"])] * 2),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_DOMAINS))
def test_fixtures_verify_or_refuse_their_parameters(name):
    # a fixture that accepts its parameters passes its suite (exit 0); one
    # that refuses them exits 2 or 4; never 1, 3 or a traceback
    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(fixture=FIXTURE_DOMAINS[name], seed=st.integers(0, 2**31 - 1))
    def verify_or_refuse(fixture, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["verify", fixture, "--points", "20", "--nodes", "128",
                             "--seed", str(seed)])
        assert code in (0, 2, 4), out.getvalue()
        if code:
            fx, params = cli.parse_fixture(fixture)
            with pytest.raises((GalleryError, InadmissibleInput)):
                M.gallery(fx, **params)

    verify_or_refuse()


def test_readme_fixture_ids_build():
    # lam=1 and beta=0.5 widen to the float and complex parameters
    for fixture in ("hopf_diag:n=2,beta=0.5", "hopf_nondiag:beta=0.4+0.1j,lam=1,m=2",
                    "inoue_splus", "leeolo:eps=0.3", "product", "hxc_cover"):
        name, params = cli.parse_fixture(fixture)
        assert M.gallery(name, **params).dim >= 4


def test_inadmissible_profile_exits_4(capsys):
    assert cli.main(["potential", "first-order", "--f", "const:-2"]) == 4


@pytest.mark.parametrize("profile", ["cos:nan", "const:nan", "const:inf"])
def test_non_finite_profile_exits_4(profile, capsys):
    assert cli.main(["potential", "first-order", "--f", profile]) == 4
    out = capsys.readouterr()
    assert out.err.startswith("inadmissible input: ")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("profile", ["const:1e10", "const:1e308"])
def test_profile_past_the_certified_range_exits_4(profile, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["potential", "first-order", "--f", profile]) == 4
    out = capsys.readouterr()
    assert out.err.startswith("inadmissible input: need f <= 4000")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("fixture", ["hopf_diag", "inoue_splus", "hopf_nondiag"])
def test_torus_verdicts_take_the_runs_nodes(fixture, monkeypatch):
    # with the deck jump ruled out, each suite's verdict sweeps once at the
    # run's --nodes; the hopf_diag torus is VaismanExists before any pairing
    # is taken, so there only the verdict's own nodes can be seen
    import numpy as np
    from lcklab import torus as T

    seen = {"verdict": [], "sweep": []}
    verdict = T.verdict

    def spy_verdict(act, theta, lck_present, pts, nodes):
        seen["verdict"].append(nodes)
        return verdict(act, theta, lck_present, pts, nodes)

    def spy_sweep(act, theta, pts, nodes):
        seen["sweep"].append(nodes)
        return np.zeros(len(act.flows)), 0.0

    monkeypatch.setattr(T, "_EXACT_TOL", -1.0)
    monkeypatch.setattr(T, "verdict", spy_verdict)
    monkeypatch.setattr(T, "averaged_pairings", spy_sweep)
    cli.run_verify(fixture, points=12, nodes=16)
    assert seen["verdict"] == [16]
    assert seen["sweep"] == ([] if fixture == "hopf_diag" else [16])


def test_zero_tolerance_is_accepted():
    body, code = cli.run_verify("hxc_cover", points=5, tol=0)
    assert code == 0 and body["checks"]


def test_numerical_failure_exits_3(monkeypatch, capsys):
    from lcklab.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("singular solve")

    monkeypatch.setattr(cli, "run_verify", boom)
    assert cli.main(["verify", "hopf_diag"]) == 3
    assert "singular solve" in capsys.readouterr().err


def test_leeolo_structure_rows_run_on_the_run_points():
    # df_colinear and twisted_potential read the same round-off residual
    # (1.8e-15, 4.5e-13) on both point sets, so each row is matched against
    # its residual on the run's own points, and the rows must move as a set
    rows = {"df_colinear_with_theta": "df_colinear",
            "lee_field_unchanged": "lee_field_is_B",
            "lee_norm_is_1_plus_f": "norm_sq_matches_1_plus_f",
            "twisted_potential": "potential",
            "positivity": "positivity_min_eig"}
    runs = ((30, 1), (90, 2))
    seen = []
    for points, seed in runs:
        body, code = cli.run_verify("leeolo", points=points, seed=seed)
        assert code == 0
        seen.append({c["name"]: c["residual"] for c in body["checks"]
                     if c["name"] in rows})
    assert seen[0] != seen[1]
    m = M.gallery("leeolo")
    for (points, seed), got in zip(runs, seen):
        own = P.leeolo_residuals(m, m.sample(points, seed))
        assert got == {name: own[key] for name, key in rows.items()}


def test_expected_fail_checks_are_labeled(tmp_path):
    rc = cli.main(["verify", "inoue_splus", "--points", "40",
                   "--json", str(tmp_path / "r.json")])
    assert rc == 0
    body = json.loads((tmp_path / "r.json").read_text())
    by_name = {c["name"]: c for c in body["checks"]}
    vais = by_name["vaisman_parallel_lee"]
    assert vais["polarity"] == "expect_large"
    assert vais["pass"] and vais["residual"] > vais["tolerance"]


def test_potential_first_order_const(tmp_path):
    rc = cli.main(["potential", "first-order", "--f", "const:0",
                   "--json", str(tmp_path / "p.json")])
    assert rc == 0
    body = json.loads((tmp_path / "p.json").read_text())
    assert abs(body["solution"]["c"] - 1.0) < 1e-12
    assert abs(body["solution"]["min_g"] - 1.0) < 1e-12


def test_potential_orbit(tmp_path):
    rc = cli.main(["potential", "orbit", "--fixture", "leeolo:eps=0.3",
                   "--json", str(tmp_path / "o.json")])
    assert rc == 0
    body = json.loads((tmp_path / "o.json").read_text())
    by_name = {c["name"]: c for c in body["checks"]}
    assert by_name["flow_expansion"]["residual"] < 1e-6
    # the closed-form certification is a recorded value, not a check row
    assert body["orbit_checks"]["cover_kahler_gap"] <= P._COVER_KAHLER_TOL
    assert not any("cover_kahler" in name for name in by_name)


def test_report_all_schema_and_determinism(tmp_path):
    rep1, code1 = cli.run_report(points=40, seed=42, nodes=256)
    rep2, code2 = cli.run_report(points=40, seed=42, nodes=256)
    assert code1 == code2 == 0
    assert rep1["total"] == len(cli.DEFAULT_FIXTURES)
    assert set(rep1["summary"]) == set(cli.DEFAULT_FIXTURES)
    s1 = json.dumps(cli.strip_volatile(rep1), indent=2)
    s2 = json.dumps(cli.strip_volatile(rep2), indent=2)
    assert s1 == s2
    assert "runtime_ms" not in s1


DIGEST_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"


def _digest_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("report_digest", DIGEST_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(script, *args):
    """Run a script of scripts/ with this checkout's src/ on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(script.parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_orbit_demo_script_runs():
    done = _run_script(DIGEST_SCRIPT.parent / "orbit_demo.py")
    assert done.returncode == 0, done.stderr
    headers = [ln for ln in done.stdout.splitlines() if ln.startswith("==")]
    assert headers == ["== periodic ODE potential, f = 0.3 cos t",
                       "== invariant input (fixed point of the averaging)",
                       "== twisted vertical circle on the norm-modulated fixture"]


def test_report_digest_script_on_wide_batch(tmp_path, capsys):
    done = _run_script(DIGEST_SCRIPT, "--seed", "42", "wide_batch")
    assert done.returncode == 0, done.stderr
    body = json.loads(done.stdout)
    assert body["seed"] == 42 and list(body["workloads"]) == ["wide_batch"]
    calls = body["workloads"]["wide_batch"]
    assert [c["call"] for c in calls] == [
        f"run_verify({fx},points=2000)" for fx in (
            "hopf_diag:n=2", "hopf_diag:n=3", "hopf_diag:n=4", "inoue_splus",
            "product", "hxc_cover")]
    assert all(c["exit"] == 0 and c["report"]["seed"] == 42 for c in calls)
    assert "runtime_ms" not in done.stdout
    # canonical: sorted keys, so the same document prints the same bytes
    assert done.stdout == json.dumps(body, indent=1, sort_keys=True) + "\n"
    # --against names each moved leaf; a moved residual is not a gate
    check = calls[4]["report"]["checks"][0]
    moved = check["residual"]
    check["residual"] = moved + 1.0
    earlier = tmp_path / "earlier.json"
    earlier.write_text(json.dumps(body))
    code = _digest_module().main(["--seed", "42", "--against", str(earlier), "wide_batch"])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        f"workloads.wide_batch[run_verify(product,points=2000)].report.checks"
        f"[{check['name']}].residual: {moved + 1.0!r} -> {moved!r}"]


def test_report_digest_comparison_gates_exit_codes_pass_flags_and_verdicts():
    compare = _digest_module().compare

    def doc(residual=1e-15, passed=True, verdict="V", code=0, extra=None):
        checks = [{"name": "a", "pass": passed, "residual": residual},
                  {"name": "b", "pass": True, "residual": 0.0}]
        report = {"checks": checks, "verdict": verdict, "all_pass": True}
        if extra is not None:
            report["extra"] = extra
        return {"seed": 42, "workloads": {"w": [
            {"call": "run_verify(x)", "exit": code, "report": report}]}}

    head = "workloads.w[run_verify(x)]"
    assert compare(doc(), doc()) == ([], False)
    assert compare(doc(), doc(residual=2e-15)) == (
        [f"{head}.report.checks[a].residual: 1e-15 -> 2e-15"], False)
    assert compare(doc(), doc(extra=0.5)) == ([f"{head}.report.extra: <absent> -> 0.5"], False)
    assert compare(doc(), doc(passed=False)) == (
        [f"{head}.report.checks[a].pass: true -> false"], True)
    assert compare(doc(), doc(verdict="W")) == ([f'{head}.report.verdict: "V" -> "W"'], True)
    assert compare(doc(), doc(code=3)) == ([f"{head}.exit: 0 -> 3"], True)


def _bench_pairs():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_counts_wins_and_checks_bounds():
    module = _bench_pairs()
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]

    def runs(walls, rates):
        return [{"failed": 0, "metrics": {"wall_s": {"value": w}, "rate": {"value": r}}}
                for w, r in zip(walls, rates)]

    parent = runs([1.0, 2.0, 3.0, 4.0, 5.0], [10.0, 10.0, 10.0, 10.0, 10.0])
    # wall_s: one tie, three wins, one loss; rate: 20% lower breaches 0.1
    change = runs([1.0, 1.5, 2.5, 3.5, 6.0], [8.0, 8.0, 8.0, 8.0, 11.0])
    wall, rate = module.summarize(end_to_end, parent, change)
    assert (wall["parent_median"], wall["change_median"]) == (3.0, 2.5)
    assert wall["change_wins"] == 3 and wall["pairs"] == 5
    assert wall["parent_iqr"] == 2.0 and wall["within_bound"]
    assert rate["change_wins"] == 1 and not rate["within_bound"]
    # worse by exactly the bound still holds; past it does not
    at_bound = runs([3.75] * 5, [9.0] * 5)
    wall, rate = module.summarize(end_to_end, parent, at_bound)
    assert wall["within_bound"] and rate["within_bound"] and wall["change_wins"] == 2
    wall, _ = module.summarize(end_to_end, parent, runs([3.76] * 5, [9.0] * 5))
    assert not wall["within_bound"]


def test_bench_pairs_marks_a_metric_unresolved_when_the_parent_spreads_past_its_bound():
    module = _bench_pairs()
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]

    def runs(walls, rates):
        return [{"failed": 0, "metrics": {"wall_s": {"value": w}, "rate": {"value": r}}}
                for w, r in zip(walls, rates)]

    def unresolved(parent, change):
        return [r["unresolved"] for r in module.summarize(end_to_end, parent, change)]

    # wall_s quartiles 3.0 and 3.5 on a 3.0 median: IQR 0.5 <= 0.75; rate
    # quartiles 9.0 and 11.0 on a 10.0 median: IQR 2.0 > 1.0
    parent = runs([2.0, 3.0, 3.0, 3.5, 4.0], [8.0, 9.0, 10.0, 11.0, 12.0])
    assert unresolved(parent, runs([3.0] * 5, [10.0] * 5)) == [False, True]
    # an IQR of exactly 0.25 * median is resolved, one past it is not
    at_bound = runs([2.0, 3.0, 3.0, 3.75, 4.0], [10.0] * 5)
    past = runs([2.0, 3.0, 3.0, 3.76, 4.0], [10.0] * 5)
    assert unresolved(at_bound, runs([3.0] * 5, [10.0] * 5)) == [False, False]
    assert unresolved(past, runs([3.0] * 5, [10.0] * 5)) == [True, False]
    # every change run better than every parent run resolves the metric;
    # a change run tying the parent's best does not
    assert unresolved(past, runs([1.9] * 5, [10.0] * 5)) == [False, False]
    assert unresolved(parent, runs([3.0] * 5, [12.5] * 5)) == [False, False]
    assert unresolved(past, runs([1.9] * 4 + [2.0], [10.0] * 5)) == [True, False]
    assert unresolved(parent, runs([3.0] * 5, [12.5] * 4 + [12.0])) == [False, True]


def test_bench_pairs_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr():
    module = _bench_pairs()
    end_to_end = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]

    def runs(walls, rates):
        return [{"failed": 0, "metrics": {"wall_s": {"value": w}, "rate": {"value": r}}}
                for w, r in zip(walls, rates)]

    # the parent's wall_s quartiles are 3.25 and 7.75: an IQR of 4.5
    walls = [float(v) for v in range(1, 11)]
    parent = runs(walls, walls)

    def gains(change_walls, change_rates):
        rows = module.summarize(end_to_end, parent, runs(change_walls, change_rates))
        return [(r["change_wins"], r["gain"]) for r in rows]

    # 10/10 wins with a gap of 4.75 on each side
    assert gains([0.75] * 10, [v + 4.75 for v in walls]) == [(10, True), (10, True)]
    # 9/10 wins (one loss) still gains
    assert gains([0.5] * 9 + [11.0], [10.25] * 9 + [0.0]) == [(9, True), (9, True)]
    # 8/10 wins does not, however wide the gap
    assert gains([0.5] * 8 + [11.0] * 2, [100.0] * 8 + [0.0] * 2) == [(8, False), (8, False)]
    # a tie counts for neither side: 9 wins and one tie gain, 8 and two do not
    assert gains([0.5] * 9 + [10.0], [100.0] * 9 + [10.0])[0] == (9, True)
    assert gains([0.5] * 8 + [9.0, 10.0], walls)[0] == (8, False)
    # every pair won, but a gap of exactly the IQR, or less, is no gain
    assert gains([1.0] * 10, [v + 0.1 for v in walls]) == [(9, False), (10, False)]

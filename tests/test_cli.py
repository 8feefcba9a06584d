"""CLI contract: exit codes, JSON schema, determinism, polarity metadata."""

import cmath
import contextlib
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
])
def test_bad_parameters_exit_2_without_traceback(argv, capsys):
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: ")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("fixture", ["hopf_nondiag:lam=1.3", "hopf_nondiag:m=1"])
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
            with pytest.raises((cli.GalleryError, cli.InadmissibleInput)):
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


def test_zero_tolerance_is_accepted():
    body, code = cli.run_verify("hxc_cover", points=5, tol=0)
    assert code == 0 and body["checks"]


def test_numerical_failure_exits_3(monkeypatch, capsys):
    from lcklab.errors import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("singular solve", point=[0.0, 0.0])

    monkeypatch.setattr(cli, "run_verify", boom)
    assert cli.main(["verify", "hopf_diag"]) == 3
    assert "singular solve" in capsys.readouterr().err


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


def test_report_digest_script_on_wide_batch():
    script = Path(__file__).resolve().parents[1] / "scripts" / "report_digest.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(script.parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script), "--seed", "42", "wide_batch"],
                          capture_output=True, text=True, env=env, timeout=300)
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

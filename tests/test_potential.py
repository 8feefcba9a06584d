"""Constructive potentials: the periodic ODE and orbit averaging."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lcklab import manifolds as M
from lcklab import potential as P
from lcklab.errors import InadmissibleInput
from lcklab.forms import lie_derivative

TWO_PI = 2 * math.pi

# frozen oracle for f = 0.3 cos t, a = 0: 2^16-node composite-Simpson prefix
# integration of e^{-F} with the exact antiderivative F = t + 0.3 sin t
ORACLE = {
    "K": 0.8651222558468997,
    "c": 0.8667408447376795,
    "g_values": {
        0.0: 0.8667408447376795,
        math.pi / 2: 1.1816072695382784,
        math.pi: 1.1694502077329747,
        3 * math.pi / 2: 0.8734026363193553,
    },
    "min_g": 0.8194343884085931,
}


def oracle_solution_grid(eps=0.3, M_nodes=2**16):
    """Independent high-resolution route: prefix Simpson on a fine grid."""
    ts = np.linspace(0.0, TWO_PI, M_nodes + 1)
    F = ts + eps * np.sin(ts)
    h = ts[1] - ts[0]
    integrand = np.exp(-F)
    J = np.zeros(M_nodes + 1)
    for i in range(0, M_nodes, 2):
        J[i + 1] = J[i] + h / 12.0 * (
            5 * integrand[i] + 8 * integrand[i + 1] - integrand[i + 2]
        )
        J[i + 2] = J[i] + h / 3.0 * (
            integrand[i] + 4 * integrand[i + 1] + integrand[i + 2]
        )
    b = TWO_PI
    K = J[-1]
    c = K * np.exp(b) / (np.exp(b) - 1.0)
    return ts, (c - J) * np.exp(F)


def test_periodic_function_validation():
    with pytest.raises(InadmissibleInput):
        P.PeriodicFunction(
            fn=lambda t: np.asarray(t, dtype=float),
            d1=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            d2=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            d3=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        )


def _profiles():
    rng = np.random.default_rng(3)
    return {
        "constant": P.PeriodicFunction.constant(0.7),
        "cosine": P.PeriodicFunction.cosine(0.3),
        "trig": P.PeriodicFunction.trig(rng.uniform(-0.3, 0.3, 4),
                                        rng.uniform(-0.3, 0.3, 4)),
    }


@pytest.mark.parametrize("name", ["constant", "cosine", "trig"])
def test_antiderivative_is_the_integral_from_zero(name):
    f = _profiles()[name]
    assert f.antiderivative(0.0) == 0.0
    x, w = np.polynomial.legendre.leggauss(64)
    for t in (0.4, 2.0, TWO_PI, 9.5):
        quad = 0.5 * t * np.dot(w, f.fn(0.5 * t * (x + 1.0)))
        assert abs(float(f.antiderivative(t)) - quad) < 1e-13


def test_solver_refuses_a_profile_without_antiderivative():
    f = P.PeriodicFunction.cosine(0.3)
    bare = P.PeriodicFunction(f.fn, f.d1, f.d2, f.d3)
    with pytest.raises(InadmissibleInput, match="antiderivative"):
        P.solve_periodic_first_order(bare)


def test_solver_zero_profile():
    sol = P.solve_periodic_first_order(P.PeriodicFunction.constant(0.0), a=0.0)
    assert abs(sol.b - TWO_PI) < 1e-14
    assert abs(sol.K - (1.0 - math.exp(-TWO_PI))) < 1e-12
    assert abs(sol.c - 1.0) < 1e-12
    ts = np.linspace(0, TWO_PI, 13)
    assert np.abs(sol.g(ts) - 1.0).max() < 1e-12


def test_solver_constant_profile():
    # kappa = 200 puts e^b past the float range; c must not overflow
    for kappa in (0.4, -0.5, 2.0, 200.0):
        sol = P.solve_periodic_first_order(P.PeriodicFunction.constant(kappa))
        ts = np.linspace(0, TWO_PI, 13)
        assert np.abs(sol.g(ts) - 1.0 / (1.0 + kappa)).max() < 1e-10
        assert abs(sol.b - TWO_PI * (1.0 + kappa)) < 1e-12
        assert abs(sol.K - (1.0 - math.exp(-sol.b)) / (1.0 + kappa)) < 1e-12


def test_solver_against_frozen_oracle():
    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    assert abs(sol.K - ORACLE["K"]) < 1e-7
    assert abs(sol.c - ORACLE["c"]) < 1e-7
    for t, want in ORACLE["g_values"].items():
        assert abs(float(sol.g(t)) - want) < 1e-7
    assert abs(sol.min_g - ORACLE["min_g"]) < 1e-5
    assert sol.min_g > 0
    assert sol.periodicity_residual < 1e-9
    assert sol.ode1_residual < 1e-8
    assert sol.ode2_residual < 1e-7


def test_solver_against_dense_oracle_grid():
    ts, g_oracle = oracle_solution_grid()
    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    sel = slice(0, len(ts), 1024)
    assert np.abs(sol.g(ts[sel]) - g_oracle[sel]).max() < 1e-7


def test_solver_positivity_for_random_trig_profiles():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.uniform(-0.3, 0.3, 3)
        b = rng.uniform(-0.3, 0.3, 3)
        f = P.PeriodicFunction.trig(a, b)
        sol = P.solve_periodic_first_order(f)
        assert sol.min_g > 0
        assert sol.periodicity_residual < 1e-9
        assert sol.ode1_residual < 1e-8


def test_solver_rejects_inadmissible_profile():
    with pytest.raises(InadmissibleInput, match="f > -1"):
        P.solve_periodic_first_order(P.PeriodicFunction.constant(-2.0))
    with pytest.raises(InadmissibleInput):
        P.solve_periodic_first_order(P.PeriodicFunction.cosine(1.5))
    # past f = 4000 the residuals are no longer certified; refused before
    # the period integral b, which overflows at 1e308, is formed
    for kappa in (4001.0, 1e10, 1e308):
        with pytest.raises(InadmissibleInput, match="f <= 4000"):
            P.solve_periodic_first_order(P.PeriodicFunction.constant(kappa))
    sol = P.solve_periodic_first_order(P.PeriodicFunction.constant(4000.0))
    assert sol.ode2_residual < 1e-7 and sol.min_g > 0


def test_mode_sum_value_is_the_potential_bit_for_bit():
    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    t = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    g0, g1, g2 = P._mode_gprimes(sol, t)
    assert np.array_equal(g0, sol.g(t))
    assert sol.min_g == float(g0.min())


def test_derivative_table_consistency():
    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    x = np.linspace(0.3, 5.9, 9)
    g0, g1, g2, g3 = sol.derivative_table(x, 3)
    h = 1e-4
    gp = (sol.g(x + h) - sol.g(x - h)) / (2 * h)
    gpp = (sol.g(x + h) - 2 * sol.g(x) + sol.g(x - h)) / h**2
    assert np.abs(g1 - gp).max() < 1e-7
    assert np.abs(g2 - gpp).max() < 1e-6


# -- duhamel -----------------------------------------------------------------


def test_duhamel_examples():
    assert abs(P.duhamel_g(lambda s: 2.0, 1.3) - (1 - math.cos(1.3)) * 2.0) < 1e-10
    assert P.duhamel_g(np.cos, 0.0) == 0.0
    for t in (0.7, 2.0, 3.1):
        assert abs(P.duhamel_g(np.cos, t) - t * math.sin(t) / 2.0) < 1e-10


def test_duhamel_node_floor():
    with pytest.raises(ValueError):
        P.duhamel_g(np.cos, 1.0, nodes=16)


def test_duhamel_linearity():
    f1, f2 = np.cos, np.sin
    t = 2.3
    lhs = P.duhamel_g(lambda s: 2.0 * f1(s) - 0.7 * f2(s), t)
    rhs = 2.0 * P.duhamel_g(f1, t) - 0.7 * P.duhamel_g(f2, t)
    assert abs(lhs - rhs) < 1e-12


def test_duhamel_against_rk4_oracle():
    # g'' + g = f with zero initial data, fourth-order time stepper
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, 3)

    def f(s):
        return a[0] * np.cos(s) + a[1] * np.sin(2 * s) + a[2] * np.cos(3 * s)

    def rk4(t, steps=4000):
        y = np.zeros(2)
        h = t / steps
        s = 0.0

        def rhs(s, y):
            return np.array([y[1], f(s) - y[0]])

        for _ in range(steps):
            k1 = rhs(s, y)
            k2 = rhs(s + h / 2, y + h / 2 * k1)
            k3 = rhs(s + h / 2, y + h / 2 * k2)
            k4 = rhs(s + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        return y[0]

    for t in (1.0, 2.7):
        assert abs(P.duhamel_g(f, t, nodes=512) - rk4(t)) < 1e-7


# -- norm-modulated structure (build refusals) --------------------------------


def test_build_leeolo_zero_profile():
    base = M.gallery("hopf_diag", n=2, beta=math.exp(-math.pi))
    res = P.build_leeolo(base, P.PeriodicFunction.constant(0.0))
    pts = base.sample(30, seed=2)
    assert (res.structure.omega - base.structure.omega).max_abs(pts) < 1e-12
    assert np.abs(res.solution.g(np.linspace(0, 6, 5)) - 1.0).max() < 1e-12


def test_build_leeolo_refuses_wrong_period(hopf):
    with pytest.raises(InadmissibleInput, match="period"):
        P.build_leeolo(hopf, P.PeriodicFunction.cosine(0.3))


def test_build_leeolo_refuses_large_profile():
    base = M.gallery("hopf_diag", n=2, beta=math.exp(-math.pi))
    with pytest.raises(InadmissibleInput):
        P.build_leeolo(base, P.PeriodicFunction.cosine(1.2))


def test_leeolo_checks(leeolo):
    res = leeolo.extras["leeolo"]
    assert res.checks["lck_prime"] < 1e-8
    assert res.checks["lee_field_is_B"] < 1e-9
    assert res.checks["norm_sq_matches_1_plus_f"] < 1e-8
    assert res.checks["potential"] < 1e-6
    assert res.checks["positivity_min_eig"] > 0
    assert res.checks["df_colinear"] < 1e-8


# -- orbit averaging -----------------------------------------------------------


@pytest.fixture(scope="module")
def orbit_fixed_point(hopf):
    pts = hopf.sample(25, seed=9)
    return P.orbit_average_potential(
        hopf, hopf.kahler_lift(), hopf.fields["B"], hopf.flows["A"],
        points=pts, heavy_points=8,
    ), pts


def test_orbit_fixed_point_returns_f(orbit_fixed_point):
    res, pts = orbit_fixed_point
    f = res.f.values(pts).real
    g = res.g.values(pts).real
    assert np.abs(f - g).max() < 1e-9


def test_orbit_fixed_point_checks(orbit_fixed_point):
    res, _ = orbit_fixed_point
    assert res.checks["flow_expansion"] < 1e-6
    assert res.checks["min_g"] > 0
    assert res.checks["lck_prime"] < 1e-6
    assert res.checks["unit_potential"] < 1e-6
    assert res.checks["average_vs_duhamel"] < 1e-7


@pytest.fixture(scope="module")
def orbit_twisted(leeolo):
    return P.leeolo_orbit_pipeline(leeolo)


def test_orbit_twisted_input_is_not_jc_invariant(leeolo, orbit_twisted):
    base = leeolo.extras["vaisman_base"]
    omega_k = base.omega.scale((-1.0 * leeolo.extras["base_phi"]).exp())
    pts = leeolo.sample(10, seed=3)
    jc = leeolo.flows["JC"].generator
    assert lie_derivative(jc, omega_k).max_abs(pts) > 1.0


def test_orbit_twisted_run(orbit_twisted):
    ck = orbit_twisted.checks
    assert ck["flow_expansion"] < 1e-6
    assert ck["min_g"] > 0
    assert max(ck["omega_prime_descends"], ck["theta_prime_descends"]) < 1e-6
    assert ck["lck_prime"] < 1e-6
    assert ck["unit_potential"] < 1e-6
    assert ck["positivity_min_eig"] > 0
    assert ck["lee_class_loop_match"] < 1e-6
    assert ck["average_vs_duhamel"] < 1e-7
    assert ck["prep_avg_equals_invariant_rep"] < 1e-10


def test_orbit_pipeline_evaluates_each_quadrature_once_per_batch(leeolo, monkeypatch):
    from collections import Counter

    from lcklab import fields, torus

    runs = Counter()

    def counting(f, mats, offsets, weights):
        quad = fields.affine_quadrature_field(f, mats, offsets, weights)
        inner = quad._fn

        def fn(ctx, m):
            runs[quad.uid, ctx.pts.shape, ctx.pts.tobytes()] += 1
            orders.add(m)
            return inner(ctx, m)

        quad._fn = fn
        return quad

    orders = set()
    monkeypatch.setattr(P, "affine_quadrature_field", counting)
    monkeypatch.setattr(torus, "affine_quadrature_field", counting)
    res = P.leeolo_orbit_pipeline(leeolo)
    assert res.checks["lck_prime"] < 1e-6
    assert orders == {0, 1, 2, 3}
    # each quadrature runs once per batch, at the highest order asked for
    # there; its lower orders are served from that jet
    assert set(runs.values()) == {1}


def test_orbit_quadratures_evaluate_within_the_point_budget(monkeypatch):
    from lcklab import cli, fields, torus

    inside = []  # the orders of the quadratures being evaluated
    sizes = []  # (order, points) of every context built inside one

    class SpyCtx(fields.Ctx):
        __slots__ = ()

        def __init__(self, pts):
            super().__init__(pts)
            if inside:
                sizes.append((inside[-1], self.pts.shape[0]))

    def spying(f, mats, offsets, weights):
        quad = fields.affine_quadrature_field(f, mats, offsets, weights)
        inner = quad._fn

        def fn(ctx, m):
            inside.append(m)
            try:
                return inner(ctx, m)
            finally:
                inside.pop()

        quad._fn = fn
        return quad

    monkeypatch.setattr(fields, "Ctx", SpyCtx)
    monkeypatch.setattr(P, "affine_quadrature_field", spying)
    monkeypatch.setattr(torus, "affine_quadrature_field", spying)
    report, code = cli.run_potential("orbit", fixture="leeolo:n=3")
    assert code == 0
    # the 4096 node-stacked points of the order-3 average come in blocks of
    # 303 (a 0.5 MiB top tier at d = 6); every lower order in full blocks
    assert max(n for m, n in sizes if m == 3) == fields._block_rows(6, 3) == 303
    assert max(n for m, n in sizes) == fields._QUAD_POINT_BUDGET


def test_orbit_multi_period(leeolo):
    res = P.leeolo_orbit_pipeline(leeolo, n_periods=2)
    assert res.checks["min_g"] > 0
    assert res.checks["lck_prime"] < 1e-6
    assert res.checks["unit_potential"] < 1e-6


def test_orbit_rejects_unnormalized_circle(hopf):
    # R has theta(R) = 0, so the normalization gate must fire
    with pytest.raises(InadmissibleInput, match="theta\\(C\\) = 1"):
        P.orbit_average_potential(
            hopf, hopf.kahler_lift(), hopf.fields["R"], hopf.flows["A"],
            points=hopf.sample(10, seed=1),
        )


def test_orbit_rejects_non_equivariant_input(hopf):
    # the invariant structure form fails L_C omega = -omega
    with pytest.raises(InadmissibleInput, match="L_C"):
        P.orbit_average_potential(
            hopf, hopf.structure.omega, hopf.fields["B"], hopf.flows["A"],
            points=hopf.sample(10, seed=1),
        )


def test_orbit_demo_script_runs():
    script = Path(__file__).resolve().parents[1] / "scripts" / "orbit_demo.py"
    src = str(script.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "|g - f| = " in done.stdout

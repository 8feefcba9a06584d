"""Constructive potentials: the periodic ODE and orbit averaging."""

import math
from pathlib import Path

import numpy as np
import pytest

from lcklab import lck as L
from lcklab import manifolds as M
from lcklab import potential as P
from lcklab.errors import GalleryError, InadmissibleInput, NumericalError
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
    for bad in ({"c0": math.nan}, {"c0": math.inf},
                {"cos_coeffs": [0.1, math.inf], "sin_coeffs": [0.0, 0.0]},
                {"cos_coeffs": [0.1], "sin_coeffs": [math.nan]}):
        with pytest.raises(InadmissibleInput, match="non-finite") as refused:
            P.PeriodicFunction(**bad)
        assert refused.value.exit_code == 4
    with pytest.raises(ValueError, match="per harmonic"):
        P.PeriodicFunction([0.1, 0.2], [0.3])


def _fejer(harmonics, scale):
    j = np.arange(1, harmonics + 1)
    return P.PeriodicFunction(scale * (1.0 - j / (harmonics + 1)), np.zeros(harmonics))


def test_periodicity_gap_is_measured_against_the_profile_scale():
    # Fejer-type weights over 300 harmonics: sup f = f(0) = 270, and f(t)
    # and f(t + 2pi) round apart by well under 1e-12 of that scale
    fejer = _fejer(300, 1.8)
    assert abs(float(fejer.derivs(0.0, 0)[0]) - 270.0) < 1e-9
    probes = np.linspace(0.0, TWO_PI, 17)
    here, there = fejer.derivs(probes, 0)[0], fejer.derivs(probes + TWO_PI, 0)[0]
    assert np.abs(there - here).max() < 1e-12 * np.abs(here).max()
    # periodic, but 2048 samples do not resolve e^{-Q}: its modes at
    # |k| >= 768 reach 1.8e-6 of the largest, and the second-order residual
    # would be 0.12 against 1e-7
    with pytest.raises(InadmissibleInput, match="do not resolve") as unresolved:
        P.solve_periodic_first_order(fejer)
    assert unresolved.value.exit_code == 4
    # 100 harmonics decay to round-off below |k| = 768
    sol = P.solve_periodic_first_order(_fejer(100, 1.5))
    assert sol.ode2_residual < 1e-7 and sol.min_g > 0
    codes = [cls("x").exit_code for cls in (GalleryError, NumericalError, InadmissibleInput)]
    assert codes == [2, 3, 4]


def test_cosine_and_constant_profiles_match_their_closed_forms_bit_for_bit():
    # the rotated coefficients leave absent terms out of the sums, so even
    # the sign of zero at t = 0 and t = -0 is that of the closed forms
    t = np.concatenate([np.linspace(-40.0, 40.0, 20001), [0.0, -0.0, TWO_PI]])

    def same(got, want):
        return np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                            np.signbit(want))

    c, s = np.cos(t), np.sin(t)
    for eps in (0.3, -0.3, 0.001, 0.999, -0.77, 0.1234567):
        f = P.PeriodicFunction.cosine(eps)
        want = [eps * c, -eps * s, -eps * c, eps * s]
        assert all(same(g, w) for g, w in zip(f.derivs(t, 3), want)), eps
        assert same(f.antiderivative(t), eps * s), eps
    for kappa in (0.0, 0.7, -0.5, 3.3, 4000.0):
        f = P.PeriodicFunction.constant(kappa)
        want = [np.full_like(t, kappa)] + [np.zeros_like(t)] * 3
        assert all(same(g, w) for g, w in zip(f.derivs(t, 3), want)), kappa
        assert same(f.antiderivative(t), kappa * t), kappa


def test_derivs_rotate_the_coefficients_of_a_trig_profile():
    # f = sum_j a_j cos(jt) + b_j sin(jt) against its termwise derivatives
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-0.3, 0.3, 5), rng.uniform(-0.3, 0.3, 5)
    f = P.PeriodicFunction(a, b, c0=0.2)
    t = np.linspace(-3.0, 9.0, 301)
    j = np.arange(1, 6)
    c, s = np.cos(np.outer(t, j)), np.sin(np.outer(t, j))
    want = [0.2 + c @ a + s @ b, -s @ (j * a) + c @ (j * b),
            -c @ (j**2 * a) - s @ (j**2 * b), s @ (j**3 * a) - c @ (j**3 * b)]
    for r, (got, w) in enumerate(zip(f.derivs(t, 3), want)):
        assert np.abs(got - w).max() < 1e-13 * 5.0 ** r, r


def _profiles():
    rng = np.random.default_rng(3)
    return {
        "constant": P.PeriodicFunction.constant(0.7),
        "cosine": P.PeriodicFunction.cosine(0.3),
        "trig": P.PeriodicFunction(rng.uniform(-0.3, 0.3, 4),
                                   rng.uniform(-0.3, 0.3, 4)),
    }


@pytest.mark.parametrize("name", ["constant", "cosine", "trig"])
def test_antiderivative_is_the_integral_from_zero(name):
    f = _profiles()[name]
    assert f.antiderivative(0.0) == 0.0
    x, w = np.polynomial.legendre.leggauss(64)
    for t in (0.4, 2.0, TWO_PI, 9.5):
        quad = 0.5 * t * np.dot(w, f.derivs(0.5 * t * (x + 1.0), 0)[0])
        assert abs(float(f.antiderivative(t)) - quad) < 1e-13


def test_solver_zero_profile():
    sol = P.solve_periodic_first_order(P.PeriodicFunction.constant(0.0))
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
    # e^{-Q} is sampled as g evaluates Q, so few round-off modes pass the
    # 1e-17 cutoff (61 of 2048 here); each costs every evaluation of g
    assert sol.ik.size <= 64


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
        f = P.PeriodicFunction(a, b)
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
    pts = leeolo.sample(60, 11)
    ck = P.leeolo_residuals(leeolo, pts)
    assert L.lck_residual(leeolo.structure, pts) < 1e-8
    assert ck["lee_fields_defining"] < 1e-9
    assert ck["norm_sq_matches_1_plus_f"] < 1e-8
    assert ck["potential"] < 1e-6
    assert ck["positivity_min_eig"] > 0
    assert ck["df_colinear"] < 1e-8


# -- orbit averaging -----------------------------------------------------------


@pytest.fixture(scope="module")
def orbit_fixed_point(hopf):
    pts = hopf.sample(25, seed=9)
    return P.orbit_average_potential(
        hopf, hopf.kahler_lift(), hopf.fields["B"], hopf.flows["A"],
        points=pts, phi=hopf.phi,
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
    return P.leeolo_orbit_pipeline(leeolo, leeolo.sample(25, seed=9))


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
    assert 0.0 <= ck["cover_kahler_gap"] <= P._COVER_KAHLER_TOL


@pytest.mark.parametrize("kwargs", [{}, {"n": 3}], ids=["leeolo", "leeolo_n3"])
def test_orbit_integrand_and_potential_carry_no_third_tier(kwargs):
    # f = sum eta_i JC_i is quadratic: the constant 4 of the cover Kaehler
    # form folds into eta_i as a scale, so f's jet (and g's, the average of
    # f over affine maps) has no order-3 tier to fill or contract
    m = M.gallery("leeolo", **kwargs)
    pts = m.sample(20, seed=42)
    res = P.leeolo_orbit_pipeline(m, pts)
    heavy = pts[:P._HEAVY_POINTS]
    for field in (res.f, res.g):
        jet = field.jet(heavy, 3)
        assert jet.h is not None and jet.t is None


def test_orbit_pipeline_evaluates_each_quadrature_once_per_batch(leeolo, monkeypatch):
    from collections import Counter

    from lcklab import fields, torus

    runs = Counter()

    def counting(quads):
        # one key per quadrature or circle-average family: whichever of a
        # family's outputs is evaluated first computes all of them
        key = quads[0].uid
        for quad in quads:
            inner = quad._fn

            def fn(ctx, m, inner=inner):
                runs[key, ctx.pts.shape, ctx.pts.tobytes()] += 1
                orders.add(m)
                return inner(ctx, m)

            quad._fn = fn
        return quads

    orders = set()
    monkeypatch.setattr(P, "affine_quadrature_field",
                        lambda *args: counting([fields.affine_quadrature_field(*args)])[0])
    monkeypatch.setattr(torus, "affine_quadrature_family",
                        lambda *args: counting(fields.affine_quadrature_family(*args)))
    res = P.leeolo_orbit_pipeline(leeolo, leeolo.sample(25, seed=9))
    assert res.checks["lck_prime"] < 1e-6
    assert orders == {0, 2, 3}
    # each quadrature and each circle average runs once per batch, at the
    # highest order asked for there; its lower orders and its family's
    # other outputs are served from the jets that run cached
    assert set(runs.values()) == {1}
    # g, the three g_t and the omega and theta averages
    assert len({key for key, *_ in runs}) == 6


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

    def spying(quads):
        for quad in quads:
            inner = quad._fn

            def fn(ctx, m, inner=inner):
                inside.append(m)
                try:
                    return inner(ctx, m)
                finally:
                    inside.pop()

            quad._fn = fn
        return quads

    monkeypatch.setattr(fields, "Ctx", SpyCtx)
    monkeypatch.setattr(P, "affine_quadrature_field",
                        lambda *args: spying([fields.affine_quadrature_field(*args)])[0])
    monkeypatch.setattr(torus, "affine_quadrature_family",
                        lambda *args: spying(fields.affine_quadrature_family(*args)))
    report, code = cli.run_potential("orbit", fixture="leeolo:n=3")
    assert code == 0
    # the 4096 node-stacked points of the order-3 g average come in four
    # full blocks, as every other order's points do
    assert [n for m, n in sizes if m == 3] == [fields._QUAD_POINT_BUDGET] * 4
    assert max(n for m, n in sizes) == fields._QUAD_POINT_BUDGET


def test_orbit_pipeline_refuses_a_closed_form_off_the_lift():
    # a closed form scaled by 1 + 1e-6 sits 4e-6 from the generic lift
    m = M.gallery("leeolo")
    m.extras["cover_kahler"] = m.extras["cover_kahler"].scale(1.0 + 1e-6)
    with pytest.raises(InadmissibleInput,
                       match=r"differs from e\^\(-phi\) Omega by 4\.00e-06 > 1e-10"):
        P.leeolo_orbit_pipeline(m, m.sample(20, seed=42))


def test_orbit_pipeline_refuses_an_average_off_the_representative(monkeypatch, capsys):
    # an average scaled by 1 + 1e-6 misses the invariant representative by
    # far more than the 1e-10 the prep residuals are certified to
    from lcklab import cli

    average = P.average_over_circle
    monkeypatch.setattr(P, "average_over_circle",
                        lambda form, circle, nodes: average(form, circle, nodes).scale(1.0 + 1e-6))
    assert cli.main(["potential", "orbit"]) == 3
    assert "misses the invariant representative" in capsys.readouterr().err


def test_duhamel_cross_check_matches_the_per_t_simpson_loop(leeolo, orbit_twisted):
    # the reference route: g_t re-integrated from 0 by Simpson for every 8th
    # sample t; the pipeline's cumulative sums change only the summation
    # order, so the two averages agree to a few ulps of g
    span, mg = TWO_PI, 1536
    x0 = leeolo.sample(25, seed=9)[:1]
    sgrid = np.linspace(0.0, span, mg + 1)
    mats, offs = leeolo.flows["JC"].affine(sgrid)
    f_along = orbit_twisted.f.values(np.einsum("sij,j->si", mats, x0[0]) + offs).real
    g_ts = np.zeros(mg // 8 + 1)
    for r, it in enumerate(range(8, mg + 1, 8), start=1):
        g_ts[r] = P._simpson(np.sin(sgrid[it] - sgrid[: it + 1]) * f_along[: it + 1],
                             span / mg)
    g0 = float(orbit_twisted.g.values(x0).real[0])
    loop_gap = abs(P._simpson(g_ts, sgrid[8]) / span - g0)
    assert orbit_twisted.checks["average_vs_duhamel"] == pytest.approx(
        loop_gap, rel=0, abs=64 * np.spacing(g0))


def test_orbit_multi_period(leeolo):
    res = P.leeolo_orbit_pipeline(leeolo, leeolo.sample(25, seed=9), n_periods=2)
    assert res.checks["min_g"] > 0
    assert res.checks["lck_prime"] < 1e-6
    assert res.checks["unit_potential"] < 1e-6


def test_orbit_rejects_unnormalized_circle(hopf):
    # R has theta(R) = 0, so the normalization gate must fire
    with pytest.raises(InadmissibleInput, match="theta\\(C\\) = 1"):
        P.orbit_average_potential(
            hopf, hopf.kahler_lift(), hopf.fields["R"], hopf.flows["A"],
            points=hopf.sample(10, seed=1), phi=hopf.phi,
        )


def test_orbit_rejects_non_equivariant_input(hopf):
    # the invariant structure form fails L_C omega = -omega
    with pytest.raises(InadmissibleInput, match="L_C"):
        P.orbit_average_potential(
            hopf, hopf.structure.omega, hopf.fields["B"], hopf.flows["A"],
            points=hopf.sample(10, seed=1), phi=hopf.phi,
        )


def test_orbit_demo_script_runs(capsys):
    # the demo drives both potential pipelines through the profile
    # constructors; loaded in process, its main() returns 0
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "scripts" / "orbit_demo.py"
    spec = importlib.util.spec_from_file_location("orbit_demo", script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main() == 0
    out = capsys.readouterr().out
    assert "|g - f| = " in out and "periodicity_residual" in out


def _gl_nodes_panel_loop(a, b, panels):
    """The composite rule built one panel at a time, with the 16-point rule
    recomputed per call: the route before the panels were broadcast."""
    x, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("a,b,panels", [(0.0, 0.5, 16), (0.0, 2.7, 16),
                                        (0.0, TWO_PI, 32), (0.0, 56 * TWO_PI, 1792)])
def test_gl_nodes_equal_the_panel_loop(a, b, panels):
    for got, want in zip(P._gl_nodes(a, b, panels), _gl_nodes_panel_loop(a, b, panels)):
        assert got.shape == (16 * panels,) and np.array_equal(got, want)

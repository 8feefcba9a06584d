"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math

import numpy as np

from lcklab import cli
from lcklab import lck as L
from lcklab import manifolds as M
from lcklab import potential as P
from lcklab import torus as T
from lcklab.fields import VectorField, constant, coordinate
from lcklab.forms import (
    Form,
    apply_J,
    dc,
    exterior_d,
    interior_product,
    lie_derivative,
    pullback,
    twisted_d,
    wedge,
)

DIM = 4
TWO_PI = 2 * math.pi


def _ok(n, text):
    print(f"criterion {n:02d} PASS: {text}")


def _random_field(rng):
    xs = [coordinate(i, DIM) for i in range(DIM)]
    c = rng.uniform(-1, 1, 6)
    return (
        constant(c[0], DIM)
        + c[1] * xs[0] * xs[1]
        + c[2] * xs[2] ** 2
        + c[3] * (0.4 * xs[0] + 0.2 * xs[3]).exp()
        + c[4] * (xs[1] + 0.7 * xs[2]).sin()
        + c[5] * xs[3]
    )


def _random_form(rng, degree):
    from itertools import combinations

    coeffs = {}
    for idx in combinations(range(DIM), degree):
        if rng.random() < 0.85:
            coeffs[idx] = _random_field(rng)
    return Form(DIM, degree, coeffs)


def test_criterion_01_calculus_laws():
    rng = np.random.default_rng(101)
    pts = rng.uniform(-1, 1, (20, DIM))
    worst = {"dd": 0.0, "dthdth": 0.0, "com": 0.0, "anti": 0.0}
    theta = exterior_d(Form.from_function(_random_field(rng)))
    X = VectorField([_random_field(rng) for _ in range(DIM)])
    for _ in range(20):
        deg = int(rng.integers(0, 3))
        a = _random_form(rng, deg)
        worst["dd"] = max(worst["dd"], exterior_d(exterior_d(a)).max_abs(pts))
        worst["dthdth"] = max(
            worst["dthdth"], twisted_d(twisted_d(a, theta), theta).max_abs(pts)
        )
        com = apply_J(exterior_d(a)) - exterior_d(apply_J(a)) - dc(a)
        worst["com"] = max(worst["com"], com.max_abs(pts))
        b = _random_form(rng, 1)
        if deg >= 1:
            anti = (
                interior_product(X, wedge(a, b))
                - wedge(interior_product(X, a), b)
                - wedge(a, interior_product(X, b)).scale(float((-1) ** deg))
            )
            worst["anti"] = max(worst["anti"], anti.max_abs(pts))
    for law, res in worst.items():
        assert res < 1e-10, (law, res)

    # Cartan formula vs central flow differences, observed order >= 1.9
    hopf = M.gallery("hopf_diag")
    flow = hopf.flows["C"]
    fpts = hopf.sample(12, seed=3)
    orders = []
    for _ in range(20):
        a = _random_form(rng, 1)
        lie = lie_derivative(flow.generator, a)
        res = {}
        for h in (1e-3, 1e-4):
            quot = (pullback(flow.at(h), a) - pullback(flow.at(-h), a)).scale(
                1.0 / (2 * h)
            )
            res[h] = (lie - quot).max_abs(fpts)
        if res[1e-4] < 1e-12:
            orders.append(2.0)  # below the noise floor: agreement is exact
        else:
            orders.append(float(np.log(res[1e-3] / res[1e-4]) / np.log(10.0)))
    assert min(orders) >= 1.9
    _ok(1, f"calculus laws on 20 random forms, worst residual "
           f"{max(worst.values()):.2e}, flow order >= {min(orders):.2f}")


def test_criterion_02_gallery_lck_identities():
    worst_lck = worst_rec = 0.0
    for fid in ("hopf_diag", "inoue_splus", "leeolo"):
        m = M.gallery(fid)
        pts = m.sample(200, seed=42)
        s = m.structure
        worst_lck = max(worst_lck, L.lck_residual(s, pts))
        ext = L.extract_lee_form(s.omega, pts[:60])
        stored = np.zeros((60, m.dim))
        for (i,), f in s.theta.coeffs.items():
            stored[:, i] = np.real(f.values(pts[:60]))
        worst_rec = max(worst_rec, float(np.abs(ext.values - stored).max()))
    assert worst_lck < 1e-8
    assert worst_rec < 1e-8
    _ok(2, f"gallery LCK identities at 200 seeded points "
           f"(lck {worst_lck:.2e}, recovery {worst_rec:.2e})")


def test_criterion_03_vaisman_suite(hopf, hopf_pts):
    s = hopf.structure
    pts = hopf_pts
    pair = s.lee_pair()
    metric = L.MetricBundle(s, pts)
    vais = L.vaisman_residual(metric)
    gaud = L.gauduchon_residual(metric)
    norm = float(np.abs(pair.norm_squared(pts) - 1.0).max())
    pot = L.potential_residual(s, constant(1.0, DIM), pts)
    holo = max(L.holomorphy_residual(pair.B, pts), L.holomorphy_residual(pair.A, pts))
    kill = max(L.killing_residual(metric, pair.B), L.killing_residual(metric, pair.A))
    assert vais < 1e-7
    assert gaud < 1e-7
    assert norm < 1e-9
    assert pot < 1e-8
    assert holo < 1e-8 and kill < 1e-8
    _ok(3, f"Vaisman suite on the diagonal Hopf fixture (nabla theta {vais:.2e}, "
           f"d*theta {gaud:.2e}, |B|-1 {norm:.2e}, potential {pot:.2e})")


def test_criterion_04_inoue_suite(inoue, inoue_pts):
    s = inoue.structure
    pts = inoue_pts
    inv = M.invariance_residual(inoue, s.omega, pts)
    lam0 = inoue.params["lam0"]
    imz = Form.from_function(coordinate(3, DIM))
    contraction = (
        interior_product(inoue.fields["xi"], s.omega)
        - twisted_d(imz, s.theta).scale(lam0)
    ).max_abs(pts)
    act = T.TorusAction(inoue, [inoue.flows["xi"]])
    found = T.torus_pairings(act, s.theta, pts[:15])
    labels = T.verdict(act, s.theta, True, pts[:15]).vertical
    vais = L.vaisman_residual(L.MetricBundle(s, pts))
    assert inv < 1e-8
    assert contraction < 1e-8
    assert labels == [] and abs(found.values[0]) < 1e-6
    assert vais > 1e-3  # expected-fail polarity
    _ok(4, f"Inoue suite (deck invariance {inv:.2e}, contraction {contraction:.2e}, "
           f"horizontal pairing {abs(found.values[0]):.2e}, non-Vaisman {vais:.2e})")


def test_criterion_05_nondiag_suite(nondiag, nondiag_pts):
    m = nondiag
    pts = nondiag_pts
    worst_desc = worst_holo = 0.0
    for name in ("Z1_re", "Z1_im", "Z2_re", "Z2_im"):
        worst_desc = max(worst_desc, M.deck_quotient_check(m, m.fields[name], pts))
        worst_holo = max(worst_holo, L.holomorphy_residual(m.fields[name], pts))
    assert worst_desc < 1e-10 and worst_holo < 1e-10

    # registered flow maps against an independent high-order integration
    mm = m.params["m"]
    a, b = 0.7 + 0.2j, -0.4 + 0.5j
    flow = m.extras["holomorphic_flow"](a, b)
    p0 = pts[0]
    z0 = np.array([p0[0] + 1j * p0[1], p0[2] + 1j * p0[3]])

    def rk4(u, steps=6000):
        z = z0.copy()
        h = u / steps

        def W(z):
            return np.array([a * z[0], a * mm * z[1] + b * z[0] ** mm])

        for _ in range(steps):
            k1, k2 = W(z), None
            k2 = W(z + h / 2 * k1)
            k3 = W(z + h / 2 * k2)
            k4 = W(z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.array([z[0].real, z[0].imag, z[1].real, z[1].imag])

    flow_err = 0.0
    for u in (0.3, 1 + 0.2j):
        flow_err = max(flow_err, float(np.abs(flow(u)(p0)[0] - rk4(u)).max()))
    assert flow_err < 1e-8

    c1 = M.flow_closure_residual(m, m.flows["xi1"], pts[:40])
    c2 = M.flow_closure_residual(m, m.flows["xi2"], pts[:40])
    assert c1 < 1e-9 and c2 < 1e-9

    act = T.TorusAction(m, [m.flows["xi1"], m.flows["xi2"]])
    dim = T.intersection_dimension(act, pts)
    assert dim == 0
    _ok(5, f"non-diagonal Hopf suite (descends {worst_desc:.2e}, "
           f"flow vs integrator {flow_err:.2e}, closures {max(c1, c2):.2e}, "
           f"purely real dim {dim})")


def test_criterion_06_periodic_ode():
    sol0 = P.solve_periodic_first_order(P.PeriodicFunction.constant(0.0))
    ts = np.linspace(0, TWO_PI, 9)
    assert np.abs(sol0.g(ts) - 1.0).max() < 1e-12
    assert abs(sol0.c - 1.0) < 1e-12
    for kappa in (0.5, -0.4, 1.2):
        solk = P.solve_periodic_first_order(P.PeriodicFunction.constant(kappa))
        assert np.abs(solk.g(ts) - 1.0 / (1.0 + kappa)).max() < 1e-10

    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    assert sol.periodicity_residual < 1e-9
    assert sol.ode1_residual < 1e-8
    assert sol.ode2_residual < 1e-7
    assert sol.min_g > 0

    from test_potential import oracle_solution_grid

    tgrid, g_oracle = oracle_solution_grid()
    sel = slice(0, len(tgrid), 2048)
    oracle_err = float(np.abs(sol.g(tgrid[sel]) - g_oracle[sel]).max())
    assert oracle_err < 1e-7
    _ok(6, f"periodic ODE construction (periodicity {sol.periodicity_residual:.2e}, "
           f"ode1 {sol.ode1_residual:.2e}, ode2 {sol.ode2_residual:.2e}, "
           f"2^16-node oracle {oracle_err:.2e})")


def test_criterion_07_leeolo_end_to_end(leeolo, leeolo_pts):
    pts = leeolo_pts
    ck = P.leeolo_residuals(leeolo, pts)
    lck_p = L.lck_residual(leeolo.structure, pts)
    vais = L.vaisman_residual(L.MetricBundle(leeolo.structure, pts[:60]))
    assert lck_p < 1e-8
    assert ck["lee_fields_defining"] < 1e-9
    assert ck["norm_sq_matches_1_plus_f"] < 1e-8
    assert ck["potential"] < 1e-6
    assert vais > 0.01  # expected-fail polarity
    _ok(7, f"norm-modulated structure end to end (lck {lck_p:.2e}, "
           f"potential {ck['potential']:.2e}, non-Vaisman {vais:.2e})")


def test_criterion_08_orbit_averaging(hopf, leeolo):
    res = P.leeolo_orbit_pipeline(leeolo, leeolo.sample(25, seed=9))
    ck = res.checks
    assert ck["flow_expansion"] < 1e-6
    assert ck["min_g"] > 0
    assert max(ck["omega_prime_descends"], ck["theta_prime_descends"]) < 1e-6
    assert ck["lck_prime"] < 1e-6
    assert ck["unit_potential"] < 1e-6

    pts = hopf.sample(25, seed=9)
    fixed = P.orbit_average_potential(
        hopf, hopf.kahler_lift(), hopf.fields["B"], hopf.flows["A"],
        points=pts, phi=hopf.phi,
    )
    fp_gap = float(np.abs(fixed.g.values(pts).real - fixed.f.values(pts).real).max())
    assert fp_gap < 1e-9

    res2 = P.leeolo_orbit_pipeline(leeolo, leeolo.sample(25, seed=9), n_periods=2)
    assert res2.checks["min_g"] > 0
    assert res2.checks["lck_prime"] < 1e-6
    assert res2.checks["unit_potential"] < 1e-6
    _ok(8, f"orbit averaging (expansion {ck['flow_expansion']:.2e}, "
           f"output lck {ck['lck_prime']:.2e}, fixed point {fp_gap:.2e}, "
           f"two-period variant ok)")


def test_criterion_09_verdict_table(hopf, nondiag):
    # (action, theta, LCK hypothesis, expected verdict); hopf_nondiag carries
    # no metric, so its LCK type is the declared hypothesis
    acts = {
        "hopf": (T.TorusAction(hopf, [hopf.flows["A"], hopf.flows["B"]]),
                 hopf.structure.theta, True, "VaismanExists"),
        "nondiag": (T.TorusAction(nondiag,
                                  [nondiag.flows["xi1"], nondiag.flows["xi2"]]),
                    nondiag.lee_class, True, "PositivePotentialExists"),
    }
    prod = M.gallery("product")
    acts["product"] = (
        T.TorusAction(prod, [prod.flows[k] for k in ("A@0", "B@0", "A@1", "B@1")]),
        None, False, "NoLCKPossible",
    )

    def verdict(act, theta, lck):
        return T.verdict(act, theta, lck, act.manifold.sample(60, seed=23))

    for label, (act, theta, lck, expected) in acts.items():
        rep = verdict(act, theta, lck)
        assert rep.verdict == expected, label
        if label == "product":
            assert rep.intersection_dim == 4

    rng = np.random.default_rng(909)
    done = 0
    while done < 10:
        k = 2
        mix = rng.uniform(-1.5, 1.5, (k, k))
        if abs(np.linalg.det(mix)) < 0.25:
            continue
        act, theta, lck, expected = acts["hopf" if done % 2 == 0 else "nondiag"]
        rep = verdict(act.recombine(mix), theta, lck)
        assert rep.verdict == expected
        assert rep.verdict in T.VERDICTS
        done += 1
    _ok(9, "verdict table on all three actions, invariant under 10 random "
           "generator recombinations")


def test_criterion_10_report_determinism():
    rep1, code1 = cli.run_report(points=40, seed=42, nodes=256)
    rep2, code2 = cli.run_report(points=40, seed=42, nodes=256)
    assert code1 == 0 and code2 == 0
    s1 = json.dumps(cli.strip_volatile(rep1), indent=2)
    s2 = json.dumps(cli.strip_volatile(rep2), indent=2)
    assert s1 == s2
    _ok(10, f"aggregate report is byte-identical across runs "
            f"({len(s1)} bytes, wall-clock fields excluded)")

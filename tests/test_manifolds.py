"""Gallery fixtures: samplers, deck groups, flows, derived constants."""

import cmath
import math

import numpy as np
import pytest

from lcklab import manifolds as M
from lcklab.errors import GalleryError
from lcklab.fields import (
    Ctx,
    PointMap,
    ScalarField,
    VectorField,
    complex_coordinate,
    complex_jmatrix,
    constant,
)
from lcklab.forms import Form, exterior_d


def test_gallery_rejects_unknown_and_bad_params():
    with pytest.raises(GalleryError):
        M.gallery("unknown_thing")
    with pytest.raises(GalleryError):
        M.gallery("hopf_diag", beta=1.2)
    with pytest.raises(GalleryError):
        M.gallery("hopf_nondiag", m=0)
    with pytest.raises(GalleryError):
        M.gallery("hopf_nondiag", lam=0.0)
    with pytest.raises(GalleryError):
        M.gallery("inoue_splus", r=0)
    with pytest.raises(GalleryError):
        M.gallery("inoue_splus", t=1.0 + 2.0j)
    with pytest.raises(GalleryError, match="no parameter"):
        M.gallery("hopf_diag", foo=1)
    with pytest.raises(GalleryError):
        M.gallery("hopf_diag", n="abc")
    with pytest.raises(GalleryError):
        M.gallery("leeolo", n=2.5)
    for fixture in ("hopf_diag", "leeolo"):
        with pytest.raises(GalleryError, match="n >= 2"):
            M.gallery(fixture, n=1)
    with pytest.raises(GalleryError, match="xi2 orbits"):
        M.gallery("hopf_nondiag", lam=1000.0)
    with pytest.raises(GalleryError, match="dropped-tail bound"):
        M.gallery("hopf_nondiag", beta=0.86)


@pytest.mark.parametrize("beta,lam,m", [
    (0.4 + 0.1j, 1.0, 2), (0.4 + 0.1j, 1.3, 1), (0.6, 1.0, 3), (0.2, 0.3, 1),
])
def test_nondiag_tail_bound_covers_the_dropped_terms(beta, lam, m):
    # the dropped terms |k| = K+1 .. K+60, summed at sampler points (which
    # include points near the inner radius |beta|), stay below the bound
    mfd = M.gallery("hopf_nondiag", beta=beta, lam=lam, m=m)
    pts = np.concatenate([mfd.sample(400, seed=7), abs(beta) * np.eye(4)])
    z1, z2 = pts[:, 0] + 1j * pts[:, 1], pts[:, 2] + 1j * pts[:, 3]

    def term(k):
        n = abs(beta**k * z1) ** 2 + abs(
            beta ** (m * k) * z2 + k * lam * beta ** (m * (k - 1)) * z1**m) ** 2
        return abs(beta) ** (-2 * k) / (n + (1.0 / n) ** 2)

    K = 8
    while M._nondiag_tail_bound(abs(beta), lam, m, K) > 1e-10:
        K += 1
    series = sum(term(k) for k in range(-K, K + 1))
    with np.errstate(over="ignore"):
        dropped = sum(term(s * k) for k in range(K + 1, K + 61) for s in (1, -1))
    assert (dropped / series).max() <= M._nondiag_tail_bound(abs(beta), lam, m, K)


def test_sampler_determinism_and_membership(hopf, inoue, nondiag):
    for m in (hopf, inoue, nondiag):
        a = m.sample(10, seed=42)
        b = m.sample(10, seed=42)
        assert np.array_equal(a, b)
        assert m.contains(a).all()
    with pytest.raises(ValueError):
        hopf.sample(0, seed=1)


def test_inoue_sampler_range(inoue):
    pts = inoue.sample(300, seed=5)
    assert pts[:, 1].min() >= 0.1 and pts[:, 1].max() <= 10.0


def test_hopf_sampler_annulus(hopf):
    pts = hopf.sample(300, seed=5)
    r = np.linalg.norm(pts, axis=1)
    assert r.min() >= 0.5 - 1e-12 and r.max() < 1.0


def test_deck_generators_are_holomorphic(hopf, inoue, nondiag):
    for m in (hopf, inoue, nondiag):
        pts = m.sample(40, seed=2)
        J = complex_jmatrix(m.dim)
        for d in m.decks:
            jac = d.map.jacobian(pts)
            res = np.einsum("nij,jk->nik", jac, J) - np.einsum("ij,njk->nik", J, jac)
            assert np.abs(res).max() < 1e-10, (m.name, d.name)


def test_deck_rho_values(hopf, inoue):
    assert abs(hopf.deck("gamma").rho - 4.0) < 1e-14
    assert abs(inoue.deck("g0").rho - inoue.params["alpha"]) < 1e-14
    assert inoue.deck("g1").rho == 1.0


def test_flow_group_law_and_generator(hopf, inoue, nondiag, leeolo):
    # every registered flow, the closing circle L of a non-real beta included
    twisted = M.gallery("hopf_diag", beta=0.3 + 0.2j)
    for m in (hopf, twisted, inoue, leeolo, nondiag):
        pts = m.sample(25, seed=8)
        for name, fl in m.flows.items():
            assert M.flow_group_residual(fl, 0.31, -0.17, pts) < 1e-9, name
            assert M.flow_generator_residual(fl, 0.25, pts) < 1e-8, name
            zero = fl.at(0.0)(pts)
            assert np.abs(zero - pts).max() < 1e-14, name
            if fl.period is not None:
                assert M.flow_closure_residual(m, fl, pts) < 1e-9, name


def _hopf_diag_rates(beta):
    """name -> rate a of each hopf_diag circle z -> e^{a t} z; L is
    registered only when beta is not real positive."""
    lee_period = -2.0 * math.log(abs(beta))
    return {"B": -0.5, "A": -0.5j, "R": 1.0j, "C": -0.5 + 1.0j, "JC": -1.0 - 0.5j,
            "L": -0.5 + cmath.phase(beta) / lee_period * 1j}


def _per_time_affine(m, flow, t):
    """(M_t, b_t) of an affine flow at one float time, built one time at a
    time as the flows did before they took whole node grids: the oracle of
    ``FlowMap.affine``."""
    dim = m.dim
    if m.name == "inoue_splus":
        off = np.zeros(dim)
        off[2] = (m.params["lam0"] / 2.0) * t
        return np.eye(dim), off
    # Phi_t z = e^{a t} z on every complex coordinate
    u = complex(np.exp(_hopf_diag_rates(m.params["beta"])[flow] * t))
    M = np.zeros((dim, dim))
    for j in range(dim // 2):
        M[2 * j, 2 * j] = u.real
        M[2 * j, 2 * j + 1] = -u.imag
        M[2 * j + 1, 2 * j] = u.imag
        M[2 * j + 1, 2 * j + 1] = u.real
    return M, np.zeros(dim)


@pytest.mark.parametrize("name, params", [
    ("hopf_diag", {"n": 2, "beta": 0.5}),
    ("hopf_diag", {"n": 2, "beta": 0.3 + 0.2j}),
    ("hopf_diag", {"n": 3, "beta": 0.5}),
    ("hopf_diag", {"n": 3, "beta": -0.4 + 0.1j}),
    ("leeolo", {}),
    ("inoue_splus", {}),
])
def test_affine_flows_take_time_grids_bit_for_bit(name, params):
    m = M.gallery(name, **params)
    d = m.dim
    ts = np.concatenate([np.arange(64) * (4 * math.pi / 64), np.linspace(-3.0, 7.0, 37)])
    pts = m.sample(6, seed=3)
    assert all(fl.affine is not None for fl in m.flows.values())
    for fname, fl in m.flows.items():
        want = [_per_time_affine(m, fname, float(t)) for t in ts]
        mats, offs = fl.affine(ts)
        assert mats.shape == (len(ts), d, d) and offs.shape == (len(ts), d), fname
        assert mats.tobytes() == np.stack([w[0] for w in want]).tobytes(), fname
        assert offs.tobytes() == np.stack([w[1] for w in want]).tobytes(), fname
        for t in (0.0, 0.7, -2.3):
            M_t, b_t = _per_time_affine(m, fname, t)
            got = fl.affine(t)
            assert got[0].tobytes() == M_t.tobytes() and got[1].tobytes() == b_t.tobytes()
            assert got[0].shape == (d, d) and got[1].shape == (d,)
            mapped = PointMap.affine(M_t, b_t)(pts)
            assert fl.at(t)(pts).tobytes() == mapped.tobytes(), fname
        empty = fl.affine(np.zeros(0))
        assert empty[0].shape == (0, d, d) and empty[1].shape == (0, d), fname


def _real(w):
    """(N, n) complex coordinates as (N, 2n) real ones x1, y1, ..., xn, yn."""
    return np.stack([w.real, w.imag], axis=2).reshape(len(w), -1)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [0.5, 0.3 + 0.2j, -0.4 + 0.1j])
def test_hopf_diag_generators_are_their_rates_times_z(n, beta):
    m = M.gallery("hopf_diag", n=n, beta=beta)
    rates = _hopf_diag_rates(m.params["beta"])
    assert list(m.flows) == [k for k in rates if k != "L" or beta != 0.5]
    pts = m.sample(40, seed=4)
    z = pts[:, 0::2] + 1j * pts[:, 1::2]
    for name, fl in m.flows.items():
        err = np.abs(fl.generator.values(pts) - _real(rates[name] * z)).max()
        assert err <= 1e-15 * np.abs(z).max(), name


@pytest.mark.parametrize("params", [{}, {"lam": 0.6 + 0.6j}, {"m": 1}, {"m": 3},
                                    {"beta": 0.5, "lam": 0.75, "m": 4}])
def test_hopf_nondiag_generators_are_a_z1_plus_b_z2(params):
    m = M.gallery("hopf_nondiag", **params)
    beta, lam, mm, c = (m.params[k] for k in ("beta", "lam", "m", "c"))
    pts = m.sample(40, seed=4)
    z1, z2 = pts[:, 0] + 1j * pts[:, 1], pts[:, 2] + 1j * pts[:, 3]
    for name, a, b in (("xi1", 2j * math.pi, 0.0), ("xi2", c, lam / beta**mm)):
        w = np.stack([a * z1, a * (mm * z2) + b * z1**mm], axis=1)
        # |a| = 2 pi and |b| up to 16 scale the values past |z|; the bound
        # follows the values
        err = np.abs(m.flows[name].generator.values(pts) - _real(w)).max()
        assert err <= 1e-15 * np.abs(w).max(), name


def test_flow_closures(hopf, inoue, nondiag):
    pts_h = hopf.sample(25, seed=8)
    assert M.flow_closure_residual(hopf, hopf.flows["A"], pts_h) < 1e-9
    assert M.flow_closure_residual(hopf, hopf.flows["R"], pts_h) < 1e-9
    assert M.flow_closure_residual(hopf, hopf.flows["B"], pts_h) < 1e-9
    pts_i = inoue.sample(25, seed=8)
    assert M.flow_closure_residual(inoue, inoue.flows["xi"], pts_i) < 1e-9
    pts_n = nondiag.sample(25, seed=8)
    assert M.flow_closure_residual(nondiag, nondiag.flows["xi1"], pts_n) < 1e-9
    assert M.flow_closure_residual(nondiag, nondiag.flows["xi2"], pts_n) < 1e-9


def test_hopf_lee_flow_period(hopf):
    # radial Lee flow returns via the deck map after 2 ln(1/beta)
    assert abs(hopf.flows["B"].period - 2 * math.log(2.0)) < 1e-14
    assert hopf.flows["B"].closes_via == "gamma"


def test_invariance_and_equivariance_residuals(hopf, hopf_pts):
    s = hopf.structure
    assert M.invariance_residual(hopf, s.omega, hopf_pts) < 1e-10
    lift = hopf.kahler_lift()
    assert M.equivariance_residual(hopf, lift, hopf_pts) < 1e-10
    # the flat lift itself is NOT invariant: residual (1 - |beta|^2)*4 = 3
    assert abs(M.invariance_residual(hopf, lift, hopf_pts) - 3.0) < 1e-10


def test_equivariance_of_rescaled_invariant_form(inoue, inoue_pts):
    lift = inoue.kahler_lift()
    assert M.equivariance_residual(inoue, lift, inoue_pts) < 1e-9


def test_identity_deck_is_equivariant_with_unit_factor(hopf, hopf_pts):
    from lcklab.fields import PointMap

    ident = M.DeckTransformation("id", PointMap.identity(hopf.dim), rho=1.0)
    trivial = M.ModelManifold(
        name="trivial", dim=hopf.dim, contains=hopf._contains,
        sampler=hopf._sampler, decks=[ident],
    )
    assert M.equivariance_residual(trivial, hopf.kahler_lift(), hopf_pts) < 1e-14


def test_deck_quotient_check(hopf, nondiag):
    pts = nondiag.sample(50, seed=6)
    for name in ("Z1_re", "Z1_im", "Z2_re", "Z2_im"):
        assert M.deck_quotient_check(nondiag, nondiag.fields[name], pts) < 1e-10
    # a constant field does not descend through z -> z/2
    const = VectorField([constant(v, hopf.dim) for v in (0, 0, 1, 0)])
    assert M.deck_quotient_check(hopf, const, hopf.sample(40, seed=6)) > 0.4


def test_nondiag_flow_formula_against_rk4(nondiag):
    mfd = nondiag
    mm = mfd.params["m"]
    a, b = 0.7 + 0.2j, -0.4 + 0.5j
    flow = mfd.extras["holomorphic_flow"](a, b)
    p0 = mfd.sample(1, seed=11)[0]
    z0 = np.array([p0[0] + 1j * p0[1], p0[2] + 1j * p0[3]])

    def rk4(u, steps=4000):
        z = z0.copy()
        h = u / steps

        def W(z):
            return np.array([a * z[0], a * mm * z[1] + b * z[0] ** mm])

        for _ in range(steps):
            k1 = W(z)
            k2 = W(z + h / 2 * k1)
            k3 = W(z + h / 2 * k2)
            k4 = W(z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.array([z[0].real, z[0].imag, z[1].real, z[1].imag])

    for u in (0.3, 1 + 0.2j):
        got = flow(u)(p0)[0]
        assert np.abs(got - rk4(u)).max() < 1e-8, u


def test_inoue_constants_satisfy_their_defining_relations(inoue):
    p = inoue.params
    N = np.array([[2.0, 1.0], [1.0, 1.0]])
    alpha, a, b, c, lam0 = p["alpha"], p["a"], p["b"], p["c"], p["lam0"]
    assert np.abs(N @ a - alpha * a).max() < 1e-12
    assert np.abs(N @ b - b / alpha).max() < 1e-12
    assert a[0] == 1.0 and b[0] == 1.0
    assert abs(lam0 - math.sqrt(5.0)) < 1e-12
    e = np.zeros(2)
    for i in range(2):
        e[i] = (
            0.5 * N[i, 0] * (N[i, 0] - 1) * a[0] * b[0]
            + 0.5 * N[i, 1] * (N[i, 1] - 1) * a[1] * b[1]
            + N[i, 0] * N[i, 1] * b[0] * a[1]
        )
    lhs = c @ (np.eye(2) - N.T)
    assert np.abs(lhs - e).max() < 1e-12  # p = q = 0 case


def test_inoue_real_coefficients_hand_expansion(inoue):
    # at a fixed point, compare the converted form with the hand expansion
    s = inoue.structure
    p = np.array([[0.3, 1.7, 0.4, -0.6]])
    vals = s.omega.coefficient_values(p)
    y1, y2 = 1.7, -0.6
    assert abs(vals[(0, 1)][0] - 2 * (1 + y2**2) / y1**2) < 1e-14
    assert abs(vals[(0, 3)][0] - (-2 * y2 / y1)) < 1e-14
    # dx2 ^ dy1 reorders to -(e1 ^ e2), flipping the sign
    assert abs(vals[(1, 2)][0] - (2 * y2 / y1)) < 1e-14
    assert abs(vals[(2, 3)][0] - 2.0) < 1e-14


def test_deck_loop_integrals(hopf, inoue):
    # theta = d phi, so its period across a deck map gamma is the jump
    # phi(gamma y) - phi(y), the same at every y
    for m, deck, want, tol in ((hopf, "gamma", 2 * math.log(2.0), 1e-10),
                               (inoue, "g0", math.log(inoue.params["alpha"]), 1e-10),
                               (inoue, "g3", 0.0, 1e-12)):
        pts = m.sample(20, seed=4)
        dphi = exterior_d(Form.from_function(m.phi))
        assert (m.structure.theta - dphi).max_abs(pts) <= 1e-10
        jump = np.real(m.phi.values(m.deck(deck).map(pts)) - m.phi.values(pts))
        assert np.abs(jump - want).max() < tol


def test_product_fixture_embeds_factors(hopf):
    prod = M.gallery("product")
    pts = prod.sample(30, seed=3)
    assert prod.dim == 8 and prod.contains(pts).all()
    assert len(prod.decks) == 2
    emb = prod.fields["B@0"].values(pts)
    assert np.abs(emb[:, 4:]).max() == 0.0
    assert np.abs(emb[:, :4] - hopf.fields["B"].values(pts[:, :4])).max() < 1e-14


def test_leeolo_base_period_is_two_pi(leeolo):
    assert abs(leeolo.flows["B"].period - 2 * math.pi) < 1e-12
    assert abs(abs(leeolo.params["beta"]) - math.exp(-math.pi)) < 1e-15


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("beta", [0.5, 0.4 + 0.1j])
def test_cover_kahler_form_is_the_generic_lift(n, beta):
    # 4 sum_j dx_j ^ dy_j is e^{-phi} Omega = (4 / |z|^2) e^{ln |z|^2} with the
    # factors cancelled; the lift's jets of 1/|z|^2, ln and exp cancel to
    # rounding, about one ulp of 4 |z|^{-k} at order k (measured up to 1.2e-15)
    m = M.gallery("hopf_diag", n=n, beta=beta)
    pts = m.sample(200, seed=42)
    closed, lift = m.extras["cover_kahler"], m.kahler_lift()
    assert set(closed.coeffs) == set(lift.coeffs) == {(2 * j, 2 * j + 1)
                                                      for j in range(n)}
    r = np.linalg.norm(pts, axis=1).min()
    for idx, f in lift.coeffs.items():
        want, got = f.jet(pts, 2), closed.coeffs[idx].jet(pts, 2)
        for k, name in enumerate("vgh"):
            tier = getattr(got, name)
            tier = 0.0 if tier is None else tier
            assert np.abs(tier - getattr(want, name)).max() <= 1e-14 * 4.0 / r**k, name


# -- the hopf_nondiag deck series as one stacked family ----------------------

def _term_by_term_phi(beta, lam, m, K):
    """phi = -ln sum_k |beta|^{-2k} chi(|gamma^k z|^2), one sub-DAG per term
    and the weighted sum by ``nsum``: the series as it was built before its
    terms were stacked along the point axis."""
    z1, z2 = complex_coordinate(0, 4), complex_coordinate(1, 4)
    terms, weights = [], []
    for k in range(-K, K + 1):
        w1 = beta**k * z1
        w2 = beta ** (m * k) * z2 + (k * lam * beta ** (m * (k - 1))) * z1**m
        nk = (w1 * w1.conjugate()).real_part() + (w2 * w2.conjugate()).real_part()
        terms.append(1.0 / (nk + (1.0 / nk) ** 2))
        weights.append((abs(beta) ** 2) ** (-k))
    return -1.0 * ScalarField.nsum(terms, weights).log()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [0.4 + 0.1j, 0.05, 0.8j, 0.6 + 0.6j])
def test_stacked_deck_series_equals_the_term_by_term_sum(beta):
    # every row of the stacked terms runs the term's operations on its own
    # point, and the sum over k keeps nsum's order, so phi's jets are the
    # term-by-term ones bit for bit, K = 10 to 80 across the grid
    checked = 0
    for lam in (1.0, 0.6 + 0.6j, 1e-4, 3.0):
        for m in (1, 2, 3, 4):
            try:
                mfd = M.gallery("hopf_nondiag", beta=beta, lam=lam, m=m)
            except GalleryError:
                continue
            oracle = _term_by_term_phi(complex(beta), complex(lam), m,
                                       mfd.extras["series_K"])
            for seed in (0, 42):
                pts = mfd.sample(20, seed=seed)
                # no tier depends on a higher one, so the oracle's order-2
                # jet holds its order-0 and order-1 jets
                want = oracle.eval(Ctx(pts), 2)
                for order in range(3):
                    got = mfd.phi.eval(Ctx(pts), order)
                    for tier in "vgh"[:order + 1]:
                        assert np.array_equal(getattr(got, tier), getattr(want, tier))
            checked += 1
    assert checked


def _nodes_built(monkeypatch, **params):
    built = []
    init = ScalarField.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ScalarField, "__init__", counting_init)
    mfd = M.gallery("hopf_nondiag", **params)
    monkeypatch.undo()
    return mfd.extras["series_K"], len(built)


def test_deck_series_size_does_not_grow_with_its_terms(monkeypatch):
    K_default, default = _nodes_built(monkeypatch)
    K_edge, edge = _nodes_built(monkeypatch, beta=0.8j)
    assert (K_default, K_edge) == (24, 80)
    assert edge <= default < 100

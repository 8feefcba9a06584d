"""LCK structures: metric, Lee data, connection, residual verifiers."""

import numpy as np
import pytest

from lcklab import lck as L
from lcklab.fields import (
    VectorField,
    bracket,
    constant,
    coordinate,
)
from lcklab.forms import Form, exterior_d

DIM = 4


@pytest.fixture(scope="module")
def flat():
    # flat Kaehler chart with theta = 0: omega = 2i sum dz ^ dzbar
    omega = Form(DIM, 2, {(0, 1): constant(4.0, DIM), (2, 3): constant(4.0, DIM)})
    theta = Form.zero(DIM, 1)
    return L.LCKStructure(omega, theta, name="flat")


@pytest.fixture(scope="module")
def flat_pts():
    return np.random.default_rng(0).uniform(-1, 1, (40, DIM))


def test_metric_is_symmetric_J_invariant_positive(hopf, hopf_pts, inoue, inoue_pts):
    from lcklab.fields import complex_jmatrix

    for m, pts in ((hopf, hopf_pts[:50]), (inoue, inoue_pts[:50])):
        g, _ = m.structure.metric_jets(pts, 0)
        assert np.abs(g - g.transpose(0, 2, 1)).max() < 1e-12
        J = complex_jmatrix(m.dim)
        gj = np.einsum("ia,nab,bj->nij", J.T, g, J)
        assert np.abs(gj - g).max() < 1e-12
        assert m.structure.positivity_minima(pts).min() > 0


def test_lck_residuals(hopf, hopf_pts, inoue, inoue_pts, flat, flat_pts):
    assert L.lck_residual(hopf.structure, hopf_pts) < 1e-8
    assert L.lck_residual(inoue.structure, inoue_pts) < 1e-8
    assert L.lck_residual(flat, flat_pts) < 1e-12


def test_extract_lee_form(hopf, hopf_pts, inoue, inoue_pts, flat, flat_pts):
    for m, pts in ((hopf, hopf_pts), (inoue, inoue_pts)):
        ext = L.extract_lee_form(m.structure.omega, pts[:40])
        stored = np.zeros((40, m.dim))
        for (i,), f in m.structure.theta.coeffs.items():
            stored[:, i] = np.real(f.values(pts[:40]))
        assert ext.residual < 1e-9
        assert np.abs(ext.values - stored).max() < 1e-8
        assert ext.is_lck
    ext = L.extract_lee_form(flat.omega, flat_pts[:20])
    assert np.abs(ext.values).max() < 1e-12


def test_extract_lee_form_rejects_curves():
    omega = Form(2, 2, {(0, 1): constant(1.0, 2)})
    with pytest.raises(ValueError, match="underdetermined"):
        L.extract_lee_form(omega, np.zeros((1, 2)))


def test_lee_fields_unit_norm_on_hopf(hopf, hopf_pts):
    pair = hopf.structure.lee_pair()
    res = pair.defining_residuals(hopf_pts[:60])
    assert max(res.values()) < 1e-9
    assert np.abs(pair.norm_squared(hopf_pts[:60]) - 1.0).max() < 1e-9


def test_lee_fields_vanish_for_kaehler(flat, flat_pts):
    pair = flat.lee_pair()
    assert np.abs(pair.B.values(flat_pts)).max() < 1e-14
    assert np.abs(pair.A.values(flat_pts)).max() < 1e-14


def test_leeolo_lee_field_is_base_lee_field(leeolo, leeolo_pts):
    res = leeolo.extras["leeolo"]
    base_B = leeolo.extras["vaisman_base"].lee_pair().B
    pair = res.structure.lee_pair()
    pts = leeolo_pts[:50]
    assert np.abs(pair.B.values(pts) - base_B.values(pts)).max() < 1e-9


def test_covariant_derivative_euclidean(flat, flat_pts):
    dx = VectorField.from_constant([1, 0, 0, 0], DIM)
    dy = VectorField.from_constant([0, 1, 0, 0], DIM)
    out = L.covariant_derivative(flat, dx, dy, flat_pts[:10])
    assert np.abs(out).max() < 1e-13


def _random_fields(rng, n=2):
    out = []
    for _ in range(n):
        comps = []
        for _ in range(DIM):
            c = rng.uniform(-1, 1, 3)
            comps.append(
                constant(c[0], DIM)
                + c[1] * coordinate(int(rng.integers(0, DIM)), DIM)
                + c[2] * coordinate(int(rng.integers(0, DIM)), DIM)
                * coordinate(int(rng.integers(0, DIM)), DIM)
            )
        out.append(VectorField(comps))
    return out


def test_connection_is_torsion_free(hopf, hopf_pts):
    rng = np.random.default_rng(1)
    s = hopf.structure
    pts = hopf_pts[:25]
    for _ in range(3):
        X, Y = _random_fields(rng)
        t = (
            L.covariant_derivative(s, X, Y, pts)
            - L.covariant_derivative(s, Y, X, pts)
            - bracket(X, Y).values(pts)
        )
        assert np.abs(t).max() < 1e-8


def test_connection_is_metric_compatible(hopf, inoue):
    # X g(Y, Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z) on coordinate triples
    rng = np.random.default_rng(2)
    for m in (hopf, inoue):
        s = m.structure
        pts = m.sample(6, seed=3)
        g, dg = s.metric_jets(pts)
        gam = L.christoffel(s, pts)
        for _ in range(50):
            i, j, k = rng.integers(0, m.dim, 3)
            lhs = dg[:, i, j, k]
            rhs = np.einsum("nm,nm->n", gam[:, :, i, j], g[:, :, k]) + np.einsum(
                "nm,nm->n", gam[:, :, i, k], g[:, j, :]
            )
            assert np.abs(lhs - rhs).max() < 1e-8


def test_vaisman_residuals(hopf, hopf_pts, leeolo, leeolo_pts, flat, flat_pts):
    assert L.vaisman_residual(hopf.structure, hopf_pts) < 1e-7
    assert L.vaisman_residual(leeolo.structure, leeolo_pts[:60]) > 0.05
    assert L.vaisman_residual(flat, flat_pts) < 1e-14


def test_gauduchon_residuals(hopf, hopf_pts, flat, flat_pts, leeolo, leeolo_pts):
    assert L.gauduchon_residual(hopf.structure, hopf_pts) < 1e-7
    assert L.gauduchon_residual(flat, flat_pts) < 1e-14
    val = L.gauduchon_residual(leeolo.structure, leeolo_pts[:40])
    assert np.isfinite(val)  # informational only


@pytest.mark.parametrize("residual", [L.vaisman_residual, L.gauduchon_residual],
                         ids=["vaisman", "gauduchon"])
def test_nabla_theta_residuals_build_the_metric_jets_once(residual, hopf, hopf_pts,
                                                          monkeypatch):
    calls = []
    metric_jets = L.LCKStructure.metric_jets

    def spy(self, *args):
        calls.append(args)
        return metric_jets(self, *args)

    monkeypatch.setattr(L.LCKStructure, "metric_jets", spy)
    assert residual(hopf.structure, hopf_pts[:20]) < 1e-7
    assert len(calls) == 1


def test_vaisman_implies_gauduchon(hopf, hopf_pts):
    if L.vaisman_residual(hopf.structure, hopf_pts) < 1e-7:
        assert L.gauduchon_residual(hopf.structure, hopf_pts) < 1e-6


def test_holomorphy_residual_examples(nondiag, flat_pts):
    pts4 = nondiag.sample(40, seed=4)
    assert L.holomorphy_residual(nondiag.fields["Z1_re"], pts4) < 1e-10
    radial = VectorField([coordinate(i, DIM) for i in range(DIM)])
    assert L.holomorphy_residual(radial, flat_pts) < 1e-12
    # x d/dx on the complex line has |L_X J| = 1
    pts2 = np.random.default_rng(5).uniform(0.5, 1.5, (10, 2))
    xdx = VectorField([coordinate(0, 2), constant(0.0, 2)])
    assert abs(L.holomorphy_residual(xdx, pts2) - 1.0) < 1e-12


def test_killing_residual_examples(hopf, hopf_pts, flat, flat_pts):
    pair = hopf.structure.lee_pair()
    assert L.killing_residual(hopf.structure, pair.B, hopf_pts) < 1e-8
    rot = VectorField(
        [-1.0 * coordinate(1, DIM), coordinate(0, DIM),
         -1.0 * coordinate(3, DIM), coordinate(2, DIM)]
    )
    assert L.killing_residual(flat, rot, flat_pts) < 1e-12
    radial = VectorField([coordinate(i, DIM) for i in range(DIM)])
    assert abs(L.killing_residual(flat, radial, flat_pts) - 2.0 * 4.0) < 1e-12


def test_potential_residuals(hopf, hopf_pts, leeolo, flat, flat_pts):
    assert L.potential_residual(hopf.structure, constant(1.0, DIM), hopf_pts) < 1e-8
    res = leeolo.extras["leeolo"]
    pts = leeolo.sample(60, seed=13)
    assert L.potential_residual(res.structure, res.g_field, pts) < 1e-6
    # Kaehler case: reduces to omega = dd^c f with f = |z|^2
    r2 = sum((coordinate(i, DIM) ** 2 for i in range(DIM)), constant(0.0, DIM))
    assert L.potential_residual(flat, r2, flat_pts) < 1e-12


def test_conformal_rescale(hopf, hopf_pts):
    s = hopf.structure
    zero = constant(0.0, DIM)
    same = L.conformal_rescale(s, zero)
    assert (same.omega - s.omega).max_abs(hopf_pts) < 1e-14
    h = coordinate(0, DIM) * 0.3 + (coordinate(2, DIM) ** 2) * 0.1
    up = L.conformal_rescale(s, h)
    assert L.lck_residual(up, hopf_pts[:60]) < 1e-8
    pair = up.lee_pair()
    assert max(pair.defining_residuals(hopf_pts[:60]).values()) < 1e-9
    down = L.conformal_rescale(up, -1.0 * h)
    assert (down.omega - s.omega).max_abs(hopf_pts) < 1e-10
    assert (down.theta - s.theta).max_abs(hopf_pts) < 1e-10


def test_conformal_rescale_by_field_norm(hopf, hopf_pts):
    # Omega / |C|^2 has Lee form theta - d ln |C|^2
    s = hopf.structure
    C = hopf.fields["C"]
    from lcklab.fields import apply_J_vector

    jc = apply_J_vector(C)
    pts = hopf_pts[:50]
    cn = s.omega.evaluate(pts, C.values(pts), jc.values(pts))
    assert cn.min() > 0
    # |C|^2 as a field: contract eta = iota_C Omega with JC
    from lcklab.fields import ScalarField
    from lcklab.forms import interior_product

    eta = interior_product(C, s.omega)
    normsq = ScalarField.nsum(
        [eta.coeffs[(i,)] * jc.components[i] for i in range(DIM) if (i,) in eta.coeffs]
    )
    re = L.conformal_rescale(s, -1.0 * normsq.log())
    assert L.lck_residual(re, pts) < 1e-8
    want = s.theta - exterior_d(Form.from_function(normsq.log()))
    assert (re.theta - want).max_abs(pts) < 1e-12


def test_verify_unit_potential_chain(hopf, hopf_pts, leeolo, flat, flat_pts):
    rep = L.verify_unit_potential(hopf.structure, hopf_pts[:60])
    assert rep.verdict == "vaisman-confirmed"
    assert rep.norm_deviation < 1e-6 and rep.vaisman < 1e-6
    rep2 = L.verify_unit_potential(leeolo.structure, leeolo.sample(40, seed=2))
    assert rep2.verdict == "hypotheses not met"
    rep3 = L.verify_unit_potential(flat, flat_pts)
    assert rep3.verdict == "hypotheses not met"


def test_metric_elimination_has_positive_pivots_on_every_default_fixture():
    # solve_linear_fields eliminates without pivoting; on a positive definite
    # metric every pivot is a Schur-complement diagonal entry, hence > 0
    from lcklab import manifolds as M
    from lcklab.cli import DEFAULT_FIXTURES
    from lcklab.fields import evaluate

    carried = set()
    for name in DEFAULT_FIXTURES:
        m = M.gallery(name)
        extras = list(m.extras.values())
        candidates = [m.structure, *extras, *(getattr(x, "structure", None) for x in extras)]
        structures = {id(s): s for s in candidates if isinstance(s, L.LCKStructure)}
        pts = m.sample(40, seed=42)
        for s in structures.values():
            carried.add(name)
            assert s.positivity_minima(pts).min() > 0
            G, theta = s.metric_entry_fields(), s.theta_components()
            U, _ = L._eliminate(G, theta)
            pivots = np.array([j.v for j in evaluate([U[k][k] for k in range(s.dim)], pts, 0)])
            assert np.abs(pivots.imag).max() == 0.0
            assert pivots.real.min() > 0, (name, s.name)
            B = np.column_stack([j.v for j in evaluate(L.solve_linear_fields(G, theta), pts, 0)])
            th = np.column_stack([j.v for j in evaluate(theta, pts, 0)])
            g, _ = s.metric_jets(pts, 0)
            assert np.abs(np.einsum("nab,nb->na", g, B) - th).max() <= 1e-10, (name, s.name)
    # hopf_nondiag carries only a Lee class and hxc_cover no metric
    assert carried == {"hopf_diag", "inoue_splus", "leeolo", "product"}

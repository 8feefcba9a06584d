"""LCK structures: metric, Lee data, connection, residual verifiers."""

import numpy as np
import pytest

from lcklab import lck as L
from lcklab import manifolds as M
from lcklab.fields import (
    VectorField,
    bracket,
    constant,
    coordinate,
    stacked,
)
from lcklab.forms import Form, exterior_d

DIM = 4


@pytest.fixture(scope="module")
def flat():
    # flat Kaehler chart with theta = 0: omega = 2i sum dz ^ dzbar, and the
    # zero Lee pair
    omega = Form(DIM, 2, {(0, 1): constant(4.0, DIM), (2, 3): constant(4.0, DIM)})
    theta = Form.zero(DIM, 1)
    zero = [constant(0.0, DIM)] * DIM
    return L.LCKStructure(omega, theta, lee_B=VectorField(zero, name="B"),
                          lee_A=VectorField(zero, name="A"))


@pytest.fixture(scope="module")
def flat_pts():
    return np.random.default_rng(0).uniform(-1, 1, (40, DIM))


# -- oracles: the full Levi-Civita connection, which the engine never forms,
# and a conformal change of structure ----------------------------------------


def christoffel(s, pts):
    """Gamma[n, k, i, j] = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), the
    Koszul formula on coordinate fields."""
    b = L.MetricBundle(s, pts)
    g, dg = b.g.transpose(2, 0, 1), b.dg.transpose(3, 0, 1, 2)  # points first
    sym = dg + np.einsum("njil->nijl", dg) - np.einsum("nlij->nijl", dg)
    return 0.5 * np.einsum("nkl,nijl->nkij", np.linalg.inv(g), sym)


def covariant_derivative(s, X, Y, pts):
    """(nabla_X Y)^k = X(Y^k) + Gamma^k_ij X^i Y^j at the samples."""
    xv, _ = stacked(X.components, pts, 0)
    yv, dy = stacked(Y.components, pts)  # dy[n, k, i] = d_i Y^k
    gam = christoffel(s, pts)
    return np.einsum("nki,ni->nk", dy, xv) + np.einsum("nkij,ni,nj->nk", gam, xv, yv)


def nabla_theta(s, pts):
    """(nabla theta)[n, a, b] = d_a theta_b - Gamma^k_ab theta_k."""
    tv, dt = stacked(s.theta_components(), pts)  # dt[n, b, a] = d_a theta_b
    return dt.transpose(0, 2, 1) - np.einsum("nkab,nk->nab", christoffel(s, pts), tv)


def gram_schmidt_codifferential(s, pts):
    """d* theta = -sum_j (nabla_{E_j} theta)(E_j) over the orthonormal frame E
    that batched Gram-Schmidt makes from the coordinate fields."""
    g = s.metric_jets(pts).transpose(2, 0, 1)
    n, d = g.shape[0], s.dim
    E = np.zeros((n, d, d))
    for j in range(d):
        v = np.broadcast_to(np.eye(d)[j], (n, d)).copy()
        for i in range(j):
            v = v - np.einsum("na,nab,nb->n", E[:, i], g, v)[:, None] * E[:, i]
        E[:, j] = v / np.sqrt(np.einsum("na,nab,nb->n", v, g, v))[:, None]
    return -np.einsum("nja,njb,nab->n", E, E, nabla_theta(s, pts))


def conformal_rescale(s, h):
    """(Omega, theta) -> (e^h Omega, theta + dh)."""
    return L.LCKStructure(s.omega.scale(h.exp()),
                          s.theta + exterior_d(Form.from_function(h)))


def test_metric_is_symmetric_J_invariant_positive(hopf, hopf_pts, inoue, inoue_pts,
                                                   leeolo, leeolo_pts):
    from lcklab.fields import complex_jmatrix

    # g = Omega(., J.) is W J for Omega's antisymmetric coefficient array W,
    # exactly: each entry of W J has one nonzero term, +-W_ac
    leeolo_n3 = M.gallery("leeolo", n=3)
    for m, pts in ((hopf, hopf_pts[:50]), (inoue, inoue_pts[:50]),
                   (leeolo, leeolo_pts[:50]), (leeolo_n3, leeolo_n3.sample(50, seed=42))):
        g = m.structure.metric_jets(pts).transpose(2, 0, 1)
        W = np.zeros((len(pts), m.dim, m.dim))
        for (a, c), v in m.structure.omega.coefficient_values(pts).items():
            W[:, a, c], W[:, c, a] = np.real(v), -np.real(v)
        J = complex_jmatrix(m.dim)
        assert np.array_equal(g, W @ J)
        assert np.abs(g - g.transpose(0, 2, 1)).max() < 1e-12
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


def test_leeolo_lee_field_is_base_lee_field(leeolo, leeolo_pts):
    # the structure carries the base's pair, and it solves the defining
    # identities against Omega' and theta' = (1 + f) theta
    base = leeolo.extras["vaisman_base"].lee_pair()
    pair = leeolo.extras["leeolo"].structure.lee_pair()
    assert pair.B is base.B and pair.A is base.A
    res = pair.defining_residuals(leeolo_pts[:50])
    assert set(res) == {"iota_B", "iota_A", "A_equals_JB"}
    assert max(res.values()) < 1e-9


def test_lee_pair_without_a_registered_pair_raises(inoue, hopf):
    with pytest.raises(ValueError, match="lee_B and lee_A missing"):
        inoue.structure.lee_pair()
    s = hopf.structure
    half = L.LCKStructure(s.omega, s.theta, lee_B=s.lee_pair().B)
    with pytest.raises(ValueError, match="lee_A missing"):
        half.lee_pair()


def test_covariant_derivative_euclidean(flat, flat_pts):
    dx = VectorField([constant(v, DIM) for v in (1, 0, 0, 0)])
    dy = VectorField([constant(v, DIM) for v in (0, 1, 0, 0)])
    out = covariant_derivative(flat, dx, dy, flat_pts[:10])
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
            covariant_derivative(s, X, Y, pts)
            - covariant_derivative(s, Y, X, pts)
            - bracket(X, Y).values(pts)
        )
        assert np.abs(t).max() < 1e-8


def test_connection_is_metric_compatible(hopf, inoue):
    # X g(Y, Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z) on coordinate triples
    rng = np.random.default_rng(2)
    for m in (hopf, inoue):
        s = m.structure
        pts = m.sample(6, seed=3)
        b = L.MetricBundle(s, pts)
        g, dg = b.g.transpose(2, 0, 1), b.dg.transpose(3, 0, 1, 2)
        gam = christoffel(s, pts)
        for _ in range(50):
            i, j, k = rng.integers(0, m.dim, 3)
            lhs = dg[:, i, j, k]
            rhs = np.einsum("nm,nm->n", gam[:, :, i, j], g[:, :, k]) + np.einsum(
                "nm,nm->n", gam[:, :, i, k], g[:, j, :]
            )
            assert np.abs(lhs - rhs).max() < 1e-8


def test_vaisman_residuals(hopf, hopf_pts, leeolo, leeolo_pts, flat, flat_pts):
    assert L.vaisman_residual(L.MetricBundle(hopf.structure, hopf_pts)) < 1e-7
    assert L.vaisman_residual(L.MetricBundle(leeolo.structure, leeolo_pts[:60])) > 0.05
    assert L.vaisman_residual(L.MetricBundle(flat, flat_pts)) < 1e-14


def test_gauduchon_residuals(hopf, hopf_pts, flat, flat_pts, leeolo, leeolo_pts):
    assert L.gauduchon_residual(L.MetricBundle(hopf.structure, hopf_pts)) < 1e-7
    assert L.gauduchon_residual(L.MetricBundle(flat, flat_pts)) < 1e-14
    val = L.gauduchon_residual(L.MetricBundle(leeolo.structure, leeolo_pts[:40]))
    assert np.isfinite(val)  # informational only


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("fixture, params", [
    ("hopf_diag", {"n": 2}), ("hopf_diag", {"n": 3}), ("hopf_diag", {"n": 4}),
    ("inoue_splus", {}), ("leeolo", {})], ids=["n2", "n3", "n4", "inoue", "leeolo"])
def test_contracted_nabla_theta_and_trace_match_the_full_connection(fixture, params, seed):
    # the bundle contracts Gamma with theta before it is formed and takes
    # d* theta as a trace; the oracles form Gamma and an orthonormal frame
    m = M.gallery(fixture, **params)
    pts = m.sample(40, seed)
    bundle = L.MetricBundle(m.structure, pts)
    want = nabla_theta(m.structure, pts)
    tol = 1e-12 * max(1.0, float(np.abs(want).max()))
    assert np.abs(bundle.nabla_theta.transpose(2, 0, 1) - want).max() <= tol
    assert np.abs(bundle.codifferential()
                  - gram_schmidt_codifferential(m.structure, pts)).max() <= tol


@pytest.mark.parametrize("residual", [L.vaisman_residual, L.gauduchon_residual],
                         ids=["vaisman", "gauduchon"])
def test_nabla_theta_residuals_build_the_metric_jets_once(residual, hopf, hopf_pts,
                                                          monkeypatch):
    # building the bundle evaluates the entries once; the residual reads it
    entries = {f.uid for f in hopf.structure.upper_metric_fields()}
    calls = []
    evaluate = L.evaluate

    def spy(fields, pts, order):
        if entries & {f.uid for f in fields}:
            calls.append(order)
        return evaluate(fields, pts, order)

    monkeypatch.setattr(L, "evaluate", spy)
    assert residual(L.MetricBundle(hopf.structure, hopf_pts[:20])) < 1e-7
    assert calls == [1]


def test_hopf_diag_suite_evaluates_the_metric_entries_once_per_batch(hopf, monkeypatch):
    # the Vaisman, Gauduchon and both Killing rows read one MetricBundle on
    # the run's points, and the unit-potential chain one on its own 60.  The
    # entries include Omega's own coefficient fields, which other rows
    # evaluate too, so the spy keys on the bundle's evaluation: the one
    # call that takes every entry
    from lcklab import cli

    entries = {f.uid for f in hopf.structure.upper_metric_fields()}
    batches = []
    evaluate = L.evaluate

    def spy(fields, pts, order):
        if entries <= {f.uid for f in fields}:
            batches.append(len(pts))
        return evaluate(fields, pts, order)

    monkeypatch.setattr(L, "evaluate", spy)
    checks, _ = cli._hopf_diag_report(hopf, hopf.sample(80, seed=42), 1e-8, 512)
    rows = {c.name: c.passed for c in checks}
    for name in ("vaisman_parallel_lee", "gauduchon_coclosed", "lee_killing",
                 "unit_potential_vaisman_chain"):
        assert rows[name], name
    assert sorted(batches) == [60, 80]


def test_hopf_diag_suite_evaluates_the_lee_field_once_per_batch(hopf, monkeypatch):
    # the Killing and holomorphy rows share one session, so B's order-1 jets,
    # on which A = JB is built, are evaluated once on the run's 80 points,
    # and once on the unit-potential chain's 60
    from lcklab import cli

    runs = []
    comps = hopf.structure.lee_pair().B.components
    for comp in comps:
        def spy(ctx, order, _fn=comp._fn, _uid=comp.uid):
            if order >= 1:
                runs.append((_uid, len(ctx.pts)))
            return _fn(ctx, order)

        monkeypatch.setattr(comp, "_fn", spy)
    checks, _ = cli._hopf_diag_report(hopf, hopf.sample(80, seed=42), 1e-8, 512)
    rows = {c.name: c.passed for c in checks}
    assert rows["lee_holomorphic"] and rows["lee_killing"]
    uids = {c.uid for c in comps}
    assert sorted(runs) == sorted((u, n) for u in uids for n in (60, 80))


def test_vaisman_implies_gauduchon(hopf, hopf_pts):
    metric = L.MetricBundle(hopf.structure, hopf_pts)
    if L.vaisman_residual(metric) < 1e-7:
        assert L.gauduchon_residual(metric) < 1e-6


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
    assert L.killing_residual(L.MetricBundle(hopf.structure, hopf_pts), pair.B) < 1e-8
    rot = VectorField(
        [-1.0 * coordinate(1, DIM), coordinate(0, DIM),
         -1.0 * coordinate(3, DIM), coordinate(2, DIM)]
    )
    metric = L.MetricBundle(flat, flat_pts)
    assert L.killing_residual(metric, rot) < 1e-12
    radial = VectorField([coordinate(i, DIM) for i in range(DIM)])
    assert abs(L.killing_residual(metric, radial) - 2.0 * 4.0) < 1e-12


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
    same = conformal_rescale(s, zero)
    assert (same.omega - s.omega).max_abs(hopf_pts) < 1e-14
    h = coordinate(0, DIM) * 0.3 + (coordinate(2, DIM) ** 2) * 0.1
    up = conformal_rescale(s, h)
    assert L.lck_residual(up, hopf_pts[:60]) < 1e-8
    down = conformal_rescale(up, -1.0 * h)
    assert (down.omega - s.omega).max_abs(hopf_pts) < 1e-10
    assert (down.theta - s.theta).max_abs(hopf_pts) < 1e-10


def test_conformal_rescale_by_field_norm(hopf, hopf_pts):
    # Omega / |C|^2 has Lee form theta - d ln |C|^2
    s = hopf.structure
    C = hopf.fields["C"]
    from lcklab.fields import apply_J_vector

    from lcklab.forms import interior_product

    jc = apply_J_vector(C)
    pts = hopf_pts[:50]
    # |C|^2 = Omega(C, JC) as a field: contract eta = iota_C Omega with JC
    normsq = interior_product(jc, interior_product(C, s.omega)).coeffs[()]
    cn = normsq.values(pts)
    assert cn.min() > 0
    re = conformal_rescale(s, -1.0 * normsq.log())
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


@pytest.mark.parametrize("fixture, params", [
    ("hopf_diag", {"n": 2}), ("hopf_diag", {"n": 3}), ("hopf_diag", {"n": 4}),
    ("leeolo", {"n": 2}), ("leeolo", {"n": 3}), ("flat", None)],
    ids=["hopf_n2", "hopf_n3", "hopf_n4", "leeolo_n2", "leeolo_n3", "flat"])
def test_registered_lee_pairs_match_a_numpy_metric_solve(fixture, params, request):
    # g(B, .) = theta: B is g^{-1} theta, solved point by point in NumPy on a
    # positive definite metric, and A = JB
    from lcklab.fields import complex_jmatrix

    if params is None:
        s, pts = request.getfixturevalue(fixture), request.getfixturevalue("flat_pts")
    else:
        m = M.gallery(fixture, **params)
        s, pts = m.structure, m.sample(40, seed=42)
    assert s.positivity_minima(pts).min() > 0
    g = s.metric_jets(pts).transpose(2, 0, 1)
    theta, _ = stacked(s.theta_components(), pts, 0)
    want = np.linalg.solve(g, theta[:, :, None])[:, :, 0]
    pair = s.lee_pair()
    assert np.abs(pair.B.values(pts) - want).max() <= 1e-14
    assert np.abs(pair.A.values(pts) - want @ complex_jmatrix(s.dim).T).max() <= 1e-14

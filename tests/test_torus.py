"""Torus diagnostics: averaging, rank probes, pairings, verdicts."""

import dataclasses
import importlib
import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from lcklab import fields
from lcklab import manifolds as M
from lcklab import potential as P
from lcklab import torus as T
from lcklab.errors import GalleryError, InadmissibleInput, NumericalError
from lcklab.fields import ScalarField, constant, coordinate
from lcklab.forms import (
    Form,
    dc,
    exterior_d,
    interior_product,
    lie_derivative,
    pullback,
)


@pytest.fixture(scope="module")
def hopf_action(hopf):
    return T.TorusAction(hopf, [hopf.flows["A"], hopf.flows["B"]])


@pytest.fixture(scope="module")
def nondiag_action(nondiag):
    return T.TorusAction(nondiag, [nondiag.flows["xi1"], nondiag.flows["xi2"]])


@pytest.fixture(scope="module")
def inoue_action(inoue):
    return T.TorusAction(inoue, [inoue.flows["xi"]])


@pytest.fixture(scope="module")
def product_action():
    prod = M.gallery("product")
    flows = [prod.flows[k] for k in ("A@0", "B@0", "A@1", "B@1")]
    return T.TorusAction(prod, flows)


def test_action_requires_periodic_flows(hopf):
    with pytest.raises(GalleryError):
        T.TorusAction(hopf, [hopf.flows["JC"]])


def test_action_invariants(hopf_action, nondiag_action, inoue_action, hopf):
    pts = hopf.sample(20, seed=1)
    assert hopf_action.commutation_residual(pts) < 1e-8
    assert hopf_action.closure_residual(pts) < 1e-9
    npts = nondiag_action.manifold.sample(20, seed=1)
    assert nondiag_action.commutation_residual(npts) < 1e-8
    assert nondiag_action.closure_residual(npts) < 1e-9


def _shear_action():
    # two circles whose generators x1 d/dy1 and y1 d/dx1 do not commute; the
    # identity stands in for their flows, which the rows below never run
    from lcklab.fields import PointMap, VectorField

    m = M.gallery("hxc_cover")
    zero = constant(0.0, 4)
    x1, y1 = coordinate(0, 4), coordinate(1, 4)
    ident = PointMap([coordinate(i, 4) for i in range(4)])
    return T.TorusAction(m, [
        M.FlowMap(name, VectorField(comps), lambda t: ident, period=1.0)
        for name, comps in (("X", [zero, x1, zero, zero]), ("Y", [y1, zero, zero, zero]))])


def test_commutation_residual_scales_by_the_determinant_of_the_mix():
    # [aX + bY, cX + dY] = (ad - bc) [X, Y]
    act = _shear_action()
    pts = act.manifold.sample(20, seed=2)
    base = act.commutation_residual(pts)
    assert base == pytest.approx(np.abs(pts[:, :2]).max(), rel=1e-15)
    # a NaN bracket reads NaN, so the row that compares it fails
    assert np.isnan(act.commutation_residual(np.vstack([pts, [np.nan, 1.0, 0.0, 0.0]])))
    rng = np.random.default_rng(4)
    for _ in range(5):
        Mx = rng.uniform(-2, 2, (2, 2))
        mixed = act.recombine(Mx)
        assert mixed.names == ["mix0", "mix1"]
        assert mixed.commutation_residual(pts) == pytest.approx(
            abs(np.linalg.det(Mx)) * base, rel=1e-12)


def test_generator_arrays_apply_the_mix_to_values_and_jacobians():
    act = _shear_action()
    pts = act.manifold.sample(6, seed=3)
    Mx = np.array([[0.5, -1.5], [2.0, 0.25]])
    vals, jacs = act.generator_arrays(pts, 1)
    assert act.names == ["X", "Y"]
    assert vals.shape == (2, 6, 4) and jacs.shape == (2, 6, 4, 4)
    # d_j X^i: X = x1 d/dy1 has d_0 X^1 = 1
    assert jacs[0, :, 1, 0].tolist() == [1.0] * 6 and np.count_nonzero(jacs[0]) == 6
    mixed_vals, mixed_jacs = act.recombine(Mx).generator_arrays(pts, 1)
    assert np.allclose(mixed_vals, np.einsum("hg,gnd->hnd", Mx, vals), rtol=0, atol=1e-15)
    assert np.allclose(mixed_jacs, np.einsum("hg,gnij->hnij", Mx, jacs), rtol=0, atol=1e-15)
    assert act.generator_arrays(pts)[1] is None


def test_rank_and_commutation_rows_build_no_field(monkeypatch):
    # the generators are read as arrays: no ScalarField, so no bracket or
    # mixed generator, is built inside these calls
    from lcklab import cli

    inside, entered, built = [], [], []
    init = ScalarField.__init__

    def spying_init(self, *args, **kwargs):
        if inside:
            built.append(self)
        init(self, *args, **kwargs)

    def spied(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn)
            entered.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(ScalarField, "__init__", spying_init)
    for owner, name in ((T.TorusAction, "commutation_residual"),
                        (T, "intersection_dimension")):
        monkeypatch.setattr(owner, name, spied(getattr(owner, name)))
    _, code = cli.run_verify("product", points=20)
    assert code == 0
    assert set(entered) == {"commutation_residual", "intersection_dimension"}
    assert built == []


def test_averaging_fixes_invariant_input(hopf, hopf_pts):
    s = hopf.structure
    avg = T.average_over_circle(s.omega, hopf.flows["A"], nodes=12)
    assert (avg - s.omega).max_abs(hopf_pts[:30]) < 1e-10


def test_averaging_requires_period_and_enough_nodes(hopf):
    with pytest.raises(GalleryError):
        T.average_over_circle(hopf.structure.omega, hopf.flows["JC"], nodes=12)
    with pytest.raises(ValueError):
        T.average_over_circle(hopf.structure.omega, hopf.flows["A"], nodes=4)


@pytest.fixture(scope="module")
def leeolo_n3():
    return M.gallery("leeolo", n=3)


def _test_form(m, degree):
    """A form of the given degree whose coefficients no circle fixes."""
    d = m.dim
    x = [coordinate(i, d) for i in range(d)]
    if degree == 0:
        return Form.from_function(x[0] * x[1] ** 2 + m.phi)
    if degree == 1:
        return m.structure.theta + Form(d, 1, {(1,): x[0] * x[2],
                                               (d - 1,): x[1] ** 3})
    return m.structure.omega + Form(d, 2, {(0, 3): x[1] * x[2],
                                           (1, 2): x[0] ** 2})


def _per_node_average(a, flow, nodes):
    ts = np.arange(nodes) * (flow.period / nodes)
    return Form.nsum([pullback(flow.at(float(t)), a) for t in ts],
                     [1.0 / nodes] * nodes)


def _gap(a, b, pts):
    va, vb = a.coefficient_values(pts), b.coefficient_values(pts)
    return max(float(np.abs(va.get(k, 0.0) - vb.get(k, 0.0)).max())
               for k in set(va) | set(vb))


def _jet_scale(a, pts, order):
    """Largest order-``order`` partial of the coefficients of a."""
    return max(float(np.abs((jet.v, jet.g, jet.h)[order]).max())
               for jet in (f.jet(pts, order) for f in a.coeffs.values()))


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("case", ["hopf:A", "hopf:R", "leeolo_n3:C"])
def test_batched_average_matches_per_node_pullbacks(case, degree, request):
    # the affine route (one node-stacked quadrature per minor) against the
    # literal trapezoid sum of pullbacks, on values and on order-1 (d) and
    # order-2 (dd^c) jets
    fixture, circle = case.split(":")
    m = request.getfixturevalue(fixture)
    flow = m.flows[circle]
    a = _test_form(m, degree)
    pts = m.sample(6, seed=13)
    batched = T.average_over_circle(a, flow, nodes=8)
    oracle = _per_node_average(a, flow, 8)
    # d and dd^c are signed sums of first and second partials, so their
    # rounding floor scales with those partials, not with the result
    assert _gap(batched, oracle, pts) < 1e-12 * _jet_scale(oracle, pts, 0)
    assert (_gap(exterior_d(batched), exterior_d(oracle), pts)
            < 1e-12 * _jet_scale(oracle, pts, 1))
    assert (_gap(exterior_d(dc(batched)), exterior_d(dc(oracle)), pts)
            < 1e-12 * _jet_scale(oracle, pts, 2))


def _per_pair_average(a, flow, nodes):
    """The circle average as one ``affine_quadrature_field`` per (J, I) pair
    with the minor det M_t[J, I] / nodes as weights, summed over J by
    ``nsum``: the route before the coefficients became one family."""
    mats, offs = flow.affine(np.arange(nodes) * (flow.period / nodes))
    parts = {}
    for J, f in a.coeffs.items():
        rows = mats[:, list(J)]
        for I in itertools.combinations(range(a.dim), a.degree):
            weights = np.linalg.det(rows[:, :, list(I)]) / nodes
            if weights.any():
                parts.setdefault(I, []).append(
                    fields.affine_quadrature_field(f, mats, offs, weights))
    return a.copy_with({I: ScalarField.nsum(fs) for I, fs in parts.items()})


@pytest.mark.parametrize("points,nodes", [(6, 8), (33, 32)], ids=["one_block", "blocks"])
@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("case", ["hopf:A", "hopf:R", "leeolo_n3:C"])
def test_family_average_equals_the_per_pair_quadratures(case, degree, points, nodes,
                                                        request):
    # each (J, I) output contracts its own a_J's rows with the quadrature's
    # code, and the outputs of one I are summed in J order as nsum adds them,
    # so the family route is the per-pair route bit for bit, also when the
    # node-stacked batch (1056 rows) is split into blocks
    fixture, circle = case.split(":")
    m = request.getfixturevalue(fixture)
    flow = m.flows[circle]
    a = _test_form(m, degree)
    pts = m.sample(points, seed=13)
    family = T.average_over_circle(a, flow, nodes)
    oracle = _per_pair_average(a, flow, nodes)
    assert list(family.coeffs) == list(oracle.coeffs)
    # the oracle's order-2 jets hold its lower orders: no tier depends on a
    # higher one
    wants = fields.evaluate(list(oracle.coeffs.values()), pts, 2)
    for order in range(3):
        gots = fields.evaluate(list(family.coeffs.values()), pts, order)
        for got, want in zip(gots, wants):
            for tier in "vgh"[:order + 1]:
                assert np.array_equal(getattr(got, tier), getattr(want, tier))


def test_circle_average_evaluates_each_integrand_once_per_batch(leeolo, leeolo_n3,
                                                                monkeypatch):
    # every coefficient a_J of the averaged omega and theta runs once per
    # point batch in the orbit prep: the block Ctx of the node-stacked batch
    # is shared by all of them, and every output (J, I) reads that one jet
    for m in (leeolo, leeolo_n3):
        runs = {}
        integrands = [*m.structure.omega.coeffs.values(),
                      *m.structure.theta.coeffs.values()]
        for f in integrands:
            def fn(ctx, order, f=f, inner=f._fn):
                key = f.uid, ctx.pts.shape, ctx.pts.tobytes()
                runs[key] = runs.get(key, 0) + 1
                return inner(ctx, order)

            monkeypatch.setattr(f, "_fn", fn)
        P.leeolo_orbit_pipeline(m, m.sample(12, seed=4))
        monkeypatch.undo()
        # the prep averages on 10 points over 32 nodes
        assert {uid for uid, *_ in runs} == {f.uid for f in integrands}
        assert {shape for _, shape, _ in runs} == {(320, m.dim)}
        assert set(runs.values()) == {1}


def test_flow_quadrature_rejects_flows_without_affine_form(hopf, leeolo):
    generic = dataclasses.replace(hopf.flows["R"], affine=None)
    with pytest.raises(GalleryError, match="no affine form"):
        T.average_over_circle(_test_form(hopf, 2), generic, nodes=12)
    jc = dataclasses.replace(leeolo.flows["JC"], affine=None)
    with pytest.raises(GalleryError, match="no affine form"):
        P.orbit_average_potential(leeolo, leeolo.structure.omega,
                                  leeolo.fields["C"], jc, leeolo.sample(40, seed=5),
                                  leeolo.phi)


def test_batched_average_size_is_independent_of_nodes(leeolo_n3, monkeypatch):
    built = []
    init = ScalarField.__init__

    def counting_init(self, dim, fn):
        built.append(1)
        init(self, dim, fn)

    monkeypatch.setattr(ScalarField, "__init__", counting_init)
    counts = []
    for nodes in (16, 64):
        built.clear()
        T.average_over_circle(leeolo_n3.structure.omega, leeolo_n3.flows["C"],
                              nodes)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


def test_averaging_output_is_invariant_and_closed(leeolo):
    # the norm-modulated form averaged along the rotation circle is already
    # invariant under its JC = JB companion (the fixed-point situation)
    m = leeolo
    pts = m.sample(20, seed=2)
    s = m.structure
    avg = T.average_over_circle(s.omega, m.flows["A"], nodes=16)
    assert (avg - s.omega).max_abs(pts) < 1e-10
    assert lie_derivative(m.flows["A"].generator, avg).max_abs(pts) < 1e-7
    d_avg = exterior_d(T.average_over_circle(s.theta, m.flows["A"], nodes=16))
    assert d_avg.max_abs(pts) < 1e-10


def test_averaging_is_linear_and_idempotent(hopf, hopf_pts):
    fl = hopf.flows["R"]
    a = hopf.structure.omega
    b = hopf.kahler_lift()
    pts = hopf_pts[:20]
    lhs = T.average_over_circle(a + b.scale(0.7), fl, nodes=12)
    rhs = T.average_over_circle(a, fl, nodes=12) + T.average_over_circle(
        b, fl, nodes=12
    ).scale(0.7)
    assert (lhs - rhs).max_abs(pts) < 1e-11
    once = T.average_over_circle(b, fl, nodes=12)
    twice = T.average_over_circle(once, fl, nodes=12)
    assert (twice - once).max_abs(pts) < 1e-10


def test_average_preserves_positivity(leeolo):
    m = leeolo
    pts = m.sample(25, seed=6)
    avg = T.average_over_circle(m.structure.omega, m.flows["C"], nodes=16)
    from lcklab.lck import LCKStructure

    s = LCKStructure(avg, m.extras["vaisman_base"].theta)
    assert s.positivity_minima(pts).min() > 0


def test_intersection_dimensions(hopf_action, nondiag_action, product_action):
    assert T.intersection_dimension(
        hopf_action, hopf_action.manifold.sample(60, seed=5)) == 2
    assert T.intersection_dimension(
        nondiag_action, nondiag_action.manifold.sample(60, seed=5)) == 0
    assert T.intersection_dimension(
        product_action, product_action.manifold.sample(60, seed=5)) == 4


def test_intersection_dimension_invariant_under_recombination(nondiag_action):
    rng = np.random.default_rng(8)
    pts = nondiag_action.manifold.sample(40, seed=5)
    base = T.intersection_dimension(nondiag_action, pts)
    done = 0
    while done < 5:
        Mx = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(Mx)) < 0.3:
            continue
        assert T.intersection_dimension(nondiag_action.recombine(Mx), pts) == base
        done += 1


def test_classify_vertical(inoue_action, hopf, hopf_pts):
    m = inoue_action.manifold
    rep = T.verdict(inoue_action, m.structure.theta, True, m.sample(15, seed=3))
    assert rep.vertical == [] and abs(rep.pairings["xi"]) < 1e-10
    # the Lee circle of the diagonal Hopf is vertical with pairing 1
    act = T.TorusAction(hopf, [hopf.flows["B"]])
    rep = T.verdict(act, hopf.structure.theta, True, hopf_pts[:15])
    assert rep.vertical == ["B"]
    assert abs(rep.pairings["B"] - 1.0) < 1e-10


def test_classify_against_zero_form(inoue_action):
    # the zero form pairs to 0 with every circle (the sweep reference); it is
    # not d phi, so the verdict refuses it instead of labelling
    m = inoue_action.manifold
    pts = m.sample(10, seed=3)
    swept, _ = T.averaged_pairings(inoue_action, Form.zero(4, 1), pts, 16)
    assert np.array_equal(swept, [0.0])
    with pytest.raises(InadmissibleInput, match="theta - d phi"):
        T.verdict(inoue_action, Form.zero(4, 1), False, pts)


def test_classify_invariance_under_representative_choice(inoue_action):
    # rescaling theta by a positive constant or adding df for an invariant f
    # does not change the labels (the sweep reference); the verdict pairs
    # only d phi and refuses the other representatives
    m = inoue_action.manifold
    pts = m.sample(12, seed=4)
    theta = m.structure.theta
    f = coordinate(1, 4).log()  # function of Im w: invariant under the circle
    for rep in (theta.scale(3.7), theta + exterior_d(Form.from_function(f))):
        swept, _ = T.averaged_pairings(inoue_action, rep, pts, 16)
        assert abs(swept[0]) < 1e-10
        with pytest.raises(InadmissibleInput, match="theta - d phi"):
            T.verdict(inoue_action, rep, False, pts)


def test_classify_rejects_nonconstant_pairing(inoue_action):
    # a form that is neither invariant nor closed pairs non-constantly (the
    # sweep reference); it is not d phi, so the deck jump refuses it first
    m = inoue_action.manifold
    pts = m.sample(10, seed=3)
    bad = Form(4, 1, {(2,): coordinate(3, 4)})
    _, konst = T.averaged_pairings(inoue_action, bad, pts, 16)
    assert konst > 1e-8
    with pytest.raises(InadmissibleInput, match="theta - d phi"):
        T.torus_pairings(inoue_action, bad, pts)


def _probes(act):
    return act.manifold.sample(60, seed=23)


def test_verdicts(hopf_action, nondiag_action, product_action, inoue_action):
    hopf = hopf_action.manifold
    assert T.verdict(hopf_action, hopf.structure.theta, True,
                     _probes(hopf_action)).verdict == "VaismanExists"
    nd = nondiag_action.manifold
    assert T.verdict(nondiag_action, nd.lee_class, True,
                     _probes(nondiag_action)).verdict == "PositivePotentialExists"
    assert T.verdict(product_action, None, False,
                     _probes(product_action)).verdict == "NoLCKPossible"
    ino = inoue_action.manifold
    assert T.verdict(inoue_action, ino.structure.theta, True,
                     _probes(inoue_action)).verdict == "PurelyReal"


def test_verdict_needs_the_lck_hypothesis(nondiag_action):
    # the same torus without the declared LCK hypothesis stays PurelyReal
    nd = nondiag_action.manifold
    assert T.verdict(nondiag_action, nd.lee_class, False,
                     _probes(nondiag_action)).verdict == "PurelyReal"


def test_verdict_carries_witnesses(nondiag_action):
    nd = nondiag_action.manifold
    rep = T.verdict(nondiag_action, nd.lee_class, True, _probes(nondiag_action))
    body = rep.to_json()
    assert body["intersection_dim"] == 0
    assert body["vertical"] == ["xi2"]
    assert abs(body["pairings"]["xi1"]) < 1e-8
    assert body["pairings"]["xi2"] > 1.0
    assert body["pairing_route"] == "deck_jump"
    assert body["theta_minus_dphi"] <= 1e-10


@pytest.mark.parametrize("lck", [True, False])
def test_every_verdict_row_reports_the_hypothesis_it_was_given(
        lck, hopf_action, nondiag_action, product_action, inoue_action):
    rows = {}
    for act, theta in ((hopf_action, hopf_action.manifold.structure.theta),
                       (nondiag_action, nondiag_action.manifold.lee_class),
                       (product_action, None),
                       (inoue_action, inoue_action.manifold.structure.theta)):
        rep = T.verdict(act, theta, lck, _probes(act))
        rows[rep.verdict] = rep.lck_present
        assert rep.to_json()["lck_present"] is lck
    # Vaisman / NonReal and PositivePotential / PurelyReal follow the flag
    assert set(rows) == ({"VaismanExists", "PositivePotentialExists", "NoLCKPossible",
                          "PurelyReal"} if lck else
                         {"NonReal", "PurelyReal", "NoLCKPossible"})


def test_verdict_total_and_invariant_under_recombination(hopf_action,
                                                         product_action):
    rng = np.random.default_rng(10)
    # a non-real torus is Vaisman only on a manifold of LCK type
    for act, lck, expected in ((hopf_action, True, "VaismanExists"),
                               (hopf_action, False, "NonReal"),
                               (product_action, False, "NoLCKPossible")):
        k = len(act.names)
        done = 0
        while done < 5:
            Mx = rng.uniform(-1.5, 1.5, (k, k))
            if abs(np.linalg.det(Mx)) < 0.2:
                continue
            rep = T.verdict(act.recombine(Mx), None, lck, _probes(act))
            assert rep.verdict == expected
            assert rep.verdict in T.VERDICTS
            done += 1


def test_unregistered_flow_lookup_errors(hopf):
    with pytest.raises(GalleryError, match="no registered flow"):
        M.flow_of(hopf, "nonexistent")


def test_intersection_dimension_takes_the_generic_rank():
    # a generator vanishing on part of the probe set drops the rank there;
    # dim(t ^ Jt) belongs to the Lie algebra, so the largest rank decides
    m = M.gallery("hxc_cover")
    from lcklab.fields import PointMap, VectorField, coordinate

    X = VectorField([constant(0.0, 4), constant(0.0, 4),
                     coordinate(0, 4), constant(0.0, 4)])
    ident = PointMap([coordinate(i, 4) for i in range(4)])
    fake = M.FlowMap("fake", X, lambda t: ident, period=1.0)
    act = T.TorusAction(m, [fake])
    pts = np.array([
        [0.0, 1.0, 0.2, 0.3],   # generator vanishes here
        [0.5, 1.0, 0.2, 0.3],
    ])
    assert T.intersection_dimension(act, pts) == 0
    # only on the vanishing locus is the whole of t complex-isotropic
    assert T.intersection_dimension(act, pts[:1]) == 2
    assert T.intersection_dimension(act, [[0.0, -2.0, 0.7, 1.1], pts[0]]) == 2


# -- pairings: the deck jump of the cover potential and the node sweep -------


@pytest.mark.parametrize("params,nodes", [
    ({}, 32), ({"lam": 1.3}, 32), ({"m": 1}, 32),
    # the largest xi2 orbit stretches inside the domain need more nodes
    ({"m": 3}, 64), ({"lam": 2.0}, 64),
])
def test_deck_jump_matches_the_sweep_on_hopf_nondiag(params, nodes):
    m = M.gallery("hopf_nondiag", **params)
    act = T.TorusAction(m, [m.flows["xi1"], m.flows["xi2"]])
    pts = m.sample(3, seed=23)
    exact = T.torus_pairings(act, m.lee_class, pts)
    swept, konst = T.averaged_pairings(act, m.lee_class, pts, nodes)
    assert exact.theta_minus_dphi <= 1e-10
    assert konst < 1e-8 and exact.constancy < 1e-12
    assert np.abs(exact.values - swept).max() < 1e-10


def test_deck_jump_matches_the_sweep_on_the_lee_circles(inoue_action, hopf):
    ino = inoue_action.manifold
    lee = T.TorusAction(hopf, [hopf.flows["B"]])
    for act, theta, want in ((inoue_action, ino.structure.theta, 0.0),
                             (lee, hopf.structure.theta, 1.0)):
        pts = act.manifold.sample(8, seed=3)
        exact = T.torus_pairings(act, theta, pts)
        swept, _ = T.averaged_pairings(act, theta, pts, 16)
        assert np.abs(exact.values - swept).max() < 1e-10
        assert abs(exact.values[0] - want) < 1e-12


def test_deck_jump_pairing_is_the_log_of_the_homothety(nondiag_action):
    # xi2 closes through gamma at time 1, where phi jumps by -ln |beta|^2
    nd = nondiag_action.manifold
    found = T.torus_pairings(nondiag_action, nd.lee_class, nd.sample(12, seed=23))
    beta = nd.params["beta"]
    assert found.values[0] == 0.0
    assert abs(found.values[1] + np.log(abs(beta) ** 2)) < 1e-12


def test_pairings_refuse_what_the_deck_jump_cannot_take(inoue_action, nondiag_action):
    # each failed condition is named; the sweep reference still pairs the
    # refused inputs, so the refusal is of the route, not of the input
    m = inoue_action.manifold
    pts = m.sample(10, seed=3)
    theta = m.structure.theta
    df = exterior_d(Form.from_function(coordinate(1, 4).log()))
    bare = M.gallery("inoue_splus")
    bare.phi = None
    unclosed = dataclasses.replace(m.flows["xi"], closes_via=None)
    cases = [
        (T.TorusAction(bare, [bare.flows["xi"]]), theta, "inoue_splus: it has no cover potential"),
        (T.TorusAction(m, [unclosed]), theta, r"flow\(s\) xi name no closure"),
        (inoue_action, Form.zero(4, 1), r"\|theta - d phi\| = .* > 1e-10"),
        (inoue_action, theta + df, r"\|theta - d phi\| = .* > 1e-10"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for act, form, reason in cases:
            with pytest.raises(InadmissibleInput, match=reason):
                T.torus_pairings(act, form, pts)
            swept, konst = T.averaged_pairings(act, form, pts, 16)
            assert abs(swept[0]) < 1e-12 and konst < 1e-12
    # a recombined action takes the deck jump: the pairing is linear in the
    # generator, xi1 + xi2 / 2, then xi2
    nd = nondiag_action.manifold
    mixed = nondiag_action.recombine([[1.0, 0.5], [0.0, 1.0]])
    probes = nd.sample(3, seed=4)
    found = T.torus_pairings(mixed, nd.lee_class, probes)
    want = -np.log(abs(nd.params["beta"]) ** 2)
    assert np.abs(found.values - [want / 2, want]).max() < 1e-12
    swept, _ = T.averaged_pairings(mixed, nd.lee_class, probes, 48)
    assert np.abs(found.values - swept).max() < 1e-12


def test_non_constant_deck_jump_raises(monkeypatch):
    # a cover potential whose jump across g3 (x2 -> x2 + lam0) depends on x2
    m = M.gallery("inoue_splus")
    m.phi = coordinate(1, 4).log() + coordinate(2, 4) ** 2
    theta = exterior_d(Form.from_function(m.phi))
    act = T.TorusAction(m, [m.flows["xi"]])

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(T, "averaged_pairings", no_sweep)
    with pytest.raises(NumericalError, match="not constant"):
        T.torus_pairings(act, theta, m.sample(10, seed=3))


def test_verdict_on_hopf_nondiag_never_sweeps(monkeypatch):
    from lcklab import cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(T, "averaged_pairings", no_sweep)
    body, code = cli.run_verify("hopf_nondiag", points=40)
    assert code == 0
    witnesses = body["verdicts"][0]
    assert witnesses["pairing_route"] == "deck_jump"
    assert witnesses["theta_minus_dphi"] == 0.0


def test_no_engine_route_calls_the_sweep(monkeypatch):
    # every benchmark call (run_report, the wide_batch verifies and both
    # potential pipelines) takes its pairings from the deck jump; the sweep
    # is bound in torus alone, so the spy sees every engine call of it
    from lcklab import cli

    answers = Path(__file__).resolve().parents[1] / "bench" / "known_answers.json"
    with open(answers) as fh:
        calls = [c for w in json.load(fh)["workloads"].values() for c in w["calls"]]
    assert {c["entry"] for c in calls} == {"run_report", "run_verify", "run_potential"}
    for layer in ("cli", "fields", "forms", "jets", "lck", "manifolds", "potential"):
        assert not hasattr(importlib.import_module(f"lcklab.{layer}"), "averaged_pairings")
    seen = []
    monkeypatch.setattr(T, "averaged_pairings", lambda *a, **k: seen.append(a))
    for call in calls:
        _, code = getattr(cli, call["entry"])(*call.get("args", []),
                                              **call.get("kwargs", {}))
        assert code == 0, call
    assert seen == []


def _spy_on_sweep_blocks(monkeypatch):
    """Record the rows of each ``_eval_in_blocks`` call of the sweep and of
    each block (a fresh Ctx) it evaluates.  A stacked family inside an
    evaluated field (the hopf_nondiag deck series) blocks its rows in the
    fields layer's helper too; its calls are not the sweep's and are not
    recorded."""
    calls, blocks = [], []
    inner = T._eval_in_blocks

    class SpyCtx(fields.Ctx):
        __slots__ = ()

        def __init__(self, pts):
            super().__init__(pts)
            blocks.append(len(self.pts))

    def spy(n, block):
        calls.append(n)
        return inner(n, block)

    monkeypatch.setattr(T, "Ctx", SpyCtx)
    monkeypatch.setattr(T, "_eval_in_blocks", spy)
    return calls, blocks


def test_sweep_evaluates_theta_once_per_circle_node_and_probe(hopf, monkeypatch):
    # three commuting circles: theta runs on k nodes P points, not nodes^k P
    act = T.TorusAction(hopf, [hopf.flows[c] for c in ("A", "R", "B")])
    pts = hopf.sample(4, seed=2)
    calls, _ = _spy_on_sweep_blocks(monkeypatch)
    found, konst = T.averaged_pairings(act, hopf.structure.theta, pts, 8)
    assert calls == [8 * len(pts)] * 3
    assert np.abs(found - [0.0, 0.0, 1.0]).max() < 1e-12 and konst < 1e-12


@pytest.mark.parametrize("case,budget", [("hopf", 3), ("nondiag", 100)])
def test_chunked_sweep_matches_one_batch_within_its_budget(case, budget, hopf,
                                                           nondiag, monkeypatch):
    # the values are per point and each probe's node sum is one reduction,
    # so the fields layer's blocks leave the pairings bit for bit
    if case == "hopf":
        m, theta, circles = hopf, hopf.structure.theta, ("A", "B")
    else:
        m, theta, circles = nondiag, nondiag.lee_class, ("xi1", "xi2")
    act = T.TorusAction(m, [m.flows[c] for c in circles])
    pts = m.sample(8, seed=11)
    whole, whole_konst = T.averaged_pairings(act, theta, pts, 16)
    calls, blocks = _spy_on_sweep_blocks(monkeypatch)
    monkeypatch.setattr(fields, "_QUAD_POINT_BUDGET", budget)
    chunked, konst = T.averaged_pairings(act, theta, pts, 16)
    assert calls == [len(pts) * 16] * 2
    assert len(blocks) > len(calls) and max(blocks) <= budget
    assert sum(blocks) == sum(calls)
    assert np.array_equal(chunked, whole) and konst == whole_konst


@pytest.mark.parametrize("nodes", [8, 16, 32])
def test_sweep_matches_the_circle_average_of_the_pairing(hopf, nodes):
    # the sweep's per-probe node means of iota_xi theta, read through their
    # mean and largest deviation, against the affine quadrature of the same
    # 0-form; theta + d(x0 x1) pairs non-constantly along both circles and
    # its B-average varies between probes, so a misplaced node or probe shows
    theta = hopf.structure.theta
    bent = theta + exterior_d(Form.from_function(coordinate(0, 4) * coordinate(1, 4)))
    pts = hopf.sample(6, seed=5)
    for circle, form in itertools.product(("A", "B"), (theta, bent)):
        fl = hopf.flows[circle]
        swept, konst = T.averaged_pairings(T.TorusAction(hopf, [fl]), form, pts, nodes)
        pairing = interior_product(fl.generator, form)
        avg = T.average_over_circle(pairing, fl, nodes).coefficient_values(pts)[()]
        scale = max(1.0, abs(swept[0]))
        assert abs(avg.mean() - swept[0]) <= 1e-13 * scale
        assert abs(np.abs(avg - avg.mean()).max() - konst) <= 1e-13 * scale

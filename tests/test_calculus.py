"""Exterior-calculus laws: the operator table and its cross-identities."""

import numpy as np
import pytest

from lcklab import manifolds as M
from lcklab.fields import (
    PointMap,
    ScalarField,
    VectorField,
    bracket,
    complex_jmatrix,
    compose_field,
    constant,
    coordinate,
    stacked,
)
from lcklab.forms import (
    Form,
    FormDegreeError,
    apply_J,
    dc,
    dd_c,
    exterior_d,
    interior_product,
    lie_derivative,
    pullback,
    twisted_d,
    twisted_potential_form,
    wedge,
)
from lcklab.potential import leeolo_orbit_pipeline

DIM = 4


def random_field(rng):
    xs = [coordinate(i, DIM) for i in range(DIM)]
    c = rng.uniform(-1, 1, size=6)
    f = constant(c[0], DIM) + c[1] * xs[0] * xs[1] + c[2] * xs[2] ** 2
    f = f + c[3] * (0.4 * xs[0] + 0.2 * xs[3]).exp()
    f = f + c[4] * (xs[1] + 0.7 * xs[2]).sin() + c[5] * xs[3]
    return f


def random_form(rng, degree):
    from itertools import combinations

    coeffs = {}
    for idx in combinations(range(DIM), degree):
        if rng.random() < 0.8:
            coeffs[idx] = random_field(rng)
    return Form(DIM, degree, coeffs)


def max_norm(form, pts):
    return form.max_abs(pts)


# -- wedge --------------------------------------------------------------


def test_wedge_basis_pairing(box_pts):
    a = Form.basis(DIM, (0,))
    b = Form.basis(DIM, (1,))
    w = wedge(a, b)
    X = VectorField([constant(v, DIM) for v in (1, 0, 0, 0)])
    Y = VectorField([constant(v, DIM) for v in (0, 1, 0, 0)])
    pairing = interior_product(Y, interior_product(X, w))
    assert np.allclose(pairing.coefficient_values(box_pts)[()], 1.0)


def test_wedge_self_of_odd_degree_vanishes(box_pts):
    rng = np.random.default_rng(0)
    a = random_form(rng, 1)
    assert max_norm(wedge(a, a), box_pts) < 1e-14
    c = random_form(rng, 3)
    assert max_norm(wedge(c, c), box_pts) == 0.0  # degree 6 > 4: zero form


def test_wedge_graded_anticommutativity(box_pts):
    rng = np.random.default_rng(1)
    for da, db in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        a, b = random_form(rng, da), random_form(rng, db)
        lhs = wedge(b, a)
        rhs = wedge(a, b).scale(float((-1) ** (da * db)))
        assert max_norm(lhs - rhs, box_pts) < 1e-12


def test_form_sums_add_their_terms_left_to_right(box_pts):
    rng = np.random.default_rng(11)
    fs = [random_field(rng) for _ in range(3)]
    v = [f.values(box_pts) for f in fs]
    weights = [0.3, -1.7, 2.9]
    total = Form.nsum([Form(DIM, 1, {(0,): f, (2,): f * f}) for f in fs], weights)
    want = v[0] * weights[0] + v[1] * weights[1] + v[2] * weights[2]
    assert np.array_equal(total.coefficient_values(box_pts)[(0,)], want)
    # (0,1)^dx2, (0,2)^dx1 and (1,2)^dx0 all land on (0,1,2), signs + - +
    gs = [random_field(rng) for _ in range(3)]
    a = Form(DIM, 2, {(0, 1): fs[0], (0, 2): fs[1], (1, 2): fs[2]})
    b = Form(DIM, 1, {(0,): gs[0], (1,): gs[1], (2,): gs[2]})
    u = [g.values(box_pts) for g in gs]
    want = (v[0] * u[2]) * 1.0 + (v[1] * u[1]) * -1.0 + (v[2] * u[0]) * 1.0
    assert np.array_equal(wedge(a, b).coefficient_values(box_pts)[(0, 1, 2)], want)


def test_wedge_degree_overflow_returns_zero_form():
    rng = np.random.default_rng(2)
    a, b = random_form(rng, 3), random_form(rng, 2)
    w = wedge(a, b)
    assert w.degree == 5 and not w.coeffs


def test_theta_wedge_omega_equals_d_omega_on_hopf(hopf, hopf_pts):
    s = hopf.structure
    res = (exterior_d(s.omega) - wedge(s.theta, s.omega)).max_abs(hopf_pts)
    assert res < 1e-10


# -- exterior derivative --------------------------------------------------


def test_d_of_x_dy(box_pts):
    a = Form(DIM, 1, {(1,): coordinate(0, DIM)})  # x dy
    diff = exterior_d(a) - Form.basis(DIM, (0, 1))
    assert max_norm(diff, box_pts) < 1e-14


def test_d_squared_vanishes(box_pts):
    rng = np.random.default_rng(3)
    for _ in range(8):
        a = random_form(rng, int(rng.integers(0, 3)))
        assert max_norm(exterior_d(exterior_d(a)), box_pts) < 1e-12


def test_d_leibniz(box_pts):
    rng = np.random.default_rng(4)
    a, b = random_form(rng, 1), random_form(rng, 1)
    lhs = exterior_d(wedge(a, b))
    rhs = wedge(exterior_d(a), b) - wedge(a, exterior_d(b))
    assert max_norm(lhs - rhs, box_pts) < 1e-11


def test_d_inoue_omega_is_theta_wedge_omega(inoue, inoue_pts):
    s = inoue.structure
    res = (exterior_d(s.omega) - wedge(s.theta, s.omega)).max_abs(inoue_pts)
    assert res < 1e-8


# -- J on forms ----------------------------------------------------------


def test_J_convention_on_coframe(box_pts):
    dx1 = Form.basis(DIM, (0,))
    dy1 = Form.basis(DIM, (1,))
    assert max_norm(apply_J(dx1) - dy1, box_pts) == 0.0
    assert max_norm(apply_J(dy1) + dx1, box_pts) == 0.0


def test_J_eigenvalue_in_complex_frame(box_pts):
    # with (J a)(X) = -a(JX) the (1,0)-coframe has eigenvalue -i:
    # J dz = -i dz, J dzbar = +i dzbar
    dz = Form(DIM, 1, {(0,): constant(1.0, DIM), (1,): constant(1.0j, DIM)})
    assert max_norm(apply_J(dz) - dz.scale(-1.0j), box_pts) == 0.0
    dzb = Form(DIM, 1, {(0,): constant(1.0, DIM), (1,): constant(-1.0j, DIM)})
    assert max_norm(apply_J(dzb) - dzb.scale(1.0j), box_pts) == 0.0


def test_J_is_a_derivation(box_pts):
    rng = np.random.default_rng(5)
    a, b = random_form(rng, 1), random_form(rng, 1)
    lhs = apply_J(wedge(a, b))
    rhs = wedge(apply_J(a), b) + wedge(a, apply_J(b))
    assert max_norm(lhs - rhs, box_pts) < 1e-12


def test_J_pairs_lee_data_on_hopf(hopf, hopf_pts):
    s = hopf.structure
    pair = s.lee_pair()
    jtheta = apply_J(s.theta)
    iota = interior_product(pair.B, s.omega)
    assert (iota - jtheta).max_abs(hopf_pts) < 1e-12
    # J theta evaluated on B equals Omega(B, B) = 0
    on_b = interior_product(pair.B, jtheta).coefficient_values(hopf_pts)[()]
    assert np.abs(on_b).max() < 1e-12


# -- d^c -------------------------------------------------------------------


def test_ddc_of_squared_radius(box_pts):
    f = coordinate(0, DIM) ** 2 + coordinate(1, DIM) ** 2
    target = Form(DIM, 2, {(0, 1): constant(4.0, DIM)})
    assert max_norm(dd_c(f) - target, box_pts) < 1e-13


def test_ddc_constant_vanishes(box_pts):
    assert max_norm(dd_c(constant(3.7, DIM)), box_pts) == 0.0


def test_commutator_identity_random_forms(box_pts):
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_form(rng, int(rng.integers(0, 3)))
        com = apply_J(exterior_d(a)) - exterior_d(apply_J(a))
        assert max_norm(com - dc(a), box_pts) < 1e-10


def slotwise_J_defect(a, pts):
    """max |a(JX, JY) - a(X, Y)| over the coordinate vectors X, Y, for a
    2-form a, from the matrix of J on vectors: the slot-wise J fixes a
    exactly when this vanishes."""
    A = np.zeros((len(pts), a.dim, a.dim), dtype=complex)
    for (i, j), v in a.coefficient_values(pts).items():
        A[:, i, j], A[:, j, i] = v, -v
    J = complex_jmatrix(a.dim)
    return np.abs(np.einsum("ai,nab,bj->nij", J, A, J) - A).max()


def test_ddc_is_real_1_1(box_pts):
    # a real 2-form is of type (1,1) exactly when the slot-wise J fixes it
    rng = np.random.default_rng(7)
    f = random_field(rng)
    w = dd_c(f)
    assert slotwise_J_defect(w, box_pts) < 1e-12
    for c in w.coeffs.values():
        assert np.abs(np.imag(c.values(box_pts))).max() < 1e-13


def test_the_slotwise_J_defect_sees_a_form_of_type_2_0_plus_0_2(box_pts):
    # dx1 ^ dx2 = Re(dz1 ^ dz2): J sends it to dy1 ^ dy2
    assert slotwise_J_defect(Form.basis(DIM, (0, 2)), box_pts) == 1.0


@pytest.mark.parametrize("fixture_id, params", [
    ("hopf_diag", {"n": 2}), ("hopf_diag", {"n": 3}), ("hopf_diag", {"n": 4}),
    ("inoue_splus", {}), ("leeolo", {}), ("leeolo", {"n": 3}),
])
def test_every_fixture_omega_is_fixed_by_the_slotwise_J(fixture_id, params):
    # lck._metric_arrays reads only the entries a <= b of g and mirrors them
    m = M.gallery(fixture_id, **params)
    pts = m.sample(40, seed=5)
    omega = m.structure.omega
    scale = max(np.abs(v).max() for v in omega.coefficient_values(pts).values())
    assert slotwise_J_defect(omega, pts) <= 1e-14 * scale


def test_the_orbit_output_is_fixed_by_the_slotwise_J(leeolo):
    pts = leeolo.sample(20, seed=9)
    res = leeolo_orbit_pipeline(leeolo, points=pts)
    heavy = pts[:8]
    scale = max(np.abs(v).max()
                for v in res.omega_prime.coefficient_values(heavy).values())
    assert slotwise_J_defect(res.omega_prime, heavy) <= 1e-14 * scale


def test_d_anticommutes_with_dc_on_random_forms(box_pts):
    # d d^c = 2i del delbar = -d^c d
    rng = np.random.default_rng(17)
    for degree in (0, 1, 2):
        for _ in range(4):
            a = random_form(rng, degree)
            ddc = exterior_d(dc(a))
            assert max_norm(ddc + dc(exterior_d(a)), box_pts) < 1e-10
            if a.coeffs:
                assert max_norm(ddc, box_pts) > 1e-3


def _conjugation():
    """(x, y) -> (x, -y) on every complex coordinate, an antiholomorphic map."""
    return PointMap([coordinate(i, DIM) * (-1.0 if i % 2 else 1.0) for i in range(DIM)])


@pytest.mark.parametrize("case", ["hopf_gamma", "inoue_g1", "conjugation"])
def test_dc_commutes_with_holomorphic_pullbacks(case, hopf, inoue, box_pts):
    # gamma^* d^c a = d^c gamma^* a for a holomorphic gamma; an
    # antiholomorphic map anticommutes with J, so there it holds with -1
    gamma, sign = {"hopf_gamma": (hopf.deck("gamma").map, 1.0),
                   "inoue_g1": (inoue.deck("g1").map, 1.0),
                   "conjugation": (_conjugation(), -1.0)}[case]
    rng = np.random.default_rng(18)
    for degree in (0, 1, 2):
        a = random_form(rng, degree)
        lhs = pullback(gamma, dc(a))
        rhs = dc(pullback(gamma, a))
        assert max_norm(lhs - rhs.scale(sign), box_pts) < 1e-10
        assert max_norm(lhs + rhs.scale(sign), box_pts) > 1e-3


def test_ddc_of_leeolos_real_potential_forms_no_complex_jet(leeolo, leeolo_pts,
                                                             monkeypatch):
    res = leeolo.extras["leeolo"]
    g, theta = res.g_field, res.structure.theta
    jets, evaluate_jet = [], ScalarField.eval

    def spy(self, ctx, order):
        jet = evaluate_jet(self, ctx, order)
        jets.append(jet)
        return jet

    monkeypatch.setattr(ScalarField, "eval", spy)
    dd_c(g).coefficient_values(leeolo_pts[:20])
    twisted_potential_form(g, theta).coefficient_values(leeolo_pts[:20])
    assert jets
    assert sum(np.iscomplexobj(j.v) for j in jets) == 0


# -- twisted operators -----------------------------------------------------


def test_twisted_d_of_one_is_minus_theta(hopf, hopf_pts):
    theta = hopf.structure.theta
    one = Form.from_function(constant(1.0, DIM))
    assert (twisted_d(one, theta) + theta).max_abs(hopf_pts) < 1e-14


def test_twisted_d_squares_to_zero(box_pts):
    rng = np.random.default_rng(9)
    h = random_field(rng)
    theta = exterior_d(Form.from_function(h))  # exact, hence closed
    for _ in range(5):
        a = random_form(rng, int(rng.integers(0, 3)))
        dda = twisted_d(twisted_d(a, theta), theta)
        assert max_norm(dda, box_pts) < 1e-10


def test_unit_twisted_potential_reproduces_hopf_omega(hopf, hopf_pts):
    s = hopf.structure
    w = twisted_potential_form(constant(1.0, DIM), s.theta)
    assert (w - s.omega).max_abs(hopf_pts) < 1e-8


def test_twisted_injectivity_probe(hopf, inoue, nondiag, leeolo):
    # for non-exact theta, d_theta has no kernel among functions: probe 20
    # random nonzero functions on each gallery fixture
    rng = np.random.default_rng(10)
    cases = [
        (hopf, hopf.structure.theta),
        (inoue, inoue.structure.theta),
        (nondiag, nondiag.lee_class),
        (leeolo, leeolo.structure.theta),
    ]
    for m, theta in cases:
        pts = m.sample(60, seed=3)
        for _ in range(20):
            f = random_field(rng) + constant(float(rng.uniform(0.5, 2.0)), DIM)
            df = exterior_d(Form.from_function(f))
            r = (df - theta.scale(f)).max_abs(pts)
            assert r > 1e-6


# -- interior product -------------------------------------------------------


def test_interior_basis(box_pts):
    X = VectorField([constant(v, DIM) for v in (1, 0, 0, 0)])
    out = interior_product(X, Form.basis(DIM, (0, 1)))
    assert max_norm(out - Form.basis(DIM, (1,)), box_pts) == 0.0


def det_of_minors(a, pts, *vectors):
    """a(v_1, ..., v_k) = sum_I a_I det[v_j^i]_{i in I}, for vector-value
    arrays v_j of shape (N, dim): the oracle for contractions."""
    V = np.stack(vectors, axis=2)  # (N, dim, k)
    return sum(c * np.linalg.det(V[:, idx, :])
               for idx, c in a.coefficient_values(pts).items())


@pytest.mark.parametrize("coefficients", ["real", "complex"])
@pytest.mark.parametrize("degree", [1, 2])
def test_contraction_matches_the_det_of_minors(box_pts, degree, coefficients):
    # iota_{X_k} ... iota_{X_1} a = a(X_1, ..., X_k), slot order included
    rng = np.random.default_rng(40 + degree)
    a = random_form(rng, degree)
    if coefficients == "complex":
        a = a + random_form(rng, degree).scale(1j)
    fields = [VectorField([random_field(rng) for _ in range(DIM)])
              for _ in range(degree)]
    pairing = a
    for X in fields:
        pairing = interior_product(X, pairing)
    got = pairing.coefficient_values(box_pts)[()]
    want = det_of_minors(a, box_pts, *(X.values(box_pts) for X in fields))
    assert np.iscomplexobj(got) == (coefficients == "complex")
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


def test_interior_squares_to_zero(box_pts):
    rng = np.random.default_rng(11)
    X = VectorField([random_field(rng) for _ in range(DIM)])
    a = random_form(rng, 3)
    assert max_norm(interior_product(X, interior_product(X, a)), box_pts) < 1e-12


def test_interior_degree_zero_errors():
    X = VectorField([constant(v, DIM) for v in (1, 0, 0, 0)])
    with pytest.raises(FormDegreeError, match="cannot contract a function"):
        interior_product(X, Form.from_function(constant(1.0, DIM)))


def test_interior_is_an_antiderivation(box_pts):
    rng = np.random.default_rng(12)
    X = VectorField([random_field(rng) for _ in range(DIM)])
    for da, db in [(1, 1), (1, 2), (2, 1)]:
        a, b = random_form(rng, da), random_form(rng, db)
        lhs = interior_product(X, wedge(a, b))
        rhs = wedge(interior_product(X, a), b) + wedge(
            a, interior_product(X, b)
        ).scale(float((-1) ** da))
        assert max_norm(lhs - rhs, box_pts) < 1e-11


def test_inoue_circle_contraction(inoue, inoue_pts):
    s = inoue.structure
    lam0 = inoue.params["lam0"]
    imz = Form.from_function(coordinate(3, DIM))
    target = twisted_d(imz, s.theta).scale(lam0)
    res = (interior_product(inoue.fields["xi"], s.omega) - target).max_abs(inoue_pts)
    assert res < 1e-8


# -- Lie derivative ----------------------------------------------------------


def test_lie_naturality(box_pts):
    rng = np.random.default_rng(13)
    X = VectorField([random_field(rng) for _ in range(DIM)])
    a = random_form(rng, 1)
    nat = lie_derivative(X, exterior_d(a)) - exterior_d(lie_derivative(X, a))
    assert max_norm(nat, box_pts) < 1e-10


def test_lee_flow_scales_kahler_lift(hopf, hopf_pts):
    # L_C omega_K = -theta(C) omega_K = -omega_K for the normalized Lee field
    omega_k = hopf.kahler_lift()
    B = hopf.fields["B"]
    res = (lie_derivative(B, omega_k) + omega_k).max_abs(hopf_pts)
    assert res < 1e-12


def test_lee_field_preserves_vaisman_form(hopf, hopf_pts):
    res = lie_derivative(hopf.fields["B"], hopf.structure.omega).max_abs(hopf_pts)
    assert res < 1e-12


def test_cartan_vs_flow_difference_quotient(hopf):
    # |L_X a - (Phi_h^* a - Phi_{-h}^* a)/2h| = O(h^2), observed order >= 1.9
    pts = hopf.sample(15, seed=4)
    flow = hopf.flows["C"]
    X = flow.generator
    rng = np.random.default_rng(16)
    a = random_form(rng, 1)
    lie = lie_derivative(X, a)
    res = {}
    for h in (1e-3, 1e-4):
        quot = (pullback(flow.at(h), a) - pullback(flow.at(-h), a)).scale(1.0 / (2 * h))
        res[h] = (lie - quot).max_abs(pts)
    order = np.log(res[1e-3] / res[1e-4]) / np.log(10.0)
    assert order >= 1.9


# -- Lie bracket of vector fields (an array contraction) --------------------


def _arrays(X, pts):
    """Values (N, d) and Jacobians (N, d, d) of the vector field X."""
    return stacked(X.components, pts)


def test_bracket_of_a_shear_pair_is_the_hyperbolic_field(box_pts):
    # [x1 d/dy1, y1 d/dx1] = x1 d/dx1 - y1 d/dy1
    zero = constant(0.0, DIM)
    x1, y1 = coordinate(0, DIM), coordinate(1, DIM)
    X = VectorField([zero, x1, zero, zero])
    Y = VectorField([y1, zero, zero, zero])
    expected = np.zeros_like(box_pts)
    expected[:, 0], expected[:, 1] = box_pts[:, 0], -box_pts[:, 1]
    assert np.array_equal(bracket(*_arrays(X, box_pts), *_arrays(Y, box_pts)), expected)


def random_polynomial_field(rng):
    xs = [coordinate(i, DIM) for i in range(DIM)]
    c = rng.uniform(-1, 1, size=5)
    i, j, k = rng.integers(0, DIM, size=3)
    return (constant(c[0], DIM) + c[1] * xs[i] + c[2] * xs[j] * xs[k]
            + c[3] * xs[i] * xs[j] * xs[k] + c[4] * xs[k] ** 2)


def test_bracket_matches_the_derivations_it_commutes(box_pts):
    # [X, Y]^i = X(Y^i) - Y(X^i), each directional derivative iota_X d f
    rng = np.random.default_rng(21)
    for _ in range(4):
        X, Y = (VectorField([random_polynomial_field(rng) for _ in range(DIM)])
                for _ in range(2))

        def along(V, f):
            return interior_product(V, exterior_d(Form.from_function(f)))

        oracle = np.column_stack([
            (along(X, Y.components[i]) - along(Y, X.components[i]))
            .coefficient_values(box_pts).get((), np.zeros(len(box_pts)))
            for i in range(DIM)])
        out = bracket(*_arrays(X, box_pts), *_arrays(Y, box_pts))
        assert np.abs(out - oracle).max() < 1e-12
        assert np.abs(out).max() > 0.1


# -- pullback ----------------------------------------------------------------


def test_pullback_identity(box_pts):
    rng = np.random.default_rng(14)
    a = random_form(rng, 2)
    ident = PointMap([coordinate(i, DIM) for i in range(DIM)])
    assert max_norm(pullback(ident, a) - a, box_pts) < 1e-13


def test_pullback_quadratic_scaling(box_pts):
    flat = Form(DIM, 2, {(0, 1): constant(4.0, DIM), (2, 3): constant(4.0, DIM)})
    doubling = PointMap([coordinate(i, DIM) * 2.0 for i in range(DIM)])
    assert max_norm(pullback(doubling, flat) - flat.scale(4.0), box_pts) == 0.0


def test_pullback_functoriality_and_naturality(box_pts):
    rng = np.random.default_rng(15)
    a = random_form(rng, 2)
    x = [coordinate(i, DIM) for i in range(DIM)]
    fmap = PointMap([x[0] + 0.3 * x[1] ** 2, x[1], x[2] + x[3], x[3].sin() + x[0]])
    gmap = PointMap([x[0] * 0.5, x[1] + 0.2 * x[0], x[2], x[3] + 0.1 * x[2] ** 2])
    lhs = pullback(gmap, pullback(fmap, a))
    # the composite f o g, component by component
    fg = PointMap([compose_field(c, gmap) for c in fmap.components])
    rhs = pullback(fg, a)
    assert max_norm(lhs - rhs, box_pts) < 1e-11
    # commutes with d
    nat = exterior_d(pullback(fmap, a)) - pullback(fmap, exterior_d(a))
    assert max_norm(nat, box_pts) < 1e-11


def test_pullback_dimension_mismatch():
    a = Form.basis(2, (0,))
    pm = PointMap([coordinate(i, DIM) for i in range(DIM)])
    with pytest.raises(Exception):
        pullback(pm, a).max_abs(np.zeros((1, DIM)))


def test_deck_invariance_of_inoue_omega(inoue, inoue_pts):
    g0 = inoue.deck("g0").map
    s = inoue.structure
    assert (pullback(g0, s.omega) - s.omega).max_abs(inoue_pts) < 1e-8


def test_max_abs_keeps_a_nan_coefficient_that_is_not_first():
    # log x1 is NaN at x1 = -1, behind a first coefficient of 1: builtin max
    # kept the 1, np.max reads NaN
    form = Form(4, 1, {(0,): constant(1.0, 4), (1,): coordinate(0, 4).log()})
    with np.errstate(invalid="ignore"):
        assert np.isnan(form.max_abs([[-1.0, 0.0, 0.0, 0.0]]))
        assert form.max_abs([[1.0, 0.0, 0.0, 0.0]]) == 1.0
    assert Form.zero(4, 2).max_abs([[1.0, 0.0, 0.0, 0.0]]) == 0.0

"""Exterior-calculus laws: the operator table and its cross-identities."""

import numpy as np
import pytest

from lcklab.fields import (
    PointMap,
    VectorField,
    compose_field,
    constant,
    coordinate,
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
    to_complex,
    to_real,
    twisted_d,
    twisted_potential_form,
    wedge,
)

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


def bidegree_parts(a_complex):
    """Split a complex-frame form into its (p, q) components."""
    parts = {}
    for idx, f in a_complex.coeffs.items():
        p = sum(1 for i in idx if i % 2 == 0)
        part = parts.setdefault((p, len(idx) - p),
                                Form.zero(a_complex.dim, a_complex.degree, "complex"))
        part.coeffs[idx] = f
    return parts


def test_ddc_is_real_1_1(box_pts):
    rng = np.random.default_rng(7)
    f = random_field(rng)
    w = dd_c(f)
    parts = bidegree_parts(to_complex(w))
    for (p, q), part in parts.items():
        if (p, q) != (1, 1):
            assert max_norm(part, box_pts) < 1e-12
    for c in w.coeffs.values():
        assert np.abs(np.imag(c.values(box_pts))).max() < 1e-13


def test_complex_frame_roundtrip(box_pts):
    rng = np.random.default_rng(8)
    a = random_form(rng, 2)
    assert max_norm(to_real(to_complex(a)) - a, box_pts) < 1e-13


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


# -- pullback ----------------------------------------------------------------


def test_pullback_identity(box_pts):
    rng = np.random.default_rng(14)
    a = random_form(rng, 2)
    ident = PointMap.identity(DIM)
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
    pm = PointMap.identity(DIM)
    with pytest.raises(Exception):
        pullback(pm, a).max_abs(np.zeros((1, DIM)))


def test_deck_invariance_of_inoue_omega(inoue, inoue_pts):
    g0 = inoue.deck("g0").map
    s = inoue.structure
    assert (pullback(g0, s.omega) - s.omega).max_abs(inoue_pts) < 1e-8

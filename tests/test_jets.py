"""Jet arithmetic against finite-difference and exact oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcklab.fields import (
    _QUAD_POINT_BUDGET,
    Ctx,
    PointMap,
    ScalarField,
    _block_rows,
    _eval_in_blocks,
    affine_quadrature_field,
    compose_field,
    constant,
    coordinate,
    evaluate,
    lift_univariate,
    session,
    stacked,
)
from lcklab.jets import Jet, JetOrderError, compose_multi
from lcklab.lck import MetricBundle

DIM = 4


def poly_field(coeffs):
    """c0 + sum c1_i x_i + c2 * exp(0.3 x0) * sin(x1 + 0.5 x2) + c3 x3^3."""
    c0, c1, c2, c3 = coeffs
    xs = [coordinate(i, DIM) for i in range(DIM)]
    f = constant(c0, DIM)
    for i, x in enumerate(xs):
        f = f + (c1 * (i + 1) / 4.0) * x
    f = f + c2 * (0.3 * xs[0]).exp() * (xs[1] + 0.5 * xs[2]).sin()
    f = f + c3 * xs[3] ** 3 + (xs[0] * xs[1]) * (c1 * 0.25)
    return f


def fd_gradient(f, p, h=1e-5):
    out = np.zeros(DIM)
    for i in range(DIM):
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        out[i] = (f.values(pp)[0] - f.values(pm)[0]) / (2 * h)
    return out


def fd_hessian(f, p, h=1e-4):
    out = np.zeros((DIM, DIM))
    for i in range(DIM):
        for j in range(DIM):
            pij = []
            for si in (1, -1):
                for sj in (1, -1):
                    q = p.copy()
                    q[i] += si * h
                    q[j] += sj * h
                    pij.append(si * sj * f.values(q)[0])
            out[i, j] = sum(pij) / (4 * h * h)
    return out


def hessian(jet):
    """The jet's Hessian tier, zeros where it is absent (identically zero,
    as for a polynomial that folds to a constant)."""
    d, n = jet.g.shape
    return np.zeros((d, d, n)) if jet.h is None else jet.h


coeff = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@settings(max_examples=20, deadline=None)
@given(st.tuples(coeff, coeff, coeff, coeff))
def test_gradient_and_hessian_match_finite_differences(coeffs):
    f = poly_field(coeffs)
    p = np.array([0.4, -0.3, 0.7, 0.2])
    jet = f.jet(p, 2)
    assert np.allclose(jet.g[:, 0], fd_gradient(f, p), atol=5e-8)
    assert np.allclose(hessian(jet)[..., 0], fd_hessian(f, p), atol=5e-5)


@settings(max_examples=20, deadline=None)
@given(st.tuples(coeff, coeff, coeff, coeff))
def test_second_derivatives_are_symmetric(coeffs):
    f = poly_field(coeffs)
    pts = np.random.default_rng(0).uniform(-1, 1, (10, DIM))
    h = hessian(f.jet(pts, 2))
    assert np.abs(h - h.transpose(1, 0, 2)).max() < 1e-10


def test_third_order_tensor_symmetry_and_values():
    f = poly_field((0.3, 0.9, 1.1, 0.7))
    pts = np.array([[0.2, 0.5, -0.4, 0.3]])
    t = f.jet(pts, 3).t
    for perm in [(1, 0, 2, 3), (2, 1, 0, 3), (0, 2, 1, 3)]:
        assert np.abs(t - t.transpose(perm)).max() < 1e-10
    # d^3/dx3^3 of c3 x3^3 = 6 c3 (+0 from the rest)
    assert abs(t[3, 3, 3, 0] - 6 * 0.7) < 1e-10


def test_partial_field_matches_gradient_column():
    f = poly_field((0.1, 0.5, -0.8, 0.4))
    pts = np.random.default_rng(1).uniform(-1, 1, (8, DIM))
    for i in range(DIM):
        assert np.allclose(f.partial(i).values(pts), f.jet(pts, 1).g[i])


def test_derivative_depth_is_capped():
    f = poly_field((0.1, 0.5, -0.8, 0.4))
    g = f.partial(0).partial(1).partial(2).partial(3)
    with pytest.raises(JetOrderError):
        g.values(np.zeros(DIM))


def test_quotient_and_chain_functions():
    x, y = coordinate(0, DIM), coordinate(1, DIM)
    f = (x**2 + y**2 + 1.0).log() / (x.cos() + 2.0)
    p = np.array([0.3, -0.6, 0.0, 0.0])
    assert np.allclose(f.jet(p, 1).g[:, 0], fd_gradient(f, p), atol=1e-8)
    assert np.allclose(f.jet(p, 2).h[..., 0], fd_hessian(f, p), atol=1e-4)


def test_composition_chain_rule():
    # f o phi with a nonlinear map, checked against finite differences
    x = [coordinate(i, DIM) for i in range(DIM)]
    phi = PointMap([x[0] * x[1], x[1] + x[2] ** 2, x[2].sin(), x[3] * 0.5 + x[0]])
    f = poly_field((0.2, 0.8, 0.6, -0.5))
    g = compose_field(f, phi)
    p = np.array([0.4, 0.2, -0.3, 0.6])
    direct = f.values(phi(p))
    assert np.allclose(g.values(p), direct)
    assert np.allclose(g.jet(p, 1).g[:, 0], fd_gradient(g, p), atol=5e-8)
    assert np.allclose(g.jet(p, 2).h[..., 0], fd_hessian(g, p), atol=5e-5)


def test_complex_fields_and_real_projections():
    from lcklab.fields import complex_coordinate

    z = complex_coordinate(0, DIM)
    f = (z ** 3).real_part()
    p = np.array([0.5, 0.4, 0.0, 0.0])
    z0 = 0.5 + 0.4j
    assert abs(f.values(p)[0] - (z0 ** 3).real) < 1e-14
    # holomorphic: dRe(z^3)/dx = Re(3z^2), dRe(z^3)/dy = Re(3i z^2)
    g = f.jet(p, 1).g[:, 0]
    assert abs(g[0] - (3 * z0 ** 2).real) < 1e-12
    assert abs(g[1] - (3 * z0 ** 2 * 1j).real) < 1e-12


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _complex_field(dim):
    """A complex, non-polynomial field with nonzero third derivatives."""
    x = [coordinate(i, dim) for i in range(dim)]
    f = (0.4j * x[0] + 0.3 * x[1] - 0.2 * x[dim - 1]).exp()
    f = f * (x[2] + 0.5 * x[3] + (0.1 + 0.2j)).sin()
    return f + (0.7 - 0.3j) * (x[0] * x[dim - 2]) ** 2 + x[1] ** 3


@pytest.mark.parametrize("dim", [4, 6])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_affine_quadrature_matches_per_node_composition(dim, order):
    # oracle: sum_s w_s (f o A_s) with each A_s composed as its own point map
    rng = np.random.default_rng(dim)
    s = 5
    mats = rng.normal(size=(s, dim, dim))  # generic, not orthogonal
    offs = rng.normal(scale=0.3, size=(s, dim))
    weights = rng.uniform(-1.0, 1.0, size=s)
    f = _complex_field(dim)
    x = [coordinate(i, dim) for i in range(dim)]
    pullbacks = [
        compose_field(f, PointMap([
            ScalarField.nsum([M[i, j] * x[j] for j in range(dim)]) + b[i]
            for i in range(dim)
        ]))
        for M, b in zip(mats, offs)
    ]
    oracle = ScalarField.nsum(pullbacks, list(weights))
    quad = affine_quadrature_field(f, mats, offs, weights)
    pts = rng.uniform(-0.5, 0.5, size=(7, dim))
    got, want = quad.jet(pts, order), oracle.jet(pts, order)
    assert np.iscomplexobj(want.v)
    for name in ("v", "g", "h", "t")[: order + 1]:
        assert _rel_err(getattr(got, name), getattr(want, name)) <= 1e-12, name


def _raw_jet(rng, n, d):
    """An order-3 jet with deliberately non-symmetric derivative tensors."""
    return Jet(3, rng.normal(size=n), rng.normal(size=(d, n)),
               rng.normal(size=(d, d, n)), rng.normal(size=(d, d, d, n)))


def test_order3_leibniz_rule_index_order():
    rng = np.random.default_rng(11)
    a, b = _raw_jet(rng, 5, 3), _raw_jet(rng, 5, 3)
    assert np.abs(a.h - a.h.transpose(1, 0, 2)).max() > 0.1
    e = np.einsum
    want = (
        a.v * b.t + b.v * a.t
        + e("pqn,rn->pqrn", a.h, b.g) + e("prn,qn->pqrn", a.h, b.g)
        + e("qrn,pn->pqrn", a.h, b.g) + e("pqn,rn->pqrn", b.h, a.g)
        + e("prn,qn->pqrn", b.h, a.g) + e("qrn,pn->pqrn", b.h, a.g)
    )
    assert _rel_err((a * b).t, want) <= 1e-14


def test_order3_chain_rule_index_order():
    rng = np.random.default_rng(12)
    a = _raw_jet(rng, 5, 3)
    derivs = [rng.normal(size=5) for _ in range(4)]
    e = np.einsum
    d1, d2, d3 = derivs[1:]
    want = (
        d1 * a.t
        + d2 * (e("pqn,rn->pqrn", a.h, a.g) + e("prn,qn->pqrn", a.h, a.g)
                + e("qrn,pn->pqrn", a.h, a.g))
        + d3 * e("pn,qn,rn->pqrn", a.g, a.g, a.g)
    )
    assert _rel_err(a.chain(derivs).t, want) <= 1e-14


# -- tier layout: points on the last axis -----------------------------------


def test_partials_are_contiguous_views_of_the_tiers():
    pts = np.random.default_rng(41).uniform(-0.5, 0.5, size=(7, DIM))
    jet = _complex_field(DIM).jet(pts, 3)
    for i in range(DIM):
        first = jet.partial(i)
        second = first.partial((i + 1) % DIM)
        for view, tier in ((first.v, jet.g), (first.g, jet.h), (first.h, jet.t),
                           (second.v, jet.h), (second.g, jet.t)):
            assert view.flags.c_contiguous and not view.flags.owndata
            assert np.shares_memory(view, tier)
        assert np.array_equal(first.h, jet.t[i])
        assert np.array_equal(second.g, jet.t[i, (i + 1) % DIM])


def test_points_first_outputs_keep_their_shapes_and_values(hopf, hopf_pts):
    # stacked and jacobian keep their points first; the metric arrays, like
    # the jet tiers they are copied from, hold them last
    pts = hopf_pts[:9]
    x = [coordinate(i, DIM) for i in range(DIM)]
    vals, grads = stacked([x[0] * x[1], x[2] * 3.0], pts)
    assert vals.shape == (9, 2) and grads.shape == (9, 2, DIM)
    want = np.zeros((9, 2, DIM))
    want[:, 0, 0], want[:, 0, 1], want[:, 1, 2] = pts[:, 1], pts[:, 0], 3.0
    assert np.array_equal(grads, want)
    M = np.random.default_rng(42).normal(size=(DIM, DIM))  # not symmetric
    jac = PointMap.affine(M, np.ones(DIM)).jacobian(pts)
    assert jac.shape == (9, DIM, DIM)
    assert np.array_equal(jac, np.broadcast_to(M, jac.shape))
    s = hopf.structure
    bundle = MetricBundle(s, pts)
    g, dg = bundle.g, bundle.dg
    assert g.shape == (DIM, DIM, 9) and dg.shape == (DIM, DIM, DIM, 9)
    G = s.metric_entry_fields()
    for a in range(DIM):
        for b in range(DIM):
            assert np.array_equal(g[a, b], np.real(G[min(a, b)][max(a, b)].values(pts)))
            for i in range(DIM):
                want = np.real(G[min(a, b)][max(a, b)].partial(i).values(pts))
                assert np.array_equal(dg[i, a, b], want)


def test_order1_quadrature_contracts_a_points_first_gradient():
    # c_einsum picks its summation order from the operands' layout, so the
    # gradient is contracted on a points-first copy: bit for bit this
    # reference, as it was before the tiers moved their points last
    rng = np.random.default_rng(43)
    dim, s, n = 6, 32, 20
    mats = rng.normal(size=(s, dim, dim))
    offs = rng.normal(scale=0.3, size=(s, dim))
    weights = rng.uniform(-1.0, 1.0, size=s)
    pts = rng.uniform(-0.5, 0.5, size=(n, dim))
    f = _complex_field(dim)
    big = np.einsum("sij,nj->sni", mats, pts) + offs[:, None, :]
    G = np.ascontiguousarray(f.jet(big.reshape(s * n, dim), 1).g.T).reshape(s, n, dim)
    want = np.einsum("s,sna,sap->np", weights, G, mats)
    got = affine_quadrature_field(f, mats, offs, weights).jet(pts, 1).g
    assert got.shape == (dim, n) and got.flags.c_contiguous
    assert np.array_equal(got.T, want)


# -- absent (identically zero) tiers ---------------------------------------

# (h present, t present) patterns of an order-3 jet
TIER_PATTERNS = [(True, True), (True, False), (False, False), (False, True)]


def _sparse_jet(rng, n, d, pattern, cplx=False):
    """An order-3 jet with the tiers of ``pattern`` present (non-symmetric)."""
    def draw(*shape):
        x = rng.normal(size=shape + (n,))
        return x + 1j * rng.normal(size=x.shape) if cplx else x
    has_h, has_t = pattern
    return Jet(3, draw(), draw(d), draw(d, d) if has_h else None,
               draw(d, d, d) if has_t else None)


def _dense(jet):
    """The same jet with every absent tier up to its order filled with zeros."""
    d, n = jet.g.shape if jet.g is not None else (0, jet.v.shape[0])
    dtype = np.result_type(jet.v, jet.g) if jet.g is not None else jet.v.dtype
    tiers = [jet.g, jet.h, jet.t]
    for k in range(1, jet.order + 1):
        if tiers[k - 1] is None:
            tiers[k - 1] = np.zeros((d,) * k + (n,), dtype=dtype)
    return Jet(jet.order, jet.v, *tiers)


def _assert_same_bits(got, want):
    assert (got.g is None) == (want.order < 1)  # g stays dense
    got = _dense(got)
    assert got.order == want.order
    for name in ("v", "g", "h", "t")[: want.order + 1]:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# The full rules on zero-filled tiers, term for term and in the order the
# dense implementation summed them: the reference for bit-for-bit equality.

def _full_sym(x):
    return x + x.transpose(0, 2, 1, 3) + x.transpose(2, 0, 1, 3)


def _full_mul(a, b):
    return Jet(
        3, a.v * b.v,
        a.v * b.g + b.v * a.g,
        a.v * b.h + b.v * a.h + a.g[:, None] * b.g + b.g[:, None] * a.g,
        a.v * b.t + b.v * a.t
        + _full_sym(a.h[:, :, None] * b.g + b.h[:, :, None] * a.g),
    )


def _full_chain(a, d):
    gg = a.g[:, None] * a.g
    return Jet(
        3, d[0], d[1] * a.g,
        d[1] * a.h + d[2] * gg,
        d[1] * a.t + d[2] * _full_sym(a.h[:, :, None] * a.g)
        + d[3] * (gg[:, :, None] * a.g),
    )


def _full_compose(outer, inners):
    e = np.einsum
    Yg, Yh, Yt = (np.stack([getattr(y, k) for y in inners]) for k in "ght")
    cross = e("abn,apqn,brn->pqrn", outer.h, Yh, Yg)
    return Jet(
        3, outer.v, e("an,apn->pn", outer.g, Yg),
        e("an,apqn->pqn", outer.g, Yh) + e("abn,apn,bqn->pqn", outer.h, Yg, Yg),
        e("an,apqrn->pqrn", outer.g, Yt) + cross + cross.transpose(0, 2, 1, 3)
        + cross.transpose(2, 0, 1, 3) + e("abcn,apn,bqn,crn->pqrn", outer.t, Yg, Yg, Yg),
    )


def _full_map(f, *jets):
    return Jet(3, *(f(*(getattr(j, k) for j in jets)) for k in "vght"))


@pytest.mark.parametrize("pa", TIER_PATTERNS)
@pytest.mark.parametrize("pb", TIER_PATTERNS)
def test_absent_tiers_match_zero_filled_ring_ops(pa, pb):
    rng = np.random.default_rng(21)
    a = _sparse_jet(rng, 6, 3, pa)
    b = _sparse_jet(rng, 6, 3, pb, cplx=True)
    da, db = _dense(a), _dense(b)
    _assert_same_bits(a * b, _full_mul(da, db))
    _assert_same_bits(b * a, _full_mul(db, da))
    _assert_same_bits(a + b, _full_map(np.add, da, db))
    _assert_same_bits(b - a, _full_map(lambda x, y: x + -y, db, da))
    _assert_same_bits(a * 1.7, _full_map(lambda x: x * 1.7, da))


@pytest.mark.parametrize("pattern", TIER_PATTERNS)
def test_absent_tiers_match_zero_filled_chain_and_partial(pattern):
    rng = np.random.default_rng(22)
    a = _sparse_jet(rng, 6, 3, pattern)
    da = _dense(a)
    derivs = [rng.normal(size=6) for _ in range(4)]
    _assert_same_bits(a.chain(derivs), _full_chain(da, derivs))
    _assert_same_bits(a.exp(), _full_chain(da, [np.exp(a.v)] * 4))
    for i in range(3):
        _assert_same_bits(a.partial(i), Jet(2, da.g[i], da.h[i], da.t[i]))
        _assert_same_bits(a.partial(i).partial(i), Jet(1, da.h[i, i], da.t[i, i]))
    _assert_same_bits(a.imag(), _full_map(np.imag, da))


@pytest.mark.parametrize("outer_pattern", TIER_PATTERNS)
@pytest.mark.parametrize("inner_patterns", [
    [(False, False)] * 3,
    [(True, False), (False, False), (True, True)],
    [(True, True)] * 3,
])
def test_absent_tiers_match_zero_filled_compose_multi(outer_pattern, inner_patterns):
    rng = np.random.default_rng(23)
    outer = _sparse_jet(rng, 5, 3, outer_pattern, cplx=True)
    inners = [_sparse_jet(rng, 5, 4, p) for p in inner_patterns]
    got = compose_multi(outer, inners, 3)
    _assert_same_bits(got, _full_compose(_dense(outer), [_dense(y) for y in inners]))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_absent_tiers_match_zero_filled_affine_quadrature(order):
    rng = np.random.default_rng(24)
    dim, s = 4, 5
    x = [coordinate(i, dim) for i in range(dim)]
    mats = rng.normal(size=(s, dim, dim))
    offs = rng.normal(scale=0.3, size=(s, dim))
    weights = rng.uniform(-1.0, 1.0, size=s)
    pts = rng.uniform(-0.5, 0.5, size=(7, dim))
    for f in (0.5 * x[0] - x[3] + 0.2,              # no h, no t
              (0.3 + 1j) * x[1] * x[2] + x[0],      # no t
              _complex_field(dim)):                 # every tier
        dense_f = ScalarField(dim, lambda c, m, f=f: _dense(f.eval(c, m)))
        for at in (pts, pts[:0]):                   # and an empty batch
            got = affine_quadrature_field(f, mats, offs, weights).jet(at, order)
            want = affine_quadrature_field(dense_f, mats, offs, weights).jet(at, order)
            _assert_same_bits(got, want)
            assert got.v.shape == (len(at),)


def test_coordinates_and_constants_carry_no_higher_tiers():
    pts = np.random.default_rng(25).normal(size=(4, DIM))
    x0, x1 = Jet.coordinate(pts, 0, 3), Jet.coordinate(pts, 1, 3)
    c = Jet.constant(2.0, 4, DIM, 3)
    assert x0.h is None and x0.t is None
    assert c.h is None and c.t is None and not c.g.any()
    prod = x0 * x1
    assert prod.t is None
    assert np.array_equal(prod.h[0, 1], np.ones(4))
    assert (prod * x0).t is not None


def test_affine_pullback_keeps_absent_tiers_absent():
    rng = np.random.default_rng(26)
    M, b = rng.normal(size=(DIM, DIM)), rng.normal(size=DIM)
    amap = PointMap.affine(M, b)
    x = [coordinate(i, DIM) for i in range(DIM)]
    pts = rng.normal(size=(5, DIM))
    linear = compose_field(2.0 * x[0] - x[2] + 1.0, amap).jet(pts, 3)
    assert linear.h is None and linear.t is None
    quadratic = compose_field(x[0] * x[1], amap).jet(pts, 3)
    assert quadratic.h is not None and quadratic.t is None


def _counted_exp(calls):
    """exp(x0) as a field that records the order of every evaluation."""
    x = coordinate(0, DIM)

    def fn(ctx, m):
        calls.append(m)
        return x.eval(ctx, m).exp()

    return ScalarField(DIM, fn)


def test_evaluate_computes_a_shared_subexpression_once_per_call():
    calls = []
    shared = _counted_exp(calls)
    fields = [shared * 2.0, shared + coordinate(1, DIM)]
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, DIM))
    first = evaluate(fields, pts, 1)
    assert calls == [1]
    # each call starts from a fresh context: nothing is cached across calls
    second = evaluate(fields, pts, 1)
    assert calls == [1, 1]
    for a, b in zip(first, second):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.g, b.g)
    vals, grads = stacked(fields, pts)
    assert vals.shape == (5, 2) and grads.shape == (5, 2, DIM)
    assert np.array_equal(grads[:, 1], first[1].g.T)
    assert stacked(fields, pts, 0)[1] is None


def test_session_shares_one_context_per_batch_and_resets_on_exit():
    calls = []
    shared = _counted_exp(calls)
    fields = [shared * 2.0, shared + coordinate(1, DIM)]
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(5, DIM))
    outside = evaluate(fields, pts, 1)
    with session():
        inside = evaluate(fields, pts, 1)
        # byte-identical points, another array: the same context
        evaluate(fields, pts.copy(), 1)
        assert calls == [1, 1]
        # order 0 is served from the cached order-1 jet
        evaluate(fields, pts, 0)
        evaluate(fields, pts[:3], 1)
        assert calls == [1, 1, 1]
        # a point map on the same batch reads the cached order-0 jets
        PointMap([shared, coordinate(1, DIM)])(pts)
        assert calls == [1, 1, 1]
        with session():
            evaluate(fields, pts, 1)
            assert calls == [1, 1, 1, 1]
        # the outer session's contexts are back
        evaluate(fields, pts, 1)
        assert calls == [1, 1, 1, 1]
    for a, b in zip(outside, inside):
        assert np.array_equal(a.v, b.v) and np.array_equal(a.g, b.g)
    evaluate(fields, pts, 1)
    assert calls == [1, 1, 1, 1, 1]
    with pytest.raises(RuntimeError):
        with session():
            evaluate(fields, pts, 1)
            raise RuntimeError("inside the session")
    evaluate(fields, pts, 1)
    assert calls == [1, 1, 1, 1, 1, 1, 1]


def test_a_thread_started_in_a_session_evaluates_on_fresh_contexts():
    import threading

    calls = []
    shared = _counted_exp(calls)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, DIM))

    def work():
        evaluate([shared], pts, 1)
        evaluate([shared], pts, 1)

    with session():
        evaluate([shared], pts, 1)
        worker = threading.Thread(target=work)
        worker.start()
        worker.join()
        assert calls == [1, 1, 1]
        evaluate([shared], pts, 1)
        assert calls == [1, 1, 1]


def test_quadrature_keeps_no_sub_context():
    calls = []
    f = _counted_exp(calls)
    mats = np.stack([np.eye(DIM) * (1.0 + 0.1 * k) for k in range(3)])
    quad = affine_quadrature_field(f, mats, np.zeros((3, DIM)), np.full(3, 1 / 3))
    ctx = Ctx(np.random.default_rng(6).uniform(-1.0, 1.0, size=(4, DIM)))
    jet = quad.eval(ctx, 2)
    assert not ctx.submaps
    # the outer jet is cached, so the node-stacked batch is not refilled
    assert quad.eval(ctx, 2) is jet and calls == [2]


# -- lower orders served from a cached higher-order jet ---------------------


def test_a_served_order_does_not_call_the_closure_again():
    calls = []
    f = _counted_exp(calls)
    ctx = Ctx(np.random.default_rng(8).uniform(-1.0, 1.0, size=(5, DIM)))
    top = f.eval(ctx, 3)
    for order in (2, 0, 1):
        served = f.eval(ctx, order)
        assert served.order == order and served.t is None
        # the top jet's arrays, shared; the tiers above the order dropped
        assert served.v is top.v
        assert served.g is (top.g if order >= 1 else None)
        assert served.h is (top.h if order >= 2 else None)
        assert f.eval(ctx, order) is served
    assert calls == [3]
    # a lower order cached first serves nothing above it
    ctx = Ctx(ctx.pts)
    f.eval(ctx, 1)
    f.eval(ctx, 2)
    f.eval(ctx, 0)
    assert calls == [3, 1, 2]


# -- tiers built in place ---------------------------------------------------

# The Leibniz and chain rules with each term a fresh array, summed by _lsum:
# the reference that the in-place rules must match bit for bit and in dtype.

def _ref_lsum(*terms):
    acc = None
    for x in terms:
        if x is not None:
            acc = x if acc is None else acc + x
    return acc


def _ref_scale(v, x):
    return None if x is None else v * x


def _ref_hg(h, g):
    return None if h is None else h[:, :, None] * g


def _ref_sym(x):
    return None if x is None else x + x.transpose(0, 2, 1, 3) + x.transpose(2, 0, 1, 3)


def _ref_mul(a, b):
    m = a.order
    h = t = None
    if m >= 2:
        h = _ref_lsum(_ref_scale(a.v, b.h), _ref_scale(b.v, a.h),
                      a.g[:, None] * b.g, b.g[:, None] * a.g)
    if m >= 3:
        t = _ref_lsum(_ref_scale(a.v, b.t), _ref_scale(b.v, a.t),
                      _ref_sym(_ref_lsum(_ref_hg(a.h, b.g), _ref_hg(b.h, a.g))))
    return Jet(m, a.v * b.v, a.v * b.g + b.v * a.g, h, t)


def _ref_chain(a, derivs):
    m = a.order
    gg = a.g[:, None] * a.g
    h = _ref_lsum(_ref_scale(derivs[1], a.h), _ref_scale(derivs[2], gg))
    t = None
    if m >= 3:
        t = _ref_lsum(_ref_scale(derivs[1], a.t),
                      _ref_scale(derivs[2], _ref_sym(_ref_hg(a.h, a.g))),
                      _ref_scale(derivs[3], gg[:, :, None] * a.g))
    return Jet(m, derivs[0], derivs[1] * a.g, h, t)


def _arrays(*jets):
    return [x for j in jets for x in (j.v, j.g, j.h, j.t) if x is not None]


def _assert_same_jet(got, want):
    for name in ("v", "g", "h", "t"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def _assert_fresh_tiers(got, *operands):
    for tier in (got.h, got.t):
        assert tier is None or not any(np.shares_memory(tier, x) for x in _arrays(*operands))


def _kernel_operands(rng, order):
    """Order-``order`` jets with non-symmetric tiers: real, complex, a complex
    value over real derivatives, absent tiers and, at order 2, partials of
    an order-3 jet; and every array they are built on."""
    n, d = 6, 3
    real = _raw_jet(rng, n, d)
    shifted = Jet(3, real.v + 0.5j, real.g, real.h, real.t)  # as x + 0.5j leaves it
    jets = [real, shifted] + [_sparse_jet(rng, n, d, p, cplx=c)
                              for p in TIER_PATTERNS for c in (False, True)]
    jets = [Jet(order, j.v, j.g, j.h, j.t if order == 3 else None) for j in jets]
    deeper = _raw_jet(rng, n, d)
    if order == 2:
        jets += [deeper.partial(0), deeper.partial(2)]  # views into deeper's h and t
    return jets, _arrays(*jets, deeper)


@pytest.mark.parametrize("order", [2, 3])
def test_in_place_leibniz_rule_matches_the_summed_terms(order):
    jets, arrays = _kernel_operands(np.random.default_rng(31), order)
    held = [x.copy() for x in arrays]
    for a in jets:
        for b in jets:  # a * a included
            got = a * b
            _assert_same_jet(got, _ref_mul(a, b))
            _assert_fresh_tiers(got, a, b)
    assert all(np.array_equal(x, y) for x, y in zip(arrays, held))


@pytest.mark.parametrize("order", [2, 3])
def test_in_place_chain_rule_matches_the_summed_terms(order):
    rng = np.random.default_rng(32)
    jets, arrays = _kernel_operands(rng, order)
    n = jets[0].v.shape[0]
    tables = [[rng.normal(size=n) for _ in range(order + 1)],
              [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(order + 1)]]
    arrays += [x for table in tables for x in table]
    held = [x.copy() for x in arrays]
    for a in jets:
        for derivs in tables:
            got = a.chain(derivs)
            _assert_same_jet(got, _ref_chain(a, derivs))
            _assert_fresh_tiers(got, a)
    assert all(np.array_equal(x, y) for x, y in zip(arrays, held))


# -- quadrature integrands evaluated in blocks ------------------------------


@pytest.fixture(scope="module")
def leeolo_orbit():
    """The leeolo:n=3 orbit pipeline's result (its averaged potential g and
    Omega'), the fixture, and a nonlinear d = 6 integrand with its average
    over 32 nodes of the JC-flow.  The pipeline integrates the closed-form
    cover Kaehler form, whose integrand is quadratic (its jet has no
    order-3 tier); the integrand (iota_C omega)(JC) of the generic lift
    e^{-phi} Omega carries the jets of 1/|z|^2, ln and exp in every tier."""
    from lcklab import manifolds as M
    from lcklab import potential as P
    from lcklab.forms import interior_product

    m = M.gallery("leeolo", n=3)
    res = P.leeolo_orbit_pipeline(m, points=m.sample(20, seed=42))
    lift = m.extras["vaisman_base"].omega.scale((-1.0 * m.extras["base_phi"]).exp())
    jc = m.flows["JC"]
    (f,) = interior_product(jc.generator,
                            interior_product(m.fields["C"], lift)).coeffs.values()
    s, w = P._gl_nodes(0.0, 2 * np.pi, 2)
    return res, m, f, affine_quadrature_field(f, *jc.affine(s), w)


def _lifted_complex_field():
    """A complex field pulled back by a nonlinear map (a deck sub-context)
    and lifted by a univariate function."""
    x = [coordinate(i, DIM) for i in range(DIM)]
    pmap = PointMap([x[0] * x[1] + x[2], x[1] + x[3] ** 2, x[2].sin(), 0.5 * x[3] + x[0]])
    inner = compose_field(_complex_field(DIM), pmap)
    return lift_univariate(inner, lambda z, m: [np.exp(z)] * (m + 1)) * x[1]


def test_block_rows_bound_the_top_tier():
    # the order-3 blocks of a d = 6 integrand hold 303 rows (0.5 MiB of top
    # tier); every other case the pipelines meet keeps the full budget
    assert _block_rows(6, 3) == 303
    for dim in (2, 4, 6, 8):
        for order in range(3):
            assert _block_rows(dim, order) == _QUAD_POINT_BUDGET
    assert _block_rows(4, 3) == _QUAD_POINT_BUDGET
    assert _block_rows(50, 3) == 1


_TIER_ROWS = _block_rows(6, 3)


@pytest.mark.parametrize("rows", [100, 2 * _QUAD_POINT_BUDGET, _QUAD_POINT_BUDGET + 1,
                                  _TIER_ROWS - 1, 3 * _TIER_ROWS, _TIER_ROWS + 1],
                         ids=["below", "multiple", "ragged",
                              "tier_below", "tier_multiple", "tier_ragged"])
def test_blocked_evaluation_matches_one_context(rows, leeolo_orbit):
    _, m, lifted, _ = leeolo_orbit
    pts = np.random.default_rng(rows).uniform(-0.5, 0.5, size=(rows, DIM))
    for f, at in ((lifted, m.sample(rows, seed=7)), (_lifted_complex_field(), pts)):
        for order in range(4):
            _assert_same_jet(_eval_in_blocks(f, at, order), f.eval(Ctx(at), order))


def _assert_served_like_fresh(fields, pts, top):
    """Each field at every order below ``top``, served in one Ctx after its
    order-``top`` jet, equals a fresh evaluation at that order."""
    ctx = Ctx(pts)
    tops = [f.eval(ctx, top) for f in fields]
    for order in range(top - 1, -1, -1):
        fresh = evaluate(fields, pts, order)
        for f, hi, want in zip(fields, tops, fresh):
            got = f.eval(ctx, order)
            assert got.v is hi.v
            _assert_same_jet(got, want)


def test_served_orders_equal_fresh_evaluations(leeolo_orbit):
    res, m, lifted, lifted_avg = leeolo_orbit
    heavy = m.sample(8, seed=11)
    _assert_served_like_fresh([lifted], heavy, 3)
    _assert_served_like_fresh([lifted_avg], heavy, 3)
    _assert_served_like_fresh([res.g], heavy, 3)
    omega = list(res.omega_prime.coeffs.values())
    _assert_served_like_fresh(omega, heavy, 1)
    pts = np.random.default_rng(12).uniform(-0.5, 0.5, size=(9, DIM))
    _assert_served_like_fresh([_lifted_complex_field()], pts, 3)
    # as in the pipeline: g cached at order 3 first, so Omega' reads its
    # lower orders (through partials) as served jets
    ctx = Ctx(heavy)
    res.g.eval(ctx, 3)
    for order in (1, 0):
        for f, want in zip(omega, evaluate(omega, heavy, order)):
            _assert_same_jet(f.eval(ctx, order), want)


def test_partial_of_a_served_jet_equals_a_fresh_partial(leeolo_orbit):
    res, m, _, lifted_avg = leeolo_orbit
    heavy = m.sample(8, seed=13)
    for g in (res.g, lifted_avg):
        ctx = Ctx(heavy)
        g.eval(ctx, 3)
        served = g.eval(ctx, 2)
        fresh = g.jet(heavy, 2)
        for i in range(m.dim):
            _assert_same_jet(served.partial(i), fresh.partial(i))
            _assert_same_jet(served.partial(i).partial(i), fresh.partial(i).partial(i))

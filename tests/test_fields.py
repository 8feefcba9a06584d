"""Constant folding in the field algebra against the unfolded arithmetic.

A constant wrapped in a plain ``ScalarField(dim, fn)`` is hidden from the
folding, so the same expression built on it runs the jet rules on the
constant's jet (its dense zero gradient included).  Folding must give the
same tiers value for value, a tier it leaves absent must be all zero on the
unfolded side, and every product keeps its operands' order: a complex
product may round differently with its factors swapped.
"""

import numpy as np
import pytest

from lcklab import manifolds
from lcklab.fields import PointMap, ScalarField, complex_coordinate, constant, coordinate
from lcklab.forms import Form, dc, exterior_d, pullback, wedge
from lcklab.jets import Jet

DIM = 4
ORDERS = range(4)
CONSTANTS = [0.7, -1.3 + 0.45j]


def hidden(value):
    """constant(value) behind a plain field, which the algebra cannot fold."""
    return ScalarField(DIM, constant(value, DIM)._fn)


def _real_field():
    x = [coordinate(i, DIM) for i in range(DIM)]
    return (0.3 * x[0]).exp() * (x[1] + 0.5 * x[2]).sin() + x[3] ** 3 - x[0] * x[2]


def _complex_field():
    z0, z1 = complex_coordinate(0, DIM), complex_coordinate(1, DIM)
    return (z0 * z1 + 0.2j).exp() + z0 ** 3


def _linear_field():
    x = [coordinate(i, DIM) for i in range(DIM)]
    return 2.0 * x[0] - x[3]


FIELDS = {"real": _real_field, "complex": _complex_field, "linear": _linear_field}


@pytest.fixture(scope="module")
def pts():
    return np.random.default_rng(23).uniform(-0.9, 0.9, size=(7, DIM))


def assert_same_tiers(got: Jet, want: Jet):
    """Equal value for value (so -0.0 == +0.0); a tier absent from ``got``
    is all zero in ``want``."""
    assert got.order == want.order
    for name in "vght"[: got.order + 1]:
        a, b = getattr(got, name), getattr(want, name)
        if a is None:
            assert b is None or not np.any(b), name
        else:
            assert b is not None and a.shape == b.shape, name
            assert np.array_equal(a, b), name


def assert_folds_exactly(folded, unfolded, pts, orders=ORDERS):
    for order in orders:
        assert_same_tiers(folded.jet(pts, order), unfolded.jet(pts, order))


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("c", CONSTANTS + [1.0, 0.0])
def test_constant_factors_match_the_unfolded_products(kind, c, pts):
    f = FIELDS[kind]()
    assert_folds_exactly(constant(c, DIM) * f, hidden(c) * f, pts)
    assert_folds_exactly(f * constant(c, DIM), f * hidden(c), pts)
    if c:
        assert_folds_exactly(f / constant(c, DIM), f / hidden(c), pts)


@pytest.mark.parametrize("kind", FIELDS)
@pytest.mark.parametrize("c", CONSTANTS + [0.0])
def test_adding_a_constant_matches_the_unfolded_sum(kind, c, pts):
    f = FIELDS[kind]()
    assert_folds_exactly(f + constant(c, DIM), f + hidden(c), pts)
    assert_folds_exactly(constant(c, DIM) + f, hidden(c) + f, pts)
    assert_folds_exactly(f - constant(c, DIM), f - hidden(c), pts)
    assert_folds_exactly(constant(c, DIM) - f, hidden(c) - f, pts)


@pytest.mark.parametrize("c", [2.0, 0.0, -0.0, 1 + 0j, 0j])
def test_negating_a_constant_folds_to_the_negated_constant(c, pts):
    # -constant(c) is constant(-c): a zero flips its sign and a complex zero
    # stays complex, so only -constant(-0.0) is the shared +0.0 node
    neg = -constant(c, DIM)
    assert neg.const is not None
    assert (neg is constant(0.0, DIM)) == (isinstance(c, float) and c == 0 and np.signbit(c))
    assert_same_bits(neg.jet(pts, 0), (-hidden(c)).jet(pts, 0))
    assert_folds_exactly(neg, -hidden(c), pts)


@pytest.mark.parametrize("kind", FIELDS)
def test_difference_and_quotient_follow_the_jet_rules(kind, pts):
    # f - g is f + (-g), c - f is (-f) + c and f / g is f * (1 / g), as the
    # jet rules derive them, so every tier equals the jet rule's bit for bit
    f, g = FIELDS[kind](), _linear_field() + 3.0
    for order in ORDERS:
        F, G = f.jet(pts, order), g.jet(pts, order)
        assert_same_bits((f - g).jet(pts, order), F - G)
        assert_same_bits((g - f).jet(pts, order), G - F)
        assert_same_bits((f / g).jet(pts, order), F / G)
        for c in CONSTANTS + [2.0]:
            assert_same_bits((c - f).jet(pts, order), c - F)
            assert_same_bits((f - c).jet(pts, order), F - c)


@pytest.mark.parametrize("kind", FIELDS)
def test_nsum_without_zero_terms_matches_the_unfolded_sum(kind, pts):
    f, lin = FIELDS[kind](), _linear_field()
    terms = [constant(0.0, DIM), f, lin, constant(0.0, DIM), f * lin]
    shown = [hidden(0.0), f, lin, hidden(0.0), f * lin]
    assert_folds_exactly(ScalarField.nsum(terms), ScalarField.nsum(shown), pts)
    weights = [2.0, 0.5, -1.5, 0.25j, 3.0]
    assert_folds_exactly(ScalarField.nsum(terms, weights), ScalarField.nsum(shown, weights), pts)

    # zero weights, real unit weights (added without a multiply) and one-term
    # sums (f * w): the unfolded sum is the jet arithmetic of every term
    fields = [f, lin, f * lin, lin]
    cases = [(fields, [0.0, -1.5, 0.0, 0.5 + 1j]), (fields, [1.0, -1.5, 1.0, 1 + 0j]),
             (fields, [1.0] * 4), ([f], [1.0]), ([f], [-1.5]), ([f], [1 + 0j]),
             ([f, lin], [0.0, 1.0]), ([f, lin], [-1.5, 0.0])]
    for terms, weights in cases:
        for order in ORDERS:
            jets = [g.jet(pts, order) for g in terms]
            want = jets[0] * weights[0]
            for jet, w in zip(jets[1:], weights[1:]):
                want = want + jet * w
            got = ScalarField.nsum(terms, weights).jet(pts, order)
            assert_same_tiers(got, want)
            # only a dropped zero-weight term may take the complex type away
            assert got.v.dtype == want.v.dtype or 0.0 in weights


def test_a_complex_one_scales_as_a_complex_weight(pts):
    # only a real 1 folds away: 1 + 0j multiplies on either side, as a
    # scalar or a constant field, exactly as a one-term sum of weight 1 + 0j
    f, one = _real_field(), 1 + 0j
    products = [f * one, one * f, f * constant(one, DIM), constant(one, DIM) * f]
    for order in ORDERS:
        want = ScalarField.nsum([f], [one]).jet(pts, order)
        for product in products:
            got = product.jet(pts, order)
            assert got.order == want.order
            for name in "vght":
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.dtype == b.dtype == np.complex128, name
                    assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("c", CONSTANTS)
def test_partial_of_a_constant_matches_the_unfolded_partial(c, pts):
    # the unfolded partial reads one order deeper, so it stops at order 2
    for i in range(DIM):
        assert_folds_exactly(constant(c, DIM).partial(i), hidden(c).partial(i), pts,
                             orders=range(3))
        assert constant(c, DIM).partial(i).jet(pts, 3).h is None


@pytest.mark.parametrize("a", CONSTANTS)
@pytest.mark.parametrize("b", CONSTANTS + [2.0])
def test_two_constants_fold_to_the_unfolded_value(a, b, pts):
    ca, cb = constant(a, DIM), constant(b, DIM)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        folded = op(ca, cb)
        assert folded.const is not None
        assert_folds_exactly(folded, op(hidden(a), hidden(b)), pts)
        assert_folds_exactly(op(ca, b), op(hidden(a), b), pts)


def test_folding_rules_build_the_expected_nodes():
    f = _real_field()
    assert f * 1 is f and f * constant(1, DIM) is f and constant(1.0, DIM) * f is f
    assert f + 0 is f and 0 + f is f and f + constant(0.0, DIM) is f and f - 0.0 is f
    assert f - constant(0.0, DIM) is f and f - constant(-0.0, DIM) is f
    # dividing by a real scalar scales, so an affine field keeps its gradient
    assert (coordinate(0, DIM) / 2.0).grad == (0.5, 0.0, 0.0, 0.0)
    for zero in (f * 0, 0.0 * f, f * constant(0.0, DIM), constant(0j, DIM) * f):
        assert zero.const == 0
    assert constant(3.0, DIM).partial(1).const == 0
    assert (constant(2.0, DIM) * constant(3.0, DIM)).const == 6.0
    assert ScalarField.nsum([f]) is f
    assert ScalarField.nsum([f, f], [0.0, 0.0]).const == 0
    # a one-term sum of real weight w is f * w, f itself at w = 1; a complex
    # weight 1 + 0j still multiplies, so the sum is complex
    assert ScalarField.nsum([f], [1.0]) is f and ScalarField.nsum([f, f], [1.0, 0.0]) is f
    assert ScalarField.nsum([constant(2.0, DIM)], [-1.5]).const == -3.0
    assert np.iscomplexobj(ScalarField.nsum([f], [1 + 0j]).values(np.zeros((1, DIM))))
    # every fold to a real +0.0 is one shared node per chart dimension; -0.0
    # and complex zeros keep nodes of their own, so sign and dtype stay
    g = coordinate(1, DIM)
    zero = constant(0.0, DIM)
    assert f * 0 is g * 0 is zero and constant(3.0, DIM).partial(1) is zero
    assert ScalarField.nsum([f, f], [0.0, 0.0]) is zero
    assert zero is not constant(0.0, DIM + 2)
    at = np.zeros((1, DIM))
    for other, signbit, dtype in ((constant(-0.0, DIM), True, np.float64),
                                  (constant(0j, DIM), False, np.complex128)):
        assert other is not zero and other is not constant(other.const, DIM)
        assert np.signbit(np.real(other.values(at))).all() == signbit
        assert other.values(at).dtype == dtype


def test_forms_omit_coefficients_that_fold_to_zero():
    one = Form.from_function(constant(1.0, DIM))
    assert not exterior_d(one).coeffs
    assert not dc(one).coeffs
    dx0 = Form.basis(DIM, (0,))
    assert not exterior_d(dx0).coeffs
    assert not wedge(dx0, Form.basis(DIM, (1,)).scale(0.0)).coeffs


def test_folding_changes_the_sign_of_a_zero(pts):
    # 0 * x at x < 0 is -0.0 unfolded and +0.0 folded; log cannot tell the
    # two apart, sin keeps the sign and 1/x turns it into -inf / +inf
    x = coordinate(0, DIM)
    at = -np.abs(pts)
    folded, unfolded = constant(0.0, DIM) * x, hidden(0.0) * x
    assert not np.signbit(folded.values(at)).any()
    assert np.signbit(unfolded.values(at)).all()
    with np.errstate(divide="ignore"):
        assert np.array_equal(folded.log().values(at), unfolded.log().values(at))
        assert (folded.log().values(at) == -np.inf).all()
        assert not np.signbit(folded.sin().values(at)).any()
        assert np.signbit(unfolded.sin().values(at)).all()
        assert (1.0 / folded).values(at).tolist() == [np.inf] * len(at)
        assert (1.0 / unfolded).values(at).tolist() == [-np.inf] * len(at)


def test_a_folded_zero_times_a_non_finite_value_is_zero():
    # the unfolded 0 * inf and 0 * nan are nan; the folded product is 0
    x = coordinate(0, DIM)
    at = np.array([[np.inf, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0],
                   [-np.inf, 0.0, 0.0, 0.0]])
    y = coordinate(1, DIM)
    with np.errstate(invalid="ignore"):
        assert np.isnan((hidden(0.0) * x).values(at)).all()
        assert np.isnan((y.jet(at, 0) * 1.0 + x.jet(at, 0) * 0.0).v).all()
    assert (constant(0.0, DIM) * x).values(at).tolist() == [0.0, 0.0, 0.0]
    assert (x * 0.0).values(at).tolist() == [0.0, 0.0, 0.0]
    assert ScalarField.nsum([y, x], [1.0, 0.0]).values(at).tolist() == [0.0, 0.0, 0.0]


# -- affine fields: a gradient known when the DAG is built ---------------


def hidden_coordinate(i):
    """coordinate(i) behind a plain field, which carries no gradient."""
    return ScalarField(DIM, coordinate(i, DIM)._fn)


# each builds one affine field from the four coordinate leaves x
AFFINE = {
    "coordinate": lambda x: x[1],
    # a repeated coordinate, a unit weight and a real constant term
    "nsum": lambda x: ScalarField.nsum([x[0], x[2], x[0], constant(0.5, DIM)],
                                       [1.0, -2.0, 3.0, -1.5]),
    # -0.0 + -0.0 leaves the partials in x1 and x3 at -0.0
    "nsum_negative_zero": lambda x: ScalarField.nsum([x[0], x[2]], [-1.0, -2.0]),
    "nsum_unweighted": lambda x: ScalarField.nsum([x[3], x[1], x[3]]),
    # (0.1 + 0.2) + 0.3 rounds differently from 0.1 + (0.2 + 0.3)
    "nsum_rounding": lambda x: ScalarField.nsum([x[0]] * 3, [0.1, 0.2, 0.3]),
    "scaled": lambda x: constant(-0.75, DIM) * (x[2] * constant(2.5, DIM)),
    "times_scalar": lambda x: 0.3 * (x[0] * -1.5),
    "offsets": lambda x: 2.0 - ((0.25 + x[0]) - 1.5 + 0.5),
    "sum": lambda x: x[0] * 2.0 + x[1],
    # (-x0) - x1 is -x0 + (-x1): its partials in x2 and x3 are -0.0
    "difference": lambda x: -x[0] - x[1] * 3.0,
    # f / c is f * (1 / c), for a scalar and a constant field alike
    "quotient": lambda x: x[0] / 2.0 - x[2] / constant(-4.0, DIM),
    "real_part": lambda x: (x[0] - 0.5 * x[1]).real_part(),
    # a component of PointMap.affine: zero weights dropped, then an offset
    "affine_map": lambda x: (ScalarField.nsum(x, np.array([0.0, -1.25, 0.0, 2.0]))
                             + np.float64(0.5)),
}


def assert_same_bits(got: Jet, want: Jet):
    """The same tiers, present or absent alike, equal with their zeros'
    signs."""
    assert got.order == want.order
    for name in "vght"[: got.order + 1]:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(a)), np.signbit(part(b))), name


@pytest.mark.parametrize("kind", AFFINE)
def test_partials_of_affine_fields_are_the_unfolded_partials(kind, pts):
    f = AFFINE[kind]([coordinate(i, DIM) for i in range(DIM)])
    ref = AFFINE[kind]([hidden_coordinate(i) for i in range(DIM)])
    assert f.grad is not None and ref.grad is None
    for order in ORDERS:
        assert_same_bits(f.jet(pts, order), ref.jet(pts, order))
    for i in range(DIM):
        folded = f.partial(i)
        assert folded.const is not None and folded.const == f.grad[i]
        # the unfolded partial reads one order deeper, so it stops at order 2
        for order in range(3):
            assert_same_bits(folded.jet(pts, order), ref.partial(i).jet(pts, order))
        assert folded.jet(pts, 3).h is None
    negative_zeros = {"nsum_negative_zero": (1, 3), "difference": (2, 3)}.get(kind, ())
    for i in negative_zeros:
        assert f.grad[i] == 0 and np.signbit(f.grad[i])


def test_products_exp_and_complex_terms_keep_their_partial_nodes(pts):
    x, y = coordinate(0, DIM), coordinate(1, DIM)
    for f in (x * y, x.exp(), ScalarField.nsum([x, y], [1.0, 0.5j]), x + 1j,
              1j * x, constant(2j, DIM) * x, complex_coordinate(0, DIM).real_part(),
              ScalarField(DIM, x._fn)):
        assert f.grad is None
        d = f.partial(0)
        assert d.const is None
        assert_same_bits(d.jet(pts, 1), f.jet(pts, 2).partial(0))


def _partial_nodes_built(monkeypatch, build):
    """How many nodes ``build()`` makes with the closure of ``partial``."""
    built = []
    init = ScalarField.__init__

    def spy(self, dim, fn, *args, **kwargs):
        built.append(fn.__qualname__)
        init(self, dim, fn, *args, **kwargs)

    monkeypatch.setattr(ScalarField, "__init__", spy)
    build()
    monkeypatch.undo()
    return sum(name == "ScalarField.partial.<locals>.fn" for name in built)


@pytest.mark.parametrize("fixture, deck", [("hopf_diag", "gamma"), ("inoue_splus", "g1")])
def test_pullback_by_an_affine_deck_map_builds_no_partial_node(monkeypatch, fixture, deck):
    m = manifolds.gallery(fixture)
    gamma, omega = m.deck(deck).map, m.structure.omega
    assert all(c.grad is not None for c in gamma.components)
    assert _partial_nodes_built(monkeypatch, lambda: pullback(gamma, omega)) == 0
    # the spy sees them where the map's components hide their gradients
    hidden_map = PointMap([ScalarField(c.dim, c._fn) for c in gamma.components])
    count = _partial_nodes_built(monkeypatch, lambda: pullback(hidden_map, omega))
    assert count == gamma.dim_out * gamma.dim_in


def _multiplies(monkeypatch, build):
    """Whether each field multiply ``build()`` makes has a zero constant
    operand, in call order."""
    seen = []
    mul = ScalarField.__mul__

    def spy(self, other):
        seen.append(self.const == 0 or getattr(other, "const", other) == 0)
        return mul(self, other)

    monkeypatch.setattr(ScalarField, "__mul__", spy)
    monkeypatch.setattr(ScalarField, "__rmul__", spy)
    build()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("fixture, params, deck", [
    ("hopf_diag", {"n": 4}, "gamma"), ("leeolo", {"n": 8}, "gamma"),
    ("inoue_splus", {}, "g1")])
def test_pullback_multiplies_no_coefficient_by_a_zero_partial(
        monkeypatch, fixture, params, deck):
    # d(phi^i) comes from exterior_d, which leaves out the partials that fold
    # to zero, so no wedge in the pullback multiplies by one
    m = manifolds.gallery(fixture, **params)
    gamma, omega = m.deck(deck).map, m.structure.omega
    seen = _multiplies(monkeypatch, lambda: pullback(gamma, omega))
    assert seen and not any(seen)

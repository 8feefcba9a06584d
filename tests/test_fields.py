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

from lcklab.fields import ScalarField, complex_coordinate, constant, coordinate
from lcklab.forms import Form, dc, exterior_d, wedge
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
    # two apart, sqrt keeps the sign and 1/x turns it into -inf / +inf
    x = coordinate(0, DIM)
    at = -np.abs(pts)
    folded, unfolded = constant(0.0, DIM) * x, hidden(0.0) * x
    assert not np.signbit(folded.values(at)).any()
    assert np.signbit(unfolded.values(at)).all()
    with np.errstate(divide="ignore"):
        assert np.array_equal(folded.log().values(at), unfolded.log().values(at))
        assert (folded.log().values(at) == -np.inf).all()
        assert not np.signbit(folded.sqrt().values(at)).any()
        assert np.signbit(unfolded.sqrt().values(at)).all()
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

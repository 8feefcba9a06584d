"""Batched forward-mode jets: values with exact derivatives to third order.

A Jet holds the Taylor data of a scalar quantity at a batch of N chart
points: value ``v`` of shape (N,), gradient ``g`` of shape (d, N), Hessian
``h`` of shape (d, d, N) and third-derivative tensor ``t`` of shape
(d, d, d, N), truncated at ``order``.  The tiers are stored points-last, so
every elementwise rule runs on contiguous rows of N points and ``g[i]``,
``h[i]``, ``t[i]`` are contiguous views.  All derivative tensors are
symmetric in their coordinate axes.  Arithmetic implements the truncated
Leibniz and chain rules, so every quantity built from closed-form
primitives carries exact derivatives (no finite differencing on the
evaluation path).

A tier ``h`` or ``t`` that is ``None`` at or below ``order`` is identically
zero: coordinates carry no ``h`` or ``t``, constants carry neither, and a
product of two jets without ``h`` has no ``t``.  The rules form a tier only
from the terms whose operands are present, and a tier none of whose terms is
present stays ``None``.  ``g`` is always a dense array at order >= 1.  The
present terms are summed in the order of the full rule, so results match
the rule applied to zero-filled tiers bit for bit (x + 0 = x and 0 * x = 0
for finite x).

Jets share arrays: an operation may hand back an operand's tier or a view
of it (``x + c``, ``partial``, ``real``, ``truncate``, ``_lsum`` of one
present term), so no operation ever writes into an array it was given.
The order-2 and order-3 tiers of a product of jets and of a univariate
chain step are fresh arrays, built in place: the rule's terms are added
into one output array in the rule's order, so they equal the plain sum of
fresh terms bit for bit with a fraction of its temporaries.
"""

from __future__ import annotations

import numpy as np

MAX_ORDER = 3


class JetOrderError(RuntimeError):
    """Raised when a derivative deeper than MAX_ORDER is requested."""


def _lsum(*terms):
    """Left-to-right sum of the terms that are present; None if none is."""
    acc = None
    for x in terms:
        if x is not None:
            acc = x if acc is None else acc + x
    return acc


def _product(x, y, scale=None):
    """The tier term scale * (x * y), or None when x or y is absent."""
    return None if x is None or y is None else (((x, y),), False, scale)


def _hg(h, g):
    """The factors of the outer product h_{pq} g_r, or None when h is absent."""
    return None if h is None else (h[:, :, None], g)


def _sym_hg(pairs, scale=None):
    """The tier term scale * S(x) of x = the left-to-right sum of the present
    outer products ``pairs``; None if none is present.

    S_{pqr} = x_{pqr} + x_{prq} + x_{qrp}.  For the outer product
    x_{pqr} = h_{pq} g_r this is h_{pq} g_r + h_{pr} g_q + h_{qr} g_p,
    exact for any h, symmetric or not; a sum of outer products goes
    through in one pass.
    """
    pairs = tuple(p for p in pairs if p is not None)
    return (pairs, True, scale) if pairs else None


def _fill(out, term):
    products, sym, scale = term
    if sym:
        # S reads x through two transposes, so x needs an array of its own
        x = np.empty_like(out)
        np.multiply(*products[0], out=x)
        for pair in products[1:]:
            np.multiply(*pair, out=out)
            x += out
        np.add(x, x.transpose(0, 2, 1, 3), out=out)
        out += x.transpose(2, 0, 1, 3)
    else:
        np.multiply(*products[0], out=out)
    if scale is not None:
        # scale first: a complex product may round differently with its
        # factors swapped (fused multiply-add)
        np.multiply(scale, out, out=out)


def _tier(shape, terms):
    """One derivative tier: the sum of its present terms, left to right.

    A term is ``(products, sym, scale)``: the left-to-right sum of the
    products x * y of its (x, y) pairs, symmetrised by S when ``sym``, then
    times ``scale`` when that is not None; an absent term is None.  The
    tier is built in one fresh array of the result type of every present
    factor.  The first term is written into it, each later one into one
    scratch array and then added in place.  Products, sums and scalings
    are the elementwise operations of the plain expression, with their
    operands in its order, and a real value cast into a complex array takes
    +0 as imaginary part as promotion does, so the tier equals the plain
    sum bit for bit.  No operand array is written.  None if no term is
    present.
    """
    terms = [x for x in terms if x is not None]
    if not terms:
        return None
    factors = []
    for products, _, scale in terms:
        for pair in products:
            factors += pair
        if scale is not None:
            factors.append(scale)
    out = np.empty(shape, np.result_type(*factors))
    _fill(out, terms[0])
    if len(terms) > 1:
        scratch = np.empty_like(out)
        for term in terms[1:]:
            _fill(scratch, term)
            out += scratch
    return out


class Jet:
    __slots__ = ("order", "v", "g", "h", "t")

    def __init__(self, order, v, g=None, h=None, t=None):
        self.order = order
        self.v = v
        self.g = g
        self.h = h
        self.t = t

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value, n, dim, order):
        dtype = np.complex128 if isinstance(value, complex) else np.float64
        v = np.full(n, value, dtype=dtype)
        g = np.zeros((dim, n), dtype=dtype) if order >= 1 else None
        return Jet(order, v, g)

    @staticmethod
    def coordinate(pts, i, order):
        if order > MAX_ORDER:
            raise JetOrderError(f"jet order {order} exceeds supported {MAX_ORDER}")
        n, dim = pts.shape
        v = pts[:, i].astype(np.float64, copy=True)
        g = None
        if order >= 1:
            g = np.zeros((dim, n))
            g[i] = 1.0
        return Jet(order, v, g)

    # -- structure ----------------------------------------------------

    def truncate(self, order):
        """This jet at a lower ``order``: the same arrays, the tiers above
        it dropped.  Exact, since no tier depends on a higher one."""
        return Jet(order, self.v, *(self.g, self.h, self.t)[:order])

    def partial(self, i):
        """Jet of the i-th coordinate derivative, one order lower."""
        if self.order < 1:
            raise JetOrderError("cannot slice a partial from an order-0 jet")
        g = h = None
        if self.order >= 2:
            g = np.zeros_like(self.g) if self.h is None else self.h[i]
        if self.t is not None:
            h = self.t[i]
        return Jet(self.order - 1, self.g[i], g, h, None)

    def real(self):
        return self._map_linear(np.real)

    def imag(self):
        return self._map_linear(np.imag)

    def conj(self):
        return self._map_linear(np.conj)

    def _map_linear(self, f):
        return Jet(
            self.order,
            f(self.v),
            None if self.g is None else f(self.g),
            None if self.h is None else f(self.h),
            None if self.t is None else f(self.t),
        )

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.order, self.v + other, self.g, self.h, self.t)
        m = self.order
        return Jet(
            m,
            self.v + other.v,
            self.g + other.g if m >= 1 else None,
            _lsum(self.h, other.h) if m >= 2 else None,
            _lsum(self.t, other.t) if m >= 3 else None,
        )

    __radd__ = __add__

    def __neg__(self):
        return self._map_linear(np.negative)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.order, self.v - other, self.g, self.h, self.t)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        m = self.order
        if not isinstance(other, Jet):
            return Jet(
                m,
                self.v * other,
                None if m < 1 else self.g * other,
                None if m < 2 or self.h is None else self.h * other,
                None if m < 3 or self.t is None else self.t * other,
            )
        a, b = self, other
        v = a.v * b.v
        g = h = t = None
        if m >= 1:
            g = a.v * b.g + b.v * a.g
        if m >= 2:
            d, n = a.g.shape
            h = _tier((d, d, n), [
                _product(a.v, b.h),
                _product(b.v, a.h),
                _product(a.g[:, None], b.g),
                _product(b.g[:, None], a.g),
            ])
        if m >= 3:
            t = _tier((d, d, d, n), [
                _product(a.v, b.t),
                _product(b.v, a.t),
                _sym_hg([_hg(a.h, b.g), _hg(b.h, a.g)]),
            ])
        return Jet(m, v, g, h, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / other)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("jet powers are integer only")
        if k < 0:
            return self.reciprocal() ** (-k)
        base = self
        result = None
        kk = k
        while kk:
            if kk & 1:
                result = base if result is None else result * base
            kk >>= 1
            if kk:
                base = base * base
        if result is None:  # k == 0
            n = self.v.shape[0]
            dim = 0 if self.g is None else self.g.shape[0]
            return Jet.constant(1.0, n, dim, self.order)
        return result

    # -- univariate chain rule ----------------------------------------

    def chain(self, derivs):
        """Compose with a univariate function given its derivative values.

        ``derivs`` is a sequence [u(x), u'(x), u''(x), u'''(x)] (truncated at
        self.order + 1 entries) evaluated at x = self.v.
        """
        m = self.order
        v = derivs[0]
        g = h = t = None
        if m >= 1:
            g = derivs[1] * self.g
        if m >= 2:
            d, n = self.g.shape
            gg = self.g[:, None] * self.g
            h = _tier((d, d, n), [
                _product(derivs[1], self.h),
                _product(derivs[2], gg),
            ])
        if m >= 3:
            t = _tier((d, d, d, n), [
                _product(derivs[1], self.t),
                _sym_hg([_hg(self.h, self.g)], derivs[2]),
                _product(gg[:, :, None], self.g, derivs[3]),
            ])
        return Jet(m, v, g, h, t)

    def reciprocal(self):
        x = self.v
        d = [1.0 / x]
        if self.order >= 1:
            d.append(-d[0] / x)
        if self.order >= 2:
            d.append(-2.0 * d[1] / x)
        if self.order >= 3:
            d.append(-3.0 * d[2] / x)
        return self.chain(d)

    def exp(self):
        e = np.exp(self.v)
        return self.chain([e] * (self.order + 1))

    def log(self):
        x = self.v
        d = [np.log(x)]
        if self.order >= 1:
            d.append(1.0 / x)
        if self.order >= 2:
            d.append(-1.0 / x**2)
        if self.order >= 3:
            d.append(2.0 / x**3)
        return self.chain(d)

    def sin(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self.chain([s, c, -s, -c][: self.order + 1])

    def cos(self):
        s, c = np.sin(self.v), np.cos(self.v)
        return self.chain([c, -s, -c, s][: self.order + 1])

    def sqrt(self):
        r = np.sqrt(self.v)
        d = [r]
        if self.order >= 1:
            d.append(0.5 / r)
        if self.order >= 2:
            d.append(-0.25 / (r * self.v))
        if self.order >= 3:
            d.append(0.375 / (r * self.v**2))
        return self.chain(d)


def compose_multi(outer, inners, order):
    """Chain rule for outer(Y_1(x), ..., Y_k(x)).

    ``outer`` is the jet of the outer function with respect to the target
    chart (dimension k), evaluated at the mapped points; ``inners`` is the
    list of k jets of the component functions with respect to the source
    chart.  Returns the jet of the composite with respect to the source
    chart.  Terms whose outer or inner tier is absent are left out; an
    absent inner tier among present ones is stacked as zeros.
    """
    m = order
    Yg = Yh = Yt = None
    if m >= 1:
        Yg = np.stack([y.g for y in inners])  # (k, ds, N)
    if m >= 2:
        Yh = _stack_tier([y.h for y in inners])  # (k, ds, ds, N)
    if m >= 3:
        Yt = _stack_tier([y.t for y in inners])  # (k, ds, ds, ds, N)

    v = outer.v
    g = h = t = None
    if m >= 1:
        g = np.einsum("an,apn->pn", outer.g, Yg)
    if m >= 2:
        h = _lsum(
            None if Yh is None else np.einsum("an,apqn->pqn", outer.g, Yh),
            None if outer.h is None else np.einsum("abn,apn,bqn->pqn", outer.h, Yg, Yg),
        )
    if m >= 3:
        cross = None
        if outer.h is not None and Yh is not None:
            cross = np.einsum("abn,apqn,brn->pqrn", outer.h, Yh, Yg)
        t = _lsum(
            None if Yt is None else np.einsum("an,apqrn->pqrn", outer.g, Yt),
            cross,
            None if cross is None else cross.transpose(0, 2, 1, 3),
            None if cross is None else cross.transpose(2, 0, 1, 3),
            None if outer.t is None
            else np.einsum("abcn,apn,bqn,crn->pqrn", outer.t, Yg, Yg, Yg),
        )
    return Jet(m, v, g, h, t)


def _stack_tier(tiers):
    """Stack the inners' tiers on a new first axis, zeros for absent ones;
    None if all are."""
    present = [x for x in tiers if x is not None]
    if not present:
        return None
    zero = np.zeros_like(present[0])
    return np.stack([zero if x is None else x for x in tiers])

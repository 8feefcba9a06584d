"""Scalar fields, vector fields and smooth point maps on a real chart.

A ScalarField wraps a jet-evaluation closure; algebra on fields builds an
expression DAG that is evaluated lazily.  Evaluation goes through a Ctx so
that shared subexpressions (a radius field appearing in fifty coefficients,
a quadrature node appearing in every term of a sum) are computed once per
point batch.  ``evaluate`` (jets) and ``stacked`` (real value and gradient
arrays) are the one entry point from sample points: every caller outside
this module evaluates through them, one fresh Ctx per call.  Inside a
``session`` block they (and ``PointMap.__call__``) instead share one Ctx
per point batch, so checks on the same points reuse each other's jets.
A Ctx answers a request for a lower order from a cached higher-order jet of
the same field, truncated, so on one batch a field's closure runs once, at
the first order asked for, and again only for a higher one.
Fields may take complex values; chart coordinates are always real, ordered
x1, y1, ..., xn, yn with z_j = x_j + i y_j.

A stacked family evaluates many members as one batch along the point axis:
a field on the images of the points under many affine maps (the nodes of
``affine_quadrature_family``), or one term under many constant
coefficients (the hopf_nondiag deck series, whose per-row constants
multiply each tier as a scalar would).  ``_eval_in_blocks`` evaluates a
list of fields on the stacked rows in blocks of at most ``_block_rows``
rows, one Ctx per block shared by every field, and a block may be given
the jets of some leaves instead of computing them.  Each member's output
is then reduced in its own order.  Every jet operation acts row by row,
so each output equals the member-by-member evaluation bit for bit.

A field built by ``constant`` records its value in ``const``, and the
algebra folds constants when the DAG is built, so a structurally zero term
is never evaluated and a constant factor grows no zero tier:

- ``f * 0`` and ``f * constant(0)`` (either side) are ``constant(0.0)``;
  ``f * 1`` and ``f * constant(1)`` are f itself.  Any other constant
  field c scales f as the product rule does with c's jet: the value in the
  operands' order, c * tier for each derivative tier, an absent tier
  left absent.
- ``f + 0`` and ``f - 0`` are f; any other constant field is added or
  subtracted as its value, so the sum shares f's tiers, and
  ``f / constant(c)`` is ``f * (1 / constant(c))``.
- Two constants (or a constant and a scalar) combine to a constant whose
  value is the operation on one-point jets, rounded as at every point.
- ``partial`` of a constant is ``constant(0.0)``; ``nsum`` drops terms of
  weight 0 and zero constants, adds a term of real weight 1 without a
  multiply, and a one-term sum with a real weight w (1 when unweighted) is
  ``f * w``, so f itself at w = 1.  A complex weight, 1 + 0j included,
  always multiplies, so the sum is complex.
  A ``Form`` built by ``forms._gather`` omits coefficients that fold to
  ``constant(0.0)``.
- ``constant(0.0, dim)`` is one shared node per chart dimension, so every
  fold to a real +0.0 returns it and builds nothing; ``constant(-0.0)``
  and complex zeros are nodes of their own, so the sign of a zero and the
  dtype never change.

Folding is exact for finite values, except for the sign of a zero: the
unfolded rule adds c's zero tiers (and 0 * f), which may turn a -0.0 into
+0.0 or back, and a function that tells the zeros apart (``log``, ``sqrt``,
``1/x``) shows it.  ``constant(0) * f`` is 0 where f is inf or NaN, where
the unfolded product gave NaN; the same holds for a dropped ``nsum`` term.
"""

from __future__ import annotations

import contextvars
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .jets import MAX_ORDER, Jet, JetOrderError, compose_multi

_uid = itertools.count(1)


class Ctx:
    """Evaluation context: a point batch plus a per-batch jet cache."""

    __slots__ = ("pts", "cache", "submaps")

    def __init__(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        self.pts = pts
        self.cache = {}
        self.submaps = {}

    def sub(self, pmap):
        ctx = self.submaps.get(pmap.uid)
        if ctx is None:
            ctx = Ctx(pmap.values_from_ctx(self))
            self.submaps[pmap.uid] = ctx
        return ctx


# The contexts of the innermost open session, keyed by (shape, bytes) of
# their points; None outside a session.  A context variable, so a thread
# started inside a session evaluates on fresh contexts of its own.
_POOL = contextvars.ContextVar("lcklab_evaluation_session", default=None)


class session:
    """Scope in which evaluations on byte-identical point batches share
    one Ctx, with its cached jets and deck sub-contexts.

    ``with session(): ...``; the contexts are dropped on exit, also after
    an exception.  A nested session pools its own contexts and restores
    the outer one's on exit.
    """

    def __enter__(self):
        self._token = _POOL.set({})
        return self

    def __exit__(self, *exc):
        _POOL.reset(self._token)


def _context(pts):
    """The session's Ctx for the batch ``pts``, or a fresh one outside a
    session."""
    pool = _POOL.get()
    if pool is None:
        return Ctx(pts)
    pts = np.asarray(pts, dtype=np.float64)
    key = (pts.shape, pts.tobytes())
    ctx = pool.get(key)
    if ctx is None:
        ctx = pool[key] = Ctx(pts)
    return ctx


def as_batch(pts, dim):
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[1] != dim:
        raise ValueError(f"points have dim {pts.shape[1]}, chart has dim {dim}")
    return pts


class ScalarField:
    __slots__ = ("dim", "_fn", "uid", "const")

    def __init__(self, dim: int, fn: Callable, const=None):
        self.dim = dim
        self._fn = fn
        self.uid = next(_uid)
        # the value of a constant field, None for any other field
        self.const = const

    # -- evaluation -----------------------------------------------------

    def eval(self, ctx: Ctx, order: int) -> Jet:
        """The order-``order`` jet of this field on ``ctx``'s points, cached
        in ``ctx`` under (uid, order).  On a miss, a cached jet of a higher
        order is served truncated (its arrays shared, the tiers above
        ``order`` dropped), so the closure runs only when no order at or
        above ``order`` is cached.  Exact: no tier depends on a higher one.
        """
        cache = ctx.cache
        jet = cache.get((self.uid, order))
        if jet is None:
            for k in range(order + 1, MAX_ORDER + 1):
                top = cache.get((self.uid, k))
                if top is not None:
                    jet = top.truncate(order)
                    break
            else:
                jet = self._fn(ctx, order)
            cache[self.uid, order] = jet
        return jet

    def jet(self, pts, order):
        return evaluate([self], as_batch(pts, self.dim), order)[0]

    def values(self, pts):
        return self.jet(pts, 0).v

    # -- algebra ----------------------------------------------------------

    def _binary(self, other, op):
        """op(self, other) for a field or scalar ``other``; a constant and
        a constant or scalar fold to a constant."""
        if self.const is not None and _value(other) is not None:
            return constant(op(_point(self), _point(other)).v[0].item(), self.dim)
        if isinstance(other, ScalarField):
            return ScalarField(self.dim, lambda c, m: op(self.eval(c, m), other.eval(c, m)))
        return ScalarField(self.dim, lambda c, m: op(self.eval(c, m), other))

    def __add__(self, other):
        b = _value(other)
        if b == 0:
            return self
        if b is None and self.const is not None:
            return other + self.const
        return self._binary(other if b is None else b, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        b = _value(other)
        if b == 0:
            return self
        if b is None and self.const is not None:
            return other.__rsub__(self.const)
        return self._binary(other if b is None else b, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        a, b = self.const, _value(other)
        if a == 0 or b == 0:
            return constant(0.0, self.dim)
        if b == 1:
            return self
        if a == 1 and b is None:
            return other
        if a is not None and b is None:
            return _scaled(other, a, True)
        if a is None and b is not None and isinstance(other, ScalarField):
            return _scaled(self, b, False)
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self.const is None and isinstance(other, ScalarField) and other.const is not None:
            return self * (1.0 / other)
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return ScalarField(self.dim, lambda c, m: -self.eval(c, m))

    def __pow__(self, k: int):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m) ** k)

    def exp(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).exp())

    def log(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).log())

    def sin(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).sin())

    def cos(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).cos())

    def sqrt(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).sqrt())

    def real_part(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).real())

    def imag_part(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).imag())

    def conjugate(self):
        return ScalarField(self.dim, lambda c, m: self.eval(c, m).conj())

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int):
        """Exact coordinate-derivative field d/dx_i (one jet order deeper)."""
        if self.const is not None:
            return constant(0.0, self.dim)

        def fn(ctx, m):
            if m + 1 > MAX_ORDER:
                raise JetOrderError(
                    "derivative chain exceeds supported jet depth "
                    f"({m + 1} > {MAX_ORDER})"
                )
            return self.eval(ctx, m + 1).partial(i)

        return ScalarField(self.dim, fn)

    @staticmethod
    def nsum(fields: Sequence["ScalarField"], weights=None):
        fields = list(fields)
        if not fields:
            raise ValueError("empty sum")
        dim = fields[0].dim
        if weights is None:
            weights = [1.0] * len(fields)
        terms = [(f, w) for f, w in zip(fields, weights) if f.const != 0 and w != 0]
        if not terms:
            return constant(0.0, dim)
        if len(terms) == 1 and not isinstance(terms[0][1], complex):
            return terms[0][0] * terms[0][1]

        def fn(ctx, m):
            acc = None
            for f, w in terms:
                x = f.eval(ctx, m)
                # a real weight 1 adds its term as it is; 1 + 0j still
                # multiplies, so the sum is complex
                if w != 1 or isinstance(w, complex):
                    x = x * w
                acc = x if acc is None else acc + x
            return acc

        return ScalarField(dim, fn)


def evaluate(fields: Sequence[ScalarField], pts, order: int):
    """Order-``order`` jets of ``fields`` on the batch ``pts``, from one
    Ctx (fresh, or the open session's for these points), so subexpressions
    the fields share are computed once."""
    ctx = _context(pts)
    return [f.eval(ctx, order) for f in fields]


def stacked(fields: Sequence[ScalarField], pts, order: int = 1):
    """Real parts of the values (N, k) and, at order >= 1, of the gradients
    (N, k, d) of the k fields ``fields`` on ``pts`` (gradients None at 0)."""
    jets = evaluate(fields, pts, order)
    vals = np.real(np.column_stack([j.v for j in jets]))
    return vals, (np.real(np.stack([j.g.T for j in jets], axis=1)) if order else None)


# the one +0.0 node of each chart dimension, built on first use
_ZEROS = {}


def constant(value, dim) -> ScalarField:
    """The constant field ``value``; a real +0.0 is one shared node per
    chart dimension, while -0.0 and complex zeros get nodes of their own,
    so the sign of a zero and the dtype never change."""
    shared = isinstance(value, float) and value == 0 and math.copysign(1.0, value) > 0
    if shared and dim in _ZEROS:
        return _ZEROS[dim]
    field = ScalarField(dim, lambda c, m: Jet.constant(value, c.pts.shape[0], dim, m),
                        const=value)
    if shared:
        _ZEROS[dim] = field
    return field


def _value(x):
    """The value of a constant field or scalar x; None for another field."""
    return x.const if isinstance(x, ScalarField) else x


def _point(x):
    """A constant field as its jet at one point, a scalar as itself."""
    return Jet.constant(x.const, 1, 0, 0) if isinstance(x, ScalarField) else x


def _scaled(f: ScalarField, c, c_first: bool) -> ScalarField:
    """c * f (``c_first``) or f * c for the value c of a constant field, as
    the product rule forms it from c's jet: the value in the operands'
    order, every derivative tier as c * tier (a complex product may round
    differently with its factors swapped), an absent tier left absent."""

    def fn(ctx, m):
        x = f.eval(ctx, m)
        return Jet(m, c * x.v if c_first else x.v * c,
                   *[None if y is None else c * y for y in (x.g, x.h, x.t)[:m]])

    return ScalarField(f.dim, fn)


def coordinate(i, dim) -> ScalarField:
    return ScalarField(dim, lambda c, m: Jet.coordinate(c.pts, i, m))


def complex_coordinate(j, dim) -> ScalarField:
    """The complex chart function z_j = x_j + i y_j as a complex field."""
    return coordinate(2 * j, dim) + 1j * coordinate(2 * j + 1, dim)


def lift_univariate(inner: ScalarField, derivs_fn: Callable) -> ScalarField:
    """Compose a univariate function (given by a derivative table) with a field.

    ``derivs_fn(x, order)`` must return [u(x), u'(x), ..., u^(order)(x)] as
    arrays for an array argument x.
    """

    def fn(ctx, m):
        x = inner.eval(ctx, m)
        return x.chain(derivs_fn(x.v, m))

    return ScalarField(inner.dim, fn)


class PointMap:
    """A smooth map between real charts, given by component scalar fields."""

    __slots__ = ("dim_in", "dim_out", "components", "uid")

    def __init__(self, components: Sequence[ScalarField]):
        self.components = tuple(components)
        self.dim_in = self.components[0].dim
        self.dim_out = len(self.components)
        self.uid = next(_uid)

    def __call__(self, pts):
        return self.values_from_ctx(_context(as_batch(pts, self.dim_in)))

    def values_from_ctx(self, ctx):
        cols = [comp.eval(ctx, 0).v for comp in self.components]
        out = np.column_stack(cols)
        if np.iscomplexobj(out):
            if np.abs(out.imag).max() > 1e-9:
                raise ValueError("point map produced non-real coordinates")
            out = out.real
        return out

    def jacobian(self, pts):
        """(N, dim_out, dim_in) Jacobians at the sample points."""
        return stacked(self.components, as_batch(pts, self.dim_in))[1]

    @staticmethod
    def identity(dim):
        return PointMap([coordinate(i, dim) for i in range(dim)])

    @staticmethod
    def affine(M, b):
        """The map x -> M x + b: component i is sum_j M[i, j] x_j + b[i],
        zero terms folded away; the rows share one field per coordinate."""
        xs = [coordinate(j, M.shape[1]) for j in range(M.shape[1])]
        return PointMap([ScalarField.nsum(xs, row) + off for row, off in zip(M, b)])

    @staticmethod
    def from_complex(components):
        """Build a real point map from complex component fields (z'_j)."""
        comps = []
        for zc in components:
            comps.append(zc.real_part())
            comps.append(zc.imag_part())
        return PointMap(comps)


def compose_field(field: ScalarField, pmap: PointMap) -> ScalarField:
    """The pullback field (f o phi) with exact chain-rule jets."""

    def fn(ctx, m):
        inners = [comp.eval(ctx, m) for comp in pmap.components]
        inners = [j.real() if np.iscomplexobj(j.v) else j for j in inners]
        sub = ctx.sub(pmap)
        outer = field.eval(sub, m)
        return compose_multi(outer, inners, m)

    return ScalarField(pmap.dim_in, fn)


# Most node-stacked points one Ctx of an affine quadrature evaluates at once.
# Every jet operation acts row by row, so the blocks change no result; they
# bound the intermediates of f's DAG that a Ctx caches to this many rows.
_QUAD_POINT_BUDGET = 1024
# Most entries of one block's top tier (d**order per row): 0.5 MiB of float64.
# It shrinks the blocks only where that tier is large, as at order 3 and d = 6.
_QUAD_TIER_BUDGET = 2**16


def _block_rows(dim: int, order: int) -> int:
    """Rows per block of an order-``order`` integrand on a dim-d chart."""
    return max(1, min(_QUAD_POINT_BUDGET, _QUAD_TIER_BUDGET // dim**order))


def _eval_in_blocks(fields: Sequence[ScalarField], pts, order: int, given=None):
    """The order-``order`` jets of ``fields`` on the rows of pts, evaluated in
    contiguous blocks of ``_block_rows`` rows (at most _QUAD_POINT_BUDGET,
    fewer where a block's top tier would pass _QUAD_TIER_BUDGET entries),
    each on one fresh Ctx that every field shares and that is dropped before
    the next block starts.  ``given(rows)``, when set, returns {field: jet}
    for the block ``pts[rows]``: the block's Ctx starts with those jets, so
    those fields' closures never run."""
    n, d = pts.shape
    size = _block_rows(d, order)
    blocks = []
    # an empty batch is evaluated as one empty block
    for start in range(0, max(n, 1), size):
        rows = slice(start, min(start + size, n))
        ctx = Ctx(pts[rows])
        if given is not None:
            for f, jet in given(rows).items():
                ctx.cache[f.uid, order] = jet
        blocks.append([f.eval(ctx, order) for f in fields])
        # the block's intermediates go now, not when the next block's Ctx
        # replaces this one or, after the last block, after the concatenation
        del ctx
    if len(blocks) == 1:
        return blocks[0]
    # every tier holds its points on the last axis
    return [Jet(order, *[None if getattr(parts[0], k) is None
                         else np.concatenate([getattr(b, k) for b in parts], axis=-1)
                         for k in "vght"])
            for parts in zip(*blocks)]


def affine_quadrature_field(f: ScalarField, mats, offsets, weights) -> ScalarField:
    """sum_s w_s (f o A_s) for affine maps A_s x = M_s x + b_s, vectorized:
    the one-member, one-output ``affine_quadrature_family``."""
    return affine_quadrature_family([f], mats, offsets, [[(0, weights)]])[0]


def affine_quadrature_family(fields: Sequence[ScalarField], mats, offsets,
                             outputs) -> list:
    """One field per entry of ``outputs``: output i is the sum, over its
    (j, w) pairs in order, of sum_s w_s (fields[j] o A_s) for the affine maps
    A_s x = M_s x + b_s.

    Like every jet, an output holds its tiers points-last: g (d, N),
    h (d, d, N), t (d, d, d, N) for N points on the d-dimensional chart.
    The node axis is flattened into the evaluation batch, and every member
    is evaluated on it by ``_eval_in_blocks``: blocks of node-stacked points
    (``_block_rows``: at most ``_QUAD_POINT_BUDGET``, 303 at order 3 on a
    d = 6 chart), one Ctx per block shared by all members, so each member's
    DAG is walked once per block, not once per node or per output, and the
    subexpressions the members share are computed once.  Constant
    Jacobians make the chain rule three contractions, run for each pair on
    its member's concatenated jet.  The order-1 one runs on a points-first
    copy of the gradients, which fixes its summation order.  The order-2
    and order-3 ones contract one Jacobian factor at a time
    (``optimize=True``), so order 3 costs O(s n d^4) instead of
    O(s n d^6); their results are made C-contiguous where that path
    returns a strided view.  An output's pairs are summed left to right,
    as ``ScalarField.nsum`` adds unit-weight terms.

    Whichever output a Ctx evaluates first computes all of them and caches
    each under its own (uid, order), so the others are cache hits there and
    every lower order is served from those jets.  Each block's sub-context
    lives for that block only, so at most one block of intermediates of
    the members is alive at a time.
    """
    mats = np.asarray(mats, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    outputs = [[(j, np.asarray(w, dtype=float)) for j, w in pairs] for pairs in outputs]
    s, d = mats.shape[:2]

    def contract(F, weights, n, m):
        v = np.einsum("s,sn->n", weights, F.v.reshape(s, n))
        g = h = t = None
        if m >= 1:
            # contracted on a points-first copy: c_einsum takes the order
            # in which it sums over a and s from the operands' layout, and
            # a points-last operand moves the orbit residuals' last bits
            G = np.ascontiguousarray(F.g.T).reshape(s, n, d)
            g = np.ascontiguousarray(np.einsum("s,sna,sap->np", weights, G, mats).T)
        if m >= 2 and F.h is not None:
            H = F.h.reshape(d, d, s, n)
            h = np.ascontiguousarray(np.einsum(
                "s,absn,sap,sbq->pqn", weights, H, mats, mats, optimize=True))
        if m >= 3 and F.t is not None:
            T = F.t.reshape(d, d, d, s, n)
            t = np.ascontiguousarray(np.einsum(
                "s,abcsn,sap,sbq,scr->pqrn", weights, T, mats, mats, mats,
                optimize=True))
        return Jet(m, v, g, h, t)

    def fn(ctx, m):
        pts = ctx.pts
        n = pts.shape[0]
        big = np.einsum("sij,nj->sni", mats, pts) + offsets[:, None, :]
        F = _eval_in_blocks(fields, big.reshape(s * n, d), m)
        jets = []
        for uid, pairs in zip(uids, outputs):
            acc = None
            for j, weights in pairs:
                x = contract(F[j], weights, n, m)
                acc = x if acc is None else acc + x
            ctx.cache[uid, m] = acc
            jets.append(acc)
        return jets

    quads = [ScalarField(d, lambda c, m, i=i: fn(c, m)[i]) for i in range(len(outputs))]
    # the outputs' uids, not the fields: a field referenced from its own
    # closure would be a reference cycle, freed only by the cyclic collector
    uids = [q.uid for q in quads]
    return quads


class VectorField:
    """A vector field in the coordinate frame, components as scalar fields."""

    __slots__ = ("dim", "components", "name")

    def __init__(self, components: Sequence[ScalarField], name=""):
        self.components = tuple(components)
        self.dim = self.components[0].dim
        self.name = name

    def values(self, pts):
        return stacked(self.components, as_batch(pts, self.dim), 0)[0]

    @staticmethod
    def linear_combination(fields, coeffs, name=""):
        dim = fields[0].dim
        comps = []
        for i in range(dim):
            comps.append(
                ScalarField.nsum([f.components[i] for f in fields], weights=list(coeffs))
            )
        return VectorField(comps, name=name)

    @staticmethod
    def from_holomorphic(hol_components, name=""):
        """Real field Z + Zbar of a holomorphic field with components h_j(z).

        ``hol_components`` are complex scalar fields; the chart convention
        Re(d/dz_j) = d/dx_j makes the real components (Re h_j, Im h_j).
        """
        return VectorField(PointMap.from_complex(hol_components).components, name=name)


def bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Lie bracket [X, Y] from exact component derivatives."""
    comps = []
    for i in range(X.dim):
        terms = []
        weights = []
        for j in range(X.dim):
            terms.append(X.components[j] * Y.components[i].partial(j))
            weights.append(1.0)
            terms.append(Y.components[j] * X.components[i].partial(j))
            weights.append(-1.0)
        comps.append(ScalarField.nsum(terms, weights))
    return VectorField(comps, name=f"[{X.name},{Y.name}]")


def complex_multiplier(dim, u):
    """The real matrices of z -> u z on every complex coordinate, one per
    entry of the complex array ``u``: shape u.shape + (dim, dim)."""
    u = np.asarray(u, dtype=complex)
    M = np.zeros(u.shape + (dim, dim))
    for j in range(dim // 2):
        M[..., 2 * j, 2 * j] = u.real
        M[..., 2 * j, 2 * j + 1] = -u.imag
        M[..., 2 * j + 1, 2 * j] = u.imag
        M[..., 2 * j + 1, 2 * j + 1] = u.real
    return M


def complex_jmatrix(dim):
    """The constant complex-structure matrix, multiplication by i:
    J d/dx_j = d/dy_j and J d/dy_j = -d/dx_j on vectors."""
    return complex_multiplier(dim, 1j)


def apply_J_vector(X: VectorField) -> VectorField:
    """JX: (JX)_{2j} = -X_{2j+1} and (JX)_{2j+1} = X_{2j}."""
    comps = []
    for j in range(X.dim // 2):
        comps += [-1.0 * X.components[2 * j + 1], X.components[2 * j]]
    return VectorField(comps, name=f"J{X.name}")

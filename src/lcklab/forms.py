"""Exterior calculus on coordinate charts of R^{2n} ~ C^n.

Forms are stored over one coframe, the real dx_1, dy_1, ..., dx_n, dy_n,
with strictly increasing multi-indices (antisymmetry is structural); a
coefficient may take complex values.  d^c is computed there as J d J^{-1}
with J acting on every slot, independently of the commutator [J, d] that
the test suite checks it against, where J acts as a derivation.

Sign conventions, fixed once:
  (J alpha)(X) = -alpha(JX) on 1-forms, so J dx = dy and d^c f = J(df);
  ``apply_J`` extends J to higher degree as a derivation, vanishing on
  functions; d^c extends it slot by slot, so d^c = i(delbar - del) and
  dd^c |z|^2 = 2i sum dz_j ^ dzbar_j = 4 sum dx_j ^ dy_j > 0.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .fields import (
    PointMap,
    ScalarField,
    VectorField,
    as_batch,
    compose_field,
    constant,
    evaluate,
)

Index = Tuple[int, ...]


class FormDegreeError(ValueError):
    pass


def _merge_indices(a: Index, b: Index):
    """Merge two strictly increasing tuples; returns (sign, merged) or None."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining entries of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def _insert_index(idx: Index, j: int):
    """Insert j into a strictly increasing tuple; returns (sign, merged) or None."""
    return _merge_indices((j,), idx)


class Form:
    """A degree-k differential form with scalar-field coefficients."""

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim, degree, coeffs: Dict[Index, ScalarField] | None = None):
        self.dim = dim
        self.degree = degree
        self.coeffs = coeffs or {}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(dim, degree):
        return Form(dim, degree, {})

    @staticmethod
    def from_function(f: ScalarField):
        return Form(f.dim, 0, {(): f})

    @staticmethod
    def basis(dim, idx: Index):
        idx = tuple(idx)
        return Form(dim, len(idx), {idx: constant(1.0, dim)})

    def copy_with(self, coeffs):
        return Form(self.dim, self.degree, coeffs)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        self._check_partner(other, same_degree=True)
        coeffs = dict(self.coeffs)
        for idx, f in other.coeffs.items():
            coeffs[idx] = coeffs[idx] + f if idx in coeffs else f
        return self.copy_with(coeffs)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c):
        """Multiply by a constant or a scalar field."""
        return self.copy_with({idx: f * c for idx, f in self.coeffs.items()})

    @staticmethod
    def nsum(forms: Sequence["Form"], weights=None):
        forms = list(forms)
        weights = [1.0] * len(forms) if weights is None else weights
        return _gather(forms[0].dim, forms[0].degree, (
            (idx, f, w) for a, w in zip(forms, weights) for idx, f in a.coeffs.items()))

    def _check_partner(self, other, same_degree=False):
        if self.dim != other.dim:
            raise ValueError("forms live on different charts")
        if same_degree and self.degree != other.degree:
            raise FormDegreeError("degree mismatch")

    # -- evaluation --------------------------------------------------------

    def coefficient_values(self, pts):
        jets = evaluate(self.coeffs.values(), as_batch(pts, self.dim), 0)
        return {idx: j.v for idx, j in zip(self.coeffs, jets)}

    def max_abs(self, pts) -> float:
        vals = self.coefficient_values(pts)
        # np.max, as builtin max would drop a NaN that is not first
        return float(np.max([np.abs(v).max() for v in vals.values()], initial=0.0))


def _gather(dim, degree, terms) -> Form:
    """The form whose coefficient at each index is the weighted sum of the
    ``(idx, field, weight)`` terms landing there, in arrival order; a
    coefficient that folds to ``constant(0.0)`` is left out."""
    groups: Dict[Index, tuple] = {}
    for idx, f, w in terms:
        fields, weights = groups.setdefault(idx, ([], []))
        fields.append(f)
        weights.append(w)
    sums = {idx: ScalarField.nsum(fs, ws) for idx, (fs, ws) in groups.items()}
    return Form(dim, degree, {idx: f for idx, f in sums.items() if f.const != 0})


# -- wedge, d, interior, Lie, pullback ----------------------------------


def wedge(a: Form, b: Form) -> Form:
    a._check_partner(b)
    degree = a.degree + b.degree
    if degree > a.dim:
        return Form.zero(a.dim, degree)
    return _gather(a.dim, degree, (
        (m[1], fa * fb, float(m[0]))
        for ia, fa in a.coeffs.items() for ib, fb in b.coeffs.items()
        if (m := _merge_indices(ia, ib)) is not None))


def exterior_d(a: Form) -> Form:
    return _gather(a.dim, a.degree + 1, (
        (ins[1], f.partial(j), float(ins[0]))
        for idx, f in a.coeffs.items() for j in range(a.dim)
        if (ins := _insert_index(idx, j)) is not None))


def interior_product(X: VectorField, a: Form) -> Form:
    if a.degree == 0:
        raise FormDegreeError("cannot contract a function")
    return _gather(a.dim, a.degree - 1, (
        (idx[:pos] + idx[pos + 1 :], f * X.components[i], float((-1) ** pos))
        for idx, f in a.coeffs.items() for pos, i in enumerate(idx)))


def apply_J(a: Form) -> Form:
    """The derivation extension of J: J dx_j = dy_j, J dy_j = -dx_j, J f = 0."""
    if a.degree == 0:
        return Form.zero(a.dim, 0)

    def terms():
        for idx, f in a.coeffs.items():
            for pos, i in enumerate(idx):
                repl, factor = (i + 1, 1.0) if i % 2 == 0 else (i - 1, -1.0)
                ins = _insert_index(idx[:pos] + idx[pos + 1 :], repl)
                if ins is not None:
                    # moving the slot out of position pos costs (-1)^pos
                    yield ins[1], f, factor * ins[0] * (-1) ** pos

    return _gather(a.dim, a.degree, terms())


def lie_derivative(X: VectorField, a: Form) -> Form:
    """Cartan formula L_X = d iota_X + iota_X d (X(f) on functions)."""
    if a.degree == 0:
        return interior_product(X, exterior_d(a))
    return exterior_d(interior_product(X, a)) + interior_product(X, exterior_d(a))


def pullback(pmap: PointMap, a: Form) -> Form:
    """phi^* a with exact Jacobians from the map's component fields: each
    d(phi^i) is ``exterior_d`` of the component, so the partials that fold
    to zero are left out before any wedge multiplies by them."""
    if a.dim != pmap.dim_out:
        raise ValueError(
            f"form lives on a dim-{a.dim} chart, map lands in dim {pmap.dim_out}"
        )
    dphi = [exterior_d(Form.from_function(comp)) for comp in pmap.components]
    parts = []
    for idx, f in a.coeffs.items():
        term = Form.from_function(compose_field(f, pmap))
        for i in idx:
            term = wedge(term, dphi[i])
        parts.append(term)
    if not parts:
        return Form.zero(pmap.dim_in, a.degree)
    return Form.nsum(parts)


# -- d^c ------------------------------------------------------------------


def _J_slotwise(a: Form, inverse=False) -> Form:
    """J on every slot, f dx_I -> f (J dx_{i_1}) ^ ... ^ (J dx_{i_k}), with
    J dx_j = dy_j and J dy_j = -dx_j; a function is left as it is."""

    def terms():
        for idx, f in a.coeffs.items():
            # J^2 = (-1)^k on k-forms, so J^{-1} = (-1)^k J
            sign, image = (-1) ** (inverse * a.degree), ()
            for i in idx:
                # J dx_i enters right of the image so far; the merge signs
                # the reorder
                order, image = _merge_indices(image, (i ^ 1,))
                sign *= order * (-1) ** (i % 2)
            yield image, f, float(sign)

    return _gather(a.dim, a.degree, terms())


def dc(a: Form) -> Form:
    """d^c = J d J^{-1} with J acting on every slot, which is i(delbar - del);
    on a function, d^c f = J df."""
    return _J_slotwise(exterior_d(_J_slotwise(a, inverse=True)))


def twisted_d(a: Form, theta: Form) -> Form:
    """d_theta a = da - theta ^ a."""
    if theta.degree != 1:
        raise FormDegreeError("twisting form must be a 1-form")
    return exterior_d(a) - wedge(theta, a)


def dd_c(f: ScalarField) -> Form:
    return exterior_d(dc(Form.from_function(f)))


def twisted_potential_form(f: ScalarField, theta: Form) -> Form:
    """d_theta d^c_theta f for a scalar potential f, where
    d^c_theta f = d^c f - J theta ^ f."""
    if theta.degree != 1:
        raise FormDegreeError("twisting form must be a 1-form")
    a = Form.from_function(f)
    return twisted_d(dc(a) - wedge(apply_J(theta), a), theta)

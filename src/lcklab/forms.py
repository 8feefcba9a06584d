"""Exterior calculus on coordinate charts of R^{2n} ~ C^n.

Forms are stored over the real coframe dx_1, dy_1, ..., dx_n, dy_n with
strictly increasing multi-indices (antisymmetry is structural).  A parallel
"complex" frame over dz_1, dzbar_1, ..., dz_n, dzbar_n (index 2j for dz_j,
2j+1 for dzbar_j) provides the bidegree decomposition; d^c is computed
there as i(delbar - del), independently of the commutator [J, d] that the
test suite checks it against.

Sign conventions, fixed once:
  (J alpha)(X) = -alpha(JX) on 1-forms, so J dx = dy and d^c f = J(df);
  J extends to higher degree as a derivation and vanishes on functions;
  d^c = i(delbar - del), so dd^c |z|^2 = 2i sum dz_j ^ dzbar_j > 0.
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

    __slots__ = ("dim", "degree", "coeffs", "frame")

    def __init__(self, dim, degree, coeffs: Dict[Index, ScalarField] | None = None,
                 frame="real"):
        self.dim = dim
        self.degree = degree
        self.coeffs = coeffs or {}
        self.frame = frame

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(dim, degree, frame="real"):
        return Form(dim, degree, {}, frame)

    @staticmethod
    def from_function(f: ScalarField):
        return Form(f.dim, 0, {(): f})

    @staticmethod
    def basis(dim, idx: Index):
        idx = tuple(idx)
        return Form(dim, len(idx), {idx: constant(1.0, dim)})

    def copy_with(self, coeffs):
        return Form(self.dim, self.degree, coeffs, self.frame)

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
        return _gather(forms[0].dim, forms[0].degree, forms[0].frame, (
            (idx, f, w) for a, w in zip(forms, weights) for idx, f in a.coeffs.items()))

    def _check_partner(self, other, same_degree=False):
        if self.dim != other.dim or self.frame != other.frame:
            raise ValueError("forms live on different charts or frames")
        if same_degree and self.degree != other.degree:
            raise FormDegreeError("degree mismatch")

    # -- evaluation --------------------------------------------------------

    def coefficient_values(self, pts):
        jets = evaluate(self.coeffs.values(), as_batch(pts, self.dim), 0)
        return {idx: j.v for idx, j in zip(self.coeffs, jets)}

    def max_abs(self, pts) -> float:
        vals = self.coefficient_values(pts)
        if not vals:
            return 0.0
        return max(float(np.abs(v).max()) for v in vals.values())


def _gather(dim, degree, frame, terms) -> Form:
    """The form whose coefficient at each index is the weighted sum of the
    ``(idx, field, weight)`` terms landing there, in arrival order; a
    coefficient that folds to ``constant(0.0)`` is left out."""
    groups: Dict[Index, tuple] = {}
    for idx, f, w in terms:
        fields, weights = groups.setdefault(idx, ([], []))
        fields.append(f)
        weights.append(w)
    sums = {idx: ScalarField.nsum(fs, ws) for idx, (fs, ws) in groups.items()}
    return Form(dim, degree, {idx: f for idx, f in sums.items() if f.const != 0}, frame)


# -- wedge, d, interior, Lie, pullback ----------------------------------


def wedge(a: Form, b: Form) -> Form:
    a._check_partner(b)
    degree = a.degree + b.degree
    if degree > a.dim:
        return Form.zero(a.dim, degree, a.frame)
    return _gather(a.dim, degree, a.frame, (
        (m[1], fa * fb, float(m[0]))
        for ia, fa in a.coeffs.items() for ib, fb in b.coeffs.items()
        if (m := _merge_indices(ia, ib)) is not None))


def exterior_d(a: Form) -> Form:
    if a.frame != "real":
        raise ValueError("exterior_d acts on real-frame forms")
    return _gather(a.dim, a.degree + 1, "real", (
        (ins[1], f.partial(j), float(ins[0]))
        for idx, f in a.coeffs.items() for j in range(a.dim)
        if (ins := _insert_index(idx, j)) is not None))


def interior_product(X: VectorField, a: Form) -> Form:
    if a.degree == 0:
        raise FormDegreeError("cannot contract a function")
    return _gather(a.dim, a.degree - 1, a.frame, (
        (idx[:pos] + idx[pos + 1 :], f * X.components[i], float((-1) ** pos))
        for idx, f in a.coeffs.items() for pos, i in enumerate(idx)))


def apply_J(a: Form) -> Form:
    """The derivation extension of J: J dx_j = dy_j, J dy_j = -dx_j, J f = 0."""
    if a.frame != "real":
        raise ValueError("apply_J acts on real-frame forms")
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

    return _gather(a.dim, a.degree, "real", terms())


def lie_derivative(X: VectorField, a: Form) -> Form:
    """Cartan formula L_X = d iota_X + iota_X d (X(f) on functions)."""
    if a.degree == 0:
        return interior_product(X, exterior_d(a))
    return exterior_d(interior_product(X, a)) + interior_product(X, exterior_d(a))


def pullback(pmap: PointMap, a: Form) -> Form:
    """phi^* a with exact Jacobians from the map's component fields."""
    if a.frame != "real":
        raise ValueError("pullback acts on real-frame forms")
    if a.dim != pmap.dim_out:
        raise ValueError(
            f"form lives on a dim-{a.dim} chart, map lands in dim {pmap.dim_out}"
        )
    dim_src = pmap.dim_in
    # d(phi^i) as 1-forms on the source chart
    dphi = {}
    for i in range(pmap.dim_out):
        comp = pmap.components[i]
        coeffs = {(j,): comp.partial(j) for j in range(dim_src)}
        dphi[i] = Form(dim_src, 1, coeffs)
    out = Form.zero(dim_src, a.degree)
    parts = []
    for idx, f in a.coeffs.items():
        term = Form.from_function(compose_field(f, pmap))
        for i in idx:
            term = wedge(term, dphi[i])
        parts.append(term)
    if not parts:
        return out
    return Form.nsum(parts)


# -- complex frame and d^c ------------------------------------------------


def to_complex(a: Form) -> Form:
    """Rewrite a real-frame form over the dz/dzbar coframe."""
    if a.frame != "real":
        raise ValueError("form is already complex-frame")
    # dx_j = (dz_j + dzbar_j)/2 ; dy_j = -(i/2)(dz_j - dzbar_j)
    expansion = {}
    for j in range(a.dim // 2):
        expansion[2 * j] = [(2 * j, 0.5), (2 * j + 1, 0.5)]
        expansion[2 * j + 1] = [(2 * j, -0.5j), (2 * j + 1, 0.5j)]
    return _change_frame(a, expansion, "complex")


def to_real(a: Form) -> Form:
    """Rewrite a complex-frame form over the real coframe, keeping the real
    part of each coefficient (the form is taken to be real)."""
    if a.frame != "complex":
        raise ValueError("form is already real-frame")
    # dz_j = dx_j + i dy_j ; dzbar_j = dx_j - i dy_j
    expansion = {}
    for j in range(a.dim // 2):
        expansion[2 * j] = [(2 * j, 1.0), (2 * j + 1, 1.0j)]
        expansion[2 * j + 1] = [(2 * j, 1.0), (2 * j + 1, -1.0j)]
    out = _change_frame(a, expansion, "real")
    return out.copy_with({i: f.real_part() for i, f in out.coeffs.items()})


def _change_frame(a: Form, expansion, new_frame) -> Form:
    if a.degree == 0:
        return Form(a.dim, 0, dict(a.coeffs), new_frame)

    def expanded():
        for idx, f in a.coeffs.items():
            terms = [(1.0, ())]
            for i in idx:
                new_terms = []
                for w, sofar in terms:
                    for tgt, coef in expansion[i]:
                        ins = _insert_index(sofar, tgt)
                        if ins is None:
                            continue
                        sign, nidx = ins
                        # the new factor enters to the right of len(sofar)
                        # placed ones; _insert_index signs a left insertion
                        new_terms.append((w * coef * sign * (-1) ** len(sofar), nidx))
                terms = new_terms
            yield from ((nidx, f, w) for w, nidx in terms)

    return _gather(a.dim, a.degree, new_frame, expanded())


def _wirtinger(f: ScalarField, j: int, conjugated: bool) -> ScalarField:
    """d/dz_j or d/dzbar_j of a coefficient field on the real chart."""
    fx = f.partial(2 * j)
    fy = f.partial(2 * j + 1)
    if conjugated:
        return (fx + fy * 1j) * 0.5
    return (fx - fy * 1j) * 0.5


def _del_operator(a: Form, conjugated: bool) -> Form:
    if a.frame != "complex":
        raise ValueError("del/delbar act on complex-frame forms")
    return _gather(a.dim, a.degree + 1, "complex", (
        (ins[1], _wirtinger(f, j, conjugated), float(ins[0]))
        for idx, f in a.coeffs.items() for j in range(a.dim // 2)
        if (ins := _insert_index(idx, 2 * j + (1 if conjugated else 0))) is not None))


def del_(a: Form) -> Form:
    return _del_operator(a, conjugated=False)


def del_bar(a: Form) -> Form:
    return _del_operator(a, conjugated=True)


def dc(a: Form) -> Form:
    """d^c = i(delbar - del), computed through the bidegree decomposition."""
    ca = to_complex(a)
    res = del_bar(ca).scale(1.0j) + del_(ca).scale(-1.0j)
    return to_real(res)


def twisted_d(a: Form, theta: Form, conjugated=False) -> Form:
    """d_theta a = da - theta ^ a, or d^c_theta a = d^c a - J theta ^ a."""
    if theta.degree != 1:
        raise FormDegreeError("twisting form must be a 1-form")
    if conjugated:
        return dc(a) - wedge(apply_J(theta), a)
    return exterior_d(a) - wedge(theta, a)


def dd_c(f: ScalarField) -> Form:
    return exterior_d(dc(Form.from_function(f)))


def twisted_potential_form(f: ScalarField, theta: Form) -> Form:
    """d_theta d^c_theta f for a scalar potential f."""
    inner = twisted_d(Form.from_function(f), theta, conjugated=True)
    return twisted_d(inner, theta, conjugated=False)

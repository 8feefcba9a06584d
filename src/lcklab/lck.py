"""Hermitian/LCK structures and their residual verifiers.

All checks are pointwise over seeded sample batches; the norm is the max
absolute coefficient in the coordinate coframe.  The defining identity is
d Omega = theta ^ Omega with theta closed (``twisted_d``); the metric
g = Omega(., J.) is read through ``interior_product`` over the constant
coordinate frame, g_ab = iota_{J e_b} iota_{e_a} Omega; the Lee fields
solve iota_B Omega = J theta and iota_A Omega = -theta with A = JB.

The Riemannian rows (parallel Lee form, co-closed Lee form, Killing Lee
fields) read one ``MetricBundle`` per structure and batch.  They never form
the Christoffel symbols: nabla theta is contracted with u = g^{-1} theta in
O(N d^3) and d* theta = -g^{ab} (nabla_a theta)_b is its trace
(``MetricBundle.nabla_theta``; Dragomir & Ornea, *Locally Conformal
Kaehler Geometry*, Birkhaeuser 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    apply_J_vector,
    as_batch,
    complex_jmatrix,
    constant,
    evaluate,
    stacked,
)
from .forms import (
    Form,
    apply_J,
    exterior_d,
    interior_product,
    twisted_d,
    twisted_potential_form,
    wedge,
)


class LCKStructure:
    """A pair (Omega, theta) on a chart, with cached metric data."""

    def __init__(self, omega: Form, theta: Form,
                 lee_B: Optional[VectorField] = None,
                 lee_A: Optional[VectorField] = None):
        if omega.degree != 2 or theta.degree != 1:
            raise ValueError("need a 2-form and a 1-form")
        self.omega = omega
        self.theta = theta
        self._lee = (lee_B, lee_A) if lee_B is not None else None
        self._metric_fields = None

    @property
    def dim(self):
        return self.omega.dim

    # -- metric ---------------------------------------------------------

    def metric_entry_fields(self):
        """g_ab = Omega(e_a, J e_b) = iota_{J e_b} iota_{e_a} Omega as scalar
        fields, over the constant coordinate frame e (computed once)."""
        if self._metric_fields is None:
            d = self.dim
            zero = constant(0.0, d)
            frame = [VectorField([constant(float(i == a), d) for i in range(d)])
                     for a in range(d)]
            jframe = [apply_J_vector(e) for e in frame]
            self._metric_fields = [
                [interior_product(jeb, row).coeffs.get((), zero) for jeb in jframe]
                for row in (interior_product(ea, self.omega) for ea in frame)]
        return self._metric_fields

    def metric_jets(self, pts):
        """The metric g (d, d, N), points last."""
        pts = as_batch(pts, self.dim)
        return _metric_arrays(evaluate(self.upper_metric_fields(), pts, 0),
                              self.dim, 0)[0]

    def upper_metric_fields(self):
        """The entry fields g_ab with a <= b, row by row."""
        G = self.metric_entry_fields()
        return [G[a][b] for a, b in _upper(self.dim)]

    def theta_components(self):
        """The coefficients theta_i of the Lee form, zero fields filled in."""
        zero = constant(0.0, self.dim)
        return [self.theta.coeffs.get((i,), zero) for i in range(self.dim)]

    def positivity_minima(self, pts):
        g = self.metric_jets(pts)
        return np.linalg.eigvalsh(g.transpose(2, 0, 1))[:, 0]

    # -- Lee fields -------------------------------------------------------

    def lee_pair(self):
        if self._lee is None:
            B = _lee_field_from_metric(self)
            self._lee = (B, apply_J_vector(B))
        return LeePair(B=self._lee[0], A=self._lee[1], structure=self)


@dataclass
class LeePair:
    B: VectorField
    A: VectorField
    structure: LCKStructure

    def defining_residuals(self, pts):
        s = self.structure
        rB = (interior_product(self.B, s.omega) - apply_J(s.theta)).max_abs(pts)
        rA = (interior_product(self.A, s.omega) + s.theta).max_abs(pts)
        jb = apply_J_vector(self.B)
        rJ = float(np.abs(jb.values(pts) - self.A.values(pts)).max())
        return {"iota_B": rB, "iota_A": rA, "A_equals_JB": rJ}

    def norm_squared(self, pts):
        """|B|_g^2 = Omega(B, JB) = iota_JB iota_B Omega at the sample points."""
        pairing = interior_product(apply_J_vector(self.B),
                                   interior_product(self.B, self.structure.omega))
        return np.real(pairing.coefficient_values(pts)[()])


def _eliminate(A, b):
    """Forward elimination without pivoting: the rows of the upper
    triangle (pivot k is ``U[k][k]``) and the reduced right-hand side."""
    n = len(b)
    A = [row[:] for row in A]
    b = b[:]
    for k in range(n):
        piv = A[k][k]
        for i in range(k + 1, n):
            factor = A[i][k] / piv
            for j in range(k + 1, n):
                A[i][j] = A[i][j] - factor * A[k][j]
            b[i] = b[i] - factor * b[k]
    return A, b


def solve_linear_fields(A, b):
    """Solve A x = b in field arithmetic by elimination without pivoting.

    Requires nonvanishing diagonal pivots on the evaluation domain.  For
    a metric matrix G that holds wherever G is positive definite, i.e.
    where its smallest eigenvalue (``LCKStructure.positivity_minima``, the
    ``positivity_min_eig`` rows) is above 0: after k steps the trailing
    block is the Schur complement of G's leading k x k block, a Schur
    complement of a symmetric positive definite matrix is again symmetric
    positive definite, and so its first diagonal entry, pivot k + 1, is
    positive.  (Equivalently, pivot k is the ratio of the leading principal
    minors of orders k and k - 1, all positive by Sylvester's criterion.)
    So where the metric is positive definite, no pivot of the metric solve
    vanishes and pivoting would change only the rounding.
    """
    A, b = _eliminate(A, b)
    n = len(b)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        acc = b[i]
        for j in range(i + 1, n):
            acc = acc - A[i][j] * x[j]
        x[i] = acc / A[i][i]
    return x


def _lee_field_from_metric(s: LCKStructure) -> VectorField:
    # g(B, .) = theta, so B solves G B = theta-vector; SPD diagonal pivots.
    comps = solve_linear_fields(s.metric_entry_fields(), s.theta_components())
    return VectorField(comps, name="B")


# -- residual verifiers ----------------------------------------------------


def lck_residual(s: LCKStructure, pts) -> float:
    """max | d_theta Omega | = max | d Omega - theta ^ Omega | over the samples."""
    return twisted_d(s.omega, s.theta).max_abs(pts)


@dataclass
class ExtractedLeeForm:
    values: np.ndarray  # (N, dim) coefficients of theta at the samples
    residual: float
    is_lck: bool


def extract_lee_form(omega: Form, pts) -> ExtractedLeeForm:
    """Pointwise least-squares solve of d Omega = theta ^ Omega.

    The wedge with Omega is injective on 1-forms for complex dimension at
    least two, so the solve determines theta and its residual certifies the
    LCK identity at the sampled points (``is_lck``: residual below 1e-6).
    """
    d = omega.dim
    if d < 4:
        raise ValueError("Lee form underdetermined on curves")
    pts = as_batch(pts, d)
    n = pts.shape[0]
    dO = exterior_d(omega).coefficient_values(pts)
    # column k holds the coefficients of dx_k ^ Omega, one evaluation for all k
    terms = [(K, k, f) for k in range(d)
             for K, f in wedge(Form.basis(d, (k,)), omega).coeffs.items()]
    jets = evaluate([f for _, _, f in terms], pts, 0)
    rows = {K: r for r, K in enumerate(combinations(range(d), 3))}
    M = np.zeros((n, len(rows), d))
    rhs = np.zeros((n, len(rows)))
    for K, r in rows.items():
        rhs[:, r] = np.real(dO.get(K, np.zeros(n)))
    for (K, k, _), jet in zip(terms, jets):
        M[:, rows[K], k] += np.real(jet.v)
    theta = np.zeros((n, d))
    resid = 0.0
    for i in range(n):
        sol, *_ = np.linalg.lstsq(M[i], rhs[i], rcond=None)
        theta[i] = sol
        resid = max(resid, float(np.abs(M[i] @ sol - rhs[i]).max()))
    return ExtractedLeeForm(values=theta, residual=resid, is_lck=resid < 1e-6)


def _upper(d):
    return [(a, b) for a in range(d) for b in range(a, d)]


def _metric_arrays(jets, d, order):
    """g (d, d, N) and, at order 1, dg (d, d, d, N) with dg[i, a, b] =
    partial_i g_ab, from the jets of the entries g_ab, a <= b, row by row;
    each entry fills whole contiguous rows of N points."""
    n = jets[0].v.shape[0]
    g = np.empty((d, d, n))
    dg = np.empty((d, d, d, n)) if order else None
    for (a, b), jet in zip(_upper(d), jets):
        g[a, b] = g[b, a] = np.real(jet.v)
        if order:
            dg[:, a, b] = dg[:, b, a] = np.real(jet.g)
    return g, dg


class MetricBundle:
    """The metric data that the Riemannian rows of one structure read on
    one point batch, all points last.

    One ``evaluate`` call gives the order-1 jets of the entries g_ab and of
    the Lee coefficients theta_b, so they share one Ctx: ``g`` (d, d, N),
    ``dg`` (d, d, d, N) with dg[i, a, b] = d_i g_ab, ``theta`` (d, N) and
    ``dtheta`` (d, d, N) with dtheta[a, b] = d_a theta_b.  ``ginv`` is
    g^{-1} (d, d, N), one inversion per point, which serves both u = g^{-1}
    theta and the trace of d* theta.  A bundle holds about (d^3 + 4 d^2) N
    doubles: build it where its rows run and drop it after them.
    """

    def __init__(self, s: LCKStructure, pts):
        self.pts = pts = as_batch(pts, s.dim)
        entries = s.upper_metric_fields()
        jets = evaluate([*entries, *s.theta_components()], pts, 1)
        k = len(entries)
        self.g, self.dg = _metric_arrays(jets[:k], s.dim, 1)
        self.theta = np.real(np.stack([j.v for j in jets[k:]]))
        self.dtheta = np.real(np.stack([j.g for j in jets[k:]], axis=1))
        self.ginv = np.linalg.inv(self.g.transpose(2, 0, 1)).transpose(1, 2, 0)

    @cached_property
    def nabla_theta(self):
        """(nabla theta)[a, b] = d_a theta_b - Gamma^k_ab theta_k (d, d, N).

        The Christoffel symbols enter only contracted with theta, so with
        u = g^{-1} theta, x_ab = d_a g_bl u^l and y_ab = d_l g_ab u^l,
        Gamma^k_ab theta_k = (x_ab + x_ba - y_ab) / 2: O(N d^3) instead of
        the O(N d^4) of the full Gamma (Dragomir & Ornea, *Locally
        Conformal Kaehler Geometry*, Birkhaeuser 1998).
        """
        u = np.einsum("lkn,kn->ln", self.ginv, self.theta)
        x = np.einsum("abln,ln->abn", self.dg, u)
        y = np.einsum("labn,ln->abn", self.dg, u)
        return self.dtheta - 0.5 * (x + x.transpose(1, 0, 2) - y)

    def codifferential(self):
        """d* theta = -g^{ab} (nabla_a theta)_b at each point (N,)."""
        return -np.einsum("abn,abn->n", self.ginv, self.nabla_theta)


def vaisman_residual(b: MetricBundle) -> float:
    """max |(nabla_a theta)_b| over the bundle's points."""
    return float(np.abs(b.nabla_theta).max())


def gauduchon_residual(b: MetricBundle) -> float:
    """max |d* theta| = max |g^{ab} (nabla_a theta)_b| over the bundle's points."""
    return float(np.abs(b.codifferential()).max())


def holomorphy_residual(X: VectorField, pts) -> float:
    """max |[X, J e_k] - J [X, e_k]| over coordinate fields and samples."""
    J = complex_jmatrix(X.dim)
    _, dX = stacked(X.components, as_batch(pts, X.dim))  # dX[n, i, j] = d_j X^i
    res = -np.einsum("jk,nij->nik", J, dX) + np.einsum("im,nmk->nik", J, dX)
    return float(np.abs(res).max())


def killing_residual(b: MetricBundle, X: VectorField) -> float:
    """max |X g_ij - g([X, e_i], e_j) - g(e_i, [X, e_j])|
    = max |X^m d_m g_ij + P_ij + P_ji| with P_ij = d_i X^m g_mj."""
    xv, dX = stacked(X.components, b.pts)  # dX[n, m, i] = d_i X^m
    P = np.einsum("nmi,mjn->ijn", dX, b.g)
    lie = np.einsum("nm,mijn->ijn", xv, b.dg) + P + P.transpose(1, 0, 2)
    return float(np.abs(lie).max())


def potential_residual(s: LCKStructure, f: ScalarField, pts) -> float:
    """max | Omega - d_theta d^c_theta f |."""
    return (s.omega - twisted_potential_form(f, s.theta)).max_abs(pts)


@dataclass
class UnitPotentialReport:
    shape_residual: float
    holomorphy_B: float
    norm_deviation: Optional[float]
    vaisman: Optional[float]
    verdict: str


def verify_unit_potential(s: LCKStructure, pts) -> UnitPotentialReport:
    """Checks, in order: Omega = -dJtheta + theta^Jtheta; B holomorphic;
    then asserts |B| = 1 and parallel Lee form, each to 1e-6.

    An LCK form of this shape with real-holomorphic Lee field must be
    Vaisman, so the chain upgrades the two cheap checks to the full one.
    """
    # -dJtheta + theta^Jtheta = d_theta d^c_theta 1
    shape = potential_residual(s, constant(1.0, s.dim), pts)
    pair = s.lee_pair()
    holo = holomorphy_residual(pair.B, pts)
    if shape > 1e-6 or holo > 1e-6:
        return UnitPotentialReport(shape, holo, None, None, "hypotheses not met")
    norm_dev = float(np.abs(pair.norm_squared(pts) - 1.0).max())
    vr = vaisman_residual(MetricBundle(s, pts))
    verdict = "vaisman-confirmed" if (norm_dev < 1e-6 and vr < 1e-6) else "chain failed"
    return UnitPotentialReport(shape, holo, norm_dev, vr, verdict)

"""Hermitian/LCK structures and their residual verifiers.

All checks are pointwise over seeded sample batches; the norm is the max
absolute coefficient in the coordinate coframe.  The defining identity is
d Omega = theta ^ Omega with theta closed; the metric is g = Omega(., J.);
the Lee fields solve iota_B Omega = J theta and iota_A Omega = -theta with
A = JB.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    twisted_potential_form,
    wedge,
)


class LCKStructure:
    """A pair (Omega, theta) on a chart, with cached metric data."""

    def __init__(self, omega: Form, theta: Form, name="", manifold=None,
                 lee_B: Optional[VectorField] = None,
                 lee_A: Optional[VectorField] = None):
        if omega.degree != 2 or theta.degree != 1:
            raise ValueError("need a 2-form and a 1-form")
        self.omega = omega
        self.theta = theta
        self.name = name
        self.manifold = manifold
        self._lee = (lee_B, lee_A) if lee_B is not None else None
        self._metric_fields = None

    @property
    def dim(self):
        return self.omega.dim

    # -- metric ---------------------------------------------------------

    def metric_entry_fields(self):
        """g_ab = Omega(e_a, J e_b) as scalar fields (computed once)."""
        if self._metric_fields is None:
            d = self.dim
            coeffs = self.omega.coeffs

            def entry(a, c):
                if a == c:
                    return None
                if a < c:
                    return coeffs.get((a, c))
                f = coeffs.get((c, a))
                return None if f is None else -1.0 * f

            G = [[None] * d for _ in range(d)]
            for a in range(d):
                for b in range(d):
                    # J e_b: b = 2j -> e_{2j+1}; b = 2j+1 -> -e_{2j}
                    if b % 2 == 0:
                        f = entry(a, b + 1)
                    else:
                        f = entry(a, b - 1)
                        f = None if f is None else -1.0 * f
                    G[a][b] = f if f is not None else constant(0.0, d)
            self._metric_fields = G
        return self._metric_fields

    def metric_jets(self, pts, order=1):
        """The metric entries g (N, d, d) and, at order 1, their first
        derivatives dg (N, d, d, d) with dg[:, i, a, b] = partial_i g_ab
        (None at order 0)."""
        pts = as_batch(pts, self.dim)
        G = self.metric_entry_fields()
        d = self.dim
        n = pts.shape[0]
        upper = [(a, b) for a in range(d) for b in range(a, d)]
        jets = evaluate([G[a][b] for a, b in upper], pts, order)
        g = np.zeros((n, d, d))
        dg = np.zeros((n, d, d, d)) if order else None
        for (a, b), jet in zip(upper, jets):
            g[:, a, b] = g[:, b, a] = np.real(jet.v)
            if order:
                dg[:, :, a, b] = dg[:, :, b, a] = np.real(jet.g.T)
        return g, dg

    def theta_components(self):
        """The coefficients theta_i of the Lee form, zero fields filled in."""
        zero = constant(0.0, self.dim)
        return [self.theta.coeffs.get((i,), zero) for i in range(self.dim)]

    def positivity_minima(self, pts):
        g, _ = self.metric_jets(pts, 0)
        return np.linalg.eigvalsh(g)[:, 0]

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
        """|B|_g^2 = Omega(B, JB) at the sample points."""
        s = self.structure
        vb = self.B.values(pts)
        vjb = apply_J_vector(self.B).values(pts)
        return np.real(s.omega.evaluate(pts, vb, vjb))


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
    """max | d Omega - theta ^ Omega | over the samples."""
    return (exterior_d(s.omega) - wedge(s.theta, s.omega)).max_abs(pts)


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
    Ov = omega.coefficient_values(pts)

    def oval(i, j):
        if i == j:
            return np.zeros(n)
        if i < j:
            return np.real(Ov.get((i, j), np.zeros(n)))
        return -np.real(Ov.get((j, i), np.zeros(n)))

    rows = list(combinations(range(d), 3))
    M = np.zeros((n, len(rows), d))
    rhs = np.zeros((n, len(rows)))
    for r, K in enumerate(rows):
        rhs[:, r] = np.real(dO.get(K, np.zeros(n)))
        for pos, k in enumerate(K):
            rest = tuple(x for x in K if x != k)
            M[:, r, k] += (-1.0) ** pos * oval(*rest)
    theta = np.zeros((n, d))
    resid = 0.0
    for i in range(n):
        sol, *_ = np.linalg.lstsq(M[i], rhs[i], rcond=None)
        theta[i] = sol
        resid = max(resid, float(np.abs(M[i] @ sol - rhs[i]).max()))
    return ExtractedLeeForm(values=theta, residual=resid, is_lck=resid < 1e-6)


def _christoffel(g, dg):
    """Levi-Civita symbols from the metric g and its derivatives dg."""
    ginv = np.linalg.inv(g)
    # Gamma^k_{ij} = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij);
    # dg[n, i, a, b] = d_i g_ab
    sym = dg + np.einsum("njil->nijl", dg) - np.einsum("nlij->nijl", dg)
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, sym)


def christoffel(s: LCKStructure, pts):
    """Levi-Civita symbols on coordinate fields via the Koszul formula."""
    return _christoffel(*s.metric_jets(pts))


def covariant_derivative(s: LCKStructure, X: VectorField, Y: VectorField, pts):
    """(nabla_X Y)^k = X(Y^k) + Gamma^k_{ij} X^i Y^j at the samples."""
    pts = as_batch(pts, s.dim)
    gam = christoffel(s, pts)
    xv, _ = stacked(X.components, pts, 0)
    yv, dy = stacked(Y.components, pts)  # dy[n, k, i] = d_i Y^k
    first = np.einsum("nki,ni->nk", dy, xv)
    second = np.einsum("nkij,ni,nj->nk", gam, xv, yv)
    return first + second


def _nabla_theta(s: LCKStructure, pts, g, dg):
    """(nabla theta)[n, a, b] = d_a theta_b - Gamma^k_{ab} theta_k."""
    tv, dt = stacked(s.theta_components(), pts)  # dt[n, b, a] = d_a theta_b
    return dt.transpose(0, 2, 1) - np.einsum("nkab,nk->nab", _christoffel(g, dg), tv)


def vaisman_residual(s: LCKStructure, pts) -> float:
    """max |(nabla_a theta)_b| = |d_a theta_b - Gamma^k_{ab} theta_k|."""
    pts = as_batch(pts, s.dim)
    return float(np.abs(_nabla_theta(s, pts, *s.metric_jets(pts))).max())


def gauduchon_residual(s: LCKStructure, pts) -> float:
    """|d* theta| with d* = -sum_j iota_{e_j} nabla_{e_j} over an orthonormal
    frame obtained by Gram-Schmidt from the coordinate fields."""
    pts = as_batch(pts, s.dim)
    g, dg = s.metric_jets(pts)
    nabla = _nabla_theta(s, pts, g, dg)

    # batched Gram-Schmidt on the coordinate frame
    d = s.dim
    n = pts.shape[0]
    E = np.zeros((n, d, d))
    basis = np.eye(d)
    for j in range(d):
        v = np.broadcast_to(basis[j], (n, d)).copy()
        for i in range(j):
            proj = np.einsum("na,nab,nb->n", E[:, i], g, v)
            v = v - proj[:, None] * E[:, i]
        norm = np.sqrt(np.einsum("na,nab,nb->n", v, g, v))
        E[:, j] = v / norm[:, None]
    dstar = -np.einsum("nja,njb,nab->n", E, E, nabla)
    return float(np.abs(dstar).max())


def holomorphy_residual(X: VectorField, pts) -> float:
    """max |[X, J e_k] - J [X, e_k]| over coordinate fields and samples."""
    J = complex_jmatrix(X.dim)
    _, dX = stacked(X.components, as_batch(pts, X.dim))  # dX[n, i, j] = d_j X^i
    res = -np.einsum("jk,nij->nik", J, dX) + np.einsum("im,nmk->nik", J, dX)
    return float(np.abs(res).max())


def killing_residual(s: LCKStructure, X: VectorField, pts) -> float:
    """max |X g_ij - g([X, e_i], e_j) - g(e_i, [X, e_j])|."""
    pts = as_batch(pts, s.dim)
    g, dg = s.metric_jets(pts)
    xv, dX = stacked(X.components, pts)
    lie = (
        np.einsum("nm,nmij->nij", xv, dg)
        + np.einsum("nmi,nmj->nij", dX, g)
        + np.einsum("nmj,nim->nij", dX, g)
    )
    return float(np.abs(lie).max())


def potential_residual(s: LCKStructure, f: ScalarField, pts) -> float:
    """max | Omega - d_theta d^c_theta f |."""
    return (s.omega - twisted_potential_form(f, s.theta)).max_abs(pts)


def conformal_rescale(s: LCKStructure, h: ScalarField) -> LCKStructure:
    """(Omega, theta) -> (e^h Omega, theta + dh)."""
    omega = s.omega.scale(h.exp())
    theta = s.theta + exterior_d(Form.from_function(h))
    return LCKStructure(omega, theta, name=f"{s.name}~rescaled",
                        manifold=s.manifold)


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
    jt = apply_J(s.theta)
    shape = (s.omega - (exterior_d(jt).scale(-1.0) + wedge(s.theta, jt))).max_abs(pts)
    pair = s.lee_pair()
    holo = holomorphy_residual(pair.B, pts)
    if shape > 1e-6 or holo > 1e-6:
        return UnitPotentialReport(shape, holo, None, None, "hypotheses not met")
    norm_dev = float(np.abs(pair.norm_squared(pts) - 1.0).max())
    vr = vaisman_residual(s, pts)
    verdict = "vaisman-confirmed" if (norm_dev < 1e-6 and vr < 1e-6) else "chain failed"
    return UnitPotentialReport(shape, holo, norm_dev, vr, verdict)

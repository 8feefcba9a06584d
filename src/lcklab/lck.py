"""Hermitian/LCK structures and their residual verifiers.

All checks are pointwise over seeded sample batches; the norm is the max
absolute coefficient in the coordinate coframe.  The defining identity is
d Omega = theta ^ Omega with theta closed (``twisted_d``).  The metric
g = Omega(., J.) is read off the jets of Omega's coefficients: J permutes
the coordinate frame up to sign, so each entry g_ab is one coefficient of
Omega, negated or not, or zero (``_metric_arrays``).  The Lee pair
(B, A = JB) is registered with the structure in closed form by whoever
builds it, and ``LeePair.defining_residuals`` certifies it through
iota_B Omega = J theta and iota_A Omega = -theta; nothing solves for it.

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
    _merge_indices,
    apply_J,
    interior_product,
    twisted_d,
    twisted_potential_form,
)


class LCKStructure:
    """A pair (Omega, theta) on a chart, with its registered Lee pair."""

    def __init__(self, omega: Form, theta: Form,
                 lee_B: Optional[VectorField] = None,
                 lee_A: Optional[VectorField] = None):
        if omega.degree != 2 or theta.degree != 1:
            raise ValueError("need a 2-form and a 1-form")
        self.omega = omega
        self.theta = theta
        self._lee = (lee_B, lee_A)

    @property
    def dim(self):
        return self.omega.dim

    # -- metric ---------------------------------------------------------

    def metric_jets(self, pts):
        """The metric g (d, d, N), points last."""
        pts = as_batch(pts, self.dim)
        jets = evaluate(list(self.omega.coeffs.values()), pts, 0)
        return _metric_arrays(self.omega, jets, len(pts), 0)[0]

    def theta_components(self):
        """The coefficients theta_i of the Lee form, zero fields filled in."""
        zero = constant(0.0, self.dim)
        return [self.theta.coeffs.get((i,), zero) for i in range(self.dim)]

    def positivity_minima(self, pts):
        g = self.metric_jets(pts)
        return np.linalg.eigvalsh(g.transpose(2, 0, 1))[:, 0]

    # -- Lee fields -------------------------------------------------------

    def lee_pair(self):
        """The Lee pair (B, A) registered with this structure.

        A structure carries its pair in closed form from where it is built;
        ``LeePair.defining_residuals`` certifies it.  A structure built
        without one raises ValueError naming what is missing."""
        missing = [k for k, X in zip(("lee_B", "lee_A"), self._lee) if X is None]
        if missing:
            raise ValueError(f"no Lee pair registered: {' and '.join(missing)} missing")
        return LeePair(*self._lee, structure=self)


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
    rows = {K: r for r, K in enumerate(combinations(range(d), 3))}
    M = np.zeros((n, len(rows), d))
    rhs = np.zeros((n, len(rows)))
    dO = {}
    # Omega_I dx_k ^ dx_I and d_k Omega_I dx_k ^ dx_I land on one K with one
    # sign: column k of M is dx_k ^ Omega, and d Omega sums its terms in
    # exterior_d's order, less the partials it folds to a zero constant
    jets = evaluate(list(omega.coeffs.values()), pts, 1)
    for (I, f), jet in zip(omega.coeffs.items(), jets):
        for k in range(d):
            merged = _merge_indices((k,), I)
            if merged is None:
                continue
            sign, K = merged
            M[:, rows[K], k] += np.real(_signed(jet.v, sign))
            if f.const is None and (f.grad is None or f.grad[k] != 0):
                dO.setdefault(K, []).append(_signed(jet.g[k], sign))
    for K, terms in dO.items():
        rhs[:, rows[K]] = np.real(sum(terms[1:], terms[0]))
    theta, resid = np.zeros((n, d)), np.zeros(n)
    for i in range(n):
        theta[i] = np.linalg.lstsq(M[i], rhs[i], rcond=None)[0]
        resid[i] = np.abs(M[i] @ theta[i] - rhs[i]).max()
    resid = float(np.max(resid, initial=0.0))  # NaN if any point is
    return ExtractedLeeForm(values=theta, residual=resid, is_lck=resid < 1e-6)


def _signed(x, sign):
    """x, or -1.0 * x for a sign of -1, as a constant factor scales a tier."""
    return x if sign > 0 else -1.0 * x


def _metric_arrays(omega, jets, n, order):
    """g (d, d, N) and, at order 1, dg (d, d, d, N), dg[i, a, b] = d_i g_ab,
    from the jets of Omega's coefficients in ``omega.coeffs`` order.  J e_b
    is e_{b^1} for even b and -e_{b^1} for odd b, so each g_ab = Omega(e_a,
    J e_b), a <= b, is one coefficient as it is or times -1.0, or +0.0 where
    it is absent; it fills whole rows of N points, mirrored below."""
    d = omega.dim
    coeffs = dict(zip(omega.coeffs, jets))
    g = np.zeros((d, d, n))
    dg = np.zeros((d, d, d, n)) if order else None
    for a in range(d):
        for b in range(a, d):
            c = b ^ 1
            jet = coeffs.get((min(a, c), max(a, c)))
            if jet is None:
                continue
            sign = (-1) ** (b % 2 + (c < a))
            g[a, b] = g[b, a] = np.real(_signed(jet.v, sign))
            if order:
                dg[:, a, b] = dg[:, b, a] = np.real(_signed(jet.g, sign))
    return g, dg


class MetricBundle:
    """The metric data that the Riemannian rows of one structure read on
    one point batch, all points last.

    One ``evaluate`` call gives the order-1 jets of Omega's coefficients,
    which ``_metric_arrays`` reads g off, and of the Lee coefficients
    theta_b, so they share one Ctx: ``g`` (d, d, N),
    ``dg`` (d, d, d, N) with dg[i, a, b] = d_i g_ab, ``theta`` (d, N) and
    ``dtheta`` (d, d, N) with dtheta[a, b] = d_a theta_b.  ``ginv`` is
    g^{-1} (d, d, N), one inversion per point, which serves both u = g^{-1}
    theta and the trace of d* theta.  A bundle holds about (d^3 + 4 d^2) N
    doubles: build it where its rows run and drop it after them.
    """

    def __init__(self, s: LCKStructure, pts):
        self.pts = pts = as_batch(pts, s.dim)
        omega = list(s.omega.coeffs.values())
        jets = evaluate([*omega, *s.theta_components()], pts, 1)
        k = len(omega)
        self.g, self.dg = _metric_arrays(s.omega, jets[:k], len(pts), 1)
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

"""Constructive potentials: the periodic first-order ODE and orbit averaging.

Two pipelines produce positive potentials for LCK structures:

* ``solve_periodic_first_order``: the closed-form 2pi-periodic solution of
  g' = g(1 + f) - 1, with the periodizing constant c = K e^b / (e^b - 1).
  F = t + int_0^t f comes in closed form from f's antiderivative; the
  periodic part Q of F is exponentiated and its Fourier modes are taken
  once, by the periodic trapezoid rule (as a DFT).  Every integral of
  e^{-F}, full-period or partial, is then an exact per-mode sum, which
  keeps the on-manifold jet evaluation cheap and the residuals near
  machine level.

* ``orbit_average_potential``: pulls the equivariant Kaehler form along the
  JC-flow, solves the forced oscillator g_t'' + g_t = f_t by the Duhamel
  formula, and averages over a full period.  The t-average of the Duhamel
  integrals collapses to a single weighted quadrature
  (1/2npi) int_0^{2npi} (1 - cos s) f(Phi_s x) ds, which is cross-checked
  against the literal double-quadrature route.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import GalleryError, InadmissibleInput, NumericalError
from .fields import (
    ScalarField,
    VectorField,
    affine_quadrature_field,
    constant,
    lift_univariate,
    session,
)
from .forms import (
    Form,
    apply_J,
    dd_c,
    exterior_d,
    interior_product,
    lie_derivative,
    pullback,
    twisted_potential_form,
    wedge,
)
from .lck import LCKStructure, lck_residual, potential_residual
from .manifolds import (
    FlowMap,
    ModelManifold,
    flow_of,
    invariance_residual,
)
from .torus import average_over_circle

TWO_PI = 2.0 * math.pi


class PeriodicFunction:
    """The 2pi-periodic trigonometric polynomial
    f(t) = c0 + sum_{j>=1} a_j cos(jt) + b_j sin(jt), with exact derivatives
    and its closed-form antiderivative vanishing at 0.  Non-finite
    coefficients are refused.  A constant term c0 = None is absent, so it
    adds no signed zero to the sums."""

    def __init__(self, cos_coeffs=(), sin_coeffs=(), c0=None):
        self.a = np.asarray(cos_coeffs, dtype=float)
        self.b = np.asarray(sin_coeffs, dtype=float)
        self.c0 = c0 if c0 is None else float(c0)
        if self.a.ndim != 1 or self.a.shape != self.b.shape:
            raise ValueError("need one cos and one sin coefficient per harmonic")
        if not np.isfinite([self.c0 or 0.0, *self.a, *self.b]).all():
            raise InadmissibleInput("function takes non-finite values")
        self.j = np.arange(1.0, len(self.a) + 1.0)

    def derivs(self, t, order):
        """[f, f', ..., f^(order)] at t from one cos/sin table: each order
        rotates the coefficients, (a_j, b_j) -> (j b_j, -j a_j)."""
        t = np.asarray(t, dtype=float)
        phase = np.multiply.outer(t, self.j)
        cos, sin = np.cos(phase), np.sin(phase)
        a, b = self.a, self.b
        head = None if self.c0 is None else np.full_like(t, self.c0)
        out = [_series(head, cos, a, sin, b)]
        for _ in range(order):
            a, b = self.j * b, -self.j * a
            out.append(_series(None, cos, a, sin, b))
        return out

    def antiderivative(self, t):
        """int_0^t f = c0 t + sum_j (a_j sin(jt) + b_j (1 - cos(jt))) / j."""
        t = np.asarray(t, dtype=float)
        phase = np.multiply.outer(t, self.j)
        return _series(None if self.c0 is None else self.c0 * t, np.sin(phase),
                       self.a / self.j, 1.0 - np.cos(phase), self.b / self.j)

    @staticmethod
    def constant(kappa: float) -> "PeriodicFunction":
        return PeriodicFunction(c0=kappa)

    @staticmethod
    def cosine(eps: float) -> "PeriodicFunction":
        return PeriodicFunction([eps], [0.0])


def _series(head, cos, a, sin, b):
    """head + sum_j a_j cos_j + b_j sin_j, the tables' last axis indexing j.
    A zero coefficient's term is left out rather than added as a signed
    zero, so f = eps cos t gives eps cos t, -eps sin t, ... bit for bit."""
    terms = [] if head is None else [head]
    terms += [table[..., j] * c for table, coeffs in ((cos, a), (sin, b))
              for j, c in enumerate(coeffs) if c]
    return functools.reduce(np.add, terms) if terms else np.zeros(cos.shape[:-1])


# samples of e^{-Q} taken for its Fourier modes, and the probe grid on which
# the solver checks f > -1, g > 0 and the residuals
_SOLVER_MODES = 2048
_PROBE_GRID = 1024
# largest f the solver takes, so b = 2pi + A(2pi) <= 2pi (1 + 4000) ~ 2.5e4.
# The e^{-Q} samples Q(s) = a + (1 - mu) s + A(s) lose about eps b where
# (1 - mu) s and A(s) cancel, which the second-order residual scales by
# (1 + f)^2.  Over 900 constant f in [1, 3e4] (b up to 1.9e5) that residual
# stays under 0.23 of its 1e-7 tolerance, and under 0.031 of it for
# f <= 4000; the bound keeps every b the solver forms that small.
_MAX_F = 4000.0
# a mode of e^{-Q} at |k| >= 768 (the top quarter of the band) above this
# fraction of the largest means 2048 samples do not resolve e^{-Q}: the modes
# past the band alias onto the kept ones, and the second-order residual weighs
# mode k by k^2.  Over Fejer profiles sum_j 1.8 (1 - j/(H+1)) cos(jt) fraction
# and residual (tolerance 1e-7) are 6.7e-11 and 7.2e-9 at H = 160, 2.7e-10 and
# 1.7e-7 at H = 170, 1.8e-6 and 0.12 at H = 300; cos, const stay below 1e-15.
_MAX_TOP_MODE = 1e-10


@dataclass
class PotentialSolution:
    """The periodic potential with its diagnostics.

    g(t) = (c - int_0^t e^{-F}) e^{F(t)},  F(t) = t + A(t) with A the
    antiderivative of f (A(0) = 0), b = F(2pi) = 2pi + A(2pi),
    K = int_0^{2pi} e^{-F}, c = K e^b / (e^b - 1).  With mu = b/2pi,
    F = mu t + Q for a periodic Q; ``dk`` holds the Fourier modes d_k of
    e^{-Q} at the frequencies ``ik`` (those with |d_k| > 1e-17 max|d|), so
    every integral of e^{-F} is a sum over these modes.
    """

    f: PeriodicFunction
    b: float
    mu: float
    ik: np.ndarray = field(repr=False, default=None)
    dk: np.ndarray = field(repr=False, default=None)
    K: float = 0.0
    c: float = 0.0
    periodicity_residual: float = 0.0
    min_g: float = 0.0
    ode1_residual: float = 0.0
    ode2_residual: float = 0.0

    # -- evaluation ------------------------------------------------------

    def _mode_sums(self, t, orders=(0,)):
        """S_r(t) = sum_k d_k (ik)^r e^{ikt} / (mu - ik), stably."""
        t = np.asarray(t, dtype=float)
        dk = self.dk / (self.mu - self.ik)
        expt = np.exp(np.multiply.outer(t, self.ik))
        return [np.real(expt * (self.ik**r) @ dk) for r in orders]

    def Q(self, t):
        """Periodic part of F: F(t) = mu t + Q(t)."""
        t = np.asarray(t, dtype=float)
        return (1.0 - self.mu) * t + self.f.antiderivative(t)

    def g(self, t):
        """g(t) = e^{Q(t)} sum_k d_k e^{ikt}/(mu - ik).

        Equivalent to (c - int_0^t e^{-F}) e^{F(t)} but free of the
        cancellation between c and the partial integral, so it stays
        accurate for strongly contracting profiles.
        """
        (s0,) = self._mode_sums(t, orders=(0,))
        return np.exp(self.Q(t)) * s0

    def derivative_table(self, x, order):
        """[g, g', g'', g'''] at x, with g', g'', g''' from the ODE."""
        x = np.asarray(x, dtype=float)
        g0 = self.g(x)
        out = [g0]
        if order >= 1:
            fd = self.f.derivs(x, order - 1)
            g1 = g0 * (1.0 + fd[0]) - 1.0
            out.append(g1)
        if order >= 2:
            g2 = g1 * (1.0 + fd[0]) + g0 * fd[1]
            out.append(g2)
        if order >= 3:
            g3 = g2 * (1.0 + fd[0]) + 2.0 * g1 * fd[1] + g0 * fd[2]
            out.append(g3)
        return out

    def as_field(self, orbit_coordinate: ScalarField) -> ScalarField:
        """g composed with an orbit-parameter field, with exact jets."""
        return lift_univariate(orbit_coordinate, self.derivative_table)

    def diagnostics(self) -> Dict[str, float]:
        return {
            "a": 0.0,  # F(0), fixed by the solver
            "b": self.b,
            "K": self.K,
            "c": self.c,
            "min_g": self.min_g,
            "periodicity_residual": self.periodicity_residual,
            "ode1_residual": self.ode1_residual,
            "ode2_residual": self.ode2_residual,
        }


def solve_periodic_first_order(f: PeriodicFunction) -> PotentialSolution:
    """Closed-form positive periodic solution of g' = g(1 + f) - 1.

    Needs -1 < f <= 4000 on the 1024-point probe grid, and 2048 samples
    that resolve e^{-Q} (modes at |k| >= 768 at most 1e-10 of the largest);
    InadmissibleInput otherwise.
    Takes the modes of e^{-Q} from those samples once, so
    K = int_0^{2pi} e^{-F} = (1 - e^{-b}) S_0(0) (see ``_mode_sums``) and
    c = K e^b/(e^b - 1) > 0, and reports periodicity, positivity and both
    ODE residuals measured against mode-sum derivatives (so truncation of
    the modes shows up honestly instead of cancelling).
    """
    probe = np.linspace(0.0, TWO_PI, _PROBE_GRID, endpoint=False)
    f0, f1 = f.derivs(probe, 1)
    if f0.min() <= -1.0:
        raise InadmissibleInput(f"need f > -1 everywhere; min f = {f0.min():.6f}")
    if not f0.max() <= _MAX_F:  # NaN fails too
        raise InadmissibleInput(
            f"need f <= {_MAX_F:g}, where the solver's residuals are certified; "
            f"max f = {f0.max():.6g}")

    b = TWO_PI + float(f.antiderivative(TWO_PI))
    sol = PotentialSolution(f=f, b=b, mu=b / TWO_PI)
    s = np.arange(_SOLVER_MODES) * (TWO_PI / _SOLVER_MODES)
    d = np.fft.fft(np.exp(-sol.Q(s))) / _SOLVER_MODES
    freqs = np.fft.fftfreq(_SOLVER_MODES, d=1.0 / _SOLVER_MODES)
    peak = np.abs(d).max()
    top = np.abs(d[np.abs(freqs) >= 3 * _SOLVER_MODES // 8]).max()
    if top > _MAX_TOP_MODE * peak:
        raise InadmissibleInput(
            f"{_SOLVER_MODES} samples do not resolve e^(-Q): a mode at |k| >= "
            f"{3 * _SOLVER_MODES // 8} is {top / peak:.2e} of the largest")
    keep = np.abs(d) > 1e-17 * peak
    sol.ik = 1j * freqs[keep]
    sol.dk = d[keep]
    sol.K = float((1.0 - math.exp(-b)) * sol._mode_sums(0.0)[0])
    sol.c = sol.K / (1.0 - math.exp(-b))  # K e^b/(e^b - 1), free of overflow

    # g and its mode-sum derivatives (independent of the ODE recursion)
    gv, g1m, g2m = _mode_gprimes(sol, probe)
    sol.min_g = float(gv.min())
    sol.periodicity_residual = float(np.abs(sol.g(probe + TWO_PI) - gv).max())

    sol.ode1_residual = float(np.abs(g1m - gv * (1.0 + f0) + 1.0).max())
    sol.ode2_residual = float(np.abs(
        g2m - 2.0 * (1.0 + f0) * g1m - gv * f1 + gv * (1.0 + f0) ** 2 - (1.0 + f0)
    ).max())
    if not sol.min_g > 0:  # NaN fails too
        raise NumericalError("periodic potential failed to be positive")
    return sol


def _mode_gprimes(sol: PotentialSolution, t):
    """g, g' and g'' from differentiated mode sums (no ODE identities used);
    g is the one ``sol.g(t)`` computes."""
    t = np.asarray(t, dtype=float)
    s0, s1, s2 = sol._mode_sums(t, orders=(0, 1, 2))
    eQ = np.exp(sol.Q(t))
    g0 = eQ * s0
    f0, q2 = sol.f.derivs(t, 1)
    q1 = 1.0 + f0 - sol.mu
    g1 = q1 * g0 + eQ * s1
    g2 = q2 * g0 + q1 * g1 + eQ * (q1 * s1 + s2)
    return g0, g1, g2


# -- Example structure: Omega' = Omega + f theta ^ J theta -------------------


@dataclass
class LeeoloResult:
    structure: LCKStructure
    solution: PotentialSolution
    psi: ScalarField            # cover potential of theta' = (1 + f) theta
    g_field: ScalarField
    f_field: ScalarField        # f of the Lee-orbit parameter phi


def _df_colinear(s0: LCKStructure, f_field: ScalarField, pts) -> float:
    """|df - B(f) theta| for the Vaisman pair s0: zero when f depends only on
    the Lee orbit parameter."""
    df = exterior_d(Form.from_function(f_field))
    bf = interior_product(s0.lee_pair().B, df).coeffs.get((), 0.0)
    return (df - s0.theta.scale(bf)).max_abs(pts)


def build_leeolo(base: ModelManifold, f: PeriodicFunction) -> LeeoloResult:
    """Norm-modulated LCK structure Omega' = Omega + f theta ^ J theta.

    ``base`` must carry a unit-norm Vaisman pair whose Lee flow closes with
    period 2pi; f is a 2pi-periodic function of the Lee-orbit parameter with
    f > -1.  The returned structure has Lee form (1 + f) theta and carries
    the base's Lee pair (B, A) as its own, registered: theta(B) = 1 and
    J theta(B) = 0 give iota_B Omega' = (1 + f) J theta = J theta', and
    likewise iota_A Omega' = -theta'.
    Its |B| is non-constant (so it is not Vaisman), and g is the
    periodic-ODE potential.
    An f whose df is not colinear with theta on 60 points of the base's
    sampler (seed 11) is InadmissibleInput; ``leeolo_residuals`` checks the
    structure on a run's points.
    """
    if base.structure is None or base.phi is None:
        raise GalleryError("leeolo needs a base fixture with a Vaisman pair")
    flow_B = flow_of(base, "B")
    if flow_B.period is None or abs(flow_B.period - TWO_PI) > 1e-9:
        raise InadmissibleInput(
            "the Lee flow must close with period 2pi "
            f"(registered period: {flow_B.period})"
        )
    # refuses f <= -1 somewhere
    solution = solve_periodic_first_order(f)

    s0 = base.structure
    phi = base.phi
    f_field = lift_univariate(phi, f.derivs)
    colinear = _df_colinear(s0, f_field, base.sample(60, 11))
    if colinear > 1e-8:
        raise InadmissibleInput(
            f"df is not colinear with theta (residual {colinear:.2e})"
        )

    jt = apply_J(s0.theta)
    omega_p = s0.omega + wedge(s0.theta, jt).scale(f_field)
    theta_p = s0.theta.scale(1.0 + f_field)
    pair = s0.lee_pair()
    structure = LCKStructure(omega_p, theta_p, lee_B=pair.B, lee_A=pair.A)

    # cover potential of theta': psi = phi + A(phi), A the antiderivative
    # of f, so psi' = 1 + f and psi^(r) = f^(r-1) above
    psi = lift_univariate(phi, lambda x, order: [x + f.antiderivative(x)] + [
        1.0 + d if r == 0 else d for r, d in enumerate(f.derivs(x, order - 1))])
    return LeeoloResult(structure, solution, psi, solution.as_field(phi), f_field)


def leeolo_residuals(m: ModelManifold, pts) -> Dict[str, float]:
    """The leeolo fixture's residuals at ``pts``: df against B(f) theta, the
    defining identities of the registered pair (the base's B and A) against
    Omega' and theta', |B|^2 against 1 + f, the twisted potential g, and
    the smallest eigenvalue of the metric."""
    res = m.extras["leeolo"]
    pair = res.structure.lee_pair()
    fv = res.f_field.values(pts).real
    return {
        "df_colinear": _df_colinear(m.extras["vaisman_base"], res.f_field, pts),
        "lee_fields_defining": max(pair.defining_residuals(pts).values()),
        "norm_sq_matches_1_plus_f": float(
            np.abs(pair.norm_squared(pts) - (1.0 + fv)).max()),
        "potential": potential_residual(res.structure, res.g_field, pts),
        "positivity_min_eig": float(res.structure.positivity_minima(pts).min()),
    }


# -- Orbit averaging ----------------------------------------------------------


def _simpson(y, h):
    """Composite Simpson rule over samples y at spacing h (an odd count)."""
    w = np.ones(len(y))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return h / 3.0 * np.sum(w * y)


def _cumulative_simpson(y, h):
    """Composite Simpson integrals of samples y at spacing h (an odd count)
    from the first sample to each even-indexed one: entry k ends at y[2k]."""
    panels = h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])
    return np.concatenate([[0.0], np.cumsum(panels)])


@dataclass
class OrbitPotentialResult:
    """The averaged potential g, the output form omega' = g^{-1} dd^c g, the
    squared-norm function f = (iota_C omega)(JC) that g averages, and the
    checks."""

    g: ScalarField
    omega_prime: Form
    f: ScalarField
    checks: Dict[str, float]


@functools.cache
def _gl16():
    """The 16-point Gauss-Legendre rule on [-1, 1], nodes and weights, built
    once, on first use: importing numpy.polynomial costs a process about
    0.8 MB and 3 ms, and only the orbit pipeline needs it."""
    return np.polynomial.legendre.leggauss(16)


def _gl_nodes(a: float, b: float, panels: int):
    """Composite 16-point Gauss-Legendre nodes/weights on [a, b], panel by
    panel."""
    x, w = _gl16()
    edges = np.linspace(a, b, panels + 1)
    mid = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


# the orbit checks that need order-3 jets run on this many leading points
_HEAVY_POINTS = 8


def orbit_average_potential(
    manifold: ModelManifold,
    omega: Form,
    C: VectorField,
    jc_flow: FlowMap,
    points,
    phi: ScalarField,
    n_periods: int = 1,
) -> OrbitPotentialResult:
    """Average the JC-flow family into an LCK metric with positive potential.

    Requires theta(C) = 1 (caller normalizes), a registered closed-form
    JC-flow, and the scaling identity L_C omega = -omega on the cover (to
    1e-7).  The expansion omega_t = cos t omega + sin t dJ eta + dd^c g_t is
    verified at t = 0.5, 1 and 2.7; the average over n_periods periods runs
    on 32 Gauss-Legendre panels per period, and the averaged potential g is
    asserted positive; the output pair (g^{-1} dd^c g, -d ln g) is certified
    deck invariant with its own LCK and constant-potential residuals, and its
    Lee class against d phi by the jumps of ln g and phi across every deck
    map at the points.  The checks of order-3 jets run on the first
    ``_HEAVY_POINTS`` points.  The checks run in one evaluation session, and
    g is evaluated at order 3 on the heavy points before any check uses
    them, so each quadrature field is evaluated once per point batch: lower
    orders are served from the cached top jet.
    """
    with session():
        if jc_flow.affine is None:
            raise GalleryError(
                f"flow {jc_flow.name} has no affine form to average over")
        heavy = points[:_HEAVY_POINTS]

        checks: Dict[str, float] = {}
        # theta(C) = 1 after normalization
        dphi = exterior_d(Form.from_function(phi))
        pairing = np.real(interior_product(C, dphi).coefficient_values(points)
                          .get((), 0.0))
        checks["theta_C_minus_1"] = float(np.abs(pairing - 1.0).max())
        if checks["theta_C_minus_1"] > 1e-8:
            raise InadmissibleInput("normalize the circle generator to theta(C) = 1")
        # omega1: L_C omega = -omega
        checks["scaling_identity"] = (lie_derivative(C, omega) + omega).max_abs(points)
        if checks["scaling_identity"] > 1e-7:
            raise InadmissibleInput(
                "input form does not satisfy L_C omega = -omega "
                f"(residual {checks['scaling_identity']:.2e})"
            )

        eta = interior_product(C, omega)
        JC = jc_flow.generator
        f = ScalarField.nsum(
            [eta.coeffs[(i,)] * JC.components[i] for i in range(manifold.dim)
             if (i,) in eta.coeffs]
        )
        fvals = f.values(points).real
        checks["min_f"] = float(fvals.min())
        if checks["min_f"] <= 0:
            raise NumericalError("the squared-norm function f must be positive")
        # exactness: omega = -d eta
        checks["exactness"] = (omega + exterior_d(eta)).max_abs(points)

        djeta = exterior_d(apply_J(eta))

        # averaged potential: single weighted quadrature over [0, 2 n pi]
        span = TWO_PI * n_periods
        s, w = _gl_nodes(0.0, span, 32 * n_periods)
        g = affine_quadrature_field(f, *jc_flow.affine(s),
                                    (1.0 - np.cos(s)) * w / span)
        # the checks on heavy need g up to order 3 there; cached first, the
        # order-3 jet serves every lower order, so g's quadrature runs once
        g.jet(heavy, 3)

        def g_t_field(t: float) -> ScalarField:
            s, w = _gl_nodes(0.0, t, 16)
            return affine_quadrature_field(f, *jc_flow.affine(s),
                                           np.sin(t - s) * w)

        omega5 = 0.0
        for t in (0.5, 1.0, 2.7):
            gt = g_t_field(float(t))
            lhs = pullback(jc_flow.at(float(t)), omega)
            rhs = omega.scale(math.cos(t)) + djeta.scale(math.sin(t)) + dd_c(gt)
            omega5 = max(omega5, (lhs - rhs).max_abs(heavy))
        checks["flow_expansion"] = omega5

        gvals = g.values(points).real
        checks["min_g"] = float(gvals.min())
        if checks["min_g"] <= 0:
            raise NumericalError("averaged potential failed to be positive")

        # cross-check the collapsed average against the literal double-quadrature
        # route (1/span) int_0^span dt int_0^t sin(t - s) f(Phi_s x) ds
        x0 = points[:1]
        mg = 1536 * n_periods
        sgrid = np.linspace(0.0, span, mg + 1)
        mats, offs = jc_flow.affine(sgrid)
        f_along = f.values(np.einsum("sij,j->si", mats, x0[0]) + offs).real
        checks["min_f_along_flow"] = float(f_along.min())
        if checks["min_f_along_flow"] <= 0:
            raise NumericalError("f stopped being positive along the flow")
        # g_t at every 8th sample t, with sin(t - s) = sin t cos s - cos t sin s
        # so that one cumulative Simpson sum per factor serves every t
        h = span / mg
        t = sgrid[::8]
        g_ts = (np.sin(t) * _cumulative_simpson(np.cos(sgrid) * f_along, h)[::4]
                - np.cos(t) * _cumulative_simpson(np.sin(sgrid) * f_along, h)[::4])
        double = _simpson(g_ts, sgrid[8] - sgrid[0]) / span
        checks["average_vs_duhamel"] = abs(double - float(gvals[0]))

        omega_prime = dd_c(g).scale(1.0 / g)
        theta_prime = exterior_d(Form.from_function(g.log())).scale(-1.0)

        checks["omega_prime_descends"] = invariance_residual(manifold, omega_prime,
                                                             heavy)
        checks["theta_prime_descends"] = invariance_residual(manifold, theta_prime,
                                                             heavy)
        out = LCKStructure(omega_prime, theta_prime)
        checks["lck_prime"] = lck_residual(out, heavy)
        checks["unit_potential"] = (
            omega_prime
            - twisted_potential_form(constant(1.0, manifold.dim), theta_prime)
        ).max_abs(heavy)
        checks["positivity_min_eig"] = float(out.positivity_minima(heavy).min())
        if manifold.decks:
            # theta' = -d ln g and the base theta = d phi, so their periods
            # across a deck map gamma are the primitives' jumps
            # ln g(y) - ln g(gamma y) and phi(gamma y) - phi(y)
            ln_g, phi0 = np.log(gvals), phi.values(points).real
            checks["lee_class_loop_match"] = max(
                float(np.abs(ln_g - np.log(g.values(there).real)
                             - (phi.values(there).real - phi0)).max())
                for there in (d.map(points) for d in manifold.decks))
        return OrbitPotentialResult(g, omega_prime, f, checks)


# The cover's Kaehler form is 4 sum_j dx_j ^ dy_j and C = c z with
# c = -1/2 + i, so the integrand f = omega(C, JC) = 4 |c|^2 |z|^2 = 5 |z|^2.
# The JC flow contracts |z| by e^{-s}, so f(Phi_s x) = 5 |x|^2 e^{-2s}, and
# after p periods at the leeolo sampler's inner radius |beta| = e^{-pi} it
# reads 5 e^{-2 pi (1 + 2p)}.  This is the largest p that keeps it a normal
# double (at least 2.2e-308 = e^{-708.4}): 56, at e^{-708.39}.  Uncapped,
# the flowed f of the first seed-42 probe was subnormal from 57 periods on
# and rounded to 0 at 60.
_ORBIT_MAX_PERIODS = int(
    ((math.log(5.0) - math.log(sys.float_info.min)) / (2 * math.pi) - 1) / 2)
# largest gap between the registered closed-form Kaehler form and the generic
# lift e^{-phi} Omega at the run's points: the lift's exp(ln |z|^2) loses
# about |ln |z|^2| ulps, 1e-15 on the sampler's annulus, and a gap enters
# the orbit rows linearly, far below their 1e-6 tolerances
_COVER_KAHLER_TOL = 1e-10
# largest residual of the circle average against the invariant representative
# the pipeline runs on (the ``prep_*`` checks): at most 9.1e-13 over n = 2..5,
# eps in {0.001, 0.3, +-0.999} and seeds 0, 7, 42 and 12345
_PREP_TOL = 1e-10


def leeolo_orbit_pipeline(m: ModelManifold, points,
                          n_periods: int = 1) -> OrbitPotentialResult:
    """Full vertical-circle pipeline for the leeolo fixture.

    Averages the norm-modulated structure over the twisted vertical circle C
    on 32 nodes (the average lands back on the invariant Vaisman
    representative, certified by the ``prep_*`` residuals on the first 10
    points; NumericalError past ``_PREP_TOL``), lifts that representative
    with the base cover potential, and runs the orbit
    construction with the JC-flow, which does not preserve the lift, on 8
    heavy points.  The lift is the base's closed-form cover Kaehler form
    ``extras["cover_kahler"]``, certified against the generic lift
    e^{-phi} Omega on the points (InadmissibleInput past
    ``_COVER_KAHLER_TOL``; the gap is ``checks["cover_kahler_gap"]``).
    More than ``_ORBIT_MAX_PERIODS`` periods are refused: the flowed
    integrand would leave the normal double range.
    """
    if "leeolo" not in m.extras:
        raise GalleryError("pipeline needs the leeolo fixture")
    if n_periods > _ORBIT_MAX_PERIODS:
        raise GalleryError(
            f"the orbit pipeline certifies at most {_ORBIT_MAX_PERIODS} periods, "
            f"got {n_periods}: the JC flow contracts |z|^2 by e^(-4pi) per "
            f"period, and past that count the flowed integrand at the sampler's "
            f"inner radius falls below the normal double range")
    base = m.extras["vaisman_base"]
    phi_b = m.extras["base_phi"]
    circle = flow_of(m, "C")
    # one session, so the three checks share the averaged theta's jets
    with session():
        omega_avg = average_over_circle(m.structure.omega, circle, 32)
        theta_avg = average_over_circle(m.structure.theta, circle, 32)
        dphi = exterior_d(Form.from_function(phi_b))
        prep = {
            "averaged_theta_matches_dphi": (theta_avg - dphi).max_abs(points[:10]),
            "avg_equals_invariant_rep": (omega_avg - base.omega).max_abs(points[:10]),
            "avg_theta_equals_rep": (theta_avg - base.theta).max_abs(points[:10]),
        }
    for name, r in prep.items():
        if not r <= _PREP_TOL:  # NaN fails too
            raise NumericalError(
                f"the circle average misses the invariant representative: "
                f"{name} = {r:.2e} > {_PREP_TOL:g}")
    # run on the certified invariant representative (identical to the average
    # within the residuals above), lifted in closed form and certified
    # against the generic lift
    omega_input = m.extras["cover_kahler"]
    gap = (omega_input - base.omega.scale((-1.0 * phi_b).exp())).max_abs(points)
    if not gap <= _COVER_KAHLER_TOL:  # NaN fails too
        raise InadmissibleInput(
            f"the closed-form cover Kaehler form differs from e^(-phi) Omega "
            f"by {gap:.2e} > {_COVER_KAHLER_TOL:g}")
    res = orbit_average_potential(
        m, omega_input, m.fields["C"], flow_of(m, "JC"), points, phi_b, n_periods)
    res.checks.update({f"prep_{k}": v for k, v in prep.items()})
    res.checks["cover_kahler_gap"] = gap
    return res

"""Model manifolds: quotient charts, deck groups, samplers, flows.

Every fixture is a global chart (a domain of C^n or H x C) together with
explicit deck-group generators, so quotient objects are represented by
deck-invariant/equivariant tensors on the cover.  Flows and deck maps are
closed-form point maps with exact Jacobians.
"""

from __future__ import annotations

import cmath
import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .errors import GalleryError
from .fields import (
    PointMap,
    ScalarField,
    VectorField,
    _eval_in_blocks,
    as_batch,
    complex_coordinate,
    complex_multiplier,
    compose_field,
    constant,
    coordinate,
)
from .forms import Form, exterior_d, pullback, to_real
from .jets import Jet
from .lck import LCKStructure


@dataclass
class DeckTransformation:
    """A deck-group generator with its Kaehler-lift homothety factor rho."""

    name: str
    map: PointMap
    rho: float  # gamma^* Omega_K = rho^{-1} Omega_K; 1 for isometries


@dataclass
class FlowMap:
    """A registered closed-form flow of a vector field.

    ``affine``, when present, maps times t of any shape to (M, b) of shapes
    t.shape + (d, d) and t.shape + (d,), Phi_t(x) = M x + b; it is then the
    flow's only description (``at`` is derived from it), and the quadrature
    pipelines take whole node grids from it.  Flows without it (polynomial
    or embedded ones) give the point map ``at`` directly.
    """

    name: str
    generator: VectorField
    at: Optional[Callable[[float], PointMap]] = None
    period: Optional[float] = None
    closes_via: Optional[str] = None  # "identity" or a deck generator name
    affine: Optional[Callable] = None

    def __post_init__(self):
        if self.at is None:
            self.at = lambda t: PointMap.affine(*self.affine(t))


class ModelManifold:
    def __init__(self, name, dim, contains, sampler, decks=None, phi=None,
                 structure=None, lee_class=None, params=None):
        self.name = name
        self.dim = dim
        self.complex_dim = dim // 2
        self._contains = contains
        self._sampler = sampler
        self.decks: List[DeckTransformation] = decks or []
        self.phi: Optional[ScalarField] = phi
        self.structure: Optional[LCKStructure] = structure
        # an invariant closed 1-form representing the Lee class, for a
        # fixture that carries no structure
        self.lee_class: Optional[Form] = lee_class
        self.flows: Dict[str, FlowMap] = {}
        self.fields: Dict[str, VectorField] = {}
        self.extras: Dict[str, object] = {}
        self.params = params or {}

    def contains(self, pts):
        return self._contains(as_batch(pts, self.dim))

    def sample(self, count, seed):
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._sampler(count, seed)

    def deck(self, name) -> DeckTransformation:
        for d in self.decks:
            if d.name == name:
                return d
        raise GalleryError(f"unknown deck generator {name!r} on {self.name}")

    def register_flow(self, flow: FlowMap):
        self.flows[flow.name] = flow
        self.fields[flow.name] = flow.generator

    def kahler_lift(self) -> Form:
        """e^{-phi} p^* Omega, the equivariant Kaehler form on the cover."""
        if self.structure is None or self.phi is None:
            raise GalleryError(f"fixture {self.name} carries no canonical structure")
        return self.structure.omega.scale((-1.0 * self.phi).exp())


# -- quotient diagnostics ---------------------------------------------------


def invariance_residual(m: ModelManifold, a: Form, pts) -> float:
    """max over deck generators of |gamma^* a - a|; zero means a descends."""
    return max((pullback(d.map, a) - a).max_abs(pts) for d in m.decks)


def equivariance_residual(m: ModelManifold, a: Form, pts) -> float:
    """max over generators of |gamma^* a - rho(gamma)^{-1} a|."""
    return max(
        (pullback(d.map, a) - a.scale(1.0 / d.rho)).max_abs(pts) for d in m.decks
    )


def deck_quotient_check(m: ModelManifold, X: VectorField, pts) -> float:
    """max over generators of |D gamma . X - X o gamma|; zero means X descends."""
    pts = as_batch(pts, m.dim)
    worst = 0.0
    xv = X.values(pts)
    for d in m.decks:
        jac = d.map.jacobian(pts)
        pushed = np.einsum("nij,nj->ni", jac, xv)
        there = X.values(d.map(pts))
        worst = max(worst, float(np.abs(pushed - there).max()))
    return worst


def flow_of(m: ModelManifold, name: str) -> FlowMap:
    if name not in m.flows:
        raise GalleryError(f"no registered flow {name!r} on fixture {m.name}")
    return m.flows[name]


def flow_group_residual(flow: FlowMap, s: float, t: float, pts) -> float:
    """|Phi_{s+t} - Phi_s o Phi_t| at the samples."""
    a = flow.at(s + t)(pts)
    b = flow.at(s)(flow.at(t)(pts))
    return float(np.abs(a - b).max())


def flow_generator_residual(flow: FlowMap, t: float, pts) -> float:
    """Central-difference check, step 2e-6, that d/dt Phi_t = X o Phi_t."""
    h = 2e-6
    fwd = flow.at(t + h)(pts)
    bwd = flow.at(t - h)(pts)
    vel = (fwd - bwd) / (2 * h)
    target = flow.generator.values(flow.at(t)(pts))
    return float(np.abs(vel - target).max())


def flow_closure_residual(m: ModelManifold, flow: FlowMap, pts) -> float:
    """|Phi_period - closure map| (identity or the registered deck word)."""
    if flow.period is None:
        raise GalleryError(f"flow {flow.name} has no registered period")
    end = flow.at(flow.period)(pts)
    if flow.closes_via in (None, "identity"):
        target = as_batch(pts, m.dim)
    else:
        target = m.deck(flow.closes_via).map(pts)
    return float(np.abs(end - target).max())


# -- fixture builders ---------------------------------------------------------


def _annulus_sampler(dim, r_lo, r_hi):
    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=(count, dim))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), size=count))
        return direction * r[:, None]

    return sampler


def _scaled_rotation_affine(dim, a: complex):
    """Phi_t(z) = e^{a t} z applied to every complex coordinate."""

    def affine(t):
        t = np.asarray(t, dtype=float)
        return complex_multiplier(dim, np.exp(a * t)), np.zeros(t.shape + (dim,))

    return affine


# The sampler draws radii down to |beta|, where the 1/|z|^k coefficients of
# the structure push the absolute residuals past their tolerances: at seed 42
# lck_identity is 9.5e-7 at |beta| = 0.001 and 1.5e-8 at 0.004 (tolerance
# 1e-8), and at most 1.9e-9 at 0.01 over seeds 0-12, 42 and 12345.
_HOPF_DIAG_MIN_BETA = 0.01


def hopf_diag(n=2, beta=0.5 + 0j):
    """Diagonal Hopf manifold (C^n - 0)/(z -> beta z) with its Vaisman pair.

    ``n >= 2`` and ``beta`` is complex with 0.01 <= |beta| < 1.  Each
    registered circle is z -> e^{rate t} z on every coordinate, and its
    generator is rate z: B -1/2, A -i/2 (= JB), R i, C -1/2 + i (= B + R),
    JC -1 - i/2 and, unless beta is real positive, L -1/2 + i arg(beta)/T
    with T = -2 ln |beta|.  The Lee circle that closes via gamma (its
    time-T map is z -> beta z) is B for real positive beta and L otherwise;
    ``extras["lee_circle"]`` names it.

    The fundamental form is normalized so the Lee field has unit norm:
    Omega = 2|z|^{-2} sum_j i dz_j ^ dzbar_j, theta = -d ln |z|^2.  The
    cover's Kaehler form e^{-phi} Omega = 4 sum_j dx_j ^ dy_j (the generic
    ``kahler_lift``, whose factors cancel) is registered in closed form as
    ``extras["cover_kahler"]``; the orbit pipeline integrates it and
    certifies it against the generic lift on its points.
    """
    n = int(n)
    beta = complex(beta)
    if n < 2:
        # on a curve the Lee form is not determined by the fundamental form
        raise GalleryError("hopf_diag needs n >= 2")
    if not _HOPF_DIAG_MIN_BETA <= abs(beta) < 1:
        raise GalleryError(
            f"hopf_diag needs {_HOPF_DIAG_MIN_BETA:g} <= |beta| < 1")
    if beta.imag == 0:
        beta = complex(beta.real, 0.0)
    dim = 2 * n
    r2 = ScalarField.nsum([coordinate(i, dim) ** 2 for i in range(dim)])
    phi = -1.0 * r2.log()
    inv = 1.0 / r2
    omega = Form(dim, 2, {(2 * j, 2 * j + 1): 4.0 * inv for j in range(n)})
    theta = Form(dim, 1, {(i,): -2.0 * coordinate(i, dim) * inv for i in range(dim)})

    lee_period = -2.0 * math.log(abs(beta))
    b_closes = beta.imag == 0 and beta.real > 0
    # name -> (rate, period, closes_via) of the circle z -> e^{rate t} z
    circles = {"B": (-0.5, None, None), "A": (-0.5j, 4 * math.pi, "identity"),
               "R": (1.0j, 2 * math.pi, "identity"), "C": (-0.5 + 1.0j, None, None),
               "JC": (-1.0 - 0.5j, None, None)}
    if b_closes:
        circles["B"] = (-0.5, lee_period, "gamma")
    else:
        circles["L"] = (-0.5 + cmath.phase(beta) / lee_period * 1j, lee_period, "gamma")
    if abs(beta - math.exp(-math.pi)) < 1e-12:
        circles["C"] = (-0.5 + 1.0j, 2 * math.pi, "gamma")
    # each generator is rate z, the matrix rows of complex_multiplier
    gens = {name: VectorField(PointMap.affine(complex_multiplier(dim, rate),
                                              np.zeros(dim)).components, name=name)
            for name, (rate, _, _) in circles.items()}

    gamma = PointMap.affine(complex_multiplier(dim, beta), np.zeros(dim))
    deck = DeckTransformation("gamma", gamma, rho=1.0 / abs(beta) ** 2)

    m = ModelManifold(
        name="hopf_diag",
        dim=dim,
        contains=lambda pts: np.linalg.norm(pts, axis=1) > 1e-9,
        sampler=_annulus_sampler(dim, abs(beta), 1.0),
        decks=[deck],
        phi=phi,
        structure=LCKStructure(omega, theta, lee_B=gens["B"], lee_A=gens["A"]),
        params={"n": n, "beta": beta},
    )

    for name, (rate, period, closes_via) in circles.items():
        m.register_flow(FlowMap(name, gens[name], period=period, closes_via=closes_via,
                                affine=_scaled_rotation_affine(dim, rate)))
    m.extras["lee_circle"] = "B" if b_closes else "L"
    m.extras["cover_kahler"] = Form(
        dim, 2, {(2 * j, 2 * j + 1): constant(4.0, dim) for j in range(n)})
    return m


_NONDIAG_MAX_STRETCH = 16.0
# From m = 5 on, the central-difference flow_generator row fails its 1e-8
# tolerance for in-domain beta and lam (1.4e-8 to 1.6e-8 in the cases
# tried); every m <= 4 case tried passed.
_NONDIAG_MAX_M = 4
# As lam -> 0 the surface degenerates to a diagonal Hopf surface and the
# singular values of [Xi | J Xi] that make the torus purely real shrink
# with |lam|: the rank cutoff (1e-8) loses them at |lam| = 1e-7 on some
# sample sets and at 1e-8 on nearly all; every row holds at 1e-6 (seeds
# 0, 7, 42, 12345, m = 1..4).
_NONDIAG_MIN_LAM = 1e-4


def _nondiag_tail_bound(b, lam, m, K):
    """Bound on the terms |k| > K of the hopf_nondiag series, relative to the
    series, on the sampler's annulus b <= |z| <= 1 (b = |beta|, lam = |lam|).

    Term k is b^{-2k} chi(n_k) with n_k = |gamma^k z|^2, gamma^k z =
    (beta^k z1, beta^{mk} z2 + k lam beta^{m(k-1)} z1^m) and chi(n) =
    n^2 / (1 + n^3) <= min(n^2, 1/n).  For k > K, n_k <= b^{2k} q_k with
    q_k = 1 + b^{2(m-1)k} (1 + k lam b^{-m})^2, so the term is at most
    b^{2k} q_k^2.  For k = -j < -K, splitting at |z1| = b/2 and at the r_j
    with j lam b^{-m} r_j^m = 0.43 b gives n_k >= b^{-2j} min(r_j^2, 0.18 b^2),
    so the term is at most b^{4j} / min(r_j^2, 0.18 b^2).  The series is at
    least its k = 0 term, chi(|z|^2) >= b^4 / 2.  Evaluated in logarithms,
    so a bound out of double range comes out as inf, never as nan.
    """
    lb, ll = math.log(b), math.log(lam)
    k = np.arange(K + 1, K + 400, dtype=float)
    log_k = np.log(k)
    # log of sqrt(q_k - 1) = b^{(m-1)k} (1 + k lam b^{-m})
    half = (m - 1) * k * lb + np.logaddexp(0.0, log_k + ll - m * lb)
    pos = 2 * k * lb + 2 * np.logaddexp(0.0, 2 * half)
    log_r2 = (2.0 / m) * (math.log(0.43) + (m + 1) * lb - log_k - ll)
    neg = 4 * k * lb - np.minimum(log_r2, math.log(0.18) + 2 * lb)
    log_tail = np.logaddexp.reduce(np.concatenate([pos, neg]))
    with np.errstate(over="ignore"):
        return float(np.exp(log_tail + math.log(2.0) - 4 * lb))


def _given_per_block(ctx, order):
    """The closure of a stacked family's leaf, whose jet each block is given."""
    raise RuntimeError("a stacked family's leaf is evaluated only where its jet is given")


def _jet_rows(jet: Jet, rows) -> Jet:
    """The rows ``rows`` (a slice or an index array) of every tier of jet."""
    return Jet(jet.order, *[None if x is None else x[..., rows]
                            for x in (jet.v, jet.g, jet.h, jet.t)])


def hopf_nondiag(beta=0.4 + 0.1j, lam=1.0 + 0j, m=2):
    """Non-diagonal Hopf surface: deck (z1, z2) -> (b z1, b^m z2 + lam z1^m).

    Carries the purely-real maximal torus generated by xi1 = 2 pi i Z1 and
    xi2 = c Z1 + (lam / beta^m) Z2 (Z1 = z1 d/dz1 + m z2 d/dz2,
    Z2 = z1^m d/dz2, e^c = beta) and an invariant Lee-class representative
    theta = d phi, phi = -ln w, from the deck-weighted series potential
    w = sum_{|k| <= K} |beta|^{-2k} chi(|gamma^k z|^2), w o gamma = |beta|^2 w
    (no explicit metric is wired in).  The 2K+1 terms are evaluated as one
    stacked family along the point axis, so the field DAG does not grow
    with K (``extras["series_K"]``).
    """
    beta = complex(beta)
    lam = complex(lam)
    mm = int(m)
    if not cmath.isfinite(lam):
        raise GalleryError("hopf_nondiag needs a finite lam")
    if not 0 < abs(beta) < 1:
        raise GalleryError("hopf_nondiag needs 0 < |beta| < 1")
    if not 1 <= mm <= _NONDIAG_MAX_M:
        raise GalleryError(f"hopf_nondiag needs 1 <= m <= {_NONDIAG_MAX_M}")
    if abs(lam) < _NONDIAG_MIN_LAM:
        raise GalleryError(f"hopf_nondiag needs |lam| >= {_NONDIAG_MIN_LAM:g}")
    # The xi2 flow shears z2 by (lam / beta^m) u z1^m, so its orbits through the
    # unit annulus stretch by up to |lam| / |beta|^m.  The torus verdict takes
    # its pairings from the deck jump of phi; the cap keeps the parameters
    # where the node sweep confirms them (constancy 1.3e-15 at m = 3, stretch
    # 14.3, and 9.6e-16 at lam = 2, 11.8, with 64 nodes) and where the
    # central-difference flow_generator row holds (3.6e-8 at lam = 1000).
    with np.errstate(over="ignore"):
        stretch = float(np.exp(math.log(abs(lam)) - mm * math.log(abs(beta))))
    if stretch > _NONDIAG_MAX_STRETCH:
        raise GalleryError(
            f"hopf_nondiag cannot resolve its xi2 orbits: |lam| / |beta|^m = "
            f"{stretch:.3g} > {_NONDIAG_MAX_STRETCH:g}")
    dim = 4
    z1 = complex_coordinate(0, dim)
    z2 = complex_coordinate(1, dim)
    c = complex(np.log(beta))  # principal branch, e^c = beta
    b2 = lam / beta**mm

    gamma = PointMap.from_complex([beta * z1, (beta**mm) * z2 + lam * z1**mm])

    Z1_hol = [z1, float(mm) * z2]
    Z2_hol = [0.0 * z1, z1**mm]
    Z1_re = VectorField.from_holomorphic(Z1_hol, "Z1_re")
    Z1_im = VectorField.from_holomorphic([1j * h for h in Z1_hol], "Z1_im")
    Z2_re = VectorField.from_holomorphic(Z2_hol, "Z2_re")
    Z2_im = VectorField.from_holomorphic([1j * h for h in Z2_hol], "Z2_im")

    def complex_flow(a_coef: complex, b_coef: complex):
        """Flow map of a Z1 + b Z2 at complex time u."""

        def at(u: complex) -> PointMap:
            e1 = np.exp(a_coef * u)
            e2 = np.exp(a_coef * mm * u)
            return PointMap.from_complex(
                [e1 * z1, e2 * (z2 + (b_coef * u) * z1**mm)])

        return at

    # deck-weighted series potential: w o gamma = |beta|^2 w, w > 0 smooth.
    # K starts where |beta|^{2K} is about 1e-15 and is raised until the
    # relative dropped-tail bound on the sampler's annulus is below 1e-10;
    # it is capped at 80 so the far terms' jet intermediates stay inside
    # double range, and parameters the cap leaves uncertified are refused
    K = int(np.clip(math.ceil(7.5 / -math.log10(abs(beta))) + 4, 8, 80))
    tail = _nondiag_tail_bound(abs(beta), abs(lam), mm, K)
    while K < 80 and tail > 1e-10:
        K += 1
        tail = _nondiag_tail_bound(abs(beta), abs(lam), mm, K)
    if not tail <= 1e-10:
        raise GalleryError(
            f"hopf_nondiag cannot certify its series at |beta| = {abs(beta):.4g}, "
            f"|lam| = {abs(lam):.4g}, m = {mm}: dropped-tail bound {tail:.1e} > 1e-10")
    # Term k is |beta|^{-2k} chi(n_k), n_k = |gamma^k z|^2, with
    # gamma^k z = (beta^k z1, beta^{mk} z2 + k lam beta^{m(k-1)} z1^m).  The
    # 2K+1 terms are one stacked family: the jets of z1, z2 and z1^m are
    # taken once on the batch and tiled along the point axis, row k*N + p
    # holding term k at point p, and the term's operations run once on the
    # stacked rows (in blocks, ``fields._eval_in_blocks``), its constants
    # per-row arrays that multiply each tier as a scalar would.  The sum
    # over k is then taken slice by slice in k order, as ``nsum`` adds its
    # terms, so every jet equals the term-by-term sum's.
    ks = range(-K, K + 1)
    c1 = np.array([beta**k for k in ks])
    c2 = np.array([beta ** (mm * k) for k in ks])
    c3 = np.array([k * lam * beta ** (mm * (k - 1)) for k in ks])
    ab2 = abs(beta) ** 2
    weights = [ab2 ** (-k) for k in ks]
    z1m = z1**mm
    # the stacked rows' beta^k z1 and beta^{mk} z2 + k lam beta^{m(k-1)} z1^m,
    # whose jets each block is given
    w1, w2 = (ScalarField(dim, _given_per_block) for _ in range(2))
    nk = (w1 * w1.conjugate()).real_part() + (w2 * w2.conjugate()).real_part()
    # chi(n) = n^2/(1 + n^3) written as 1/(n + n^{-2}) to keep the jet
    # intermediates of the far terms inside double range
    chi = 1.0 / (nk + (1.0 / nk) ** 2)

    def series(ctx, order):
        base = [f.eval(ctx, order) for f in (z1, z2, z1m)]
        n = ctx.pts.shape[0]

        def given(rows):
            k, p = np.divmod(np.arange(rows.start, rows.stop), n)
            Z1, Z2, Z1m = (_jet_rows(j, p) for j in base)
            return {w1: Z1 * c1[k], w2: Z2 * c2[k] + Z1m * c3[k]}

        terms = _eval_in_blocks([chi], np.tile(ctx.pts, (len(ks), 1)), order, given)[0]
        acc = None
        for i, w in enumerate(weights):
            x = _jet_rows(terms, slice(i * n, (i + 1) * n))
            if w != 1:
                x = x * w
            acc = x if acc is None else acc + x
        return acc

    w_series = ScalarField(dim, series)
    phi_nd = -1.0 * w_series.log()
    theta_nd = exterior_d(Form.from_function(phi_nd))

    mfd = ModelManifold(
        name="hopf_nondiag",
        dim=dim,
        contains=lambda pts: np.linalg.norm(pts, axis=1) > 1e-9,
        sampler=_annulus_sampler(dim, abs(beta), 1.0),
        decks=[DeckTransformation("gamma", gamma, rho=1.0 / ab2)],
        phi=phi_nd,
        structure=None,
        lee_class=theta_nd,
        params={"beta": beta, "lam": lam, "m": mm, "c": c},
    )
    # each circle is a Z1 + b Z2 with its flow complex_flow(a, b) at real time;
    # Z2 has no z1 component
    for name, a, b, closes_via in (("xi1", 2j * math.pi, 0.0, "identity"),
                                   ("xi2", c, b2, "gamma")):
        gen = VectorField.from_holomorphic(
            [a * Z1_hol[0], a * Z1_hol[1] + b * Z2_hol[1]], name)
        mfd.register_flow(FlowMap(name, gen, complex_flow(a, b),
                                  period=1.0, closes_via=closes_via))
    for f in (Z1_re, Z1_im, Z2_re, Z2_im):
        mfd.fields[f.name] = f
    mfd.extras["holomorphic_flow"] = complex_flow
    # the series runs over k = -K .. K
    mfd.extras["series_K"] = K
    return mfd


def inoue_splus(p=0, q=0, r=1, t=0.0, N=((2, 1), (1, 1))):
    """Inoue surface S^+: quotient of H x C by the affine group g0..g3.

    Constants are derived from the lattice data: alpha is the large
    eigenvalue of N, (a_i), (b_i) the eigenvectors normalized to leading
    entry 1, and (c1, c2) solves the displayed linear system.  The LCK pair
    (Omega, theta = d Im w / Im w) requires t real.
    """
    try:
        N = np.asarray(N, dtype=float)
    except (TypeError, ValueError):
        raise GalleryError("inoue_splus needs N a real 2x2 matrix") from None
    if N.shape != (2, 2) or abs(np.linalg.det(N) - 1.0) > 1e-12:
        raise GalleryError("inoue_splus needs an SL(2, Z) matrix")
    if int(r) == 0:
        raise GalleryError("inoue_splus needs r != 0")
    if isinstance(t, complex) and t.imag != 0:
        raise GalleryError("the Inoue LCK fixture needs t real")
    t = float(np.real(t))
    if not math.isfinite(t):
        raise GalleryError("inoue_splus needs a finite t")
    p, q, r = int(p), int(q), int(r)

    evals = np.linalg.eigvals(N).real
    alpha = float(evals.max())
    if alpha <= 1:
        raise GalleryError("inoue_splus needs a real eigenvalue alpha > 1")
    a2 = (alpha - N[0, 0]) / N[0, 1]
    b2 = (1.0 / alpha - N[0, 0]) / N[0, 1]
    a = np.array([1.0, a2])
    b = np.array([1.0, b2])
    e = np.zeros(2)
    for i in range(2):
        e[i] = (
            0.5 * N[i, 0] * (N[i, 0] - 1) * a[0] * b[0]
            + 0.5 * N[i, 1] * (N[i, 1] - 1) * a[1] * b[1]
            + N[i, 0] * N[i, 1] * b[0] * a[1]
        )
    lam0 = (b[0] * a[1] - b[1] * a[0]) / r
    rhs = e + lam0 * np.array([p, q])
    cvec = np.linalg.solve((np.eye(2) - N.T).T, rhs)  # row-vector system

    dim = 4
    x1, y1 = coordinate(0, dim), coordinate(1, dim)
    x2, y2 = coordinate(2, dim), coordinate(3, dim)

    g0 = PointMap([x1 * alpha, y1 * alpha, x2 + t, y2 * 1.0])
    g1 = PointMap([x1 + a[0], y1 * 1.0, x2 + b[0] * x1 + cvec[0], y2 + b[0] * y1])
    g2 = PointMap([x1 + a[1], y1 * 1.0, x2 + b[1] * x1 + cvec[1], y2 + b[1] * y1])
    g3 = PointMap([x1 * 1.0, y1 * 1.0, x2 + lam0, y2 * 1.0])
    decks = [
        DeckTransformation("g0", g0, rho=alpha),
        DeckTransformation("g1", g1, rho=1.0),
        DeckTransformation("g2", g2, rho=1.0),
        DeckTransformation("g3", g3, rho=1.0),
    ]

    inv_y1 = 1.0 / y1
    omega_c = Form(dim, 2, {
        (0, 1): (1.0 + y2**2) * inv_y1**2 * 1.0j,
        (0, 3): -1.0j * y2 * inv_y1,
        (1, 2): 1.0j * y2 * inv_y1,
        (2, 3): constant(1.0j, dim),
    }, frame="complex")
    omega = to_real(omega_c)
    theta = Form(dim, 1, {(1,): inv_y1})

    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        out = np.empty((count, 4))
        out[:, 0] = rng.uniform(0.0, a[0], size=count)
        out[:, 1] = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=count))
        out[:, 2] = rng.uniform(0.0, abs(lam0), size=count)
        out[:, 3] = rng.uniform(-1.0, 1.0, size=count)
        return out

    xi = VectorField(
        [constant(0.0, dim), constant(0.0, dim), constant(lam0 / 2.0, dim),
         constant(0.0, dim)],
        name="xi",
    )

    def xi_affine(tt):
        tt = np.asarray(tt, dtype=float)
        off = np.zeros(tt.shape + (dim,))
        off[..., 2] = (lam0 / 2.0) * tt
        return np.tile(np.eye(dim), tt.shape + (1, 1)), off

    m = ModelManifold(
        name="inoue_splus",
        dim=dim,
        contains=lambda pts: pts[:, 1] > 0,
        sampler=sampler,
        decks=decks,
        phi=y1.log(),
        structure=LCKStructure(omega, theta),
        params={"p": p, "q": q, "r": r, "t": t, "alpha": alpha,
                "a": a, "b": b, "c": cvec, "lam0": lam0},
    )
    m.register_flow(FlowMap("xi", xi, period=2.0, closes_via="g3", affine=xi_affine))
    return m


def hxc_cover():
    """The bare cover H x C (no deck group, no canonical structure)."""
    dim = 4

    def sampler(count, seed):
        rng = np.random.default_rng(seed)
        out = rng.uniform(-1.0, 1.0, size=(count, 4))
        out[:, 1] = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=count))
        return out

    return ModelManifold(
        name="hxc_cover",
        dim=dim,
        contains=lambda pts: pts[:, 1] > 0,
        sampler=sampler,
    )


def _factor(x) -> ModelManifold:
    if x is None:
        return hopf_diag()
    if isinstance(x, str):
        return gallery(x)
    if isinstance(x, ModelManifold):
        return x
    raise GalleryError(f"product factors are fixture ids or manifolds, not {x!r}")


def product(a: ModelManifold | str | None = None,
            b: ModelManifold | str | None = None):
    """Product chart of two fixtures with the product deck group; a factor
    is a fixture id, a ModelManifold or None (the default hopf_diag)."""
    a, b = _factor(a), _factor(b)
    dim = a.dim + b.dim
    proj1 = PointMap([coordinate(i, dim) for i in range(a.dim)])
    proj2 = PointMap([coordinate(a.dim + i, dim) for i in range(b.dim)])

    factors = ((0, a), (1, b))

    def embed(components, side, pad):
        """A factor's components on the product chart; product slot i of
        the other factor is ``pad(i)``."""
        own = [compose_field(c, (proj1, proj2)[side]) for c in components]
        if side == 0:
            return own + [pad(a.dim + i) for i in range(b.dim)]
        return [pad(i) for i in range(a.dim)] + own

    def embed_map(pm: PointMap, side: int) -> PointMap:
        return PointMap(embed(pm.components, side, lambda i: coordinate(i, dim)))

    def embed_field(X: VectorField, side: int) -> VectorField:
        return VectorField(embed(X.components, side, lambda i: constant(0.0, dim)),
                           name=f"{X.name}@{side}")

    decks = [DeckTransformation(f"{d.name}@{side}", embed_map(d.map, side), d.rho)
             for side, factor in factors for d in factor.decks]

    def sampler(count, seed):
        return np.hstack([a.sample(count, seed), b.sample(count, seed + 1)])

    def contains(pts):
        return np.logical_and(
            a.contains(pts[:, : a.dim]), b.contains(pts[:, a.dim :])
        )

    m = ModelManifold(
        name=f"product({a.name},{b.name})",
        dim=dim,
        contains=contains,
        sampler=sampler,
        decks=decks,
        params={"factors": (a.name, b.name)},
    )
    for side, factor in factors:
        for name, X in factor.fields.items():
            m.fields[f"{name}@{side}"] = embed_field(X, side)
    for side, factor in factors:
        for name, fl in factor.flows.items():
            m.register_flow(FlowMap(
                f"{name}@{side}", embed_field(fl.generator, side),
                lambda tt, _fl=fl, _side=side: embed_map(_fl.at(tt), _side),
                period=fl.period,
                closes_via=None if fl.closes_via in (None, "identity")
                else f"{fl.closes_via}@{side}",
            ))
    # canonical torus: the Lee-plane circles of each factor when present,
    # otherwise every registered periodic circle of that factor
    torus_names = []
    for side, factor in factors:
        preferred = [n for n in ("A", "B") if n in factor.flows
                     and factor.flows[n].period is not None]
        if not preferred:
            preferred = [n for n, fl in factor.flows.items()
                         if fl.period is not None]
        torus_names.extend(f"{n}@{side}" for n in preferred)
    if not torus_names:
        raise GalleryError(
            f"product({a.name},{b.name}) has no periodic circle to act by")
    m.extras["torus_flows"] = torus_names
    return m


# The suite certifies that the structure is not Vaisman by a parallel-Lee
# residual of about 320 |eps| (expect_large, tolerance 1e-2); below this
# floor it cannot, and at eps = 0 the structure is the Vaisman base itself.
_LEEOLO_MIN_EPS = 1e-3


def leeolo(eps=0.3, n=2):
    """Hopf base with B-flow period 2 pi carrying the norm-modulated
    structure Omega' = Omega + f theta ^ J theta, f = eps cos(orbit),
    |eps| >= 0.001 (|eps| >= 1 is inadmissible: f > -1 fails)."""
    from .potential import PeriodicFunction, build_leeolo

    if int(n) < 2:
        raise GalleryError("leeolo needs n >= 2")
    if not abs(eps) >= _LEEOLO_MIN_EPS:  # NaN is refused too
        raise GalleryError(f"leeolo needs |eps| >= {_LEEOLO_MIN_EPS:g}")
    base = hopf_diag(n=n, beta=math.exp(-math.pi))
    base.name = "leeolo"
    res = build_leeolo(base, PeriodicFunction.cosine(float(eps)))
    base.extras["leeolo"] = res
    base.extras["vaisman_base"] = base.structure
    base.extras["base_phi"] = base.phi
    base.structure = res.structure
    base.phi = res.psi
    return base


_BUILDERS = {
    "hopf_diag": hopf_diag,
    "hopf_nondiag": hopf_nondiag,
    "inoue_splus": inoue_splus,
    "hxc_cover": hxc_cover,
    "product": product,
    "leeolo": leeolo,
}


def _numeric_rank(x):
    """0, 1, 2 for an integer, real or complex number; None otherwise."""
    if isinstance(x, bool):
        return None
    for rank, kind in enumerate((numbers.Integral, numbers.Real, numbers.Complex)):
        if isinstance(x, kind):
            return rank
    return None


def gallery(fixture_id: str, **params) -> ModelManifold:
    """Build a gallery fixture by id (see _BUILDERS for the catalog).

    Parameters must be named in the builder's signature.  A parameter with
    a numeric default takes a number no wider than that default (int ->
    float -> complex widening is allowed); anything else is a GalleryError.
    The builder checks the other parameters where it reads them.
    """
    if fixture_id not in _BUILDERS:
        raise GalleryError(f"unknown fixture {fixture_id!r}")
    builder = _BUILDERS[fixture_id]
    signature = inspect.signature(builder).parameters
    for key, value in params.items():
        if key not in signature:
            raise GalleryError(f"fixture {fixture_id} has no parameter {key!r}")
        default = signature[key].default
        want = _numeric_rank(default)
        got = _numeric_rank(value)
        if want is not None and (got is None or got > want):
            raise GalleryError(
                f"fixture parameter {key}={value!r} must be "
                f"{type(default).__name__}-valued"
            )
    return builder(**params)

"""Compact torus actions: averaging, rank diagnostics, existence verdicts.

The span tests are pointwise probes of constant-coefficient statements, so
ranks use a relative singular-value cutoff and are required to agree across
all samples.  Existence verdicts implement the decision table

    dim(t ^ Jt) > 2                                  -> NoLCKPossible
    dim in {1, 2}, LCK                               -> VaismanExists
    dim in {1, 2} otherwise                          -> NonReal
    dim = 0, k = n, some vertical generator, LCK     -> PositivePotentialExists
    dim = 0 otherwise                                -> PurelyReal

and always carry their witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import GalleryError, NumericalError
from .fields import (
    VectorField,
    _eval_in_blocks,
    affine_quadrature_family,
    as_batch,
    bracket,
    complex_jmatrix,
)
from .forms import Form, Index, exterior_d, interior_product
from .manifolds import FlowMap, ModelManifold, flow_closure_residual

VERDICTS = (
    "NoLCKPossible",
    "VaismanExists",
    "NonReal",
    "PositivePotentialExists",
    "PurelyReal",
)


class TorusAction:
    """Commuting periodic generators with registered closed-form flows.

    Generator i is sum_j mix[i, j] xi_j over the flows' generators xi_j
    (the flows' own when ``mix`` is None); averaging always runs over the
    registered flows, which is basis independent.
    """

    def __init__(self, manifold: ModelManifold, flows: Sequence[FlowMap],
                 mix=None):
        self.manifold = manifold
        self.flows = list(flows)
        for fl in self.flows:
            if fl.period is None:
                raise GalleryError(f"generator {fl.name} has no periodic flow")
        own = [fl.generator for fl in self.flows]
        self.mix = np.eye(len(own)) if mix is None else np.asarray(mix, dtype=float)
        self.generators = own if mix is None else [
            VectorField.linear_combination(own, row, name=f"mix{i}")
            for i, row in enumerate(self.mix)
        ]

    @property
    def names(self):
        return [g.name for g in self.generators]

    def commutation_residual(self, pts) -> float:
        worst = 0.0
        for i in range(len(self.generators)):
            for j in range(i + 1, len(self.generators)):
                br = bracket(self.generators[i], self.generators[j])
                worst = max(worst, float(np.abs(br.values(pts)).max()))
        return worst

    def closure_residual(self, pts) -> float:
        return max(
            flow_closure_residual(self.manifold, fl, pts) for fl in self.flows
        )

    def recombine(self, matrix) -> "TorusAction":
        return TorusAction(self.manifold, self.flows,
                           np.asarray(matrix, dtype=float) @ self.mix)


def average_over_circle(a: Form, flow: FlowMap, nodes: int) -> Form:
    """Trapezoid average (1/T) int_0^T Phi_t^* a dt over one circle factor.

    The integrand is smooth and periodic, so the uniform-node trapezoid rule
    is spectrally accurate.  When the flow is affine, Phi_t x = M_t x + b_t,
    the pullback of a k-form has coefficients

        (Phi_t^* a)_I = sum_J det M_t[J, I] (a_J o Phi_t)

    with the k x k minor of rows J and columns I (1 for k = 0), all minors
    of one J from one batched determinant.  The average is one
    ``affine_quadrature_family`` over the coefficients a_J: coefficient I
    sums, over J in the form's order, the quadrature of a_J with weights
    det M_t[J, I] / nodes over the nodes, pairs whose weights all vanish
    dropped.  Every a_J is evaluated once per point batch, on one
    node-stacked batch shared by all of them, and the expression does not
    grow with the node count.  A flow without an affine form is a
    GalleryError.
    """
    if nodes < 8:
        raise ValueError("averaging needs nodes >= 8")
    if flow.period is None:
        raise GalleryError(f"flow {flow.name} is not periodic")
    if a.frame != "real":
        raise ValueError("averaging acts on real-frame forms")
    if flow.affine is None:
        raise GalleryError(f"flow {flow.name} has no affine form to average over")
    mats, offs = flow.affine(np.arange(nodes) * (flow.period / nodes))
    columns = list(itertools.combinations(range(a.dim), a.degree))
    cols = np.array(columns, dtype=int).reshape(len(columns), a.degree)
    parts: Dict[Index, list] = {}
    for j, J in enumerate(a.coeffs):
        # minors[i, s] = det M_s[J, columns[i]]
        minors = np.linalg.det(mats[:, list(J)][:, :, cols].transpose(2, 0, 1, 3)) / nodes
        for I, weights in zip(columns, minors):
            if weights.any():
                parts.setdefault(I, []).append((j, weights))
    fields = affine_quadrature_family(list(a.coeffs.values()), mats, offs,
                                      list(parts.values()))
    return a.copy_with(dict(zip(parts, fields)))


# |theta - d phi| up to which theta counts as d of the cover potential (the
# tolerance of the lee_form_closed rows)
_EXACT_TOL = 1e-10


def averaged_pairings(act: TorusAction, theta: Form, pts, nodes):
    """Pointwise pairings of the action-averaged theta with each generator.

    Returns (pairings array of shape (k,), constancy residual).  Flow j
    carries its generator xi_j to itself, and for closed theta the period
    of theta along circle j is the same through every point of a torus
    orbit, so the torus average of theta(xi_j) at a probe is the average of
    the scalar field iota_{xi_j} theta over the ``nodes`` trapezoid nodes of
    circle j through it.  That field is evaluated once on the probes pushed
    to those nodes, k * nodes * P points for k circles and P probes, in the
    fields layer's blocks (``_eval_in_blocks``).  The generators' mix is
    applied afterwards, as in ``deck_jump_pairings``.
    """
    pts = as_batch(pts, act.manifold.dim)
    sums = np.zeros((len(act.flows), pts.shape[0]))
    for j, fl in enumerate(act.flows):
        pairing = interior_product(fl.generator, theta)
        if not pairing.coeffs:  # theta vanishes identically
            continue
        moved = np.concatenate([fl.at(float(t))(pts)
                                for t in np.arange(nodes) * (fl.period / nodes)])
        vals = np.real(_eval_in_blocks([pairing.coeffs[()]], moved, 0)[0].v)
        sums[j] = vals.reshape(nodes, -1).sum(axis=0)
    return _mixed_mean(act, sums / nodes)


def _mixed_mean(act: TorusAction, per_flow):
    """(pairings, constancy residual) from the per-probe pairings of the
    flows, shape (flows, probes): generator i pairs to sum_g mix[i, g] times
    those of flow g; a pairing is the mean over the probes, the residual
    the largest deviation from it."""
    mixed = act.mix @ per_flow
    pairings = mixed.mean(axis=1)
    return pairings, float(np.abs(mixed - pairings[:, None]).max())


def deck_jump_pairings(act: TorusAction, pts):
    """Exact pairings of d phi, phi the cover potential, from its deck jump.

    When circle g closes at its period T_g through the deck map gamma_g (or
    the identity), Fubini and Stokes turn the torus average of
    d phi(xi_g) at y into (phi(gamma_g y) - phi(y)) / T_g, the jump of
    log rho along the circle (0 for the identity).  The pairing is linear
    in the generator, so the mix is applied to the jumps (``_mixed_mean``).
    """
    m = act.manifold
    pts = as_batch(pts, m.dim)
    phi0 = np.real(m.phi.values(pts))
    jumps = np.zeros((len(act.flows), pts.shape[0]))
    for g, fl in enumerate(act.flows):
        if fl.closes_via != "identity":
            there = np.real(m.phi.values(m.deck(fl.closes_via).map(pts)))
            jumps[g] = (there - phi0) / fl.period
    return _mixed_mean(act, jumps)


@dataclass
class TorusPairings:
    """Pairings theta(xi_g) of the averaged theta, the route that found them
    ("deck_jump" or "torus_sweep") and |theta - d phi| when it was measured."""

    values: np.ndarray
    constancy: float
    route: str
    theta_minus_dphi: Optional[float]


def torus_pairings(act: TorusAction, theta: Form, pts, nodes) -> TorusPairings:
    """The deck-jump pairings when they are exact, else the node sweep.

    The deck jump is taken when the manifold has its cover potential phi,
    every flow names its closure, and |theta - d phi| on the probes is at
    most ``_EXACT_TOL``; otherwise ``averaged_pairings`` runs.  The
    ``*_period_closes`` rows of a suite certify that each flow at its
    period is its closure map.  Non-constant pairings (constancy residual
    above 1e-8) signal a broken action or non-invariant input and raise
    NumericalError on either route.
    """
    phi = act.manifold.phi
    gap = None
    if phi is not None and all(fl.closes_via is not None for fl in act.flows):
        gap = (theta - exterior_d(Form.from_function(phi))).max_abs(pts)
    if gap is not None and gap <= _EXACT_TOL:
        res = TorusPairings(*deck_jump_pairings(act, pts), "deck_jump", gap)
    else:
        res = TorusPairings(*averaged_pairings(act, theta, pts, nodes),
                            "torus_sweep", gap)
    if not res.constancy <= 1e-8:
        raise NumericalError(
            f"averaged pairing is not constant (residual {res.constancy:.2e})"
        )
    return res


def intersection_dimension(act: TorusAction, pts) -> int:
    """dim(t ^ Jt) from the generic rank of [Xi | J Xi] over the samples.

    rank[Xi | J Xi] = dim(t + Jt) = 2k - dim(t ^ Jt) at a point where the
    action is free.  t ^ Jt is a subspace of the Lie algebra, so it is read
    off the largest rank over the samples: a sample on a locus where the
    generators degenerate (xi2 a complex multiple of xi1 near z1 = 0 on the
    non-diagonal Hopf surface) has a lower rank and is outvoted.  A
    singular value counts when it is above 1e-8 times the largest.
    """
    pts = as_batch(pts, act.manifold.dim)
    k = len(act.generators)
    J = complex_jmatrix(act.manifold.dim)
    cols = [g.values(pts) for g in act.generators]
    Xi = np.stack(cols, axis=2)  # (N, d, k)
    M = np.concatenate([Xi, np.einsum("ij,njk->nik", J, Xi)], axis=2)
    svals = np.linalg.svd(M, compute_uv=False)
    ranks = (svals > 1e-8 * svals[:, :1]).sum(axis=1)
    return int(2 * k - ranks.max())


@dataclass
class ActionReport:
    verdict: str
    intersection_dim: int
    generators: List[str]
    pairings: Optional[dict] = None
    vertical: Optional[List[str]] = None
    lck_present: bool = False
    notes: str = ""
    pairing_route: Optional[str] = None
    theta_minus_dphi: Optional[float] = None

    def to_json(self):
        out = {
            "verdict": self.verdict,
            "intersection_dim": self.intersection_dim,
            "generators": self.generators,
            "lck_present": self.lck_present,
        }
        if self.pairings is not None:
            out["pairings"] = {k: float(v) for k, v in self.pairings.items()}
            out["pairing_route"] = self.pairing_route
            if self.theta_minus_dphi is not None:
                out["theta_minus_dphi"] = float(self.theta_minus_dphi)
        if self.vertical is not None:
            out["vertical"] = self.vertical
        if self.notes:
            out["notes"] = self.notes
        return out


def verdict(act: TorusAction, theta: Optional[Form], lck_present: bool, pts,
            nodes) -> ActionReport:
    """Existence/obstruction verdict for the action (decision table above).

    ``theta`` is the Lee form whose pairings with the generators label them
    vertical or horizontal (None: no pairings are taken); ``lck_present``
    is the theorems' hypothesis that (M, J) is of LCK type, and the
    Vaisman and positive-potential rows fire only when it holds.
    """
    dim = intersection_dimension(act, pts)
    names = act.names
    if dim > 2:
        return ActionReport("NoLCKPossible", dim, names, lck_present=lck_present,
                            notes="intersection exceeds the Lee plane")
    if dim in (1, 2):
        if lck_present:
            return ActionReport("VaismanExists", dim, names, lck_present=True,
                                notes="non purely real torus on an LCK-type manifold")
        return ActionReport("NonReal", dim, names, lck_present=False,
                            notes="non purely real torus; the Vaisman criterion "
                                  "needs LCK type")
    witnesses = {"lck_present": lck_present}
    if theta is not None:
        # the pairings are constants; a small probe subset suffices
        found = torus_pairings(act, theta, pts[:12], nodes)
        witnesses.update(
            pairings=dict(zip(names, found.values)),
            vertical=[n for n, p in zip(names, found.values) if abs(p) > 1e-6],
            pairing_route=found.route, theta_minus_dphi=found.theta_minus_dphi)
    k = len(act.generators)
    n = act.manifold.complex_dim
    if k == n and witnesses.get("vertical") and lck_present:
        return ActionReport("PositivePotentialExists", dim, names, **witnesses,
                            notes="maximal purely real torus with a vertical circle")
    return ActionReport("PurelyReal", dim, names, **witnesses)

"""Compact torus actions: averaging, rank diagnostics, existence verdicts.

The generators are read as arrays, their values and Jacobians with the
basis mix applied (``TorusAction.generator_arrays``): brackets are array
contractions, and dim(t ^ Jt) is 2k minus the generic rank of [Xi | J Xi]
over the samples.  Existence verdicts implement the decision table

    dim(t ^ Jt) > 2                                  -> NoLCKPossible
    dim in {1, 2}, LCK                               -> VaismanExists
    dim in {1, 2} otherwise                          -> NonReal
    dim = 0, k = n, some vertical generator, LCK     -> PositivePotentialExists
    dim = 0 otherwise                                -> PurelyReal

and always carry their witnesses.  Pairings theta(xi) take one route, the
deck jump of the cover potential (``torus_pairings``), or are refused.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import GalleryError, InadmissibleInput, NumericalError
from .fields import (
    Ctx,
    _eval_in_blocks,
    affine_quadrature_family,
    as_batch,
    bracket,
    complex_jmatrix,
    stacked,
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

    Generator i is sum_g mix[i, g] xi_g over the flows' generators xi_g
    (the flows' own, named after them, when ``mix`` is None; ``mix{i}``
    otherwise).  No generator is built as a field: the mix is applied to
    arrays, the generators' values and Jacobians (``generator_arrays``) and
    the flows' pairings (``_mixed_mean``).  Averaging always runs over the
    registered flows, which is basis independent.
    """

    def __init__(self, manifold: ModelManifold, flows: Sequence[FlowMap],
                 mix=None):
        self.manifold = manifold
        self.flows = list(flows)
        for fl in self.flows:
            if fl.period is None:
                raise GalleryError(f"generator {fl.name} has no periodic flow")
        self.mix = np.eye(len(self.flows)) if mix is None else np.asarray(mix, dtype=float)
        self.names = ([fl.name for fl in self.flows] if mix is None
                      else [f"mix{i}" for i in range(len(self.mix))])

    def generator_arrays(self, pts, order=0):
        """The generators' values (k, N, d) on ``pts`` and, at order 1, their
        Jacobians (k, N, d, d), [g, n, i, j] = d_j X_g^i (None at order 0),
        from one ``stacked`` call on all the flows' generator components,
        with the mix applied to both."""
        pts = as_batch(pts, self.manifold.dim)
        n, d = pts.shape
        vals, jacs = stacked([c for fl in self.flows for c in fl.generator.components],
                             pts, order)
        if order:
            jacs = np.einsum("ig,ngab->inab", self.mix, jacs.reshape(n, -1, d, d))
        return np.einsum("ig,nga->ina", self.mix, vals.reshape(n, -1, d)), jacs

    def commutation_residual(self, pts) -> float:
        """max |[X_i, X_j]| over the pairs of generators and the points (NaN
        if any is), from the order-1 generator arrays (``fields.bracket``)."""
        vals, jacs = self.generator_arrays(pts, 1)
        brackets = [bracket(vals[i], jacs[i], vals[j], jacs[j])
                    for i, j in itertools.combinations(range(len(vals)), 2)]
        return float(np.abs(brackets).max()) if brackets else 0.0

    def closure_residual(self, pts) -> float:
        return float(np.max([flow_closure_residual(self.manifold, fl, pts)
                             for fl in self.flows]))

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
    dropped, so the expression does not grow with the node count.  A flow
    without an affine form is a GalleryError.
    """
    if nodes < 8:
        raise ValueError("averaging needs nodes >= 8")
    if flow.period is None:
        raise GalleryError(f"flow {flow.name} is not periodic")
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
    iota_{xi_j} theta over the ``nodes`` trapezoid nodes of circle j
    through it, evaluated in row blocks (``_eval_in_blocks``) on the probes
    pushed to the nodes.  The mix is applied afterwards (``_mixed_mean``).
    No engine route reaches it: it is the tests' reference for
    ``torus_pairings``.
    """
    pts = as_batch(pts, act.manifold.dim)
    sums = np.zeros((len(act.flows), pts.shape[0]))
    for j, fl in enumerate(act.flows):
        pairing = interior_product(fl.generator, theta)
        if not pairing.coeffs:  # theta vanishes identically
            continue
        moved = np.concatenate([fl.at(float(t))(pts)
                                for t in np.arange(nodes) * (fl.period / nodes)])
        field = pairing.coeffs[()]
        (vals,) = _eval_in_blocks(len(moved), lambda rows: [field.eval(Ctx(moved[rows]), 0)])
        sums[j] = np.real(vals.v).reshape(nodes, -1).sum(axis=0)
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
    """Pairings theta(xi_g) of the averaged theta, their constancy residual
    and |theta - d phi| on the probes."""

    values: np.ndarray
    constancy: float
    theta_minus_dphi: float


def torus_pairings(act: TorusAction, theta: Form, pts) -> TorusPairings:
    """The pairings of theta with the generators, from the deck jump of phi.

    The jump is exact when the manifold has its cover potential phi, every
    flow names its closure, and |theta - d phi| on the probes is at most
    ``_EXACT_TOL``; the ``*_period_closes`` rows of a suite certify that
    each flow at its period is its closure map.  An input that fails a
    condition is InadmissibleInput, naming it.  Non-constant pairings
    (constancy residual above 1e-8) signal a broken action or a
    non-invariant phi and raise NumericalError.
    """
    m = act.manifold
    unclosed = ", ".join(fl.name for fl in act.flows if fl.closes_via is None)
    gap = None if m.phi is None or unclosed else (
        theta - exterior_d(Form.from_function(m.phi))).max_abs(pts)
    if gap is None or not gap <= _EXACT_TOL:
        why = ("it has no cover potential" if m.phi is None
               else f"flow(s) {unclosed} name no closure" if unclosed
               else f"|theta - d phi| = {gap:.2e} > {_EXACT_TOL:g}")
        raise InadmissibleInput(f"no deck-jump pairing on {m.name}: {why}")
    res = TorusPairings(*deck_jump_pairings(act, pts), gap)
    if not res.constancy <= 1e-8:
        raise NumericalError(
            f"averaged pairing is not constant (residual {res.constancy:.2e})")
    return res


def intersection_dimension(act: TorusAction, pts) -> int:
    """dim(t ^ Jt) from the generic rank of [Xi | J Xi] over the samples.

    rank[Xi | J Xi] = dim(t + Jt) = 2k - dim(t ^ Jt) at a point where the
    action is free.  t ^ Jt is a subspace of the Lie algebra, so it is read
    off the largest rank over the samples: a sample on a locus where the
    generators degenerate (xi2 a complex multiple of xi1 near z1 = 0 on the
    non-diagonal Hopf surface) has a lower rank and is outvoted.  A
    singular value counts when it is above 1e-8 times the largest.  Xi is
    read from the order-0 generator arrays, the mix already applied.
    """
    vals, _ = act.generator_arrays(pts, 0)
    J = complex_jmatrix(act.manifold.dim)
    # [Xi | J Xi] at each point, shape (N, d, 2k)
    M = np.concatenate([vals, vals @ J.T]).transpose(1, 2, 0)
    svals = np.linalg.svd(M, compute_uv=False)
    ranks = (svals > 1e-8 * svals[:, :1]).sum(axis=1)
    return int(2 * len(vals) - ranks.max())


@dataclass
class ActionReport:
    verdict: str
    intersection_dim: int
    generators: List[str]
    pairings: Optional[dict] = None
    vertical: Optional[List[str]] = None
    lck_present: bool = False
    notes: str = ""
    theta_minus_dphi: Optional[float] = None

    def to_json(self):
        out = {"verdict": self.verdict, "intersection_dim": self.intersection_dim,
               "generators": self.generators, "lck_present": self.lck_present}
        if self.pairings is not None:
            out["pairings"] = {k: float(v) for k, v in self.pairings.items()}
            out["pairing_route"] = "deck_jump"
            out["theta_minus_dphi"] = float(self.theta_minus_dphi)
        if self.vertical is not None:
            out["vertical"] = self.vertical
        if self.notes:
            out["notes"] = self.notes
        return out


def verdict(act: TorusAction, theta: Optional[Form], lck_present: bool,
            pts) -> ActionReport:
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
        found = torus_pairings(act, theta, pts[:12])
        witnesses.update(
            pairings=dict(zip(names, found.values)),
            vertical=[n for n, p in zip(names, found.values) if abs(p) > 1e-6],
            theta_minus_dphi=found.theta_minus_dphi)
    maximal = len(act.mix) == act.manifold.complex_dim
    if maximal and witnesses.get("vertical") and lck_present:
        return ActionReport("PositivePotentialExists", dim, names, **witnesses,
                            notes="maximal purely real torus with a vertical circle")
    return ActionReport("PurelyReal", dim, names, **witnesses)

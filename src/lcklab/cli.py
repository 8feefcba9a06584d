"""Command line interface: verification suites and machine-readable reports.

Fixture ids are strings like ``hopf_diag:n=2,beta=0.5``.  Every check row
carries {name, residual, tolerance, polarity, pass, paper_anchor}; polarity
"expect_large" marks negative results (the suite passes when the residual is
large).  Exit codes: 0 all checks pass, 1 a check failed, 2 unknown fixture /
bad parameters, 3 numerical failure, 4 inadmissible input.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import errno
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import EXIT_ERRORS, GalleryError
from . import lck as L
from . import manifolds as M
from . import torus as T
from . import potential as P
from .fields import constant, coordinate, session, stacked
from .forms import Form, apply_J, dc, exterior_d, interior_product, twisted_d

@dataclass
class Check:
    name: str
    residual: float
    tolerance: float
    anchor: str
    polarity: str = "expect_small"

    @property
    def passed(self) -> bool:
        if self.polarity == "expect_large":
            return self.residual > self.tolerance
        return self.residual < self.tolerance

    def to_json(self):
        return {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "polarity": self.polarity,
            "pass": bool(self.passed),
            "paper_anchor": self.anchor,
        }


def parse_fixture(fixture_id: str):
    """(name, params) of a fixture id ``name:key=value,...``, split on the
    commas outside parentheses.  A value is an int, float or complex if it
    reads as one, else, with a parenthesis, a literal tuple of numbers
    nested at most 4 deep (``N=((2,1),(1,1))``), else a string.  Anything
    else, unbalanced parentheses or a repeated key is a GalleryError."""
    name, _, rest = fixture_id.partition(":")
    items, depth = [""], 0
    for ch in rest:
        depth += (ch == "(") - (ch == ")")
        if not 0 <= depth <= 4:
            raise GalleryError(f"unbalanced or too deep parentheses in {rest!r}")
        if ch == "," and not depth:
            items.append("")
        else:
            items[-1] += ch
    if depth:
        raise GalleryError(f"unbalanced parentheses in {rest!r}")
    params = {}
    for item in items if rest else []:
        key, eq, val = (part.strip() for part in item.partition("="))
        if not eq or key in params:
            raise GalleryError(f"malformed or repeated fixture parameter {item!r}")
        params[key] = _parse_value(val)
    return name.strip(), params


def _parse_value(text: str):
    for cast in (int, float, complex):
        try:
            return cast(text)
        except ValueError:
            continue
    if "(" not in text:
        return text
    try:
        value = ast.literal_eval(text)
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        value = None
    if not _is_numeric_tuple(value):
        raise GalleryError(f"fixture parameter value {text!r} is not a tuple of numbers")
    return value


def _is_numeric_tuple(value) -> bool:
    """Whether ``value`` is a non-empty tuple of numbers or such tuples."""
    return isinstance(value, tuple) and bool(value) and all(
        _is_numeric_tuple(v) or isinstance(v, (int, float, complex))
        and not isinstance(v, bool) for v in value)


# -- per-fixture check suites -------------------------------------------------


def _structure_checks(m, s, pts, tol):
    checks = [
        Check("lee_form_closed", exterior_d(s.theta).max_abs(pts), 1e-10,
              "d theta = 0"),
        Check("lck_identity", L.lck_residual(s, pts), tol,
              "d Omega = theta ^ Omega"),
        Check("omega_descends", M.invariance_residual(m, s.omega, pts), tol,
              "gamma^* Omega = Omega"),
    ]
    ext = L.extract_lee_form(s.omega, pts[:40])
    stored, _ = stacked(s.theta_components(), pts[:40], 0)
    checks.append(Check("lee_form_recovery",
                        float(np.abs(ext.values - stored).max()), tol,
                        "theta solves d Omega = theta ^ Omega"))
    if m.phi is not None:
        checks.append(Check(
            "kahler_lift_equivariant",
            M.equivariance_residual(m, m.kahler_lift(), pts), tol,
            "gamma^* Omega_K = rho^{-1} Omega_K"))
    return checks


def _hopf_diag_report(m, pts, tol):
    s = m.structure
    checks = _structure_checks(m, s, pts, tol)
    pair = s.lee_pair()
    defres = pair.defining_residuals(pts)
    metric = L.MetricBundle(s, pts)
    vaisman, gauduchon = L.vaisman_residual(metric), L.gauduchon_residual(metric)
    # one session, so B's order-1 jets (and A = JB's, built on them) serve
    # the Killing and holomorphy rows; opened after the bundle, whose jets
    # it would otherwise keep
    with session():
        killing = float(np.max([L.killing_residual(metric, pair.B),
                                L.killing_residual(metric, pair.A)]))
        del metric  # about (d^3 + 4 d^2) N doubles, read by no later row
        holomorphic = float(np.max([L.holomorphy_residual(pair.B, pts),
                                    L.holomorphy_residual(pair.A, pts)]))
    checks += [
        Check("lee_fields_defining", float(np.max(list(defres.values()))), 1e-9,
              "iota_B Omega = J theta, iota_A Omega = -theta"),
        Check("lee_norm_unit", float(np.abs(pair.norm_squared(pts) - 1.0).max()),
              1e-9, "|B| = 1 normalization"),
        Check("vaisman_parallel_lee", vaisman, 1e-7, "nabla theta = 0"),
        Check("gauduchon_coclosed", gauduchon, 1e-7, "d* theta = 0"),
        Check("lee_holomorphic", holomorphic, 1e-8, "L_B J = 0"),
        Check("lee_killing", killing, 1e-8, "L_B g = 0"),
        Check("unit_potential",
              L.potential_residual(s, constant(1.0, m.dim), pts), tol,
              "Omega = d_theta d^c_theta 1"),
    ]
    rep = L.verify_unit_potential(s, pts[:60])
    checks.append(Check("unit_potential_vaisman_chain",
                        float(np.max([rep.shape_residual, rep.holomorphy_B,
                                      rep.norm_deviation or 0.0, rep.vaisman or 0.0])),
                        1e-6, "unit potential + holomorphic Lee field forces Vaisman"))
    act = T.TorusAction(m, [m.flows["A"], m.flows[m.extras["lee_circle"]]])
    verdict = T.verdict(act, s.theta, True, pts[:40])
    return checks, [verdict.to_json()]


def _inoue_report(m, pts, tol):
    s = m.structure
    checks = _structure_checks(m, s, pts, tol)
    lam0 = m.params["lam0"]
    imz = Form.from_function(coordinate(3, m.dim))
    target = twisted_d(imz, s.theta).scale(lam0)
    xi = m.fields["xi"]
    checks += [
        Check("circle_contraction_identity",
              (interior_product(xi, s.omega) - target).max_abs(pts), tol,
              "iota_xi Omega = lam0 d_theta Im z"),
        Check("vaisman_parallel_lee", L.vaisman_residual(L.MetricBundle(s, pts)), 1e-3,
              "no parallel Lee form on this surface", polarity="expect_large"),
    ]
    act = T.TorusAction(m, [m.flows["xi"]])
    verdict = T.verdict(act, s.theta, True, pts[:25])
    checks.append(Check("circle_horizontal", abs(verdict.pairings["xi"]), 1e-6,
                        "theta(xi) = 0"))
    return checks, [verdict.to_json()]


def _nondiag_report(m, pts, tol):
    checks = []
    for name in ("Z1_re", "Z1_im", "Z2_re", "Z2_im"):
        X = m.fields[name]
        checks.append(Check(f"{name}_descends", M.deck_quotient_check(m, X, pts),
                            1e-10, "gamma_* Z = Z"))
        checks.append(Check(f"{name}_holomorphic", L.holomorphy_residual(X, pts),
                            1e-10, "L_Z J = 0"))
    fl1, fl2 = m.flows["xi1"], m.flows["xi2"]
    checks += [
        Check("xi1_period_closes", M.flow_closure_residual(m, fl1, pts), 1e-9,
              "time-1 flow of xi1 is the identity"),
        Check("xi2_period_closes", M.flow_closure_residual(m, fl2, pts), 1e-9,
              "time-1 flow of xi2 is the deck map"),
        Check("flow_group_law",
              float(np.max([M.flow_group_residual(fl1, 0.21, 0.37, pts[:20]),
                            M.flow_group_residual(fl2, 0.21, 0.37, pts[:20])])), 1e-9,
              "Phi_{s+t} = Phi_s Phi_t"),
        Check("flow_generator",
              float(np.max([M.flow_generator_residual(fl1, 0.3, pts[:20]),
                            M.flow_generator_residual(fl2, 0.3, pts[:20])])), 1e-8,
              "d/dt Phi_t = X(Phi_t)"),
    ]
    th = m.lee_class
    checks.append(Check("lee_class_closed", exterior_d(th).max_abs(pts[:20]),
                        1e-10, "d theta = 0"))
    checks.append(Check("lee_class_descends", M.invariance_residual(m, th, pts[:20]),
                        tol, "gamma^* theta = theta"))
    act = T.TorusAction(m, [fl1, fl2])
    checks.append(Check("torus_commutes", act.commutation_residual(pts[:20]), 1e-8,
                        "[xi1, xi2] = 0"))
    dim = T.intersection_dimension(act, pts)
    checks.append(Check("purely_real", float(dim), 0.5,
                        "t ^ Jt = 0 for the maximal torus"))
    # no metric is wired into this fixture: LCK type is its declared hypothesis
    verdict = T.verdict(act, th, True, pts[:20])
    return checks, [verdict.to_json()]


def _leeolo_report(m, pts, tol):
    s = m.structure
    checks = _structure_checks(m, s, pts, tol)
    sol = m.extras["leeolo"].solution
    own = P.leeolo_residuals(m, pts)
    checks += [
        Check("df_colinear_with_theta", own["df_colinear"], 1e-8,
              "df = B(f) theta"),
        Check("lee_field_unchanged", own["lee_fields_defining"], 1e-9,
              "iota_B Omega' = J theta'"),
        Check("lee_norm_is_1_plus_f", own["norm_sq_matches_1_plus_f"],
              1e-8, "Omega'(B, JB) = 1 + f"),
        Check("ode_periodicity", sol.periodicity_residual, 1e-9,
              "g(t + 2pi) = g(t)"),
        Check("ode_first_order", sol.ode1_residual, 1e-8,
              "g' = g(1 + f) - 1"),
        Check("ode_second_order", sol.ode2_residual, 1e-7,
              "differentiated potential equation"),
        Check("ode_positive", sol.min_g, 0.0,
              "g > 0", polarity="expect_large"),
        Check("twisted_potential", own["potential"], 1e-6,
              "Omega' = d_theta' d^c_theta' g"),
        Check("positivity", own["positivity_min_eig"], 0.0,
              "Omega' > 0", polarity="expect_large"),
        Check("vaisman_parallel_lee", L.vaisman_residual(L.MetricBundle(s, pts[:60])),
              1e-2, "non-constant |B| obstructs a parallel Lee form",
              polarity="expect_large"),
    ]
    orbit = P.leeolo_orbit_pipeline(m, points=pts[:20])
    checks += _orbit_rows(orbit.checks, "orbit_")
    checks.append(Check("orbit_vs_duhamel", orbit.checks["average_vs_duhamel"],
                        1e-7, "collapsed average matches the oscillator solution"))
    return checks, []


def _orbit_rows(checks, prefix):
    """The orbit pipeline's output rows, each name led by ``prefix``."""
    return [
        Check(f"{prefix}flow_expansion", checks["flow_expansion"], 1e-6,
              "omega_t = cos t omega + sin t dJ eta + dd^c g_t"),
        Check(f"{prefix}potential_positive", checks["min_g"], 0.0,
              "averaged potential > 0", polarity="expect_large"),
        Check(f"{prefix}output_descends",
              float(np.max([checks["omega_prime_descends"],
                            checks["theta_prime_descends"]])),
              1e-6, "averaged pair is deck invariant"),
        Check(f"{prefix}output_lck", checks["lck_prime"], 1e-6,
              "d Omega' = theta' ^ Omega'"),
        Check(f"{prefix}unit_potential", checks["unit_potential"], 1e-6,
              "Omega' = d_theta' d^c_theta' 1"),
    ]


def _product_report(m, pts, tol):
    flows = [m.flows[k] for k in m.extras["torus_flows"]]
    act = T.TorusAction(m, flows)
    checks = [
        Check("torus_commutes", act.commutation_residual(pts[:15]), 1e-8,
              "product torus is abelian"),
        Check("flows_close", act.closure_residual(pts[:15]), 1e-9,
              "periods close the orbits"),
    ]
    dim = T.intersection_dimension(act, pts)
    verdict = T.verdict(act, None, False, pts[:30])
    # no LCK structure on the product, so a non-real torus is only NonReal
    expected = ("NoLCKPossible" if dim > 2
                else "NonReal" if dim in (1, 2) else "PurelyReal")
    checks.append(Check("verdict_matches_table",
                        0.0 if verdict.verdict == expected else 1.0, 0.5,
                        "existence verdict follows the decision table"))
    if dim > 2:
        checks.append(Check("intersection_obstruction", float(dim), 2.5,
                            "dim(t ^ Jt) > 2 obstructs LCK",
                            polarity="expect_large"))
    return checks, [verdict.to_json()]


def _hxc_report(m, pts, tol):
    x1, y1 = coordinate(0, 4), coordinate(1, 4)
    x2, y2 = coordinate(2, 4), coordinate(3, 4)
    h = (x1 * x2).exp() * (y1 * 0.4 + y2).sin() + x2**2
    alpha = Form(4, 1, {(0,): h, (1,): x1 * h, (3,): h * h})
    dd = exterior_d(exterior_d(alpha)).max_abs(pts)
    comm = (apply_J(exterior_d(alpha)) - exterior_d(apply_J(alpha)) - dc(alpha)).max_abs(pts)
    theta = exterior_d(Form.from_function(y1.log()))
    dtheta2 = twisted_d(twisted_d(alpha, theta), theta).max_abs(pts)
    checks = [
        Check("d_squared_zero", dd, 1e-10, "d d = 0"),
        Check("dc_commutator", comm, 1e-10, "[J, d] = d^c"),
        Check("twisted_d_squared_zero", dtheta2, 1e-10,
              "d_theta d_theta = 0 for closed theta"),
        Check("sampler_in_domain", 0.0 if m.contains(pts).all() else 1.0, 0.5,
              "samples lie in the chart domain"),
    ]
    return checks, []


_REPORT_BUILDERS = {
    "hopf_diag": _hopf_diag_report,
    "hopf_nondiag": _nondiag_report,
    "inoue_splus": _inoue_report,
    "leeolo": _leeolo_report,
    "product": _product_report,
    "hxc_cover": _hxc_report,
}
DEFAULT_FIXTURES = tuple(_REPORT_BUILDERS)


# 50x the widest benchmark batch; verify leeolo already peaks near 1 GB at
# 200 000 points, and far larger counts fail inside numpy's allocator
_MAX_POINTS = 100_000
# verify's memory grows as points x d^3 (the metric's dg alone is 8 d^3 bytes
# a point); at this cap verify leeolo, the heaviest, peaks near 2.1 GB at
# every n from 4 to 16, and hopf_diag near 0.9 GB
_MAX_POINTS_X_D3 = 80_000_000


def _check_seed(seed):
    if seed < 0:
        raise GalleryError(f"need a non-negative seed, got {seed}")


def _check_run(points, seed, tol, nodes):
    """Refuse the options verify and report share, in this order."""
    if not 1 <= points <= _MAX_POINTS:
        raise GalleryError(f"need 1 to {_MAX_POINTS} sample points, got {points}")
    _check_seed(seed)
    if not (math.isfinite(tol) and tol >= 0):
        raise GalleryError(f"need a finite non-negative tolerance, got {tol}")
    if nodes < 1:
        raise GalleryError(f"need at least one quadrature node, got {nodes}")


_OPENBLAS = []  # memo of _openblas: empty until the first lookup


def _openblas():
    """(get, set) of the thread count of the OpenBLAS numpy loaded, or None
    when numpy uses another BLAS; looked up once.  dlsym on numpy's core
    extension also searches the libraries it links, so this is the very
    library numpy calls."""
    if not _OPENBLAS:
        try:
            from numpy._core import _multiarray_umath as core
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as core
        lib = ctypes.CDLL(core.__file__)
        found = None
        for stem, tail in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{stem}_get_num_threads{tail}", None)
            put = getattr(lib, f"{stem}_set_num_threads{tail}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found = (get, put)
                break
        _OPENBLAS.append(found)
    return _OPENBLAS[0]


class _one_blas_thread:
    """Scope in which numpy's OpenBLAS runs every call on the calling thread.

    lcklab's few threaded BLAS calls are small, and after each one the pool's
    workers spin, burning CPU for no wall time; no result depends on the
    thread count.  The count is process-wide, so the outermost of any nested
    or concurrent scopes sets 1 on entry and the last to leave restores the
    count it found, also after an exception.  Without OpenBLAS it does
    nothing.
    """

    _lock = threading.Lock()
    _depth = 0
    _saved = None

    def __enter__(self):
        self._api = _openblas()
        if self._api is not None:
            get, put = self._api
            with self._lock:
                cls = type(self)
                if cls._depth == 0:
                    cls._saved = get()
                    put(1)
                cls._depth += 1
        return self

    def __exit__(self, *exc):
        if self._api is not None:
            with self._lock:
                cls = type(self)
                cls._depth -= 1
                if cls._depth == 0:
                    self._api[1](cls._saved)


def run_verify(fixture: str, points=200, seed=42, tol=1e-8, nodes=512):
    """Run the full check suite of one fixture; returns (report, exit code)."""
    with _one_blas_thread():
        t0 = time.perf_counter()
        name, params = parse_fixture(fixture)
        if name not in _REPORT_BUILDERS:
            raise GalleryError(f"unknown fixture {name!r}")
        _check_run(points, seed, tol, nodes)
        m = M.gallery(name, **params)
        if points * m.dim**3 > _MAX_POINTS_X_D3:
            raise GalleryError(f"{points} points at d = {m.dim} exceed the cap on points"
                               f" x d^3: at most {_MAX_POINTS_X_D3 // m.dim**3} at this d")
        pts = m.sample(points, seed)
        checks, verdicts = _REPORT_BUILDERS[name](m, pts, tol)
        report = {
            "fixture": fixture,
            "seed": seed,
            "points": points,
            "nodes": nodes,
            "checks": [c.to_json() for c in checks],
            "verdicts": verdicts,
            "runtime_ms": round(1000.0 * (time.perf_counter() - t0), 3),
        }
        code = 0 if all(c.passed for c in checks) else 1
        return report, code


def run_potential(kind: str, f_profile="const:0", fixture="leeolo:eps=0.3",
                  periods=1, seed=42):
    """Drive one of the two potential pipelines; returns (report, exit code)."""
    with _one_blas_thread():
        t0 = time.perf_counter()
        _check_seed(seed)
        if kind == "first-order":
            tag, _, val = f_profile.partition(":")
            try:
                val = float(val or 0.0)
            except ValueError:
                raise GalleryError(f"profile value {val!r} is not a number") from None
            if tag == "const":
                f = P.PeriodicFunction.constant(val)
            elif tag == "cos":
                f = P.PeriodicFunction.cosine(val)
            else:
                raise GalleryError(f"unknown profile {f_profile!r} (use const:K or cos:E)")
            sol = P.solve_periodic_first_order(f)
            checks = [
                Check("periodicity", sol.periodicity_residual, 1e-9, "g(t+2pi) = g(t)"),
                Check("first_order_ode", sol.ode1_residual, 1e-8, "g' = g(1+f) - 1"),
                Check("second_order_ode", sol.ode2_residual, 1e-7,
                      "differentiated potential equation"),
                Check("positive", sol.min_g, 0.0, "g > 0", polarity="expect_large"),
            ]
            body = {"kind": kind, "f": f_profile, "solution": sol.diagnostics()}
        elif kind == "orbit":
            name, params = parse_fixture(fixture)
            if name != "leeolo":
                raise GalleryError("orbit pipeline is wired for the leeolo fixture")
            if periods < 1:
                raise GalleryError(f"need at least one period, got {periods}")
            m = M.gallery(name, **params)
            res = P.leeolo_orbit_pipeline(m, n_periods=periods,
                                          points=m.sample(20, seed))
            checks = _orbit_rows(res.checks, "") + [
                Check("lee_class_preserved", res.checks["lee_class_loop_match"], 1e-6,
                      "loop integrals of theta' match theta"),
            ]
            body = {"kind": kind, "fixture": fixture, "periods": periods,
                    "orbit_checks": {k: float(v) for k, v in res.checks.items()}}
        else:
            raise GalleryError(f"unknown potential pipeline {kind!r}")
        body["checks"] = [c.to_json() for c in checks]
        body["runtime_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
        return body, (0 if all(c.passed for c in checks) else 1)


def run_report(points=200, seed=42, tol=1e-8, nodes=512, fixtures=DEFAULT_FIXTURES):
    """Aggregate JSON over every gallery fixture (never aborts the batch)."""
    with _one_blas_thread():
        t0 = time.perf_counter()
        _check_run(points, seed, tol, nodes)
        out = {"seed": seed, "points": points, "nodes": nodes, "fixtures": [],
               "summary": {}}
        for fx in fixtures:
            try:
                rep, code = run_verify(fx, points=points, seed=seed, tol=tol,
                                       nodes=nodes)
            except EXIT_ERRORS as exc:
                rep = {"fixture": fx, "error": str(exc)}
                code = exc.exit_code
            out["fixtures"].append(rep)
            out["summary"][fx] = code
        out["total"] = len(out["fixtures"])
        out["all_pass"] = all(v == 0 for v in out["summary"].values())
        out["runtime_ms"] = round(1000.0 * (time.perf_counter() - t0), 3)
        return out, (0 if out["all_pass"] else 1)


def strip_volatile(report):
    """Drop runtime_ms, the wall-clock field (for byte-level diffs)."""
    if isinstance(report, dict):
        return {k: strip_volatile(v) for k, v in report.items()
                if k != "runtime_ms"}
    if isinstance(report, list):
        return [strip_volatile(v) for v in report]
    return report


def _print_human(report):
    for c in report.get("checks", []):
        mark = "PASS" if c["pass"] else "FAIL"
        print(f"  [{mark}] {c['name']:<32s} residual {c['residual']:.3g} "
              f"(tol {c['tolerance']:.2g}, {c['polarity']})")
    for v in report.get("verdicts", []):
        print(f"  verdict: {v['verdict']} (dim {v['intersection_dim']}, "
              f"generators {v['generators']})")


def _unwritable(path):
    """Why the report cannot be written to ``path``, found before the run:
    it is a directory, or its parent is missing or not a directory.  None
    otherwise; a failure only the write reveals (permissions, a full disk)
    is reported after the run."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lcklab",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    # the options verify and report share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--points", type=int, default=200)
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--tol", type=float, default=1e-8)
    run.add_argument("--nodes", type=int, default=512,
                     help="recorded in the report; no check reads it (at least 1)")
    run.add_argument("--json", dest="json_path", default=None)

    pv = sub.add_parser("verify", parents=[run], help="run one fixture's check suite")
    pv.add_argument("fixture")

    pp = sub.add_parser("potential", help="run a potential pipeline")
    pp.add_argument("kind", choices=["first-order", "orbit"])
    pp.add_argument("--f", dest="f_profile", default="const:0")
    pp.add_argument("--fixture", default="leeolo:eps=0.3")
    pp.add_argument("--periods", type=int, default=1)
    pp.add_argument("--seed", type=int, default=42)
    pp.add_argument("--json", dest="json_path", default=None)

    pr = sub.add_parser("report", parents=[run], help="aggregate report over the gallery")
    pr.add_argument("--all", action="store_true",
                    help="accepted and ignored: report always runs every default fixture")

    args = parser.parse_args(argv)
    reason = args.json_path and _unwritable(args.json_path)
    if reason:
        print(f"error: cannot write {args.json_path}: {reason}", file=sys.stderr)
        return GalleryError.exit_code
    try:
        if args.command == "verify":
            report, code = run_verify(args.fixture, args.points, args.seed,
                                      args.tol, args.nodes)
            print(f"fixture {args.fixture}")
            _print_human(report)
        elif args.command == "potential":
            report, code = run_potential(args.kind, f_profile=args.f_profile,
                                         fixture=args.fixture,
                                         periods=args.periods, seed=args.seed)
            print(f"potential {args.kind}")
            _print_human(report)
        else:
            report, code = run_report(args.points, args.seed, args.tol,
                                      args.nodes)
            for fx, rc in report["summary"].items():
                print(f"  {fx:<16s} exit {rc}")
            print(f"fixtures: {report['total']}, all pass: {report['all_pass']}")
    except EXIT_ERRORS as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    if args.json_path:
        try:
            with open(args.json_path, "w") as fh:
                json.dump(report, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_path}: {exc.strerror or exc}",
                  file=sys.stderr)
            return GalleryError.exit_code
    return code


if __name__ == "__main__":
    sys.exit(main())

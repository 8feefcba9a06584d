"""Layer spans for the lcklab benchmark, recorded from outside the package.

``instrument(tracer)`` wraps the public functions and methods of every
lcklab layer module in place and restores the originals on exit.  Each
wrapped call is a span of the layer that defines the callable.  A layer's
self time is its span time minus the time its child spans cover; the
wrapper's own bookkeeping is charged to the harness, never to a layer, so
that the self times of one pass plus the harness time add up to the pass's
wall time exactly.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("jets", "fields", "forms", "lck", "manifolds", "torus", "potential", "cli")

# Dunder methods that are part of a class's public behaviour (operators and
# construction); other dunders (repr, eq, hash) stay unwrapped.
PUBLIC_DUNDERS = frozenset({
    "__init__", "__call__", "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
})


class Tracer:
    """Per-layer self time, busy time and call counts from nested spans.

    Frames live on a stack as ``[layer, name, start, covered]``; ``covered``
    is the time the frame's children (and their bookkeeping) took.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.busy_s = defaultdict(float)     # outermost spans of each layer
        self.fn_busy_s = defaultdict(float)  # outermost spans of each callable
        self.calls = Counter()               # spans per layer
        self.counts = Counter()              # named counters set by hooks
        self.harness_s = 0.0
        self.wall_s = 0.0
        self._stack = []
        self._open_layer = Counter()
        self._open_fn = Counter()
        self._live_order3 = {}

    @contextmanager
    def run(self):
        """Root frame around one traced pass; its self time is harness time."""
        root = ["harness", "harness", self.clock(), 0.0]
        self._stack.append(root)
        try:
            yield
        finally:
            self._stack.pop()
            dur = self.clock() - root[2]
            self.wall_s += dur
            self.harness_s += dur - root[3]

    @contextmanager
    def span(self, layer, name):
        t_in = self.clock()
        frame = self._open(layer, name)
        try:
            yield
        finally:
            self._close(frame, t_in)

    def _open(self, layer, name):
        self._open_layer[layer] += 1
        self._open_fn[name] += 1
        self.calls[layer] += 1
        frame = [layer, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = self.clock()
        return frame

    def _close(self, frame, t_in):
        t_end = self.clock()
        layer, name, start, covered = frame
        dur = t_end - start
        self._stack.pop()
        self.self_s[layer] += dur - covered
        self._open_layer[layer] -= 1
        if not self._open_layer[layer]:
            self.busy_s[layer] += dur
        self._open_fn[name] -= 1
        if not self._open_fn[name]:
            self.fn_busy_s[name] += dur
        t_out = self.clock()
        self.harness_s += (start - t_in) + (t_out - t_end)
        if self._stack:
            self._stack[-1][3] += t_out - t_in

    def add_order3(self, t):
        """Count the bytes of an order-3 tensor once per array object."""
        key = id(t)
        ref = self._live_order3.get(key)
        if ref is not None and ref() is t:
            return
        self.counts["jets.order3_bytes"] += t.nbytes
        live = self._live_order3
        self._live_order3[key] = weakref.ref(
            t, lambda r, k=key: live.pop(k, None) if live.get(k) is r else None)


# -- counter hooks: they run before a span opens, so the harness pays ---


def _is_zero(x):
    parts = (x.v, x.g, x.h, x.t) if hasattr(x, "t") else (x,)
    return not any(p is not None and np.any(p) for p in parts)


def _hook_mul(tr, fn, args, kwargs):
    tr.counts["jets.mul_calls"] += 1
    if _is_zero(args[0]) or _is_zero(args[1]):
        tr.counts["jets.mul_zero_operand"] += 1


def _hook_jet_init(tr, fn, args, kwargs):
    t = args[5] if len(args) > 5 else kwargs.get("t")
    if t is not None and t.flags.owndata:
        tr.add_order3(t)


def _hook_eval(tr, fn, args, kwargs):
    field, ctx, order = args
    tr.counts["fields.eval_calls"] += 1
    if (field.uid, order) in ctx.cache:
        tr.counts["fields.cache_hits"] += 1


def _hook_field_init(tr, fn, args, kwargs):
    tr.counts["fields.nodes_built"] += 1


def _hook_pairings(tr, fn, args, kwargs):
    # theta is evaluated on the probe batch times the node grid of the torus
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    act, pts, nodes = (bound.arguments[k] for k in ("act", "pts", "nodes"))
    n_pts = 1 if np.ndim(pts) == 1 else len(pts)
    tr.counts["torus.pairing_points"] += n_pts * nodes ** len(act.flows)


PRE_HOOKS = {
    "jets.Jet.__mul__": _hook_mul,
    "jets.Jet.__init__": _hook_jet_init,
    "fields.ScalarField.eval": _hook_eval,
    "fields.ScalarField.__init__": _hook_field_init,
    "torus.averaged_pairings": _hook_pairings,
}

QUADRATURE_EVAL = "fields.affine_quadrature_field.<eval>"


def _post_quadrature(tr, field):
    # the returned field's closure does the quadrature when it is evaluated
    field._fn = _wrap(tr, "fields", QUADRATURE_EVAL, field._fn)
    return field


POST_HOOKS = {"fields.affine_quadrature_field": _post_quadrature}


def _wrap(tr, layer, name, fn):
    pre = PRE_HOOKS.get(name)
    post = POST_HOOKS.get(name)
    clock = tr.clock

    def traced(*args, **kwargs):
        t_in = clock()
        if pre is not None:
            pre(tr, fn, args, kwargs)
        frame = tr._open(layer, name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tr._close(frame, t_in)
        return out if post is None else post(tr, out)

    traced.__wrapped__ = fn
    return traced


def _targets(mod):
    """(owner, attribute, raw value, function) for each public callable."""
    for name, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj) and not name.startswith("_"):
            yield mod, name, obj, obj
        elif inspect.isclass(obj) and not name.startswith("_"):
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in PUBLIC_DUNDERS:
                    continue
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(fn):
                    yield obj, attr, raw, fn


@contextmanager
def instrument(tracer):
    """Wrap every layer's public callables for the duration of the block.

    Every lcklab module namespace that holds a wrapped function, including
    modules that imported it by name, is patched, so calls across layers go
    through the wrapper.  Everything is put back on exit, also after an
    exception.
    """
    wrappers = {}
    restore = []
    try:
        for layer in LAYERS:
            mod = importlib.import_module(f"lcklab.{layer}")
            for owner, attr, raw, fn in _targets(mod):
                if fn not in wrappers:
                    wrappers[fn] = _wrap(tracer, layer, f"{layer}.{fn.__qualname__}", fn)
                if inspect.isclass(owner):
                    w = wrappers[fn]
                    if isinstance(raw, (staticmethod, classmethod)):
                        w = type(raw)(w)
                    restore.append((owner, attr, raw))
                    setattr(owner, attr, w)
        for modname, mod in list(sys.modules.items()):
            if modname == "lcklab" or modname.startswith("lcklab."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        restore.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])
        yield
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def layer_metrics(tr):
    """{metric: (value, unit)} of the spans and counts ``tr`` recorded."""
    c = tr.counts
    mul = c["jets.mul_calls"]
    evals = c["fields.eval_calls"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.self_s[layer], "s")
    out.update({
        "jets.mul_calls": (mul, "count"),
        "jets.mul_zero_operand_share": (c["jets.mul_zero_operand"] / mul if mul else 0.0, "ratio"),
        "jets.compose_multi_s": (tr.fn_busy_s["jets.compose_multi"], "s"),
        "jets.order3_mb": (c["jets.order3_bytes"] / 2**20, "MB"),
        "fields.eval_calls": (evals, "count"),
        "fields.cache_hit_share": (c["fields.cache_hits"] / evals if evals else 0.0, "ratio"),
        "fields.nodes_built": (c["fields.nodes_built"], "count"),
        "fields.quadrature_s": (tr.fn_busy_s[QUADRATURE_EVAL], "s"),
        "forms.op_calls": (tr.calls["forms"], "count"),
        "lck.busy_s": (tr.busy_s["lck"], "s"),
        "manifolds.build_s": (tr.fn_busy_s["manifolds.gallery"], "s"),
        "torus.busy_s": (tr.busy_s["torus"], "s"),
        "torus.pairing_points": (c["torus.pairing_points"], "count"),
        "potential.busy_s": (tr.busy_s["potential"], "s"),
        "trace.wall_s": (tr.wall_s, "s"),
        "trace.harness_s": (tr.harness_s, "s"),
    })
    return out

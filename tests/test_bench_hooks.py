"""The benchmark's layer spans (``bench/spans.py``) hook lcklab callables by
name and read their arguments by position or keyword.  A rename in the
package would not fail the benchmark: the counter it feeds reads 0.  These
tests load the spans module read-only and check each name and signature it
relies on."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    # compiled from its source, so nothing (no bytecode cache) is written
    mod = types.ModuleType("lcklab_bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), mod.__dict__)
    return mod


def _resolve(dotted):
    """The lcklab callable named ``layer.attr[.attr...]``."""
    layer, *path = dotted.split(".")
    obj = importlib.import_module(f"lcklab.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    return obj


def test_every_hooked_or_read_name_resolves_to_an_lcklab_callable(spans):
    tracer = spans.Tracer()
    spans.layer_metrics(tracer)  # fn_busy_s is a defaultdict: each read adds its key
    read = set(tracer.fn_busy_s)
    assert read == {"jets.compose_multi", "manifolds.gallery", spans.QUADRATURE_EVAL}
    # the quadrature span times the closure of the field a post hook rewraps
    assert spans.QUADRATURE_EVAL.rsplit(".", 1)[0] in spans.POST_HOOKS
    for name in sorted({*spans.PRE_HOOKS, *spans.POST_HOOKS,
                        *(read - {spans.QUADRATURE_EVAL})}):
        fn = _resolve(name)
        assert callable(fn), name
        assert fn.__module__ == f"lcklab.{name.split('.')[0]}", name


def test_hooked_signatures_match_what_the_hooks_read(spans):
    from lcklab.fields import ScalarField, constant
    from lcklab.jets import Jet
    from lcklab.torus import averaged_pairings

    # _hook_jet_init reads t as the sixth positional argument
    assert list(inspect.signature(Jet.__init__).parameters)[5] == "t"
    # _hook_eval unpacks (field, ctx, order); _post_quadrature rewraps _fn
    assert list(inspect.signature(ScalarField.eval).parameters) == ["self", "ctx", "order"]
    assert {"_fn", "uid"} <= set(ScalarField.__slots__)
    field = constant(2.0, 2)
    assert callable(field._fn) and isinstance(field.uid, int)
    # _hook_pairings binds act, pts and nodes by name
    assert {"act", "pts", "nodes"} <= set(inspect.signature(averaged_pairings).parameters)

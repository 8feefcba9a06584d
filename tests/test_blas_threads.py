"""The entry points run numpy's BLAS on one thread and put the count back."""

import sys
import threading
import time

import numpy as np
import pytest

from lcklab import cli
from lcklab import manifolds as M
from lcklab import potential as P
from lcklab.errors import GalleryError, NumericalError
from lcklab.fields import affine_quadrature_field, coordinate


@pytest.fixture
def fake_blas(monkeypatch):
    """A stand-in thread-count API whose caller set 3 threads."""
    count = [3]

    def put(n):
        count[0] = n

    monkeypatch.setattr(cli, "_openblas", lambda: (lambda: count[0], put))
    return count


@pytest.fixture
def real_blas():
    """(get, set) of numpy's OpenBLAS with 2 threads set; the count is put
    back afterwards."""
    api = cli._openblas()
    if api is None:
        pytest.skip("numpy does not use OpenBLAS")
    get, put = api
    before = get()
    put(2)
    yield api
    put(before)


def _spy(monkeypatch, owner, name, read, fail=False):
    """Record the thread count each call of owner.name runs under."""
    seen = []
    inner = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(read())
        if fail:
            raise NumericalError("spied failure")
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return seen


_ENTRIES = {
    "verify": (lambda: cli.run_verify("hxc_cover", points=5),
               M, "gallery"),
    "report": (lambda: cli.run_report(points=5, fixtures=("hxc_cover",)),
               M, "gallery"),
    "potential": (lambda: cli.run_potential("first-order", f_profile="cos:0.3"),
                  P, "solve_periodic_first_order"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_entry_runs_on_one_thread_and_restores_the_count(entry, fake_blas,
                                                         monkeypatch):
    call, owner, name = _ENTRIES[entry]
    seen = _spy(monkeypatch, owner, name, lambda: fake_blas[0])
    _, code = call()
    assert code == 0
    assert seen == [1] and fake_blas[0] == 3


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_entry_restores_the_count_after_an_exception(entry, fake_blas,
                                                     monkeypatch):
    call, owner, name = _ENTRIES[entry]
    seen = _spy(monkeypatch, owner, name, lambda: fake_blas[0], fail=True)
    if entry == "report":  # the batch reports a fixture's failure as exit 3
        body, code = call()
        assert code == 1 and body["summary"] == {"hxc_cover": 3}
    else:
        with pytest.raises(NumericalError, match="spied"):
            call()
    assert seen == [1] and fake_blas[0] == 3
    with pytest.raises(GalleryError):
        cli.run_verify("unknown_thing")
    assert fake_blas[0] == 3


def test_interleaved_scopes_restore_the_first_callers_count(fake_blas):
    # two threads' scopes may leave in either order; the last one out restores
    a, b = cli._one_blas_thread(), cli._one_blas_thread()
    a.__enter__()
    b.__enter__()
    assert fake_blas[0] == 1
    a.__exit__(None, None, None)
    assert fake_blas[0] == 1
    b.__exit__(None, None, None)
    assert fake_blas[0] == 3


def test_concurrent_scopes_keep_one_thread_and_restore_the_count(fake_blas):
    seen = []
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=60)
        for _ in range(2000):
            with cli._one_blas_thread():
                time.sleep(0)  # let another thread enter or leave here
                seen.append(fake_blas[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 16000 and set(seen) == {1}
    assert fake_blas[0] == 3


def test_without_openblas_the_scope_does_nothing(monkeypatch):
    real = cli._openblas()
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    read = (lambda: None) if real is None else real[0]
    before = read()
    seen = _spy(monkeypatch, M, "gallery", read)
    _, code = cli.run_verify("hxc_cover", points=5)
    assert code == 0
    assert seen == [before] and read() == before


def test_nested_report_on_openblas_runs_on_one_thread(real_blas, monkeypatch):
    get, _ = real_blas
    seen = _spy(monkeypatch, M, "gallery", get)
    _, code = cli.run_report(points=5, fixtures=("hxc_cover",))
    assert code == 0
    assert seen == [1] and get() == 2


def _under(put, threads, fn):
    put(threads)
    return fn()


def test_mode_sums_are_bitwise_equal_under_one_and_two_threads(real_blas):
    _, put = real_blas
    sol = P.solve_periodic_first_order(P.PeriodicFunction.cosine(0.3))
    t = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
    one = _under(put, 1, lambda: sol._mode_sums(t, orders=(0, 1, 2)))
    two = _under(put, 2, lambda: sol._mode_sums(t, orders=(0, 1, 2)))
    assert all(np.array_equal(a, b) for a, b in zip(one, two))


def test_order3_affine_quadrature_is_bitwise_equal_under_one_and_two_threads(real_blas):
    _, put = real_blas
    rng = np.random.default_rng(5)
    dim, s = 6, 32
    x = [coordinate(i, dim) for i in range(dim)]
    f = (x[0] * x[1]).exp() * (x[2] + 0.5 * x[3]).sin() + x[4] * x[5] ** 2
    quad = affine_quadrature_field(f, rng.normal(scale=0.5, size=(s, dim, dim)),
                                   rng.normal(scale=0.3, size=(s, dim)),
                                   rng.uniform(-1.0, 1.0, size=s))
    pts = rng.uniform(-0.5, 0.5, size=(60, dim))
    one = _under(put, 1, lambda: quad.jet(pts, 3))
    two = _under(put, 2, lambda: quad.jet(pts, 3))
    for name in ("v", "g", "h", "t"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name

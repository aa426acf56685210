"""Shared test helpers."""
import threading

import numpy as np
import pytest

from kgtn import autodiff as ad


def _fingerprint(obj):
    """Nested, comparable record of every array (dtype, shape, bytes) and scalar in `obj`."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, _fingerprint(v)) for k, v in sorted(obj.items()))
    if hasattr(obj, "__dict__"):
        return (type(obj).__name__, _fingerprint(vars(obj)))
    return obj


@pytest.fixture
def fingerprint():
    return _fingerprint


def _drop_pool(executor):
    """Shut down the process's worker pool, if one was started, so the next
    pooled call starts one sized by the `_cores()` in force then."""
    if executor.cache_info().currsize:
        executor().shutdown(wait=True)
        executor.cache_clear()


@pytest.fixture
def infonce_pool(monkeypatch):
    """Force the pooled InfoNCE path on any machine: slabs of one row and two
    cores. Returns the list that names the thread of every slab loop run.

    The pool is dropped before and after the test, so the test's pool has
    as many workers as the `_cores` it patches in."""
    threads = []
    run = ad._InfonceTerm.run
    executor = ad._executor

    def spied_run(term):
        threads.append(threading.current_thread().name)
        run(term)

    monkeypatch.setattr(ad._InfonceTerm, "run", spied_run)
    monkeypatch.setattr(ad, "INFONCE_SLAB_BYTES", 8)
    monkeypatch.setattr(ad, "_cores", lambda: 2)
    _drop_pool(executor)
    yield threads
    _drop_pool(executor)

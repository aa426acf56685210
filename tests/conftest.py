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
def worker_cores(monkeypatch):
    """Returns a setter of the cores the process may use; each call drops
    the worker pool, so the next pooled call starts one of that many
    threads. The pool is dropped again after the test."""
    executor = ad._executor

    def set_cores(cores):
        monkeypatch.setattr(ad, "_cores", lambda: cores)
        _drop_pool(executor)

    yield set_cores
    _drop_pool(executor)


@pytest.fixture
def infonce_pool(monkeypatch, worker_cores):
    """Force the pooled InfoNCE path on any machine: slabs of one row, so one
    layer to a unit, and a pool of two workers. Returns the list that names
    the thread of every unit run."""
    threads = []
    run = ad._InfonceUnit.run

    def spied_run(unit):
        threads.append(threading.current_thread().name)
        run(unit)

    monkeypatch.setattr(ad._InfonceUnit, "run", spied_run)
    monkeypatch.setattr(ad, "INFONCE_SLAB_BYTES", 8)
    worker_cores(2)
    return threads

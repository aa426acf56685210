"""Shared test helpers."""
import numpy as np
import pytest


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

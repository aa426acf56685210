"""The alternating-pairs summary of tools/ab_pairs.py, on made-up runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _run(**metrics):
    return {"correct": True, "failed": 0, "attempted": 1,
            "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}


def _runs(parent, change, name="step_ms_p50"):
    return [(_run(**{name: p}), _run(**{name: c})) for p, c in zip(parent, change)]


def test_a_clear_gain_holds():
    parent = [7.0, 7.1, 6.9, 7.2, 7.0, 7.05, 6.95, 7.1, 7.0, 7.02]
    change = [x - 0.8 for x in parent]
    row = ab_pairs.summarize("step_ms_p50", "lower", _runs(parent, change))
    assert "wins 10/10 losses 0" in row and "gain holds" in row


def test_a_gain_inside_the_parent_spread_is_not_shown():
    parent = [6.0, 8.0, 6.0, 8.0, 6.0, 8.0, 6.0, 8.0, 6.0, 8.0]
    change = [x - 0.1 for x in parent]
    row = ab_pairs.summarize("step_ms_p50", "lower", _runs(parent, change))
    assert "wins 10/10" in row and "gain not shown" in row


@pytest.mark.parametrize("better, wins", [("higher", 0), ("lower", 3)])
def test_direction_and_ties(better, wins):
    row = ab_pairs.summarize("auc", better, _runs([0.9, 0.9, 0.9, 0.9], [0.8, 0.8, 0.8, 0.9],
                                                  name="auc"))
    assert f"wins {wins}/4" in row


def test_a_metric_missing_on_one_side_is_reported():
    runs = [(_run(step_ms_p50=1.0), _run(epoch_s=1.0))]
    assert "not measured" in ab_pairs.summarize("step_ms_p50", "lower", runs)

"""The alternating-pairs summary of tools/ab_pairs.py, on made-up runs."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _run(failed=0, attempted=1, correct=True, **metrics):
    return {"correct": correct, "failed": failed, "attempted": attempted,
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


def test_a_median_worse_than_the_bound_is_reported():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.05, 9.95, 10.1, 10.0]
    change = [x * 1.3 for x in parent]
    row = ab_pairs.summarize("step_ms_p50", "lower", _runs(parent, change), bound=0.25)
    assert row.endswith("worse beyond bound")
    # higher is better: an AUC 30% lower is as far out
    row = ab_pairs.summarize("auc", "higher", _runs([0.9] * 4, [0.6] * 4, name="auc"),
                             bound=0.1)
    assert row.endswith("worse beyond bound")


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # parent IQR 4.0 against a bound of 0.25 x 8.0 = 2.0; a 20% slower median
    # stays inside the bound, yet the spread cannot tell it from noise
    parent = [6.0, 10.0, 6.0, 10.0, 6.0, 10.0, 6.0, 10.0, 6.0, 10.0]
    change = [x * 1.2 for x in parent]
    row = ab_pairs.summarize("step_ms_p50", "lower", _runs(parent, change), bound=0.25)
    assert row.endswith("unresolved")
    # unless every change run beats every parent run
    change = [5.0] * 10
    row = ab_pairs.summarize("step_ms_p50", "lower", _runs(parent, change), bound=0.25)
    assert row.endswith("within bound")


def test_a_change_inside_the_bound_is_within_it():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.05, 9.95, 10.1, 10.0]
    change = [x * 1.1 for x in parent]
    row = ab_pairs.summarize("step_ms_p50", "lower", _runs(parent, change), bound=0.25)
    assert row.endswith("within bound") and "gain not shown" in row


def test_a_larger_failed_share_fails_the_run():
    # shares sum over the runs: parent 1/40, change 2/40
    runs = [(_run(failed=1, attempted=20), _run(failed=0, attempted=20)),
            (_run(failed=0, attempted=20), _run(failed=2, attempted=20))]
    assert ab_pairs.failed_shares(runs) == (1 / 40, 2 / 40)
    assert ab_pairs.exit_status(runs) == 1
    # an equal share passes; an incorrect run fails whatever the shares
    runs[1] = (_run(failed=0, attempted=20), _run(failed=1, attempted=20))
    assert ab_pairs.failed_shares(runs) == (1 / 40, 1 / 40)
    assert ab_pairs.exit_status(runs) == 0
    runs.append((_run(), _run(correct=False)))
    assert ab_pairs.exit_status(runs) == 1
    assert ab_pairs.failed_shares([(_run(attempted=0), _run(attempted=0))]) == (0.0, 0.0)


def test_sides_run_in_different_environments_fail_the_run():
    one = '{"blas": "scipy-openblas 0.3.31", "blas_threads": {"lib": 1}, "nproc": 2}'
    two = one.replace('"nproc": 2', '"nproc": 1')
    runs = [(_run(), _run()), (_run(), _run())]
    for parent, change in runs:
        parent["env"], change["env"] = one, one
    assert ab_pairs.environments(runs) == ([one], [one])
    assert ab_pairs.exit_status(runs) == 0
    runs[1][1]["env"] = two
    assert ab_pairs.environments(runs) == ([one], sorted([one, two]))
    assert ab_pairs.exit_status(runs) == 1

"""The alternating-pairs summary of tools/ab_pairs.py, on made-up runs."""
import importlib.util
import json
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


WORKLOADS = ("toy-overfit", "lastfm-train", "lastfm-eval")


@pytest.fixture
def checkouts(tmp_path):
    """A parent and a change checkout, each with a run script and a benchmark
    of three workloads and one end-to-end metric."""
    bench = {"workloads": [{"name": w} for w in WORKLOADS],
             "end_to_end": [{"name": "step_ms_p50", "better": "lower", "bound": 0.25}]}
    roots = []
    for side in ab_pairs.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
        roots.append(str(tmp_path / side))
    return roots


FAULTS = {"incorrect": {"correct": False}, "failed": {"failed": 1, "attempted": 4},
          "env": {"env": '{"nproc": 1}'}}


def _fake_runs(monkeypatch, broken=None, fault="incorrect"):
    """Made-up runs; the change's runs of workload `broken` have `fault`."""
    calls = []

    def run_once(root, workload, seed):
        calls.append((Path(root).name, workload, seed))
        run = _run(attempted=4, step_ms_p50=10.0 + seed)
        run["env"] = '{"nproc": 2}'
        if workload == broken and Path(root).name == "change":
            run.update(FAULTS[fault])
        return run

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return calls


def _main(checkouts, workload, pairs=2):
    parent, change = checkouts
    return ab_pairs.main(["--parent", parent, "--change", change, "--workload", workload,
                          "--pairs", str(pairs), "--seeds", "1,13"])


def test_all_runs_every_workload_of_the_benchmark_with_one_table_each(
        checkouts, monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    assert _main(checkouts, "all") == 0
    out = capsys.readouterr().out
    # workload by workload, each pair alternating which side goes first
    assert calls == [(side, w, seed) for w in WORKLOADS
                     for sides, seed in ((("parent", "change"), 1), (("change", "parent"), 13))
                     for side in sides]
    tables = [line for line in out.splitlines() if "median [quartiles] per side" in line]
    assert tables == [f"{w}: 2 pairs, seeds [1, 13], median [quartiles] per side"
                      for w in WORKLOADS]
    assert out.count("step_ms_p50    parent") == 3


def test_a_comma_list_runs_only_the_named_workloads(checkouts, monkeypatch, capsys):
    calls = _fake_runs(monkeypatch)
    assert _main(checkouts, "lastfm-eval,toy-overfit", pairs=1) == 0
    assert [w for _, w, _ in calls] == ["lastfm-eval"] * 2 + ["toy-overfit"] * 2
    with pytest.raises(SystemExit):
        _main(checkouts, "toy-overfit,no-such-workload")


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("broken", WORKLOADS)
def test_a_fault_on_any_workload_fails_the_run(checkouts, monkeypatch, capsys, broken, fault):
    calls = _fake_runs(monkeypatch, broken=broken, fault=fault)
    assert _main(checkouts, "all") == 1
    # the other workloads still run and report
    assert {w for _, w, _ in calls} == set(WORKLOADS)
    assert capsys.readouterr().out.count("median [quartiles] per side") == 3


def test_record_appends_the_changes_summary_per_workload(checkouts, monkeypatch, tmp_path):
    _fake_runs(monkeypatch)
    monkeypatch.setattr(ab_pairs, "commit_of", lambda root: f"sha-{Path(root).name}")
    parent, change = checkouts
    out = tmp_path / "bench"
    out.mkdir()
    argv = ["--parent", parent, "--change", change, "--workload", "toy-overfit,lastfm-eval",
            "--pairs", "4", "--seeds", "1,13", "--record", str(out)]
    assert ab_pairs.main(argv) == 0
    assert ab_pairs.main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == ["BENCH_lastfm-eval.json",
                                                    "BENCH_toy-overfit.json"]
    doc = json.loads((out / "BENCH_toy-overfit.json").read_text())
    assert doc["workload"] == "toy-overfit" and len(doc["entries"]) == 2
    entry = doc["entries"][-1]
    assert (entry["commit"], entry["parent"]) == ("sha-change", "sha-parent")
    assert entry["env"] == [{"nproc": 2}]
    assert (entry["pairs"], entry["seeds"]) == (4, [1, 13])
    # seeds 1, 13, 1, 13 read 11, 23, 11, 23 ms: two modes of two runs each
    step = entry["metrics"]["step_ms_p50"]
    assert step["runs"] == [11.0, 23.0, 11.0, 23.0]
    assert (step["unit"], step["median"], step["q1"], step["q3"]) == ("ms", 17.0, 11.0, 23.0)
    assert step["modes"] == [[11.0, 11.0, 2], [23.0, 23.0, 2]]
    assert entry["parent_metrics"]["step_ms_p50"] == step


def test_record_needs_a_directory(checkouts, tmp_path):
    parent, change = checkouts
    with pytest.raises(SystemExit):
        ab_pairs.parse_args(["--parent", parent, "--change", change, "--workload", "all",
                             "--record", str(tmp_path / "missing")])


def test_modes_split_where_neighbours_differ_by_a_tenth_of_the_median():
    assert ab_pairs.modes([0.16, 0.15, 0.23, 0.155, 0.22]) == [[0.15, 0.16, 3], [0.22, 0.23, 2]]
    assert ab_pairs.modes([1.0, 1.05, 1.1]) == [[1.0, 1.1, 3]]


def test_a_side_summary_keeps_six_significant_digits():
    runs = _runs([0.123456789, 0.123456789], [2.0, 2.0])
    end_to_end = [{"name": "step_ms_p50"}]
    parent = ab_pairs.side_summary(runs, 0, end_to_end)["step_ms_p50"]
    assert parent["runs"] == [0.123457, 0.123457] and parent["median"] == 0.123457
    assert parent["modes"] == [[0.123457, 0.123457, 2]]

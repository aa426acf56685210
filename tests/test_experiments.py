"""Evaluation harnesses: CTR/top-K protocol, ablation, noise robustness."""
import csv
import io
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from recall_oracle import loop_recall_at_k, same_bits

from kgtn import autodiff as ad
from kgtn import experiments, training
from kgtn.config import ExperimentConfig
from kgtn.data import synthetic_dataset
from kgtn.errors import ContractError, DomainError


def quick_cfg(**kw):
    base = dict(embed_dim=8, n_intents=2, n_heads=2, depth=1, agg_depth=1,
                k_top=2, batch_size=64, epochs=2, lr=3e-3, seed=5, patience=10,
                recall_ks=(2, 5))
    base.update(kw)
    return ExperimentConfig(**base).validate()


@pytest.fixture(scope="module")
def ds():
    return synthetic_dataset(12, 16, 22, 2, density=0.5, seed=5, ratios=(0.6, 0.2, 0.2))


@pytest.fixture(scope="module")
def trained(ds):
    cfg = quick_cfg()
    result = training.fit(cfg, ds)
    zu, zi = training.representations(result.params, ds, cfg)
    return cfg, result, zu, zi


def test_recall_matches_full_sort_oracle(ds, trained):
    _, _, zu, zi = trained
    _assert_matches_loop(zu, zi, ds, (1, 3, 5))


@pytest.fixture(scope="module")
def wide():
    """120 test users over 300 items: wide enough that `argpartition` leaves tied
    and NaN keys in no particular order."""
    return synthetic_dataset(120, 300, 320, 3, density=0.1, seed=3, ratios=(0.6, 0.2, 0.2))


def _tie_heavy(ds, seed, dim=3):
    """Embeddings in {-1, 0, 1}: every score is a small exact integer, so ties
    abound and no summation order can move a score."""
    rng = np.random.default_rng(seed)
    zu = rng.integers(-1, 2, (ds.n_users, dim)).astype(np.float64)
    zi = rng.integers(-1, 2, (ds.n_items, dim)).astype(np.float64)
    return zu, zi


def _test_users(ds):
    test = ds.split.test
    return np.unique(test[test[:, 2] == 1, 0])


def _candidate_scores(zu, zi, ds):
    """Descending candidate scores of each user with a test positive."""
    for u in _test_users(ds):
        scores = np.delete(zu[u] @ zi.T, ds.train_graph.items_of(u))
        yield np.sort(scores)[::-1]


def _assert_matches_loop(zu, zi, ds, ks):
    assert same_bits(experiments.recall_at_k(zu, zi, ds, ks=ks), loop_recall_at_k(zu, zi, ds, ks))


def test_recall_bitwise_with_ties_at_the_top_k_boundary(wide):
    zu, zi = _tie_heavy(wide, seed=0)
    ks = (1, 2, 5, 20)
    scores = list(_candidate_scores(zu, zi, wide))
    assert all(any(s[k - 1] == s[k] for s in scores) for k in ks)
    _assert_matches_loop(zu, zi, wide, ks)


def test_recall_bitwise_when_the_next_key_ties_the_top_kth(wide):
    # One-hot users read their own score column exactly. Every user's
    # candidates score distinct values except a test positive and a random
    # other candidate, tied at ranks top and top + 1: only the lower item
    # index of the two counts in recall@top.
    top = 7
    rng = np.random.default_rng(6)
    zu = np.eye(wide.n_users)
    zi = 2.0 * rng.permutation(wide.n_items * wide.n_users).reshape(wide.n_items, wide.n_users)
    test = wide.split.test
    for u in _test_users(wide):
        relevant = test[(test[:, 0] == u) & (test[:, 2] == 1), 1]
        candidates = np.delete(np.arange(wide.n_items), wide.train_graph.items_of(u))
        other = rng.choice(np.setdiff1d(candidates, relevant))
        rest = np.sort(zi[np.setdiff1d(candidates, [relevant[0], other]), u])[::-1]
        zi[[relevant[0], other], u] = (rest[top - 2] + rest[top - 1]) / 2
    scores = list(_candidate_scores(zu, zi, wide))
    assert all(s[top - 2] > s[top - 1] == s[top] > s[top + 1] for s in scores)
    _assert_matches_loop(zu, zi, wide, (3, top))


def test_recall_bitwise_when_train_items_enter_the_top_k(wide):
    zu, zi = _tie_heavy(wide, seed=1)
    ks = (5, 290)
    sizes = [s.size for s in _candidate_scores(zu, zi, wide)]
    assert min(sizes) < 290 < max(sizes)
    _assert_matches_loop(zu, zi, wide, ks)


def test_recall_bitwise_with_k_at_or_above_the_item_count(wide):
    zu, zi = _tie_heavy(wide, seed=2)
    ks = (3, wide.n_items, wide.n_items + 7)
    got = experiments.recall_at_k(zu, zi, wide, ks=ks)
    assert same_bits(got, loop_recall_at_k(zu, zi, wide, ks))
    assert got[wide.n_items] == got[wide.n_items + 7] == 1.0


def test_recall_bitwise_with_nan_scores(wide):
    zu, zi = _tie_heavy(wide, seed=3)
    users = _test_users(wide)
    zu[users[::7]] = np.nan   # whole score rows
    zi[::11, 0] = np.nan      # some items' scores for every user
    _assert_matches_loop(zu, zi, wide, (1, 3, 20, 100))


def test_recall_bitwise_across_blocks(wide, monkeypatch):
    rows = 25
    n_test_users = _test_users(wide).size
    assert n_test_users > 2 * rows and n_test_users % rows   # >= 3 blocks, last one partial
    monkeypatch.setattr(experiments, "RECALL_BLOCK_SCORES", (rows + 1) * wide.n_items - 1)
    rng = np.random.default_rng(5)
    normal = rng.normal(size=(wide.n_users, 6)), rng.normal(size=(wide.n_items, 6))
    for zu, zi in (_tie_heavy(wide, seed=4), normal):
        _assert_matches_loop(zu, zi, wide, (1, 4, 10))


@pytest.fixture(scope="module")
def hundred(wide):
    """`wide` with test positives for its first 100 users only."""
    test = wide.split.test
    kept = test[(test[:, 2] == 0) | (test[:, 0] < 100)]
    ds = wide.with_split(replace(wide.split, test=kept))
    assert _test_users(ds).size == 100
    return ds


def _mixed_scores(ds):
    """Tie-heavy scores with whole NaN rows, and rows scoring -inf on every
    item: every key +inf, as a training positive's is."""
    zu, zi = _tie_heavy(ds, seed=9)
    zi[:, 0] = np.abs(zi[:, 0]) + 1.0
    users = _test_users(ds)
    zu[users[::9]] = np.nan
    zu[users[4::9]] = (-np.inf, 0.0, 0.0)
    return zu, zi


def _spy_blocks(monkeypatch):
    """Record, for every ranked block, its thread and the (blocks, scores)
    in flight once it has started, itself included. A block waits 1 ms once
    it has started, so every free worker starts one."""
    seen = []
    flight = {}   # id of a block's keys -> its size
    lock = threading.Lock()
    ranked_top = experiments._ranked_top

    def spied(keys, top):
        with lock:
            flight[id(keys)] = keys.size
            seen.append((threading.current_thread().name, (len(flight), sum(flight.values()))))
        try:
            time.sleep(1e-3)
            return ranked_top(keys, top)
        finally:
            with lock:
                del flight[id(keys)]

    monkeypatch.setattr(experiments, "_ranked_top", spied)
    return seen


@contextmanager
def _fast_thread_switches():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _assert_in_flight_at_most(seen, lanes):
    """No more than `lanes` blocks, and `RECALL_BLOCK_SCORES` scores, at once."""
    assert max(blocks for _, (blocks, _) in seen) <= lanes
    assert max(scores for _, (_, scores) in seen) <= experiments.RECALL_BLOCK_SCORES


def _assert_ranked_on(seen, cores):
    """Workers rank every block when there are cores to share, else the caller."""
    if cores > 1:
        assert all(name.startswith("kgtn-worker") for name, _ in seen)
    else:
        assert {name for name, _ in seen} == {threading.current_thread().name}


@pytest.mark.parametrize("cores", (1, 2, 3))
def test_recall_split_over_cores_matches_the_oracle_bitwise(hundred, monkeypatch, worker_cores,
                                                             cores):
    worker_cores(cores)
    # 24 rows a block inline; 12 on 2 cores and 8 on 3: 5, 9 and 13 blocks
    monkeypatch.setattr(experiments, "RECALL_BLOCK_SCORES", 24 * hundred.n_items)
    seen = _spy_blocks(monkeypatch)
    zu, zi = _mixed_scores(hundred)
    with _fast_thread_switches():
        _assert_matches_loop(zu, zi, hundred, (1, 4, 10, 40))
    assert len(seen) == {1: 5, 2: 9, 3: 13}[cores]
    _assert_ranked_on(seen, cores)
    _assert_in_flight_at_most(seen, cores)


@pytest.mark.parametrize("cores, rows", ((2, 25), (3, 25), (3, 5), (3, 60)))
def test_recall_blocks_in_flight_hold_at_most_the_block_scores(hundred, monkeypatch, worker_cores,
                                                              cores, rows):
    worker_cores(cores)
    monkeypatch.setattr(experiments, "RECALL_BLOCK_SCORES", rows * hundred.n_items + 7)
    seen = _spy_blocks(monkeypatch)
    zu, zi = _mixed_scores(hundred)
    with _fast_thread_switches():
        _assert_matches_loop(zu, zi, hundred, (3,))
    assert len(seen) == -(-100 // (rows // cores))
    _assert_ranked_on(seen, cores)
    _assert_in_flight_at_most(seen, cores)


def test_recall_blocks_shrink_by_the_width_of_the_pool(hundred, monkeypatch, worker_cores):
    # the pool keeps the three threads of its first use; when the process
    # later reports two cores, the blocks must still shrink by three
    worker_cores(3)
    assert ad._executor()._max_workers == 3
    monkeypatch.setattr(ad, "_cores", lambda: 2)
    monkeypatch.setattr(experiments, "RECALL_BLOCK_SCORES", 24 * hundred.n_items)
    seen = _spy_blocks(monkeypatch)
    zu, zi = _mixed_scores(hundred)
    with _fast_thread_switches():
        _assert_matches_loop(zu, zi, hundred, (1, 4, 10, 40))
    _assert_ranked_on(seen, 3)
    _assert_in_flight_at_most(seen, 3)


def test_recall_on_more_lanes_than_cores_under_fast_thread_switches(hundred, monkeypatch):
    # seven cores reported, a pool of six threads: seven-row blocks shrink
    # by the pool's six to one row, 100 blocks a call, whose recalls come
    # back in user order
    pool = ThreadPoolExecutor(max_workers=6, thread_name_prefix="kgtn-worker")
    monkeypatch.setattr(ad, "_cores", lambda: 7)
    monkeypatch.setattr(ad, "_executor", lambda: pool)
    monkeypatch.setattr(experiments, "RECALL_BLOCK_SCORES", 7 * hundred.n_items)
    seen = _spy_blocks(monkeypatch)
    try:
        with _fast_thread_switches():
            for seed in range(3):
                zu, zi = _tie_heavy(hundred, seed=20 + seed)
                _assert_matches_loop(zu, zi, hundred, (1, 4, 10))
    finally:
        pool.shutdown(wait=True)
    assert len(seen) == 300
    _assert_ranked_on(seen, 7)
    _assert_in_flight_at_most(seen, 6)


def test_recall_in_one_block_runs_inline_and_starts_no_thread(hundred, monkeypatch):
    monkeypatch.setattr(ad, "_cores", lambda: 2)
    monkeypatch.setattr(ad, "_executor", lambda: pytest.fail("the pool was asked for"))
    seen = _spy_blocks(monkeypatch)
    zu, zi = _mixed_scores(hundred)
    _assert_matches_loop(zu, zi, hundred, (1, 4, 10))
    assert [name for name, _ in seen] == [threading.current_thread().name]


def test_recall_counts_a_repeated_k_once(wide):
    # `recall_ks = 16 16` passes validate(); each K is one mean, never a sum
    zu, zi = _tie_heavy(wide, seed=8)
    once = experiments.recall_at_k(zu, zi, wide, ks=(5, 300))
    assert experiments.recall_at_k(zu, zi, wide, ks=(5, 5, 300, 300)) == once
    assert once[300] == 1.0


def test_recall_rejects_k_below_one(wide):
    zu, zi = _tie_heavy(wide, seed=6)
    with pytest.raises(DomainError, match="k >= 1"):
        experiments.recall_at_k(zu, zi, wide, ks=(0, 5))
    test = wide.split.test
    no_positives = wide.with_split(replace(wide.split, test=test[test[:, 2] == 0]))
    assert np.isnan(experiments.recall_at_k(zu, zi, no_positives, ks=(5,))[5])
    with pytest.raises(DomainError, match="k >= 1"):
        experiments.recall_at_k(zu, zi, no_positives, ks=(-1, 5))


def test_recall_does_not_mutate_inputs(wide, fingerprint):
    zu, zi = _tie_heavy(wide, seed=7)
    graph = wide.train_graph
    before = fingerprint((zu, zi, wide, graph.u_offsets, graph.u_items))
    experiments.recall_at_k(zu, zi, wide, ks=(1, 5, wide.n_items))
    assert fingerprint((zu, zi, wide, graph.u_offsets, graph.u_items)) == before


def test_recall_monotone_in_k(ds, trained):
    _, _, zu, zi = trained
    got = experiments.recall_at_k(zu, zi, ds, ks=(1, 2, 5, 10, 16))
    keys = sorted(got)
    assert all(got[a] <= got[b] + 1e-12 for a, b in zip(keys, keys[1:]))


def test_recall_leakage_guard(ds, trained):
    # boost a training positive to rank 1; recall must not change
    cfg, _, zu, zi = trained
    test_pos = ds.split.test[ds.split.test[:, 2] == 1]
    u = int(test_pos[0, 0])
    train_items = ds.train_graph.items_of(u)
    assert train_items.size, "fixture user needs a training positive"
    before = experiments.recall_at_k(zu, zi, ds, ks=(1, 3))
    zi2 = zi.copy()
    zi2[train_items[0]] = zu[u] * 1e6
    after = experiments.recall_at_k(zu, zi2, ds, ks=(1, 3))
    assert after[1] <= before[1] + 1e-12


def test_evaluate_model_reports_valid_row(ds, trained):
    cfg, result, _, _ = trained
    row = experiments.evaluate_model(result.params, ds, cfg, label="m")
    assert 0.0 <= row.auc <= 1.0
    assert 0.0 <= row.f1 <= 1.0
    assert set(row.recall) == {2, 5}


def test_variant_config_mapping():
    cfg = quick_cfg()
    assert experiments.variant_config(cfg, "wo_contrast").alpha == 0.0
    assert experiments.variant_config(cfg, "wo_sampling").k_top is None
    wo_i = experiments.variant_config(cfg, "wo_intents")
    assert wo_i.n_intents == 1 and wo_i.alpha == 0.0 and wo_i.k_top is None
    full = experiments.variant_config(cfg, "full")
    assert full.alpha == cfg.alpha and full.k_top == cfg.k_top is not None
    with pytest.raises(ContractError):
        experiments.variant_config(cfg, "nope")


def test_run_ablation_produces_all_variants(ds):
    report = experiments.run_ablation(quick_cfg(epochs=1), ds)
    assert [row.label for row in report.rows] == list(experiments.ABLATION_VARIANTS)
    for row in report.rows:
        assert 0.0 <= row.auc <= 1.0


def test_noise_robustness_table(ds):
    report = experiments.noise_robustness(quick_cfg(epochs=1), ds, ratios=(0.0, 0.10))
    assert set(report.noise_drops) == {0.0, 0.10}
    da, df = report.noise_drops[0.0]
    assert da == 0.0 and df == 0.0
    base = report.rows[0]
    noisy = report.rows[1]
    expect = 100.0 * (base.auc - noisy.auc) / base.auc
    assert abs(report.noise_drops[0.10][0] - expect) < 1e-12


def test_report_render_and_csv(ds):
    report = experiments.MetricReport(rows=[
        experiments.MetricRow(label="a", auc=0.9, f1=0.8, recall={10: 0.1, 20: 0.2}),
    ], noise_drops={0.0: (0.0, 0.0)})
    text = report.render_table()
    assert "recall@10" in text and "noise" in text
    csv = report.to_csv()
    assert csv.startswith("label,auc,f1,recall_at_10,recall_at_20")


def test_report_csv_rows_are_header_wide_with_unique_labels():
    # drop rows once reused the metric rows' `noise_{ratio}` labels, with
    # fewer fields than the header
    for ks in ({10: 0.1, 20: 0.2}, {}):
        report = experiments.MetricReport(rows=[
            experiments.MetricRow(label=f"noise_{r:g}", auc=0.9, f1=0.8, recall=ks)
            for r in (0.0, 0.05, 0.1)
        ], noise_drops={0.0: (0.0, 0.0), 0.05: (1.0, 2.0), 0.1: (3.0, 4.0)})
        header, *rows = csv.reader(io.StringIO(report.to_csv()))
        assert header[:3] == ["label", "auc", "f1"] and len(header) == 3 + len(ks)
        assert all(len(row) == len(header) for row in rows)
        labels = [row[0] for row in rows]
        assert len(set(labels)) == len(labels) == 6
        assert labels[3:] == ["drop_0", "drop_0.05", "drop_0.1"]


def test_report_validation_catches_bad_rows():
    bad = experiments.MetricReport(rows=[
        experiments.MetricRow(label="x", auc=1.2, f1=0.5, recall={}),
    ])
    with pytest.raises(ContractError):
        bad.validate()
    shrinking = experiments.MetricReport(rows=[
        experiments.MetricRow(label="y", auc=0.5, f1=0.5, recall={10: 0.5, 20: 0.1}),
    ])
    with pytest.raises(ContractError):
        shrinking.validate()


def test_plot_series_written(tmp_path, ds):
    report = experiments.MetricReport(rows=[
        experiments.MetricRow(label="a", auc=0.9, f1=0.8, recall={}),
    ], noise_drops={0.0: (0.0, 0.0), 0.1: (1.0, 2.0)})
    written = experiments.plot_series(report, tmp_path, "demo")
    assert len(written) == 2
    noise_csv = (tmp_path / "demo_noise_drop.csv").read_text()
    assert noise_csv.splitlines()[0] == "noise_ratio,auc_drop_pct,f1_drop_pct"


@pytest.mark.parametrize("split", ["train", "eval", "test"])
def test_balanced_pairs_give_no_pair_both_labels(split):
    # negatives were drawn against the train graph only, so a held-out
    # positive could come back as its own user's negative
    ds = synthetic_dataset(40, 30, 50, 3, seed=1)
    pairs = experiments.balanced_pairs(ds, split=split, seed=123)
    assert pairs.shape[0] > 0
    labels = {}
    for u, i, label in pairs.tolist():
        labels.setdefault((u, i), set()).add(label)
    assert all(len(seen) == 1 for seen in labels.values())


def test_balanced_pairs_are_balanced(ds):
    pairs = experiments.balanced_pairs(ds, split="train", seed=9)
    for u in np.unique(pairs[:, 0]):
        rows = pairs[pairs[:, 0] == u]
        n_pos = (rows[:, 2] == 1).sum()
        n_neg = (rows[:, 2] == 0).sum()
        assert n_neg <= n_pos
        avail = ds.n_items - ds.train_graph.user_degree(int(u))
        assert n_neg == min(n_pos, avail)

"""CTR and ranking metric oracles."""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from recall_oracle import recall_from_ranking
from scipy.stats import rankdata

from kgtn import metrics
from kgtn.errors import DomainError, ShapeError


def brute_force_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_perfect_ranking():
    assert metrics.auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_all_ties():
    assert metrics.auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
    for n in (2, 3, 600, 11001):
        assert metrics.auc(np.full(n, 0.7), np.arange(n) % 2) == 0.5


def test_auc_three_point_oracle():
    # pairs: (0.9 vs 0.8) win, (0.3 vs 0.8) loss -> 0.5
    assert metrics.auc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(DomainError):
        metrics.auc([0.1, 0.9], [1, 1])


def test_auc_matches_brute_force_everywhere():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 500))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        fast = metrics.auc(scores, labels)
        slow = brute_force_auc(scores, labels)
        assert abs(fast - slow) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 600, 11000])
def test_average_ranks_equal_rankdata(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = rng.normal(size=n)
        for v in (x, np.round(x, 2), np.round(x, 0), np.sign(x), np.full(n, 0.25),
                  np.where(x < 0, -np.inf, np.inf), np.where(x < 1, x, np.inf)):
            ranks = metrics._average_ranks(v)
            assert ranks.dtype == np.float64
            np.testing.assert_array_equal(ranks, rankdata(v))


def test_auc_of_a_nan_score_is_nan():
    assert np.isnan(metrics.auc([0.2, np.nan, 0.9], [1, 0, 0]))


def test_import_kgtn_loads_no_scipy_stats():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, kgtn; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_f1_perfect_separation():
    assert metrics.f1([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_f1_no_predicted_positives_warns():
    with pytest.warns(UserWarning):
        assert metrics.f1([0.1, 0.2], [1, 0]) == 0.0


def test_f1_tp_fp_fn_oracle():
    # TP=1, FP=1, FN=1 -> P = R = 0.5 -> F1 = 0.5
    assert metrics.f1([0.9, 0.8, 0.1], [1, 0, 1]) == 0.5


@pytest.mark.parametrize("metric", [metrics.auc, metrics.f1])
def test_metrics_reject_a_label_outside_zero_and_one(metric):
    # a label 2 was ranked as a third class: auc read 2.0
    for labels in ([0, 1, 2], [0, 1, -1], [0.0, 1.0, 0.5], [0.0, 1.0, np.nan]):
        with pytest.raises(DomainError, match=f"{metric.__name__}: labels"):
            metric([0.1, 0.9, 0.5], labels)


@pytest.mark.parametrize("metric", [metrics.auc, metrics.f1])
def test_metrics_reject_scores_and_labels_that_are_not_one_vector_pair(metric):
    for scores, labels in (([0.1, 0.9, 0.5], [0, 1]), ([0.1, 0.9], [0, 1, 1]),
                           ([[0.1, 0.9]], [[0, 1]]), (0.5, 1), ([[0.1, 0.9]], [0, 1])):
        with pytest.raises(ShapeError, match=metric.__name__):
            metric(scores, labels)


# The per-user recall of the loop that `experiments.recall_at_k` must match
# bit for bit (see tests/recall_oracle.py).


def test_recall_handles_full_candidate_coverage():
    assert recall_from_ranking([3, 1, 2], [1, 2, 3], k=3) == 1.0


def test_recall_single_item_first():
    assert recall_from_ranking([5, 1, 2], [5], k=1) == 1.0


def test_recall_half():
    assert recall_from_ranking(list(range(10)), [0, 99], k=10) == 0.5


def test_recall_monotone_in_k():
    rng = np.random.default_rng(0)
    ranking = rng.permutation(50)
    relevant = rng.choice(50, size=7, replace=False)
    values = [recall_from_ranking(ranking, relevant, k) for k in range(1, 51)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0


def test_recall_requires_relevant_items():
    with pytest.raises(DomainError):
        recall_from_ranking([1, 2], [], k=1)


def test_ctr_scores_saturate_without_an_overflow_warning():
    # a raw score below about -709 made np.exp(-raw) overflow, and the
    # RuntimeWarning became an error under -W error
    zu, zi = np.array([[30.0], [0.5]]), np.array([[-30.0], [2.0]])
    pairs = np.array([[0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = metrics.ctr_scores(zu, zi, pairs)
    raw = np.array([-900.0, 1.0, 60.0, -15.0])
    assert probs[0] == 0.0
    np.testing.assert_array_equal(probs[1:], 1.0 / (1.0 + np.exp(-raw[1:])))

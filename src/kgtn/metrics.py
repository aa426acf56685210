"""Click-through-rate metrics and the one CTR scorer."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError


def _average_ranks(x):
    """1-based ranks of a vector, each tie group at the mean of its ranks.

    A stable argsort orders the values; a group of equal values at sorted
    positions start .. end - 1 takes the rank (start + 1 + end) / 2, a sum of
    halves, so every rank is exact.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def auc(scores, labels):
    """Probability that a random positive outscores a random negative.

    Ties count one half; computed via the rank-sum identity in O(n log n).
    A NaN score makes the result NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DomainError("auc is undefined unless both classes are present")
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1(scores, labels, threshold=0.5):
    """Binary F1 with `score >= threshold` as the positive prediction."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = scores >= threshold
    tp = int((pred & (labels == 1)).sum())
    fp = int((pred & (labels == 0)).sum())
    fn = int((~pred & (labels == 1)).sum())
    if tp + fp == 0:
        warnings.warn("f1: no predicted positives at this threshold")
        return 0.0
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))


def ctr_scores(zu, zi, pairs):
    """Sigmoid click probabilities for labelled (user, item) pairs."""
    raw = (zu[pairs[:, 0]] * zi[pairs[:, 1]]).sum(axis=1)
    # below about -709, exp(-raw) overflows to inf and the probability is 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-raw))


def ctr_eval(zu, zi, pairs):
    """AUC and F1 of the click probabilities of labelled (user, item, label) rows."""
    probs = ctr_scores(zu, zi, pairs)
    labels = pairs[:, 2]
    return auc(probs, labels), f1(probs, labels)


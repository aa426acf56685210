"""Click-through-rate metrics and the one CTR scorer."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError, ShapeError


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


def _scored_labels(name, scores, labels):
    """The float64 scores and the labels' positive mask. Scores and labels
    that are not 1-d vectors of one length, or a label not 0 or 1, raise."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ShapeError(f"{name}: want two 1-d vectors of one length, got {scores.shape} "
                         f"scores and {labels.shape} labels")
    positive = labels == 1
    if not (positive | (labels == 0)).all():
        raise DomainError(f"{name}: labels must be 0 or 1")
    return scores, positive


def auc(scores, labels):
    """Probability that a random positive outscores a random negative.

    Ties count one half; computed via the rank-sum identity in O(n log n).
    A NaN score makes the result NaN.
    """
    scores, positive = _scored_labels("auc", scores, labels)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("auc is undefined unless both classes are present")
    if np.isnan(scores).any():
        return float("nan")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[positive].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def f1(scores, labels, threshold=0.5):
    """Binary F1 with `score >= threshold` as the positive prediction."""
    scores, positive = _scored_labels("f1", scores, labels)
    pred = scores >= threshold
    tp = int((pred & positive).sum())
    fp = int((pred & ~positive).sum())
    fn = int((~pred & positive).sum())
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


"""Reference Recall@K: one user at a time, one full stable sort each.

`experiments.recall_at_k` ranks users in blocks; the tests require its
recall dict to equal this loop's bit for bit.
"""
import numpy as np

from kgtn.errors import DomainError


def recall_from_ranking(ranked_items, relevant_items, k):
    """Recall@k for one user given a full ranking and their relevant set."""
    if k < 1:
        raise DomainError(f"recall@k needs k >= 1, got {k}")
    relevant = set(int(i) for i in relevant_items)
    if not relevant:
        raise DomainError("recall is undefined for a user with no relevant items")
    hits = sum(1 for i in ranked_items[:k] if int(i) in relevant)
    return hits / len(relevant)


def loop_recall_at_k(zu, zi, dataset, ks, split="test"):
    """Mean Recall@K over users with at least one test positive.

    Candidates are every item except the user's training positives; the
    exclusion guards against leaking memorized training interactions into
    the ranking.
    """
    ks = sorted(ks)
    pairs = getattr(dataset.split, split)
    positives = pairs[pairs[:, 2] == 1]
    by_user = {}
    for u, i in positives[:, :2]:
        by_user.setdefault(int(u), []).append(int(i))
    graph = dataset.train_graph
    totals = {k: 0.0 for k in ks}
    n_users = 0
    for u, relevant in sorted(by_user.items()):
        scores = zu[u] @ zi.T
        train_items = graph.items_of(u)
        scores = scores.copy()
        scores[train_items] = -np.inf
        order = np.argsort(-scores, kind="stable")
        n_users += 1
        for k in ks:
            totals[k] += recall_from_ranking(order[:k], relevant, k)
    if n_users == 0:
        return {k: float("nan") for k in ks}
    return {k: totals[k] / n_users for k in ks}


def same_bits(got, want):
    """Same keys, and every value with the same bits (`float.hex`)."""
    return {k: float(v).hex() for k, v in got.items()} == {k: float(v).hex() for k, v in want.items()}

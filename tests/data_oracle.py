"""Reference data path: per-user set algebra and per-element tuples.

`data.negative_sample` takes its pool as a mask complement, and
`data.make_split`, `data.generate_synthetic` and
`experiments.balanced_pairs` build their arrays from per-user index arrays;
the tests require their outputs to equal these loops' bit for bit.
"""
import warnings

import numpy as np

from kgtn.data import InteractionGraph, RawData, Split
from kgtn.errors import ConfigError, DomainError


def negative_sample(graph, user, count, seed):
    """Draw `count` distinct non-interacted items for `user`, uniformly.

    Truncates (with a warning) when the user has fewer candidates than
    requested. Deterministic for integer seeds; a Generator may be passed
    instead to share a stream.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    pos = graph.items_of(user)
    pool = np.setdiff1d(np.arange(graph.n_items, dtype=np.int64), pos, assume_unique=False)
    if pool.size == 0:
        raise DomainError(f"user {user} has interacted with every item; no negatives exist")
    if count == 0:
        return np.array([], dtype=np.int64)
    if count > pool.size:
        warnings.warn(
            f"user {user}: requested {count} negatives, only {pool.size} available; truncating"
        )
        count = pool.size
    return rng.choice(pool, size=count, replace=False)


def make_split(interactions, ratios, seed):
    """Per-user stratified split of positives, with frozen eval/test negatives.

    Users with fewer than 3 positives contribute all of them to train.
    Eval/test negatives are drawn once, user-balanced (one per positive in
    that portion), disjoint from every positive and from each other.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be 3 non-negatives summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    positives = interactions.positives
    n_users, n_items = interactions.n_users, interactions.n_items
    full_graph = InteractionGraph(n_users, n_items, positives)

    train_rows, eval_rows, test_rows = [], [], []
    for u in range(n_users):
        items = full_graph.items_of(u).copy()
        if items.size == 0:
            continue
        rng.shuffle(items)
        if items.size < 3:
            n_eval = n_test = 0
        else:
            n_eval = int(items.size * ratios[1])
            n_test = int(items.size * ratios[2])
        n_train = items.size - n_eval - n_test
        tr, ev, te = items[:n_train], items[n_train:n_train + n_eval], items[n_train + n_eval:]
        train_rows.extend((u, int(i), 1) for i in tr)
        eval_rows.extend((u, int(i), 1) for i in ev)
        test_rows.extend((u, int(i), 1) for i in te)
        n_neg = ev.size + te.size
        if n_neg:
            negs = negative_sample(full_graph, u, n_neg, rng)
            eval_rows.extend((u, int(j), 0) for j in negs[:ev.size])
            test_rows.extend((u, int(j), 0) for j in negs[ev.size:])

    def _arr(rows):
        return np.array(rows, dtype=np.int64).reshape(-1, 3)

    return Split(train=_arr(train_rows), eval=_arr(eval_rows), test=_arr(test_rows))


def generate_synthetic(n_users, n_items, n_entities, n_relations, density=0.5, seed=0, n_groups=4):
    """Deterministic planted-preference dataset.

    Users and items are assigned to groups; a user interacts with a
    same-group item with probability 0.9 and otherwise 0.1 at the default
    density of 0.5. The group separation shrinks linearly toward the
    extremes, so density 1.0 yields complete bipartite interactions. Every
    item is linked in the KG to its group's tag entity, which lives in the
    non-item entity range, so group structure is recoverable from the KG.
    """
    if n_items > n_entities:
        raise ConfigError(f"need n_items <= n_entities, got {n_items} > {n_entities}")
    if not (0.0 < density <= 1.0):
        raise ConfigError(f"density must lie in (0, 1], got {density}")
    if min(n_users, n_items, n_relations) < 1:
        raise ConfigError("all synthetic counts must be positive")
    if n_relations > n_items:
        # every item heads a triple, so relation IDs then stay below the
        # triple count that `load_kg` requires
        raise ConfigError(f"need n_relations <= n_items, got {n_relations} > {n_items}")
    rng = np.random.default_rng(seed)
    n_tags = n_entities - n_items
    groups = max(1, min(n_groups, n_users, n_items, n_tags if n_tags else 1))
    user_groups = rng.integers(0, groups, size=n_users)
    item_groups = rng.integers(0, groups, size=n_items)

    spread = 0.4 * (1.0 - abs(2.0 * density - 1.0))
    p_same = min(1.0, density + spread)
    p_diff = max(0.0, density - spread)

    pos_rows = []
    for u in range(n_users):
        p = np.where(item_groups == user_groups[u], p_same, p_diff)
        for _ in range(1000):
            row = rng.random(n_items) < p
            if row.any():
                break
        else:
            row = np.zeros(n_items, dtype=bool)
            row[int(rng.integers(n_items))] = True
        pos_rows.extend((u, int(i)) for i in np.flatnonzero(row))
    positives = np.array(pos_rows, dtype=np.int64)

    # balanced explicit negatives, mirroring the on-disk rating format
    graph = InteractionGraph(n_users, n_items, positives)
    rows = [(u, i, 1) for u, i in positives]
    for u in range(n_users):
        want = graph.user_degree(u)
        avail = n_items - want
        if want and avail:
            for j in negative_sample(graph, u, min(want, avail), rng):
                rows.append((u, int(j), 0))
    pairs = np.array(sorted(rows), dtype=np.int64)

    triples = []
    for i in range(n_items):
        g = int(item_groups[i])
        tag = n_items + (g % n_tags) if n_tags else (i + 1) % n_items
        triples.append((i, g % n_relations, int(tag)))
        if n_tags:
            for _ in range(int(rng.integers(0, 4))):
                triples.append(
                    (i, int(rng.integers(n_relations)), n_items + int(rng.integers(n_tags)))
                )
    for j in range(1, n_tags):
        triples.append((n_items + j, int(rng.integers(n_relations)), n_items + int(rng.integers(j))))
        if rng.random() < 0.3:
            triples.append(
                (n_items + j, int(rng.integers(n_relations)), int(rng.integers(n_entities)))
            )
    triples = np.unique(np.array(triples, dtype=np.int64).reshape(-1, 3), axis=0)

    return RawData(
        pairs=pairs,
        triples=triples,
        n_users=n_users,
        n_items=n_items,
        n_entities=n_entities,
        n_relations=n_relations,
        user_groups=user_groups,
        item_groups=item_groups,
    )


def balanced_pairs(dataset, split="train", seed=123):
    """Positives of a split plus per-user balanced sampled negatives.

    Eval/test splits already carry frozen negatives; this helper exists for
    measuring CTR metrics on the train portion (whose ranking negatives are
    resampled every epoch and never stored).
    """
    pairs = getattr(dataset.split, split)
    positives = pairs[pairs[:, 2] == 1]
    # a held-out positive is never its own user's negative
    graph = InteractionGraph(dataset.n_users, dataset.n_items,
                             [tuple(p) for p in dataset.split.train[:, :2]]
                             + [tuple(p) for p in positives[:, :2]])
    rng = np.random.default_rng(seed)
    rows = [(int(u), int(i), 1) for u, i in positives[:, :2]]
    counts = {}
    for u, _ in positives[:, :2]:
        counts[int(u)] = counts.get(int(u), 0) + 1
    for u in sorted(counts):
        avail = dataset.n_items - graph.user_degree(u)
        if avail <= 0:
            continue
        for j in negative_sample(graph, u, min(counts[u], avail), rng):
            rows.append((u, int(j), 0))
    return np.array(rows, dtype=np.int64)

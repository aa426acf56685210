"""Interaction/KG ingestion, splits, negative sampling, noise, synthetic data.

File formats (tab-separated decimal integers, one record per line):

    ratings_final.txt   user <TAB> item <TAB> label      label in {0, 1}
    kg_final.txt        head <TAB> relation <TAB> tail

Items are aligned with the entity-ID prefix [0, n_items): an item's row in
the entity table *is* its KG entity, so alignment lookups are no-ops.
"""
from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, DomainError


# ---------------------------------------------------------------------------
# core graph containers


@dataclass
class KGEdges:
    """Flat CSR view of knowledge-graph adjacency, grouped by head entity."""

    offsets: np.ndarray   # (n_entities + 1,)
    rel: np.ndarray       # (E,)
    tail: np.ndarray      # (E,)
    head: np.ndarray      # (E,) = repeat(arange(n), counts)

    @property
    def n_edges(self):
        return self.rel.shape[0]

    @property
    def counts(self):
        return np.diff(self.offsets)


class InteractionGraph:
    """Bidirectional CSR adjacency over observed positive (user, item) pairs."""

    def __init__(self, n_users, n_items, pos_pairs):
        pos_pairs = np.asarray(pos_pairs, dtype=np.int64).reshape(-1, 2)
        if pos_pairs.size:
            if pos_pairs.min() < 0 or pos_pairs[:, 0].max() >= n_users or pos_pairs[:, 1].max() >= n_items:
                raise DataFormatError("interaction pair index out of range")
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        # dedupe and sort for a canonical layout
        pairs = np.unique(pos_pairs, axis=0) if pos_pairs.size else pos_pairs.reshape(0, 2)
        self.pairs = pairs
        self.u_offsets, self.u_items = _csr(pairs[:, 0], pairs[:, 1], self.n_users)
        self.i_offsets, self.i_users = _csr(pairs[:, 1], pairs[:, 0], self.n_items)

    @property
    def n_interactions(self):
        return self.pairs.shape[0]

    def user_degree(self, u):
        return int(self.u_offsets[u + 1] - self.u_offsets[u])

    def items_of(self, u):
        return self.u_items[self.u_offsets[u]:self.u_offsets[u + 1]]

    def has(self, u, i):
        row = self.items_of(u)  # sorted within each CSR row
        k = np.searchsorted(row, i)
        return bool(k < row.size and row[k] == i)


def csr_offsets(keys, n_keys):
    """CSR offsets for rows already grouped by `keys` (one block per key)."""
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=offsets[1:])
    return offsets


def _csr(keys, values, n_keys):
    order = np.lexsort((values, keys))
    return csr_offsets(keys[order], n_keys), values[order]


class KnowledgeGraph:
    """Triple store with per-head CSR adjacency, never written after construction.

    Per-epoch knowledge sampling returns a `denoise.SampledGraphView` of the
    kept slots instead of changing the graph.
    """

    def __init__(self, triples, n_entities=None, n_relations=None):
        triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
        triples = np.unique(triples, axis=0) if triples.size else triples.reshape(0, 3)
        if triples.size and triples.min() < 0:
            raise DataFormatError("negative ID in knowledge-graph triples")
        max_ent = int(max(triples[:, 0].max(), triples[:, 2].max())) + 1 if triples.size else 0
        max_rel = int(triples[:, 1].max()) + 1 if triples.size else 0
        self.n_entities = max(max_ent, n_entities or 0)
        self.n_relations = max(max_rel, n_relations or 0)
        if n_entities is not None and max_ent > n_entities:
            raise DataFormatError(
                f"entity ID overflow: triples use {max_ent} entities, declared {n_entities}"
            )
        self.triples = triples
        order = np.lexsort((triples[:, 2], triples[:, 1], triples[:, 0])) if triples.size else np.array([], dtype=np.int64)
        heads = triples[order, 0] if triples.size else np.array([], dtype=np.int64)
        self._edges = KGEdges(
            offsets=csr_offsets(heads, self.n_entities),
            rel=triples[order, 1] if triples.size else np.array([], dtype=np.int64),
            tail=triples[order, 2] if triples.size else np.array([], dtype=np.int64),
            head=heads,
        )

    @property
    def n_triples(self):
        return self.triples.shape[0]

    def full_edges(self):
        return self._edges


# ---------------------------------------------------------------------------
# loading


def _parse_int_lines(path, n_fields, what):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise DataFormatError(
                    f"{what} line {lineno}: expected {n_fields} tab-separated fields, got {len(parts)}"
                )
            try:
                row = [int(p) for p in parts]
            except ValueError:
                raise DataFormatError(f"{what} line {lineno}: non-integer field") from None
            if any(v < 0 for v in row):
                raise DataFormatError(f"{what} line {lineno}: negative ID")
            rows.append((lineno, row))
    return rows


@dataclass
class Interactions:
    """Parsed rating file with densely remapped user/item IDs."""

    pairs: np.ndarray   # (P, 3) columns: user, item, label
    n_users: int
    n_items: int

    @property
    def positives(self):
        return self.pairs[self.pairs[:, 2] == 1][:, :2]


def load_interactions(path):
    rows = _parse_int_lines(path, 3, "ratings")
    if not rows:
        raise DataFormatError(f"{path}: empty ratings file")
    for lineno, (_, _, label) in rows:
        if label not in (0, 1):
            raise DataFormatError(f"ratings line {lineno}: label must be 0 or 1, got {label}")
    raw = np.array([r for _, r in rows], dtype=np.int64)
    raw = np.unique(raw, axis=0)  # duplicate (u, i, label) lines carry no information
    # raw ids map to their rank among the distinct ids
    users, user_idx = np.unique(raw[:, 0], return_inverse=True)
    items, item_idx = np.unique(raw[:, 1], return_inverse=True)
    pairs = np.stack([user_idx, item_idx, raw[:, 2]], axis=1)
    return Interactions(pairs=pairs, n_users=len(users), n_items=len(items))


def load_kg(path, min_entities=0):
    rows = _parse_int_lines(path, 3, "kg")
    triples = np.array([r for _, r in rows], dtype=np.int64).reshape(-1, 3)
    used = int(max(triples[:, 0].max(), triples[:, 2].max())) + 1 if triples.size else 0
    total = max(min_entities, used)
    return KnowledgeGraph(triples, n_entities=total or None)


# ---------------------------------------------------------------------------
# splits and sampling


@dataclass
class Split:
    """Per-user stratified split; eval/test carry frozen balanced negatives."""

    train: np.ndarray   # (n, 3) positives only, label column all 1
    eval: np.ndarray    # (n, 3) labelled pairs
    test: np.ndarray    # (n, 3) labelled pairs

    def eval_test_digest(self):
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.eval).tobytes())
        h.update(np.ascontiguousarray(self.test).tobytes())
        return h.hexdigest()


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


def inject_noise(dataset, ratio, seed):
    """Return a copy of `dataset` with fake training positives added.

    Adds floor(ratio * |train positives|) pairs drawn uniformly from pairs
    absent from every split row (the split rows hold every observed
    positive, so the fakes are absent from the interaction matrix too);
    eval/test portions are byte-identical to the input's.
    """
    if not (0.0 <= ratio <= 0.5):
        raise ConfigError(f"noise ratio must lie in [0, 0.5], got {ratio}")
    split = dataset.split
    n_add = int(ratio * split.train.shape[0])
    if n_add == 0:
        return dataset.with_split(Split(split.train.copy(), split.eval, split.test))
    rng = np.random.default_rng(seed)
    taken = set(map(tuple, split.train[:, :2]))
    taken |= set(map(tuple, split.eval[:, :2]))
    taken |= set(map(tuple, split.test[:, :2]))
    fake = []
    attempts = 0
    limit = 1000 * max(1, n_add)
    while len(fake) < n_add:
        attempts += 1
        if attempts > limit:
            raise DomainError("noise injection could not find enough non-interacted pairs")
        u = int(rng.integers(dataset.n_users))
        i = int(rng.integers(dataset.n_items))
        if (u, i) in taken:
            continue
        taken.add((u, i))
        fake.append((u, i, 1))
    train = np.concatenate([split.train, np.array(fake, dtype=np.int64)], axis=0)
    return dataset.with_split(Split(train=train, eval=split.eval, test=split.test))


# ---------------------------------------------------------------------------
# dataset bundle


@dataclass
class Dataset:
    """Everything training consumes: counts, split, KG, and the train graph."""

    n_users: int
    n_items: int
    kg: KnowledgeGraph
    split: Split
    _graph: InteractionGraph = field(default=None, repr=False)

    @property
    def n_entities(self):
        return self.kg.n_entities

    @property
    def n_relations(self):
        return self.kg.n_relations

    @property
    def train_graph(self):
        if self._graph is None:
            self._graph = InteractionGraph(self.n_users, self.n_items, self.split.train[:, :2])
        return self._graph

    def with_split(self, split):
        return Dataset(
            n_users=self.n_users,
            n_items=self.n_items,
            kg=self.kg,
            split=split,
        )


def build_dataset(interactions, kg, ratios, seed):
    if kg.n_entities < interactions.n_items:
        raise DataFormatError(
            f"items must form an entity-ID prefix: {interactions.n_items} items "
            f"but only {kg.n_entities} entities"
        )
    return Dataset(
        n_users=interactions.n_users,
        n_items=interactions.n_items,
        kg=kg,
        split=make_split(interactions, ratios, seed),
    )


def load_dataset(data_dir, ratios, seed):
    from pathlib import Path

    d = Path(data_dir)
    inter = load_interactions(d / "ratings_final.txt")
    kg = load_kg(d / "kg_final.txt", min_entities=inter.n_items)
    return build_dataset(inter, kg, ratios, seed)


# ---------------------------------------------------------------------------
# synthetic fixtures


@dataclass
class RawData:
    """In-memory dataset in the two on-disk formats, plus planted metadata."""

    pairs: np.ndarray      # (P, 3) user, item, label
    triples: np.ndarray    # (T, 3) head, relation, tail
    n_users: int
    n_items: int
    n_entities: int
    n_relations: int
    user_groups: np.ndarray
    item_groups: np.ndarray

    def interactions(self):
        return Interactions(pairs=self.pairs, n_users=self.n_users, n_items=self.n_items)

    def knowledge_graph(self):
        return KnowledgeGraph(self.triples, n_entities=self.n_entities, n_relations=self.n_relations)


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


def write_dataset(raw, out_dir):
    from pathlib import Path

    d = Path(out_dir)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "ratings_final.txt", "w", encoding="utf-8") as fh:
        for u, i, y in raw.pairs:
            fh.write(f"{u}\t{i}\t{y}\n")
    with open(d / "kg_final.txt", "w", encoding="utf-8") as fh:
        for h, r, t in raw.triples:
            fh.write(f"{h}\t{r}\t{t}\n")
    return d / "ratings_final.txt", d / "kg_final.txt"


def synthetic_dataset(n_users, n_items, n_entities, n_relations, density=0.5, seed=0,
                      ratios=(0.6, 0.2, 0.2), n_groups=4):
    """Generate and bundle a synthetic dataset in one call."""
    raw = generate_synthetic(n_users, n_items, n_entities, n_relations, density, seed, n_groups)
    return build_dataset(raw.interactions(), raw.knowledge_graph(), ratios, seed)

"""Interaction/KG ingestion, splits, negative sampling, noise, synthetic data.

File formats (tab-separated decimal integers, one record per line):

    ratings_final.txt   user <TAB> item <TAB> label      label in {0, 1}
    kg_final.txt        head <TAB> relation <TAB> tail

Items are aligned with the entity-ID prefix [0, n_items): an item's row in
the entity table *is* its KG entity, so alignment lookups are no-ops.
"""
from __future__ import annotations

import hashlib
import io
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import SparseOperator
from .errors import ConfigError, DataFormatError, DomainError


# ---------------------------------------------------------------------------
# core graph containers


@dataclass
class KGEdges:
    """Flat CSR view of knowledge-graph adjacency, grouped by head entity.

    The operators below are built on first use and kept with these edges:
    for the whole fit on `kg.full_edges()`, for one epoch on a sampled
    view's edges.
    """

    offsets: np.ndarray   # (n_entities + 1,)
    rel: np.ndarray       # (E,)
    tail: np.ndarray      # (E,)
    head: np.ndarray      # (E,) = repeat(arange(n), counts)
    n_relations: int

    @property
    def n_edges(self):
        return self.rel.shape[0]

    @property
    def counts(self):
        return np.diff(self.offsets)

    @cached_property
    def mean_operator(self):
        """(n, E) CSR matrix of the block means: row i averages head i's slots."""
        return block_operator(self.offsets, 1.0 / np.maximum(self.counts, 1))

    @cached_property
    def tail_sum(self):
        """(n, E) one-hot operator summing slot rows onto their tail entities."""
        return one_hot_operator(self.tail, self.offsets.size - 1)

    @cached_property
    def relation_sum(self):
        """(relations, E) one-hot operator summing slot rows onto their relations."""
        return one_hot_operator(self.rel, self.n_relations)

    def slot_logits(self, entity, relation):
        """Relation-aware attention logit e_h . e_t + e_r . e_r of every slot.

        `entity` and `relation` are plain (n, d) arrays. The logit equals the
        dot product of the relation-concatenated pair ((e_h || e_r),
        (e_t || e_r)).
        """
        r = relation[self.rel]
        return (entity[self.head] * entity[self.tail]).sum(axis=1) + (r * r).sum(axis=1)


def block_operator(offsets, weights):
    """(n, E) CSR matrix whose product with E stacked rows sums each CSR block.

    Row i holds `weights[i]` on columns `offsets[i]` .. `offsets[i+1] - 1`.
    The matrix owns its index arrays; `offsets` is copied, never shared.
    """
    counts = np.diff(offsets)
    n_edges = int(offsets[-1])
    return SparseOperator(
        (np.repeat(weights, counts), np.arange(n_edges), np.array(offsets)),
        shape=(counts.size, n_edges),
    )


def one_hot_operator(keys, n_keys):
    """(n_keys, E) CSR matrix whose product with E stacked rows sums row e
    onto row `keys[e]`, each sum in ascending e: bitwise the same sums as a
    flat `np.bincount` over `keys[e] * d + column`."""
    return SparseOperator(
        (np.ones(keys.size), np.argsort(keys, kind="stable"), csr_offsets(keys, n_keys)),
        shape=(n_keys, keys.size),
    )


@dataclass(frozen=True)
class EdgeList:
    """One direction of the interaction edges, grouped by source row.

    Edge e runs from row `source[e]` to row `target[e]`; `offsets` delimits
    each source's block. `source_sum` (sources, E) and `target_sum`
    (targets, E) are the constant one-hot CSR operators whose products with
    E stacked rows sum them onto their source and their target rows, each
    row in ascending edge order.
    """

    offsets: np.ndarray
    source: np.ndarray
    target: np.ndarray
    source_sum: SparseOperator
    target_sum: SparseOperator


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

    # Propagation operators, each built on first use and kept for the
    # graph's lifetime (a new split gets a new graph).

    @cached_property
    def user_mean(self):
        """(users, items) CSR matrix: row u averages the items of user u."""
        degree = np.diff(self.u_offsets)
        return SparseOperator(
            (np.repeat(1.0 / np.maximum(degree, 1), degree), np.array(self.u_items),
             np.array(self.u_offsets)),
            shape=(self.n_users, self.n_items),
        )

    @cached_property
    def user_edges(self):
        """User-major edges: each user's block of interacted items."""
        return EdgeList(
            offsets=self.u_offsets,
            source=np.ascontiguousarray(self.pairs[:, 0]),
            target=self.u_items,
            source_sum=block_operator(self.u_offsets, np.ones(self.n_users)),
            target_sum=one_hot_operator(self.u_items, self.n_items),
        )

    @cached_property
    def item_edges(self):
        """Item-major edges: each item's block of interacting users."""
        return EdgeList(
            offsets=self.i_offsets,
            source=np.repeat(np.arange(self.n_items), np.diff(self.i_offsets)),
            target=self.i_users,
            source_sum=block_operator(self.i_offsets, np.ones(self.n_items)),
            target_sum=one_hot_operator(self.i_users, self.n_users),
        )

    def user_degree(self, u):
        _check_index("user", u, self.n_users)
        return int(self.u_offsets[u + 1] - self.u_offsets[u])

    def items_of(self, u):
        _check_index("user", u, self.n_users)
        return self.u_items[self.u_offsets[u]:self.u_offsets[u + 1]]

    def has(self, u, i):
        row = self.items_of(u)  # sorted within each CSR row
        _check_index("item", i, self.n_items)
        k = np.searchsorted(row, i)
        return bool(k < row.size and row[k] == i)


def _check_index(kind, x, n):
    """A user or item index must be an integer (not a bool) in [0, n)."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise DomainError(f"{kind} {x!r} is not an integer")
    if not 0 <= x < n:
        raise DomainError(f"{kind} {x} is not in [0, {n})")


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
        triples = np.unique(triples, axis=0)
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
        # `unique` sorts the rows by (head, relation, tail); the columns are
        # copied so the edges never alias `triples`
        heads = triples[:, 0].copy()
        self._edges = KGEdges(
            offsets=csr_offsets(heads, self.n_entities),
            rel=triples[:, 1].copy(),
            tail=triples[:, 2].copy(),
            head=heads,
            n_relations=self.n_relations,
        )

    @property
    def n_triples(self):
        return self.triples.shape[0]

    def full_edges(self):
        return self._edges


# ---------------------------------------------------------------------------
# loading


_INT64_MAX = np.iinfo(np.int64).max


def _parse_int_lines(path, n_fields, what):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise DataFormatError(f"{what} line {lineno}: not valid UTF-8") from None
    rows = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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
        if any(v > _INT64_MAX for v in row):
            raise DataFormatError(f"{what} line {lineno}: ID beyond {_INT64_MAX}")
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
    """Triples of a KG file; entities are the `min_entities` items, then the rest.

    Entity IDs from `min_entities` up must be dense (each names a triple),
    and every relation ID must lie below the count of distinct triples, so
    neither table outgrows the file and a stray large ID fails here instead
    of sizing a table.
    """
    rows = _parse_int_lines(path, 3, "kg")
    triples = np.array([r for _, r in rows], dtype=np.int64).reshape(-1, 3)
    n_distinct = np.unique(triples, axis=0).shape[0]
    stray = np.flatnonzero(triples[:, 1] >= n_distinct)
    if stray.size:
        lineno, (_, rel, _) = rows[int(stray[0])]
        raise DataFormatError(
            f"kg line {lineno}: relation ID {rel} is not below the file's "
            f"{n_distinct} distinct triples"
        )
    ends = triples[:, [0, 2]]
    named = np.unique(ends)
    named = named[named >= min_entities]
    skip = np.flatnonzero(named != np.arange(min_entities, min_entities + named.size))
    if skip.size:
        bad = named[skip[0]]
        lineno = rows[int(np.flatnonzero((ends == bad).any(axis=1))[0])][0]
        raise DataFormatError(
            f"kg line {lineno}: entity ID {bad} skips ID {min_entities + skip[0]}; "
            f"entity IDs from {min_entities} up must be dense"
        )
    return KnowledgeGraph(triples, n_entities=min_entities + named.size or None)


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
    requested; a user outside the graph or a negative count is a
    `DomainError`. Deterministic for integer seeds; a Generator may be
    passed instead to share a stream.
    """
    if count < 0:
        raise DomainError(f"user {user}: negative count {count}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # the user's free items in ascending order; the pool's order fixes what rng.choice draws
    free = np.ones(graph.n_items, dtype=bool)
    free[graph.items_of(user)] = False
    pool = np.flatnonzero(free).astype(np.int64, copy=False)
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
    n_users, n_items = interactions.n_users, interactions.n_items
    full_graph = InteractionGraph(n_users, n_items, interactions.positives)
    offsets = full_graph.u_offsets
    degree = np.diff(offsets)
    n_eval = np.where(degree < 3, 0, (degree * ratios[1]).astype(np.int64))
    n_test = np.where(degree < 3, 0, (degree * ratios[2]).astype(np.int64))
    n_held = n_eval + n_test

    # The only per-user work is what the stream depends on: shuffle the
    # user's items in place, then draw that user's negatives.
    items = full_graph.u_items.copy()
    negatives = [np.empty(0, dtype=np.int64)]
    for u in np.flatnonzero(degree):
        rng.shuffle(items[offsets[u]:offsets[u + 1]])
        if n_held[u]:
            negatives.append(negative_sample(full_graph, u, n_held[u], rng))
    negatives = np.concatenate(negatives)

    # A user's shuffled items are train, then eval, then test; their drawn
    # negatives (truncated to the items they lack) are eval, then test.
    pos_user, rank = _blocks(degree)
    pos_part = ((rank >= (degree - n_held)[pos_user]).astype(np.int64)
                + (rank >= (degree - n_test)[pos_user]))
    neg_user, rank = _blocks(np.minimum(n_held, n_items - degree))
    neg_part = 1 + (rank >= n_eval[neg_user])

    def rows(part):
        """User-major rows of one portion: each user's positives, then negatives."""
        pos, neg = pos_part == part, neg_part == part
        user = np.concatenate([pos_user[pos], neg_user[neg]])
        table = np.column_stack([user, np.concatenate([items[pos], negatives[neg]]),
                                 np.repeat(np.int64([1, 0]), [pos.sum(), neg.sum()])])
        return table[np.argsort(user, kind="stable")]

    return Split(*(rows(part) for part in range(3)))


def _blocks(counts):
    """Block index and position within the block of each slot of consecutive blocks."""
    owner = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - starts[owner]


def rows_with_negatives(graph, positives, counts, rng):
    """(user, item, label) rows: `positives` labelled 1, then negatives labelled 0.

    User u gets `counts[u]` negatives from `negative_sample`, drawn from `rng`
    in ascending user order.
    """
    negatives = [negative_sample(graph, u, counts[u], rng) for u in np.flatnonzero(counts)]
    user = np.concatenate([positives[:, 0], np.repeat(np.arange(counts.size), counts)])
    item = np.concatenate([positives[:, 1], *negatives])
    label = np.repeat(np.int64([1, 0]), [positives.shape[0], counts.sum()])
    return np.column_stack([user, item, label])


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

    p_of_group = np.where(np.arange(groups)[:, None] == item_groups, p_same, p_diff)
    member = np.zeros((n_users, n_items), dtype=bool)
    for u in range(n_users):
        p = p_of_group[user_groups[u]]
        for _ in range(1000):
            row = rng.random(n_items) < p
            if row.any():
                member[u] = row
                break
        else:
            member[u, int(rng.integers(n_items))] = True
    positives = np.argwhere(member)

    # balanced explicit negatives, mirroring the on-disk rating format
    graph = InteractionGraph(n_users, n_items, positives)
    degree = np.diff(graph.u_offsets)
    pairs = rows_with_negatives(graph, positives, np.minimum(degree, n_items - degree), rng)
    user, item, label = pairs.T
    pairs = pairs[np.lexsort((label, item, user))]

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

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
    def segments(self):
        """Starts and lengths of the nonempty head blocks (`segment_index`)."""
        return segment_index(self.offsets)

    @cached_property
    def mean_operator(self):
        """(n, E) CSR matrix of the block means: row i averages head i's slots."""
        return block_operator(self.offsets, 1.0 / np.maximum(self.counts, 1))

    @cached_property
    def head_sum(self):
        """(n, E) CSR matrix summing each head's block of slot rows."""
        return block_operator(self.offsets, np.ones(self.offsets.size - 1))

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
        return ((entity[self.head] * entity[self.tail]).sum(axis=1)
                + (relation * relation).sum(axis=1)[self.rel])


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


def segment_index(offsets):
    """Starts and lengths of the nonempty CSR blocks of `offsets`, the index
    the segment reductions of `kgtn.autodiff` read.

    `np.add.reduceat` mishandles empty segments, so every segment reduction
    runs over the nonempty ones only.
    """
    counts = np.diff(offsets)
    nonempty = counts > 0
    return offsets[:-1][nonempty], counts[nonempty]


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
    row in ascending edge order. `segments` is built on first use and kept.
    """

    offsets: np.ndarray
    source: np.ndarray
    target: np.ndarray
    source_sum: SparseOperator
    target_sum: SparseOperator

    @cached_property
    def segments(self):
        """Starts and lengths of the nonempty source blocks (`segment_index`)."""
        return segment_index(self.offsets)


def _id_rows(rows, width, what):
    """`rows` as an (n, width) int64 array of ids; an empty input of any
    dtype is none. Any other shape, and non-integer or bool ids, raise
    `DataFormatError`."""
    arr = np.asarray(rows)
    if arr.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise DataFormatError(f"{what}: expected rows of {width} ids, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise DataFormatError(f"{what}: ids must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class InteractionGraph:
    """Bidirectional CSR adjacency over observed positive (user, item) pairs."""

    def __init__(self, n_users, n_items, pos_pairs):
        pos_pairs = _id_rows(pos_pairs, 2, "interaction pairs")
        if pos_pairs.size:
            if pos_pairs.min() < 0 or pos_pairs[:, 0].max() >= n_users or pos_pairs[:, 1].max() >= n_items:
                raise DataFormatError("interaction pair index out of range")
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        # dedupe and sort by (user, item) for a canonical layout; a stable
        # sort by item then orders the item-major side by (item, user)
        pairs = unique_rows(pos_pairs)
        self.pairs = pairs
        self.u_offsets = csr_offsets(pairs[:, 0], self.n_users)
        self.u_items = pairs[:, 1].copy()
        by_item = pairs[np.argsort(pairs[:, 1], kind="stable")]
        self.i_offsets = csr_offsets(by_item[:, 1], self.n_items)
        self.i_users = by_item[:, 0].copy()

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


def unique_rows(rows):
    """The distinct rows of a 2-D array in ascending lexicographic order.

    The same array as `np.unique` along axis 0 gives, from one `np.lexsort`
    over the columns and one comparison of neighbouring rows.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(rows.shape[0], dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


class KnowledgeGraph:
    """Triple store with per-head CSR adjacency, never written after construction.

    Per-epoch knowledge sampling returns a `denoise.SampledGraphView` of the
    kept slots instead of changing the graph.
    """

    def __init__(self, triples, n_entities=None, n_relations=None):
        triples = unique_rows(_id_rows(triples, 3, "knowledge-graph triples"))
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
        if n_relations is not None and max_rel > n_relations:
            raise DataFormatError(
                f"relation ID overflow: triples use {max_rel} relations, declared {n_relations}"
            )
        self.triples = triples
        # `unique_rows` sorts them by (head, relation, tail); the columns are
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
    raw = unique_rows(raw)  # duplicate (u, i, label) lines carry no information
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
    n_distinct = unique_rows(triples).shape[0]
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
    row = graph.items_of(user)
    n_free = graph.n_items - row.size
    if n_free == 0 or count > n_free:
        _short_of_negatives(user, count, n_free)
    if count == 0:
        return np.array([], dtype=np.int64)
    count = min(count, n_free)
    rank = rng.choice(n_free, size=count, replace=False)
    return _free_items(np.array([0, row.size]), row, graph.n_items,
                       np.zeros(count, dtype=np.int64), rank)


def _short_of_negatives(user, count, n_free):
    """A user with fewer free items than `count`: none is a `DomainError`,
    some a warning that the draw is cut to them."""
    if n_free == 0:
        raise DomainError(f"user {user} has interacted with every item; no negatives exist")
    warnings.warn(
        f"user {user}: requested {count} negatives, only {n_free} available; truncating"
    )


def _negative_counts(graph, wanted):
    """How many negatives each user draws, and how many free items each has.

    `wanted[u]` cut to user u's free items, with `negative_sample`'s
    warning or error for each user short of them, in ascending user order.
    """
    n_free = graph.n_items - np.diff(graph.u_offsets)
    for u in np.flatnonzero(wanted > n_free):
        _short_of_negatives(int(u), wanted[u], n_free[u])
    return np.minimum(wanted, n_free), n_free


def _free_items(offsets, items, n_items, user, rank):
    """Item number `rank[k]` (from 0, ascending) among those row `user[k]` lacks.

    `offsets` and `items` are CSR rows of distinct items, each row sorted.
    Drawing ranks with `rng.choice(n_free, ...)` takes the same numbers from
    the generator as drawing from the array of free items, so the ranks map
    to the items that draw would give. Over the flat keys row * n_items +
    item, `taken[j] - j` free keys lie below the j-th taken key, so free key
    number f is f plus the count of taken keys with at most f below them.
    """
    taken = np.repeat(np.arange(offsets.size - 1) * n_items, np.diff(offsets)) + items
    first = user * n_items - offsets[user] + rank   # the free key's number over all rows
    key = first + np.searchsorted(taken - np.arange(taken.size), first, side="right")
    return key - user * n_items


def make_split(interactions, ratios, seed):
    """Per-user stratified split of positives, with frozen eval/test negatives.

    Users with fewer than 3 positives contribute all of them to train.
    Eval/test negatives are drawn once, user-balanced (one per positive in
    that portion), disjoint from every positive and from each other.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or not all(r >= 0 for r in ratios) or not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ConfigError(f"split ratios must be 3 non-negatives summing to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    n_users, n_items = interactions.n_users, interactions.n_items
    full_graph = InteractionGraph(n_users, n_items, interactions.positives)
    offsets = full_graph.u_offsets
    degree = np.diff(offsets)
    n_eval = np.where(degree < 3, 0, (degree * ratios[1]).astype(np.int64))
    n_test = np.where(degree < 3, 0, (degree * ratios[2]).astype(np.int64))
    n_held = n_eval + n_test

    # The only per-user work is the generator's: shuffle the user's items
    # in place, then draw the ranks of that user's negatives.
    n_draw, n_free = _negative_counts(full_graph, n_held)
    items = full_graph.u_items.copy()
    ranks = [np.empty(0, dtype=np.int64)]
    users = np.flatnonzero(degree)
    for lo, hi, free, draw in zip(offsets[users].tolist(), offsets[users + 1].tolist(),
                                  n_free[users].tolist(), n_draw[users].tolist()):
        rng.shuffle(items[lo:hi])
        if draw:
            ranks.append(rng.choice(free, size=draw, replace=False))
    neg_user, neg_rank = _blocks(n_draw)
    negatives = _free_items(offsets, full_graph.u_items, n_items, neg_user,
                            np.concatenate(ranks))

    # A user's shuffled items are train, then eval, then test; their drawn
    # negatives (truncated to the items they lack) are eval, then test.
    pos_user, rank = _blocks(degree)
    pos_part = ((rank >= (degree - n_held)[pos_user]).astype(np.int64)
                + (rank >= (degree - n_test)[pos_user]))
    neg_part = 1 + (neg_rank >= n_eval[neg_user])

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

    User u gets the negatives `negative_sample(graph, u, counts[u], rng)`
    would give, drawn from `rng` in ascending user order: `counts[u]`, or
    all of u's free items with a warning when u has fewer.
    """
    n_draw, n_free = _negative_counts(graph, counts)
    users = np.flatnonzero(n_draw)
    ranks = [rng.choice(free, size=draw, replace=False)
             for free, draw in zip(n_free[users].tolist(), n_draw[users].tolist())]
    user = np.repeat(np.arange(counts.size), n_draw)
    negatives = _free_items(graph.u_offsets, graph.u_items, graph.n_items, user,
                            np.concatenate([np.empty(0, dtype=np.int64), *ranks]))
    return np.column_stack([np.concatenate([positives[:, 0], user]),
                            np.concatenate([positives[:, 1], negatives]),
                            np.repeat(np.int64([1, 0]), [positives.shape[0], user.size])])


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


# `generate_synthetic` draws its users' rows in blocks of at most this many
# doubles (2 MiB), or one row where a row is longer.
SYNTH_BLOCK_DOUBLES = 1 << 18


def _row_with_a_hit(rng, p):
    """Items of one user's row: `rng.random(p.size) < p`, drawn until it has
    a hit, or one uniform item after 1000 draws without one."""
    for _ in range(1000):
        hits = np.flatnonzero(rng.random(p.size) < p)
        if hits.size:
            return hits
    return np.array([int(rng.integers(p.size))])


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
    if n_groups < 1:
        raise ConfigError(f"n_groups must be at least 1, got {n_groups}")
    if n_relations > n_items:
        # every item heads a triple, so relation IDs then stay below the
        # triple count that `load_kg` requires
        raise ConfigError(f"need n_relations <= n_items, got {n_relations} > {n_items}")
    rng = np.random.default_rng(seed)
    n_tags = n_entities - n_items
    groups = min(n_groups, n_users, n_items, n_tags if n_tags else 1)
    user_groups = rng.integers(0, groups, size=n_users)
    item_groups = rng.integers(0, groups, size=n_items)

    spread = 0.4 * (1.0 - abs(2.0 * density - 1.0))
    p_same = min(1.0, density + spread)
    p_diff = max(0.0, density - spread)

    # Each user's row of hits is one `rng.random(n_items)` draw, drawn again
    # while it has none. Rows are drawn a block at a time; a block that
    # holds a row without hits is drawn again up to that row, which then
    # takes its own draws.
    p_of_group = np.where(np.arange(groups)[:, None] == item_groups, p_same, p_diff)
    block = max(1, SYNTH_BLOCK_DOUBLES // n_items)
    flat = []   # positives as flat keys user * n_items + item
    u = 0
    while u < n_users:
        state = rng.bit_generator.state
        rows = min(block, n_users - u)
        hits = rng.random((rows, n_items)) < p_of_group[user_groups[u:u + rows]]
        empty = np.flatnonzero(~hits.any(axis=1))
        if empty.size:
            rows = int(empty[0])
            rng.bit_generator.state = state
            hits = rng.random((rows, n_items)) < p_of_group[user_groups[u:u + rows]]
        flat.append(np.flatnonzero(hits) + u * n_items)
        u += rows
        if empty.size:
            flat.append(_row_with_a_hit(rng, p_of_group[user_groups[u]]) + u * n_items)
            u += 1
    positives = np.column_stack(np.divmod(np.concatenate(flat), n_items))

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
    triples = unique_rows(np.array(triples, dtype=np.int64).reshape(-1, 3))

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

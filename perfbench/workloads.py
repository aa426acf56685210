"""Seeded inputs for the benchmark workloads.

Every input is a function of the workload seed alone, and is built only
through public `kgtn.data` entry points: `generate_synthetic` for the
interactions, `KnowledgeGraph` and `build_dataset` for the bundle. Each
workload also marks which KG slots are planted signal, so the traced run
can say how many of them the top-k sampler kept.

Why each workload exists (later issues refer to them by name):

- toy-overfit: the capacity config of the acceptance suite. About 500 tape
  nodes per step over arrays of at most 50 rows, so it is bound by per-op
  Python overhead. Its KG has at most 4 slots per head, so top-k selection
  keeps everything, and it has no eval/test split, so no recall evaluation.
- lastfm-train: Last.FM counts with a heavy-tailed KG and the default
  config. Bound by memory and scatter traffic: backward over large gathers,
  InfoNCE over about 2k in-batch nodes, and a sampler that really prunes.
- lastfm-eval: the same data with seeded initial parameters, evaluated
  without a tape. The read path beside training's write path: a change that
  moves work into the forward pass shows a cost here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kgtn import data
from kgtn.config import ExperimentConfig

WHY = {
    "toy-overfit": "per-op Python overhead: ~500 tape nodes per step over arrays of at most "
                   "50 rows; top-k keeps every slot and there is no recall evaluation",
    "lastfm-train": "memory and scatter bound: backward over large gathers, InfoNCE on ~2k "
                    "in-batch nodes and a heavy-tailed KG that top-k really prunes",
    "lastfm-eval": "tape-free read path: representations, CTR AUC/F1 and recall@{10,20} over "
                   "all test users; no backward, Adam, sampler or contrastive term",
}

# Last.FM counts (the ones the acceptance suite checks on the real files).
LASTFM_USERS = 1872
LASTFM_ITEMS = 3846
LASTFM_ENTITIES = 9366
LASTFM_RELATIONS = 60
LASTFM_TRIPLES = 15518
# About 26k positive interactions, some 17k of them in the train split.
LASTFM_DENSITY = 0.006
# Out-degree profile: one signal slot per item plus a Pareto(1.1) tail of
# noise slots, capped at 800 before the remainder is spread. The profile is
# fixed and only its assignment to items depends on the seed, so every seed
# prunes the same share.
PARETO_SHAPE = 1.1
PARETO_SHIFT = 8
MAX_DEGREE = 800
SIGNAL_RELATIONS = 4        # one relation per preference group; the rest are noise


@dataclass
class Workload:
    """Raw inputs of one workload: what `build_dataset` consumes plus slot marks."""

    interactions: data.Interactions
    kg: data.KnowledgeGraph
    signal: np.ndarray      # (T,) bool in `kg.full_edges()` slot order
    ratios: tuple
    cfg: ExperimentConfig

    def build(self, seed):
        return data.build_dataset(self.interactions, self.kg, self.ratios, seed)


def toy_config(seed, epochs):
    return ExperimentConfig(epochs=epochs, seed=seed, lr=3e-3, batch_size=32).validate()


def lastfm_config(seed, epochs):
    return ExperimentConfig(epochs=epochs, seed=seed).validate()


def toy(seed, epochs):
    """`synthetic_dataset(40, 30, 50, 3, density=0.5, ratios=(1, 0, 0))` inputs."""
    raw = data.generate_synthetic(40, 30, 50, 3, density=0.5, seed=seed)
    kg = raw.knowledge_graph()
    # generate_synthetic links every item to its group's tag entity; every
    # other slot is random.
    edges = kg.full_edges()
    n_tags = raw.n_entities - raw.n_items
    is_item = edges.head < raw.n_items
    group = raw.item_groups[np.where(is_item, edges.head, 0)]
    signal = is_item & (edges.tail == raw.n_items + group % n_tags)
    return Workload(raw.interactions(), kg, signal, (1.0, 0.0, 0.0), toy_config(seed, epochs))


def degree_profile(n_items, n_triples):
    """Heavy-tailed out-degrees (at least 1) summing to exactly `n_triples`."""
    u = (np.arange(n_items) + 0.5) / n_items
    extra = np.clip(np.floor(u ** (-1.0 / PARETO_SHAPE)).astype(np.int64) - PARETO_SHIFT,
                    0, MAX_DEGREE - 1)
    degree = 1 + extra
    # Give the heaviest heads one more slot each until the sum is exact.
    short = n_triples - int(degree.sum())
    if not 0 <= short <= n_items:
        raise ValueError(f"degree profile cannot reach {n_triples} triples")
    degree[np.argsort(-degree, kind="stable")[:short]] += 1
    return degree


def heavy_tailed_triples(rng, item_groups, n_entities, n_relations, n_triples):
    """Items as heads: signal slots on the group relation, noise on the others.

    Signal slots link an item to tag entities of its own preference group
    over relation `group`; noise slots use one of the remaining relations
    and a uniformly drawn tail. Returns (triples, signal flags), duplicate
    free, with exactly `n_triples` rows.
    """
    n_items = item_groups.size
    n_groups = int(item_groups.max()) + 1
    if n_groups > SIGNAL_RELATIONS or n_relations <= SIGNAL_RELATIONS:
        raise ValueError("need more relations than preference groups")
    degree = rng.permutation(degree_profile(n_items, n_triples))
    n_signal = np.minimum(degree, 2)
    tags = np.arange(n_items, n_entities)
    pools = [tags[tags % n_groups == g] for g in range(n_groups)]

    heads = np.repeat(np.arange(n_items), degree)
    slot = np.arange(heads.size) - np.repeat(np.cumsum(degree) - degree, degree)
    signal = slot < np.repeat(n_signal, degree)
    rel = np.empty(heads.size, dtype=np.int64)
    tail = np.empty(heads.size, dtype=np.int64)
    group = item_groups[heads]
    rel[signal] = group[signal]
    for g, pool in enumerate(pools):
        at = signal & (group == g)
        tail[at] = rng.choice(pool, size=int(at.sum()))
    noise = ~signal
    rel[noise] = rng.integers(SIGNAL_RELATIONS, n_relations, size=int(noise.sum()))
    tail[noise] = rng.integers(0, n_entities, size=int(noise.sum()))

    # Redraw the tails of duplicate slots until every triple is distinct.
    while True:
        key = (heads * n_relations + rel) * n_entities + tail
        _, first = np.unique(key, return_index=True)
        dup = np.ones(key.size, dtype=bool)
        dup[first] = False
        if not dup.any():
            break
        tail[dup & ~signal] = rng.integers(0, n_entities, size=int((dup & ~signal).sum()))
        for g, pool in enumerate(pools):
            at = dup & signal & (group == g)
            tail[at] = rng.choice(pool, size=int(at.sum()))
    return np.column_stack([heads, rel, tail]), signal


def lastfm(seed, epochs, scale=1.0):
    """Last.FM-shape inputs; `scale` < 1 shrinks every count for quick checks."""
    n_users = round(LASTFM_USERS * scale)
    n_items = round(LASTFM_ITEMS * scale)
    n_entities = round(LASTFM_ENTITIES * scale)
    n_triples = round(LASTFM_TRIPLES * scale)
    density = min(1.0, LASTFM_DENSITY / scale)
    raw = data.generate_synthetic(n_users, n_items, n_entities, LASTFM_RELATIONS,
                                  density=density, seed=seed)
    rng = np.random.default_rng([seed, 1])
    triples, signal = heavy_tailed_triples(rng, raw.item_groups, n_entities,
                                           LASTFM_RELATIONS, n_triples)
    kg = data.KnowledgeGraph(triples, n_entities=n_entities, n_relations=LASTFM_RELATIONS)
    # KnowledgeGraph stores slots sorted by (head, relation, tail); carry the
    # signal marks into that order.
    edges = kg.full_edges()
    key = lambda h, r, t: (h * LASTFM_RELATIONS + r) * n_entities + t
    marks = np.isin(key(edges.head, edges.rel, edges.tail), key(*triples[signal].T),
                    assume_unique=True)
    return Workload(raw.interactions(), kg, marks, (0.6, 0.2, 0.2), lastfm_config(seed, epochs))

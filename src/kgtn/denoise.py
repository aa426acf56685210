"""Intent-guided knowledge sampling and the local-global contrastive task.

Sampling scores each KG slot with the same relation-aware attention used
during global propagation, but computed from the intent-aware
representations; Gumbel noise perturbs the raw attention logits for the
top-k selection only (per-neighborhood softmax is order-preserving, so
selecting on logits and selecting on attention weights keep the same slots;
the logit scale is what makes a large score gap beat the noise). The
attention only chooses which slots to keep; nothing downstream reweights
them.

Both contrastive views run the same parameter-free light aggregation over
the sampled graph: the global track is seeded with the intent-aware
representations, the local track with the initial embeddings. A track
keeps user and entity tables only: item ids are the entity-id prefix, so
the items are read in place. A track is never summed into whole tables:
`contrastive_loss` compares the two tracks at a batch's user and item rows,
layer by layer, as one `ad.infonce` node, and the ranking head
(`training.predict`, one `ad.score` node) reads and sums the batch rows of
the global track's layers the same way.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import KGEdges, csr_offsets
from .errors import ContractError, DomainError

EULER_MASCHERONI = 0.5772156649015329


def gumbel_from_uniform(eps):
    """Map Uniform(0,1) draws to standard Gumbel noise: -log(-log(eps)).
    A draw outside (0, 1), NaN included, raises `DomainError`."""
    eps = np.asarray(eps, dtype=np.float64)
    if not np.all((eps > 0.0) & (eps < 1.0)):
        raise DomainError("gumbel_from_uniform: eps must lie strictly inside (0, 1)")
    return -np.log(-np.log(eps))


def gumbel_perturb(score, eps):
    """Add Gumbel(0, 1) noise derived from `eps` to a score."""
    return np.asarray(score, dtype=np.float64) + gumbel_from_uniform(eps)


def sample_gumbel(rng, size):
    """Draw seeded Gumbel noise; endpoint uniforms are resampled, never used."""
    eps = rng.random(size)
    bad = eps <= 0.0  # rng.random() is already < 1
    while bad.any():
        eps[bad] = rng.random(int(bad.sum()))
        bad = eps <= 0.0
    return gumbel_from_uniform(eps)


@dataclass
class SampledGraphView:
    """One epoch's sampled knowledge view: the only record of the kept slots.

    The knowledge graph itself is never written. When top-k keeps every slot,
    `edges` is the graph's own `kg.full_edges()`, whose cached operators
    then serve the whole fit; otherwise it is a fresh CSR restricted to the
    kept slots, in full slot order.
    """

    kept: np.ndarray        # (T,) bool over full slot order
    edges: KGEdges          # CSR restricted to kept slots


def full_view(kg):
    """Structural view keeping the whole knowledge graph (no scoring pass)."""
    return SampledGraphView(kept=np.ones(kg.n_triples, dtype=bool), edges=kg.full_edges())


def keeps_every_slot(kg, k_top):
    """Whether top-k keeps every slot: no head has more than `k_top` slots.

    Then sampling needs no scores and draws no noise.
    """
    if k_top is not None and k_top < 1:
        raise ContractError(f"k_top must be at least 1, got {k_top}")
    return k_top is None or k_top >= int(kg.full_edges().counts.max(initial=0))


def sample_topk(kg, entity_vals, relation_vals, k_top, rng):
    """Keep at most `k_top` slots per head entity, Gumbel-perturbed.

    `entity_vals`/`relation_vals` are plain arrays (the selection is a
    stop-gradient structural decision). Ties in the perturbed score break
    toward the lower slot index. Deterministic under a seeded generator.
    When `keeps_every_slot` holds, this is `full_view(kg)` and the
    generator is not used.
    """
    if keeps_every_slot(kg, k_top):
        return full_view(kg)
    edges = kg.full_edges()
    n_edges = edges.n_edges
    logits = edges.slot_logits(np.asarray(entity_vals), np.asarray(relation_vals))
    perturbed = logits + sample_gumbel(rng, n_edges)
    order = np.lexsort((np.arange(n_edges), -perturbed, edges.head))
    rank_in_head = np.arange(n_edges) - np.repeat(edges.offsets[:-1], edges.counts)
    kept = np.empty(n_edges, dtype=bool)
    kept[order] = rank_in_head < k_top

    head = edges.head[kept]
    masked = KGEdges(
        offsets=csr_offsets(head, edges.offsets.size - 1),
        rel=edges.rel[kept],
        tail=edges.tail[kept],
        head=head,
        n_relations=edges.n_relations,
    )
    return SampledGraphView(kept=kept, edges=masked)


@dataclass
class LayerStack:
    """Per-layer user and entity matrices for one aggregation track.

    Item ids are the entity-id prefix, so item i is row i of every entity
    matrix. The ops that read a track take its layer lists and index the
    batch rows of each layer themselves.
    """

    users: list      # layer 0..L_agg tensors (M, d)
    entities: list   # layer 0..L_agg tensors (E, d)

    @property
    def n_layers(self):
        return len(self.users)


def light_aggregate(user_seed, entity_seed, relation_emb, view_edges, graph, depth):
    """Parameter-free propagation over the sampled KG and interaction graph.

    Entities average relation-gated kept neighbors, one `gated_sum` node
    over the view's edges; users average their interacted items'
    previous-layer values, one `spmm` with the graph's cached mean operator,
    which reads the item rows in place as the entity-table prefix. Nodes
    with no active edges pass through unchanged. Returns all layers
    0..depth.
    """
    zu = [user_seed]
    ze = [entity_seed]
    for _ in range(depth):
        z = ad.gated_sum(view_edges, relation_emb, ze[-1])
        zu.append(ad.spmm(graph.user_mean, ze[-1], zu[-1]))
        ze.append(z)
    return LayerStack(users=zu, entities=ze)


def contrastive_loss(global_track, local_track, users, items, tau, include_positive=False):
    """Layer-wise InfoNCE between the global and local aggregation tracks,
    over the in-batch `users` and `items` (row indexes into every user and
    entity layer).

    Positive pairs are the same node's embeddings across tracks; negatives
    are every other in-batch node, in both the global and the local view.
    The denominator excludes the positive pair, so negative loss values are
    legal; `include_positive=True` switches to the conventional form. Each
    (layer, side) term averages over its in-batch nodes, so the objective's
    scale is batch-size free and sits at the level of the mean ranking
    loss. Layers 0..L of both sides are summed and divided by L; a
    single-layer input degenerates to a factor of 1. Both tracks must carry
    the same number of layers and at least two nodes per side.

    The whole sum is one `ad.infonce` node, which reads the batch rows of
    each layer, may compute the terms on worker threads and scatters their
    gradients back into the layers. A term is a max-shifted log-sum-exp
    over the masked cross- and self-view logits minus the positive logit.
    Nothing is excluded by subtraction and no unshifted `exp` is taken, so
    every `tau > 0` gives a finite loss and finite gradients (of order
    1/tau).
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if global_track.n_layers != local_track.n_layers:
        raise ContractError(
            f"track layer counts differ: {global_track.n_layers} vs {local_track.n_layers}"
        )
    if np.size(users) < 2 or np.size(items) < 2:
        raise ContractError("contrastive batch must contain at least 2 nodes per side")
    pairs = [(g, l, users) for g, l in zip(global_track.users, local_track.users)]
    pairs += [(g, l, items) for g, l in zip(global_track.entities, local_track.entities)]
    return ad.mul(ad.infonce(pairs, tau, include_positive),
                  1.0 / max(1, global_track.n_layers - 1))

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
representations, the local track with the initial embeddings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import KGEdges, csr_offsets
from .errors import ContractError, DomainError

EULER_MASCHERONI = 0.5772156649015329


def gumbel_from_uniform(eps):
    """Map Uniform(0,1) draws to standard Gumbel noise: -log(-log(eps))."""
    eps = np.asarray(eps, dtype=np.float64)
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
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
    """Per-layer user and item matrices for one aggregation track."""

    users: list   # layer 0..L_agg tensors (M, d)
    items: list   # layer 0..L_agg tensors (N, d)

    @property
    def n_layers(self):
        return len(self.users)

    def summed(self):
        """Layer-summed user and item representations."""
        zu, zi = self.users[0], self.items[0]
        for u, i in zip(self.users[1:], self.items[1:]):
            zu = zu + u
            zi = zi + i
        return zu, zi

    def gather(self, user_idx, item_idx):
        return LayerStack(
            users=[ad.gather_rows(u, user_idx) for u in self.users],
            items=[ad.gather_rows(i, item_idx) for i in self.items],
        )


def light_aggregate(user_seed, entity_seed, relation_emb, view_edges, graph, depth):
    """Parameter-free propagation over the sampled KG and interaction graph.

    Entities average relation-gated kept neighbors, one `gated_sum` node
    over the view's edges; users average their interacted items'
    previous-layer values, one `spmm` with the graph's cached mean operator
    over the item rows each layer slices off for the stack anyway. Nodes
    with no active edges pass through unchanged. Returns all layers
    0..depth.
    """
    n_items = graph.n_items  # item ids are the entity prefix
    zu = [user_seed]
    ze = [entity_seed]
    zi = [ad.slice_rows(entity_seed, 0, n_items)]
    for _ in range(depth):
        z = ad.gated_sum(view_edges, relation_emb, ze[-1])
        zu.append(ad.spmm(graph.user_mean, zi[-1], zu[-1]))
        ze.append(z)
        zi.append(ad.slice_rows(z, 0, n_items))
    return LayerStack(users=zu, items=zi)


def _side_loss(global_layers, local_layers, tau, include_positive):
    total = None
    for zg, zl in zip(global_layers, local_layers):
        layer_loss = ad.infonce(zg, zl, tau, include_positive)
        total = layer_loss if total is None else total + layer_loss
    # Layers 0..L are summed and divided by L; a single-layer input
    # degenerates to a factor of 1. Each layer term averages over the
    # in-batch nodes so the objective scale is batch-size free and sits at
    # the same level as the mean ranking loss.
    return ad.mul(total, 1.0 / max(1, len(global_layers) - 1))


def contrastive_loss(global_track, local_track, tau, include_positive=False):
    """Layer-wise InfoNCE between the global and local aggregation tracks.

    Positive pairs are the same node's embeddings across tracks; negatives
    are every other in-batch node, in both the global and the local view.
    The denominator excludes the positive pair, so negative loss values are
    legal; `include_positive=True` switches to the conventional form. The
    user side and item side are averaged over their in-batch nodes and
    added. Both tracks must carry the same number of layers and at least
    two nodes per side.

    Each (layer, side) term is one `ad.infonce` node: a max-shifted
    log-sum-exp over the masked cross- and self-view logits minus the
    positive logit. Nothing is excluded by subtraction and no unshifted
    `exp` is taken, so every `tau > 0` gives a finite loss and finite
    gradients (of order 1/tau).
    """
    if tau <= 0:
        raise ContractError(f"temperature must be positive, got {tau}")
    if global_track.n_layers != local_track.n_layers:
        raise ContractError(
            f"track layer counts differ: {global_track.n_layers} vs {local_track.n_layers}"
        )
    for layers in (global_track.users, global_track.items):
        if layers[0].values.shape[0] < 2:
            raise ContractError("contrastive batch must contain at least 2 nodes per side")
    user_loss = _side_loss(global_track.users, local_track.users, tau, include_positive)
    item_loss = _side_loss(global_track.items, local_track.items, tau, include_positive)
    return user_loss + item_loss

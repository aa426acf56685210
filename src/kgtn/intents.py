"""Global-intent modeling over the fused interaction + knowledge graph.

A forward pass alternates three steps per layer: relation-aware aggregation
folds KG context into item (entity-prefix) embeddings, a masked multi-head
graph transformer propagates over observed user-item pairs only, and an
attentive mixture over learnable intent prototypes produces the layer's
intent-aware user/item readout. The propagated track is kept separate from
the prototype readouts so intents modulate structural signals instead of
replacing them; assignment scores always come from the freshly propagated
(pre-mixture) embeddings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError, ShapeError


@dataclass
class HeadProjections:
    """Per-head query/key/value projections, each (d/H, d)."""

    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor


@dataclass
class TransformerLayerParams:
    heads: list

    @property
    def n_heads(self):
        return len(self.heads)

    def tensors(self):
        for h, head in enumerate(self.heads):
            yield f"h{h}.wq", head.wq
            yield f"h{h}.wk", head.wk
            yield f"h{h}.wv", head.wv


@dataclass
class GlobalState:
    """Per-layer intent-aware readouts plus the final propagated track."""

    users: list           # layer 0..L intent-aware user matrices (M, d)
    items: list           # layer 0..L intent-aware item matrices (N, d)
    prop_users: ad.Tensor
    prop_entities: ad.Tensor

    @property
    def depth(self):
        return len(self.users) - 1


def intent_assignment(e, prototypes):
    """Assignment distribution over intent prototypes: softmax of e . c_k.

    `e` is a (n, d) batch of node embeddings, `prototypes` a (K, d) matrix;
    each output row sums to 1.
    """
    ev, cv = e.values if isinstance(e, ad.Tensor) else np.asarray(e), prototypes.values
    if ev.ndim != 2 or cv.ndim != 2 or ev.shape[1] != cv.shape[1]:
        raise ShapeError(f"intent_assignment: embeddings {ev.shape} vs prototypes {cv.shape}")
    if cv.shape[0] < 1:
        raise DomainError("intent_assignment: need at least one prototype")
    scores = ad.matmul(e, ad.transpose(prototypes))
    return ad.softmax(scores)


def intent_mix(e, prototypes):
    """Intent-aware embedding: assignment-weighted sum of prototype rows."""
    weights = intent_assignment(e, prototypes)
    return ad.matmul(weights, prototypes)


def kg_attention(entity_emb, relation_emb, edges):
    """Per-edge attention over each head entity's active neighborhood.

    The logit for slot (i, r, v) is e_i . e_v + e_r . e_r, which equals the
    dot product of the relation-concatenated pair ((e_i || e_r), (e_v || e_r));
    weights are softmax-normalized within each head's slot block.
    """
    if edges.n_edges == 0:
        return ad.constant(np.zeros(0))
    hi = ad.gather_rows(entity_emb, edges.head)
    hv = ad.gather_rows(entity_emb, edges.tail)
    hr = ad.gather_rows(relation_emb, edges.rel)
    logits = ad.rowsum(ad.mul(hi, hv)) + ad.rowsum(ad.mul(hr, hr))
    return ad.segment_softmax(logits, edges.offsets)


def kg_aggregate(entity_emb, relation_emb, edges):
    """Relation-aware neighborhood pooling over active KG slots.

    Each head with a nonempty active neighborhood is replaced by the
    attention-weighted, 1/|N_i|-scaled sum of relation-gated neighbor
    embeddings; heads without active slots pass through unchanged.
    """
    if edges.n_edges == 0:
        return entity_emb
    beta = kg_attention(entity_emb, relation_emb, edges)
    hv = ad.gather_rows(entity_emb, edges.tail)
    hr = ad.gather_rows(relation_emb, edges.rel)
    msg = ad.scale_rows(ad.mul(hr, hv), beta)
    return mean_pool(entity_emb, msg, edges.offsets)


def mean_pool(prev, msgs, offsets):
    """Mean of each row's CSR block of messages; rows with none keep `prev`."""
    n = prev.values.shape[0]
    agg = ad.segment_sum_rows(msgs, offsets)
    counts = np.diff(offsets).astype(np.float64)
    inv = np.divide(1.0, counts, out=np.zeros(n), where=counts > 0)
    empty = (counts == 0).astype(np.float64)
    return ad.scale_rows(agg, inv) + ad.scale_rows(prev, empty)


def _attend(queries, keys, values, offsets, targets, scale):
    """One direction of masked attention along a CSR edge list."""
    n = queries.values.shape[0]
    src = np.repeat(np.arange(n), np.diff(offsets))
    q = ad.gather_rows(queries, src)
    k = ad.gather_rows(keys, targets)
    logits = ad.mul(ad.rowsum(ad.mul(q, k)), scale)
    alpha = ad.segment_softmax(logits, offsets)
    msg = ad.scale_rows(ad.gather_rows(values, targets), alpha)
    return ad.segment_sum_rows(msg, offsets)


def transformer_layer(user_emb, item_emb, params, graph):
    """Masked multi-head attention over observed user-item pairs.

    Attention logits exist only where the interaction indicator is 1; each
    user attends over their interacted items and, symmetrically with the
    same projections, each item attends over its users. Nodes without any
    interaction pass through unchanged. Head outputs are concatenated back
    to dimension d.
    """
    d = user_emb.values.shape[1]
    H = params.n_heads
    if d % H != 0:
        raise ShapeError(f"head count {H} must divide embedding size {d}")
    scale = 1.0 / math.sqrt(d / H)
    user_heads, item_heads = [], []
    for head in params.heads:
        uq = ad.matmul(user_emb, ad.transpose(head.wq))
        ik = ad.matmul(item_emb, ad.transpose(head.wk))
        iv = ad.matmul(item_emb, ad.transpose(head.wv))
        user_heads.append(_attend(uq, ik, iv, graph.u_offsets, graph.u_items, scale))

        iq = ad.matmul(item_emb, ad.transpose(head.wq))
        uk = ad.matmul(user_emb, ad.transpose(head.wk))
        uv = ad.matmul(user_emb, ad.transpose(head.wv))
        item_heads.append(_attend(iq, uk, uv, graph.i_offsets, graph.i_users, scale))

    new_u = ad.concat(user_heads, axis=1)
    new_i = ad.concat(item_heads, axis=1)

    u_deg = np.diff(graph.u_offsets).astype(np.float64)
    i_deg = np.diff(graph.i_offsets).astype(np.float64)
    new_u = ad.scale_rows(new_u, (u_deg > 0).astype(np.float64)) + ad.scale_rows(
        user_emb, (u_deg == 0).astype(np.float64)
    )
    new_i = ad.scale_rows(new_i, (i_deg > 0).astype(np.float64)) + ad.scale_rows(
        item_emb, (i_deg == 0).astype(np.float64)
    )
    return new_u, new_i


def forward_global(user_emb, entity_emb, relation_emb, proto_user, proto_item,
                   layer_params, graph, kg_edges, depth, n_items):
    """Run `depth` propagate-then-mix layers and collect intent-aware readouts.

    Layer 0 is the intent mixture of the base embeddings. Each later layer
    first folds KG context into entities, then runs the masked transformer
    over the interaction graph, and finally reads out the intent mixture of
    the propagated user/item embeddings.
    """
    n_entities = entity_emb.values.shape[0]
    item_idx = np.arange(n_items)
    rest_idx = np.arange(n_items, n_entities)

    p_u, p_e = user_emb, entity_emb
    users = [intent_mix(p_u, proto_user)]
    items = [intent_mix(ad.gather_rows(p_e, item_idx), proto_item)]
    for layer in range(depth):
        agg = kg_aggregate(p_e, relation_emb, kg_edges)
        item_part = ad.gather_rows(agg, item_idx)
        p_u, item_part = transformer_layer(p_u, item_part, layer_params[layer], graph)
        if rest_idx.size:
            p_e = ad.concat([item_part, ad.gather_rows(agg, rest_idx)], axis=0)
        else:
            p_e = item_part
        users.append(intent_mix(p_u, proto_user))
        items.append(intent_mix(item_part, proto_item))
    return GlobalState(users=users, items=items, prop_users=p_u, prop_entities=p_e)

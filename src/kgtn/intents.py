"""Global-intent modeling over the fused interaction + knowledge graph.

Each layer folds KG context into item (entity-prefix) embeddings by
relation-aware aggregation, then propagates over observed user-item pairs
only with a masked multi-head graph transformer. All heads run in one
blocked pass: a head is a column block of one stacked (d, d) projection.
After the last layer, an attentive mixture over learnable intent
prototypes reads out the intent-aware users and items. The readout never
feeds back into propagation, so intents modulate structural signals
instead of replacing them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DomainError, ShapeError


@dataclass
class TransformerLayerParams:
    """Query, key and value projections of one layer, each one (d, d) matrix.

    Rows index the input and columns the output; head h owns the column
    block h*d/H .. (h+1)*d/H - 1 of each matrix.
    """

    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    n_heads: int

    def tensors(self):
        yield "wq", self.wq
        yield "wk", self.wk
        yield "wv", self.wv


@dataclass
class GlobalState:
    """The two tensors the global forward hands on.

    `users` is the intent mix of the last propagated users (M, d);
    `entities` is the global entity seed (E, d): the intent-mixed items
    followed by the propagated non-item entities.
    """

    users: ad.Tensor
    entities: ad.Tensor


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


def kg_aggregate(entity_emb, relation_emb, edges):
    """Relation-aware neighborhood pooling over active KG slots.

    Each head with a nonempty active neighborhood is replaced by the
    attention-weighted, 1/|N_i|-scaled sum of relation-gated neighbor
    embeddings: one `kg_pool` node, which keeps only the slot weights.
    Heads without active slots pass through unchanged.
    """
    return ad.kg_pool(entity_emb, relation_emb, edges)


def transformer_layer(user_emb, item_emb, params, graph):
    """Masked multi-head attention over observed user-item pairs.

    Attention logits exist only where the interaction indicator is 1; each
    user attends over their interacted items and, symmetrically with the
    same projections, each item attends over its users, one
    `edge_attention` node per direction. Nodes without any interaction pass
    through unchanged. Head h reads output columns h*d/H .. (h+1)*d/H - 1
    of the stacked query, key and value projections.
    """
    wq, wk, wv, H = params.wq, params.wk, params.wv, params.n_heads
    new_u = ad.edge_attention(ad.matmul(user_emb, wq), ad.matmul(item_emb, wk),
                              ad.matmul(item_emb, wv), user_emb, graph.user_edges, H)
    new_i = ad.edge_attention(ad.matmul(item_emb, wq), ad.matmul(user_emb, wk),
                              ad.matmul(user_emb, wv), item_emb, graph.item_edges, H)
    return new_u, new_i


def forward_global(user_emb, entity_emb, relation_emb, proto_user, proto_item,
                   layer_params, graph, kg_edges):
    """Run one propagate layer per entry of `layer_params`, then read out the
    intent mixtures.

    Each layer first folds KG context into entities, then runs the masked
    transformer over the interaction graph. The readout mixes the last
    propagated users and items over the intent prototypes; with no layers
    it mixes the base embeddings. Only what the readout needs is recorded.
    """
    n_items, n_entities = graph.n_items, entity_emb.values.shape[0]

    def join(items, source):
        if n_items == n_entities:
            return items
        return ad.concat([items, ad.slice_rows(source, n_items, n_entities)])

    # The current entities are `items` followed by the non-item rows of
    # `source`; `items` is None while they are still `entity_emb` itself.
    p_u, source, items = user_emb, entity_emb, None
    for layer in layer_params:
        p_e = source if items is None else join(items, source)
        source = kg_aggregate(p_e, relation_emb, kg_edges)
        p_u, items = transformer_layer(p_u, ad.slice_rows(source, 0, n_items), layer, graph)
    if items is None:
        items = ad.slice_rows(entity_emb, 0, n_items)
    return GlobalState(users=intent_mix(p_u, proto_user),
                       entities=join(intent_mix(items, proto_item), source))

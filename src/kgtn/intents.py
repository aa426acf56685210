"""Global-intent modeling over the fused interaction + knowledge graph.

Each layer folds KG context into the entity embeddings by relation-aware
aggregation, then propagates the item rows (item ids are the entity-id
prefix) over observed user-item pairs only with a masked multi-head graph
transformer; a `splice` puts the new items back over the entity table.
All heads run in one blocked pass: a head is a column block of one
stacked (d, d) projection. After the last layer, an attentive mixture over
learnable intent prototypes reads out the intent-aware users and items, one
`prototype_mix` node per side.
The readout never feeds back into propagation, so intents modulate
structural signals instead of replacing them.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import autodiff as ad


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

    `e` is a (n, d) batch of node embeddings, `prototypes` a (K, d) matrix,
    either a tensor or an array; the result is the plain (n, K) array of the
    weights `intent_mix` applies, each row summing to 1. Nothing is recorded.
    """
    return ad._prototype_weights("intent_assignment", ad._values(e), ad._values(prototypes))[0]


def intent_mix(e, prototypes):
    """Intent-aware embedding: assignment-weighted sum of prototype rows,
    one `prototype_mix` node."""
    return ad.prototype_mix(e, prototypes)


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
    same projections, each item attends over its users. Each direction is
    one `edge_attention` node, which projects its own queries, keys and
    values. Nodes without any interaction pass through unchanged. Head h
    reads output columns h*d/H .. (h+1)*d/H - 1 of the stacked query, key
    and value projections.
    """
    wq, wk, wv, H = params.wq, params.wk, params.wv, params.n_heads
    new_u = ad.edge_attention(user_emb, item_emb, wq, wk, wv, graph.user_edges, H)
    new_i = ad.edge_attention(item_emb, user_emb, wq, wk, wv, graph.item_edges, H)
    return new_u, new_i


def forward_global(user_emb, entity_emb, relation_emb, proto_user, proto_item,
                   layer_params, graph, kg_edges):
    """Run one propagate layer per entry of `layer_params`, then read out the
    intent mixtures.

    Each layer first folds KG context into entities, then runs the masked
    transformer over the interaction graph on the item rows, the entity
    prefix. The readout mixes the last propagated users and items over the
    intent prototypes; with no layers it mixes the base embeddings. The
    items rejoin the other entities through one `splice` node per join.
    Only what the readout needs is recorded.
    """
    n_items = graph.n_items
    # The current entities are `items` spliced over `source`; `items` is
    # None while they are still `entity_emb` itself.
    p_u, source, items = user_emb, entity_emb, None
    for layer in layer_params:
        p_e = source if items is None else ad.splice(items, source)
        source = kg_aggregate(p_e, relation_emb, kg_edges)
        p_u, items = transformer_layer(p_u, ad.slice_rows(source, 0, n_items), layer, graph)
    if items is None:
        items = ad.slice_rows(entity_emb, 0, n_items)
    return GlobalState(users=intent_mix(p_u, proto_user),
                       entities=ad.splice(intent_mix(items, proto_item), source))

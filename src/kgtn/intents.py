"""Global-intent modeling over the fused interaction + knowledge graph.

Each layer folds KG context into the entity embeddings by relation-aware
aggregation, then propagates the item rows over observed user-item pairs
only with a masked multi-head graph transformer. Items are the entity-id
prefix and stay rows of the entity table throughout: the transformer reads
and rewrites that prefix in place, and the other entities pass through it.
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
    `entities` is the global entity seed (E, d): the intent mix of the
    propagated item rows, followed by the propagated non-item entities.
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


def intent_mix(e, prototypes, rows=None):
    """Intent-aware embedding of the first `rows` rows of `e` (all of them
    by default): assignment-weighted sum of prototype rows, one
    `prototype_mix` node. The other rows pass through."""
    return ad.prototype_mix(e, prototypes, rows)


def kg_aggregate(entity_emb, relation_emb, edges):
    """Relation-aware neighborhood pooling over active KG slots.

    Each head with a nonempty active neighborhood is replaced by the
    attention-weighted, 1/|N_i|-scaled sum of relation-gated neighbor
    embeddings: one `kg_pool` node, which keeps only the slot weights.
    Heads without active slots pass through unchanged.
    """
    return ad.kg_pool(entity_emb, relation_emb, edges)


def transformer_layer(user_emb, entity_emb, params, graph):
    """Masked multi-head attention over observed user-item pairs.

    Attention logits exist only where the interaction indicator is 1; each
    user attends over their interacted items and, symmetrically with the
    same projections, each item attends over its users. The items are the
    first `graph.n_items` rows of `entity_emb`, read in place. Each
    direction is one `edge_attention` node, which projects its own queries,
    keys and values. Nodes without any interaction, and the entities past
    the items, pass through unchanged. Returns the new users and the new
    entity table. Head h reads output columns h*d/H .. (h+1)*d/H - 1 of the
    stacked query, key and value projections.
    """
    wq, wk, wv, H = params.wq, params.wk, params.wv, params.n_heads
    new_u = ad.edge_attention(user_emb, entity_emb, wq, wk, wv, graph.user_edges, H)
    new_e = ad.edge_attention(entity_emb, user_emb, wq, wk, wv, graph.item_edges, H)
    return new_u, new_e


def forward_global(user_emb, entity_emb, relation_emb, proto_user, proto_item,
                   layer_params, graph, kg_edges):
    """Run one propagate layer per entry of `layer_params`, then read out the
    intent mixtures.

    Each layer first folds KG context into entities, then runs the masked
    transformer over the interaction graph on the item rows, the entity
    prefix. The readout mixes the last propagated users and items over the
    intent prototypes; with no layers it mixes the base embeddings. Only
    what the readout needs is recorded.
    """
    p_u, p_e = user_emb, entity_emb
    for layer in layer_params:
        source = kg_aggregate(p_e, relation_emb, kg_edges)
        p_u, p_e = transformer_layer(p_u, source, layer, graph)
    return GlobalState(users=intent_mix(p_u, proto_user),
                       entities=intent_mix(p_e, proto_item, graph.n_items))

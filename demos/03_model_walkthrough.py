#!/usr/bin/env python3
# The model, one mechanism at a time: intent prototypes, relation-aware
# KG aggregation, the masked graph transformer, Gumbel top-k knowledge
# sampling, light aggregation, and the local-global contrastive loss.

import numpy as np

from kgtn import denoise, intents
from kgtn.config import ExperimentConfig
from kgtn.data import synthetic_dataset
from kgtn.training import ModelParameters, predict

rng = np.random.default_rng(0)
ds = synthetic_dataset(12, 10, 16, 2, density=0.5, seed=3)
cfg = ExperimentConfig(embed_dim=8, n_intents=4, n_heads=2, depth=1, agg_depth=2,
                       k_top=2, batch_size=32).validate()
params = ModelParameters.initialize(ds.n_users, ds.n_entities, ds.n_relations, cfg, rng)

# --- intent prototypes -----------------------------------------------------
# Each node is softly assigned to K learnable prototypes; the intent-aware
# embedding is the assignment-weighted prototype mixture, one
# `prototype_mix` tape node. The assignment is the plain (n, K) array of
# the weights that node applies.
assign = intents.intent_assignment(params.user_emb, params.intent_user)
print("assignment rows sum to", assign.sum(axis=1)[:3])
mixed = intents.intent_mix(params.user_emb, params.intent_user)
print("intent-aware embedding shape:", mixed.values.shape)
print("mixture equals weights @ prototypes:",
      np.array_equal(mixed.values, assign @ params.intent_user.values))

# --- relation-aware KG aggregation ------------------------------------------
# Neighbor tails are gated elementwise by their relation embedding and
# weighted by attention; empty heads pass through unchanged. A slot's
# logit is (e_h || e_r) . (e_t || e_r) = e_h . e_t + e_r . e_r, and the
# attention is the softmax of the logits over each head's neighborhood.
edges = ds.kg.full_edges()
ent, rel = params.entity_emb.values, params.relation_emb.values
head0 = slice(edges.offsets[0], edges.offsets[1])
logits = ent[edges.tail[head0]] @ ent[0] + (rel[edges.rel[head0]] ** 2).sum(axis=1)
beta = np.exp(logits - logits.max())
beta /= beta.sum()
print("attention over item 0's KG slots:", beta, "sum:", beta.sum())
agg = intents.kg_aggregate(params.entity_emb, params.relation_emb, edges)
print("aggregated entities shape:", agg.values.shape)

# --- masked graph transformer -----------------------------------------------
# Attention logits exist only on observed user-item pairs. Each layer stores
# its query, key and value projection as one (d, d) matrix, and each head is
# a column block of it, so all heads run in one pass.
# After the last layer, the intent mixture reads out the global state: the
# users and the entity seed (intent-mixed items, then the other entities).
state = intents.forward_global(
    params.user_emb, params.entity_emb, params.relation_emb,
    params.intent_user, params.intent_item,
    params.layer_list(cfg.depth), ds.train_graph, edges,
)
print("global users:", state.users.values.shape, "entity seed:", state.entities.values.shape)

# --- Gumbel top-k knowledge sampling ----------------------------------------
# Slot scores come from the intent-aware representations; Gumbel noise on
# the raw logits randomizes the cut. The attention only chooses the kept
# slots; light aggregation then averages them with equal weight.
view = denoise.sample_topk(ds.kg, state.entities.values, params.relation_emb.values,
                           cfg.k_top, np.random.default_rng(0))
print(f"sampled view keeps {view.edges.n_edges} of {ds.kg.n_triples} slots")

# --- two aggregation tracks and the contrastive objective --------------------
glob = denoise.light_aggregate(state.users, state.entities,
                               params.relation_emb, view.edges, ds.train_graph,
                               cfg.agg_depth)
local = denoise.light_aggregate(params.user_emb, params.entity_emb,
                                params.relation_emb, view.edges, ds.train_graph,
                                cfg.agg_depth)
batch_users = np.arange(6)
batch_items = np.arange(6)
loss = denoise.contrastive_loss(glob, local, batch_users, batch_items, tau=cfg.tau)
print("layer-wise local-global contrastive loss:", float(loss.values))

# Prediction sums the batch rows of the global track's layers and takes
# inner products, one `score` node; item i is entity row i.
scores = predict([0, 1], [0, 3], glob)
print("score(u0, i0), score(u1, i3) =", scores.values)

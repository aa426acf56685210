#!/usr/bin/env python3
# A tour of the float64 tape substrate: build tensors, run ops, record a
# tape, pull gradients back, and cross-check them with finite differences.

import numpy as np

from kgtn import autodiff as ad
from kgtn.data import InteractionGraph, KnowledgeGraph
from kgtn.gradcheck import check_gradients

rng = np.random.default_rng(0)

# Parameters are leaves with eagerly zeroed gradient buffers; constants
# never receive gradients.
w = ad.parameter(rng.normal(size=(3, 4)))
x = ad.constant(rng.normal(size=(3, 4)))

# Ops compose like numpy. Nothing is recorded until a tape is active.
y = ad.add(ad.mul(w, x), 1.0)  # (3, 4), elementwise
print("forward product plus one:\n", y.values)

# Record a scalar loss and replay the tape backward. `prototype_mix` is the
# model's intent readout in one node: softmax(h @ P.T) @ P, the
# softmax-weighted sum of the prototype rows P (here 2 prototypes of width 4).
protos = ad.parameter(rng.normal(size=(2, 4)))
with ad.Tape() as tape:
    h = ad.prototype_mix(ad.mul(w, x), protos)
    loss = ad.sum_all(ad.mul(h, h))
print("tape length:", len(tape), "ops:", tape.op_counts())
tape.backward(loss)
print("dloss/dw row 0:", w.grad[0])

# Gradients accumulate additively across uses, so zero between steps.
w.zero_grad()
protos.zero_grad()

# The checker re-evaluates the loss at perturbed parameter values, fully
# independent of the backward pass it verifies.
result = check_gradients(
    lambda: ad.sum_all(ad.mul(ad.prototype_mix(ad.mul(w, x), protos),
                              ad.prototype_mix(ad.mul(w, x), protos))),
    [("w", w), ("protos", protos)],
)
print(f"finite-difference max rel err: {result.max_rel_err:.2e} (tolerance 1e-4)")

# The softmax is max-shifted: shifting all logits leaves the weights
# unchanged. With one row v and identity prototypes the readout is softmax(v).
v = rng.normal(size=5)
print("softmax:", ad.prototype_mix(ad.constant(v[None]), np.eye(5)).values[0])
print("shifted:", ad.prototype_mix(ad.constant(v[None] + 100.0), np.eye(5)).values[0])

# The ranking head is two nodes. `score` reads the batch rows of every
# layer, sums them and takes one inner product per (user, item) pair;
# `bpr` is the mean of softplus(neg - pos), here for users 0 and 2 with
# positive items 1, 3 and negative items 0, 2.
users = [ad.parameter(rng.normal(size=(3, 4))) for _ in range(2)]
items = [ad.parameter(rng.normal(size=(4, 4))) for _ in range(2)]


def ranking_loss():
    pos = ad.score(users, items, [0, 2], [1, 3])
    return ad.bpr(pos, ad.score(users, items, [0, 2], [0, 2]))


print("ranking loss:", float(ranking_loss().values))
result = check_gradients(ranking_loss, [(f"u{l}", t) for l, t in enumerate(users)]
                         + [(f"i{l}", t) for l, t in enumerate(items)])
print(f"score and bpr finite-difference max rel err: {result.max_rel_err:.2e}")

# Fused edge ops work on a whole graph at once. The KG pool replaces each
# head entity's row by the attention-weighted mean of its relation-gated
# slot rows, the weights a softmax within the head's slots (head 0 has 2
# slots, head 1 has 3); entities 2 and 3 head no slot and keep their rows.
# It is one tape node, and its gradient passes the same check.
kg = KnowledgeGraph(np.array([[0, 0, 2], [0, 1, 3], [1, 0, 0], [1, 1, 2], [1, 0, 3]]))
edges = kg.full_edges()
ent, rel = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(rng.normal(size=(2, 3)))
pooled = ad.kg_pool(ent, rel, edges).values
print("slotless heads keep their rows:", np.array_equal(pooled[2:], ent.values[2:]))
result = check_gradients(lambda: ad.sum_all(ad.kg_pool(ent, rel, edges)),
                         [("ent", ent), ("rel", rel)])
print(f"kg_pool finite-difference max rel err: {result.max_rel_err:.2e}")

# One direction of the masked graph transformer is one node too: each user
# projects its row to a query, attends over the keys of the items it
# interacted with and sums their values (two heads of width 2). User 2 has
# no items and keeps its own row. The check covers both tables and all
# three projections.
graph = InteractionGraph(3, 4, [(0, 0), (0, 2), (1, 1), (1, 2), (1, 3)])
users, item_rows = ad.parameter(rng.normal(size=(3, 4))), ad.parameter(rng.normal(size=(4, 4)))
wq, wk, wv = (ad.parameter(rng.normal(size=(4, 4))) for _ in range(3))
operands = [users, item_rows, wq, wk, wv]
attended = ad.edge_attention(*operands, graph.user_edges, 2).values
print("the user without items keeps its row:", np.array_equal(attended[2], users.values[2]))
result = check_gradients(
    lambda: ad.sum_all(ad.mul(ad.edge_attention(*operands, graph.user_edges, 2), users)),
    list(zip(("users", "items", "wq", "wk", "wv"), operands)))
print(f"edge_attention finite-difference max rel err: {result.max_rel_err:.2e}")

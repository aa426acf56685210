"""Intent mixing, relation-aware aggregation, masked transformer propagation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtn import autodiff as ad
from kgtn import intents
from kgtn.data import InteractionGraph, KnowledgeGraph
from kgtn.errors import DomainError, ShapeError
from kgtn.gradcheck import check_gradients

RNG = np.random.default_rng(7)


def head_params(d, n_heads):
    """Stacked (d, d) projections; head h owns columns h*d/H .. (h+1)*d/H - 1."""
    return intents.TransformerLayerParams(
        *(ad.parameter(RNG.normal(size=(d, d)) * 0.3) for _ in range(3)), n_heads=n_heads)


def head_blocks(params):
    """Per head, its (wq, wk, wv) column blocks, each (d, d/H)."""
    d = params.wq.values.shape[1]
    dh = d // params.n_heads
    return [tuple(w.values[:, h * dh:(h + 1) * dh] for w in (params.wq, params.wk, params.wv))
            for h in range(params.n_heads)]


# ---------------------------------------------------------------------------
# intent assignment / mixing


def test_assignment_single_intent():
    e = ad.constant([[0.3, -0.7]])
    c = ad.constant([[1.0, 1.0]])
    np.testing.assert_allclose(intents.intent_assignment(e, c), [[1.0]])


def test_assignment_identical_prototypes_uniform():
    e = ad.constant(RNG.normal(size=(3, 4)))
    c = ad.constant(np.tile(RNG.normal(size=4), (5, 1)))
    np.testing.assert_allclose(intents.intent_assignment(e, c), np.full((3, 5), 0.2), atol=1e-12)


def test_assignment_two_intent_oracle():
    e = ad.constant([[1.0, 0.0]])
    c = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(
        intents.intent_assignment(e, c), [[0.73105857863, 0.26894142137]], atol=1e-9
    )


@given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_assignment_rows_sum_to_one(n, k, seed):
    rng = np.random.default_rng(seed)
    e = ad.constant(rng.normal(size=(n, 4)))
    c = ad.constant(rng.normal(size=(k, 4)))
    out = intents.intent_assignment(e, c)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(n), atol=1e-9)


def test_assignment_logit_shift_invariance():
    # with e a basis vector, shifting one prototype coordinate shifts every
    # logit by the same constant
    e = ad.constant([[1.0, 0.0, 0.0]])
    c = RNG.normal(size=(4, 3))
    shifted = c.copy()
    shifted[:, 0] += 2.5
    p1 = intents.intent_assignment(e, ad.constant(c))
    p2 = intents.intent_assignment(e, ad.constant(shifted))
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_assignment_is_the_plain_weights_of_the_one_node_mix():
    e = ad.parameter(RNG.normal(size=(5, 3)))
    c = ad.parameter(RNG.normal(size=(4, 3)))
    with ad.Tape() as tape:
        weights = intents.intent_assignment(e, c)
        assert len(tape) == 0
        mixed = intents.intent_mix(e, c)
    assert tape.op_counts() == {"prototype_mix": 1}
    assert type(weights) is np.ndarray and weights.shape == (5, 4)
    assert (weights @ c.values).tobytes() == mixed.values.tobytes()
    np.testing.assert_array_equal(intents.intent_assignment(e.values, c.values), weights)


def test_mix_of_leading_rows_passes_the_other_rows_through():
    # the item readout mixes the item prefix of the entity table in one node
    e = ad.parameter(RNG.normal(size=(5, 3)))
    c = ad.parameter(RNG.normal(size=(4, 3)))
    with ad.Tape() as tape:
        mixed = intents.intent_mix(e, c, 2)
    assert tape.op_counts() == {"prototype_mix": 1}
    weights = intents.intent_assignment(e.values[:2], c)
    assert mixed.values[:2].tobytes() == (weights @ c.values).tobytes()
    np.testing.assert_array_equal(mixed.values[2:], e.values[2:])


def test_assignment_rejects_bad_shapes_and_no_prototypes_by_name():
    e = ad.constant(np.ones((2, 3)))
    for bad_e, bad_c in ((e, np.ones((4, 2))), (np.ones(3), np.ones((4, 3))), (e, np.ones(3))):
        with pytest.raises(ShapeError, match="intent_assignment"):
            intents.intent_assignment(bad_e, ad.constant(bad_c))
    with pytest.raises(DomainError, match="intent_assignment.*prototype"):
        intents.intent_assignment(e, ad.constant(np.ones((0, 3))))


def test_mix_single_intent_returns_prototype():
    e = ad.constant([[0.4, 0.6]])
    c = ad.constant([[2.0, -1.0]])
    np.testing.assert_array_equal(intents.intent_mix(e, c).values, [[2.0, -1.0]])


def test_mix_identical_prototypes_fixed_point():
    p = RNG.normal(size=3)
    c = ad.constant(np.tile(p, (6, 1)))
    e = ad.constant(RNG.normal(size=(2, 3)))
    np.testing.assert_allclose(intents.intent_mix(e, c).values, np.tile(p, (2, 1)), atol=1e-12)


def test_mix_weighted_sum_oracle():
    e = ad.constant([[1.0, 0.0]])
    c = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(
        intents.intent_mix(e, c).values, [[0.73105857863, 0.26894142137]], atol=1e-9
    )


def test_mix_differentiable_through_both():
    e = ad.parameter(RNG.normal(size=(2, 3)))
    c = ad.parameter(RNG.normal(size=(4, 3)))
    w = ad.constant(RNG.normal(size=(2, 3)))
    res = check_gradients(lambda: ad.sum_all(ad.mul(intents.intent_mix(e, c), w)),
                          [("e", e), ("c", c)])
    assert res.max_rel_err < 1e-4


# ---------------------------------------------------------------------------
# kg attention / aggregation


def _kg(triples, n_entities):
    return KnowledgeGraph(np.array(triples), n_entities=n_entities)


def test_kg_attention_singleton():
    # one slot takes all the attention: the head becomes r * v
    kg = _kg([(0, 0, 1)], 2)
    ent = RNG.normal(size=(2, 3))
    rel = RNG.normal(size=(1, 3))
    out = intents.kg_aggregate(ad.constant(ent), ad.constant(rel), kg.full_edges()).values
    np.testing.assert_allclose(out, [rel[0] * ent[1], ent[1]], rtol=0, atol=1e-12)


def test_kg_attention_identical_neighbors_split_evenly():
    # two slots with the same relation and same tail embedding: each gets
    # attention 1/2, and the 1/|N| mean halves their sum again
    kg = _kg([(0, 0, 1), (0, 0, 2)], 3)
    ent = np.vstack([RNG.normal(size=3), np.tile(RNG.normal(size=3), (2, 1))])
    rel = RNG.normal(size=(1, 3))
    out = intents.kg_aggregate(ad.constant(ent), ad.constant(rel), kg.full_edges()).values
    np.testing.assert_allclose(out[0], rel[0] * ent[1] / 2, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out[1:], ent[1:])


def test_kg_attention_concat_logit_identity():
    # (e_i || e_r) . (e_v || e_r) == e_i . e_v + ||e_r||^2
    for _ in range(5):
        ei, ev, er = RNG.normal(size=3), RNG.normal(size=3), RNG.normal(size=3)
        lhs = np.concatenate([ei, er]) @ np.concatenate([ev, er])
        rhs = ei @ ev + er @ er
        assert abs(lhs - rhs) < 1e-12


def test_kg_aggregate_single_neighbor_identity_gate():
    kg = _kg([(0, 0, 1)], 2)
    ent = ad.constant(RNG.normal(size=(2, 3)))
    rel = ad.constant(np.ones((1, 3)))
    out = intents.kg_aggregate(ent, rel, kg.full_edges()).values
    np.testing.assert_allclose(out[0], ent.values[1], atol=1e-12)


def test_kg_aggregate_zero_relation_annihilates():
    kg = _kg([(0, 0, 1)], 2)
    ent = ad.constant(RNG.normal(size=(2, 3)))
    rel = ad.constant(np.zeros((1, 3)))
    out = intents.kg_aggregate(ent, rel, kg.full_edges()).values
    np.testing.assert_array_equal(out[0], np.zeros(3))


def test_kg_aggregate_matches_naive_loop():
    triples = [(0, 0, 1), (0, 1, 2), (1, 0, 2)]
    kg = _kg(triples, 3)
    ent = RNG.normal(size=(3, 4))
    rel = RNG.normal(size=(2, 4))
    out = intents.kg_aggregate(ad.constant(ent), ad.constant(rel), kg.full_edges()).values

    expected = ent.copy()
    for head in range(3):
        slots = [(r, t) for h, r, t in triples if h == head]
        if not slots:
            continue
        logits = np.array([ent[head] @ ent[t] + rel[r] @ rel[r] for r, t in slots])
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        acc = np.zeros(4)
        for wk, (r, t) in zip(w, slots):
            acc += wk * rel[r] * ent[t]
        expected[head] = acc / len(slots)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_kg_aggregate_empty_neighborhood_passes_through():
    kg = _kg([(0, 0, 1)], 4)
    ent = ad.constant(RNG.normal(size=(4, 3)))
    rel = ad.constant(RNG.normal(size=(1, 3)))
    out = intents.kg_aggregate(ent, rel, kg.full_edges()).values
    np.testing.assert_array_equal(out[1:], ent.values[1:])


# ---------------------------------------------------------------------------
# transformer layer


def test_transformer_single_item_gets_full_attention():
    graph = InteractionGraph(1, 1, [(0, 0)])
    d = 4
    params = head_params(d, 2)
    users = ad.constant(RNG.normal(size=(1, d)))
    items = ad.constant(RNG.normal(size=(1, d)))
    new_u, _ = intents.transformer_layer(users, items, params, graph)
    expected = np.concatenate([items.values @ wv for _, _, wv in head_blocks(params)], axis=1)
    np.testing.assert_allclose(new_u.values, expected, atol=1e-12)


def test_transformer_masked_pair_zero_gradient():
    # user 0 never interacted with item 2: d out_u0 / d item2 must be 0
    graph = InteractionGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    d = 4
    params = head_params(d, 2)
    users = ad.constant(RNG.normal(size=(2, d)))
    items = ad.parameter(RNG.normal(size=(3, d)))
    with ad.Tape() as tape:
        new_u, _ = intents.transformer_layer(users, items, params, graph)
        loss = ad.sum_all(ad.mul(new_u, ad.constant(np.outer([1.0, 0.0], np.ones(d)))))
    tape.backward(loss)
    np.testing.assert_allclose(items.grad[2], np.zeros(d), atol=1e-12)
    assert np.abs(items.grad[:2]).max() > 0


def _dense_attention(queries, keys, values, mask, scale):
    """Row-wise masked softmax attention with dense matrices."""
    logits = np.where(mask > 0, queries @ keys.T * scale, -np.inf)
    att = np.exp(logits - logits.max(axis=1, keepdims=True))
    return att / att.sum(axis=1, keepdims=True) @ values


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_transformer_matches_dense_oracle(n_heads):
    # every user and item has an interaction, so none passes through
    graph = InteractionGraph(3, 4, [(0, 0), (0, 2), (1, 1), (1, 2), (1, 3), (2, 3)])
    d = 8
    params = head_params(d, n_heads)
    users = RNG.normal(size=(3, d))
    items = RNG.normal(size=(4, d))
    new_u, new_i = intents.transformer_layer(
        ad.constant(users), ad.constant(items), params, graph
    )

    mask = np.zeros((3, 4))
    for u, i in graph.pairs:
        mask[u, i] = 1.0
    scale = 1.0 / np.sqrt(d / n_heads)
    # each head on its own, then the head outputs side by side
    exp_u, exp_i = [], []
    for wq, wk, wv in head_blocks(params):
        exp_u.append(_dense_attention(users @ wq, items @ wk, items @ wv, mask, scale))
        exp_i.append(_dense_attention(items @ wq, users @ wk, users @ wv, mask.T, scale))
    np.testing.assert_allclose(new_u.values, np.concatenate(exp_u, axis=1), atol=1e-10)
    np.testing.assert_allclose(new_i.values, np.concatenate(exp_i, axis=1), atol=1e-10)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_transformer_head_concat_restores_dimension(n_heads):
    graph = InteractionGraph(3, 2, [(0, 0), (1, 1), (2, 0), (2, 1)])
    d = 8
    params = head_params(d, n_heads)
    new_u, new_i = intents.transformer_layer(
        ad.constant(RNG.normal(size=(3, d))), ad.constant(RNG.normal(size=(2, d))), params, graph
    )
    assert new_u.values.shape == (3, d)
    assert new_i.values.shape == (2, d)


def test_transformer_isolated_nodes_pass_through():
    graph = InteractionGraph(2, 2, [(0, 0)])  # user 1 and item 1 isolated
    d = 4
    params = head_params(d, 2)
    users = ad.constant(RNG.normal(size=(2, d)))
    items = ad.constant(RNG.normal(size=(2, d)))
    new_u, new_i = intents.transformer_layer(users, items, params, graph)
    np.testing.assert_array_equal(new_u.values[1], users.values[1])
    np.testing.assert_array_equal(new_i.values[1], items.values[1])


def test_transformer_attention_sums_to_one_over_random_instances():
    weighted = False
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_u, n_i = rng.integers(2, 5), rng.integers(2, 5)
        pairs = {(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(6)}
        graph = InteractionGraph(n_u, n_i, sorted(pairs))
        users = rng.normal(size=(n_u, 4))
        items = rng.normal(size=(n_i, 4))
        items[:, 0] = 1.0
        wq, wk = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        # wv copies the items' column of ones into every output column, so
        # every value row is exactly all ones and a user's output column is
        # the sum of the user's attention weights in that column's head,
        # which the random queries and keys keep apart
        wv = np.zeros((4, 4))
        wv[0] = 1.0
        assert (items @ wv == 1.0).all()
        edges = graph.user_edges
        out = ad.edge_attention(users, items, wq, wk, wv, edges, 2).values
        scaled = ad._head_blocks(4, 2)[1]
        alpha = ad._segment_softmax(((users @ wq)[edges.source] * (items @ wk)[edges.target])
                                    @ scaled, edges.segments)
        for u in range(n_u):
            if graph.user_degree(u):
                assert np.abs(out[u] - 1.0).max() < 1e-9
        uniform = 1.0 / np.repeat(np.diff(edges.offsets), np.diff(edges.offsets))
        weighted |= not np.allclose(alpha, uniform[:, None])
    # the weights that summed to one were not all uniform
    assert weighted


# ---------------------------------------------------------------------------
# forward_global


def _toy_setup(d=4, K=2, depth=1):
    graph = InteractionGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    kg = _kg([(0, 0, 3), (1, 1, 3), (2, 0, 4), (2, 1, 3)], 5)
    params = dict(
        user=ad.parameter(RNG.normal(size=(2, d))),
        ent=ad.parameter(RNG.normal(size=(5, d))),
        rel=ad.parameter(RNG.normal(size=(2, d))),
        cu=ad.parameter(RNG.normal(size=(K, d))),
        cv=ad.parameter(RNG.normal(size=(K, d))),
    )
    layers = [head_params(d, 2) for _ in range(depth)]
    return graph, kg, params, layers


def test_forward_global_depth_zero_is_mixed_base():
    graph, kg, p, layers = _toy_setup(depth=0)
    state = intents.forward_global(
        p["user"], p["ent"], p["rel"], p["cu"], p["cv"], [], graph, kg.full_edges()
    )
    np.testing.assert_allclose(
        state.users.values, intents.intent_mix(p["user"], p["cu"]).values
    )
    np.testing.assert_allclose(
        state.entities.values[:3], intents.intent_mix(p["ent"].values[:3], p["cv"]).values
    )
    np.testing.assert_array_equal(state.entities.values[3:], p["ent"].values[3:])


def test_forward_global_state_matches_layer_by_layer_oracle():
    graph, kg, p, layers = _toy_setup(depth=2)
    edges = kg.full_edges()
    state = intents.forward_global(
        p["user"], p["ent"], p["rel"], p["cu"], p["cv"], layers, graph, edges
    )
    assert state.users.values.shape == (2, 4) and state.entities.values.shape == (5, 4)
    users, ents = p["user"], p["ent"]
    for layer in layers:
        agg = intents.kg_aggregate(ents, p["rel"], edges)
        users, items = intents.transformer_layer(
            users, ad.constant(agg.values[:3]), layer, graph
        )
        ents = ad.constant(np.vstack([items.values, agg.values[3:]]))
    np.testing.assert_allclose(
        state.users.values, intents.intent_mix(users, p["cu"]).values, atol=1e-12
    )
    np.testing.assert_allclose(
        state.entities.values[:3],
        intents.intent_mix(ad.constant(ents.values[:3]), p["cv"]).values, atol=1e-12,
    )
    np.testing.assert_allclose(state.entities.values[3:], ents.values[3:], atol=1e-12)


def test_forward_global_gradients_reach_every_parameter_class():
    graph, kg, p, layers = _toy_setup(depth=1)
    named = list(p.items()) + list(
        (f"l0.{n}", t) for n, t in layers[0].tensors()
    )

    def build():
        state = intents.forward_global(
            p["user"], p["ent"], p["rel"], p["cu"], p["cv"], layers, graph, kg.full_edges()
        )
        acc = ad.sum_all(ad.mul(state.users, state.users))
        return acc + ad.sum_all(ad.mul(state.entities, state.entities))

    res = check_gradients(build, named)
    assert res.max_rel_err < 1e-4, (res.worst_param, res.max_rel_err)

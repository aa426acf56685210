"""Gumbel top-k sampling, light aggregation, local-global contrastive loss."""
import math

import numpy as np
import pytest

from kgtn import autodiff as ad
from kgtn import denoise
from kgtn.data import InteractionGraph, KnowledgeGraph
from kgtn.errors import ContractError, DomainError
from kgtn.gradcheck import check_gradients

RNG = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# gumbel noise


def test_gumbel_fixed_point_at_inverse_e():
    assert denoise.gumbel_perturb(3.25, math.exp(-1.0)) == 3.25


def test_gumbel_half_oracle():
    # -log(log 2)
    out = denoise.gumbel_perturb(0.0, 0.5)
    assert abs(out - 0.36651292058) < 1e-9


def test_gumbel_rejects_endpoints():
    for eps in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            denoise.gumbel_perturb(0.0, eps)


def test_gumbel_sample_mean_is_euler_mascheroni():
    rng = np.random.default_rng(17)
    draws = denoise.sample_gumbel(rng, 100_000)
    assert abs(draws.mean() - denoise.EULER_MASCHERONI) < 0.01


# ---------------------------------------------------------------------------
# top-k sampling


def _kg(triples, n_entities):
    return KnowledgeGraph(np.array(triples), n_entities=n_entities)


def test_topk_keeps_everything_when_k_large():
    kg = _kg([(0, 0, 1), (0, 0, 2), (1, 0, 2)], 3)
    ent = RNG.normal(size=(3, 4))
    rel = RNG.normal(size=(1, 4))
    view = denoise.sample_topk(kg, ent, rel, k_top=5, rng=np.random.default_rng(0))
    assert view.kept.all()
    # kept slots retain their clean attention weight
    beta = ad.segment_softmax(
        ad.constant(denoise._edge_logits(kg.full_edges(), ent, rel)), kg.full_edges().offsets
    ).values
    np.testing.assert_allclose(view.beta_hat, beta, atol=1e-12)


def test_topk_none_keeps_everything():
    kg = _kg([(0, 0, 1), (0, 0, 2)], 3)
    view = denoise.sample_topk(kg, RNG.normal(size=(3, 2)), RNG.normal(size=(1, 2)),
                               k_top=None, rng=np.random.default_rng(0))
    assert view.kept.all()


def test_topk_dominant_slot_survives_noise():
    # one neighbor's logit beats the other's by 50 (far above Gumbel scale)
    kg = _kg([(0, 0, 1), (0, 1, 2)], 3)
    d = 2
    ent = np.zeros((3, d))
    ent[0] = [1.0, 0.0]
    ent[1] = [50.0, 0.0]   # logit e_0 . e_1 = 50
    ent[2] = [0.0, 0.0]    # logit 0
    rel = np.zeros((2, d))
    kept_dominant = 0
    trials = 10_000
    for seed in range(trials):
        view = denoise.sample_topk(kg, ent, rel, k_top=1, rng=np.random.default_rng(seed))
        assert view.kept.sum() == 1
        kept_dominant += bool(view.kept[0])
    assert kept_dominant / trials > 0.999


def test_topk_tie_breaks_toward_lower_slot():
    kg = _kg([(0, 0, 1), (0, 0, 2)], 3)
    ent = np.zeros((3, 3))
    rel = np.zeros((1, 3))

    class ZeroGumbelRng:
        def random(self, size=None):
            # eps = 1/e makes every perturbation exactly zero
            return np.full(size, math.exp(-1.0)) if size is not None else math.exp(-1.0)

    view = denoise.sample_topk(kg, ent, rel, k_top=1, rng=ZeroGumbelRng())
    assert view.kept[0] and not view.kept[1]


def test_topk_per_head_budget_and_zeroed_weights():
    rng = np.random.default_rng(3)
    triples = [(h, int(rng.integers(2)), int(rng.integers(6))) for h in range(5) for _ in range(4)]
    kg = _kg(sorted(set(triples)), 6)
    ent = rng.normal(size=(6, 4))
    rel = rng.normal(size=(2, 4))
    for k in (1, 2, 3):
        view = denoise.sample_topk(kg, ent, rel, k_top=k, rng=np.random.default_rng(k))
        edges = kg.full_edges()
        for h in range(6):
            lo, hi = edges.offsets[h], edges.offsets[h + 1]
            assert view.kept[lo:hi].sum() <= min(k, hi - lo)
        assert (view.beta_hat[~view.kept] == 0.0).all()
        assert (view.beta_hat[view.kept] > 0.0).all()


def test_topk_deterministic_under_seed():
    kg = _kg([(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)], 3)
    ent = RNG.normal(size=(3, 4))
    rel = RNG.normal(size=(2, 4))
    v1 = denoise.sample_topk(kg, ent, rel, 1, np.random.default_rng(42))
    v2 = denoise.sample_topk(kg, ent, rel, 1, np.random.default_rng(42))
    assert np.array_equal(v1.kept, v2.kept)
    assert np.array_equal(v1.beta_hat, v2.beta_hat)


def test_topk_never_writes_kg(fingerprint):
    kg = _kg([(0, 0, 1), (0, 1, 2), (0, 1, 1), (1, 0, 2), (1, 1, 0)], 3)
    e = kg.full_edges()
    ent, rel = RNG.normal(size=(3, 2)), RNG.normal(size=(2, 2))
    before = fingerprint([kg, ent, rel])  # the KG, its CSR edges and both embeddings
    for k in (1, 2, None):
        view = denoise.sample_topk(kg, ent, rel, k, np.random.default_rng(0))
        assert fingerprint([kg, ent, rel]) == before
        assert view.edges.n_edges == view.kept.sum()
        np.testing.assert_array_equal(view.edges.tail, e.tail[view.kept])
        np.testing.assert_array_equal(view.edges.counts,
                                      np.bincount(e.head[view.kept], minlength=3))


def test_topk_rejects_nonpositive_k():
    kg = _kg([(0, 0, 1)], 2)
    with pytest.raises(ContractError):
        denoise.sample_topk(kg, np.zeros((2, 2)), np.zeros((1, 2)), 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# light aggregation


def test_light_single_neighbor_identity_gate():
    kg = _kg([(0, 0, 1)], 2)
    graph = InteractionGraph(1, 1, [(0, 0)])
    users = ad.constant(RNG.normal(size=(1, 3)))
    ents = ad.constant(RNG.normal(size=(2, 3)))
    rel = ad.constant(np.ones((1, 3)))
    stack = denoise.light_aggregate(users, ents, rel, kg.full_edges(), graph, 1, 1)
    np.testing.assert_allclose(stack.items[1].values[0], ents.values[1], atol=1e-12)


def test_light_single_item_user_copies_item():
    kg = _kg([(0, 0, 1)], 2)
    graph = InteractionGraph(1, 1, [(0, 0)])
    users = ad.constant(RNG.normal(size=(1, 3)))
    ents = ad.constant(RNG.normal(size=(2, 3)))
    rel = ad.constant(RNG.normal(size=(1, 3)))
    stack = denoise.light_aggregate(users, ents, rel, kg.full_edges(), graph, 1, 1)
    np.testing.assert_allclose(stack.users[1].values[0], ents.values[0], atol=1e-12)


def test_light_chain_matches_loop_oracle():
    # entity chain 0 <- 1 <- 2 with hand-set values, two layers
    kg = _kg([(0, 0, 1), (1, 0, 2)], 3)
    graph = InteractionGraph(1, 1, [(0, 0)])
    users = np.array([[1.0, 2.0]])
    ents = np.array([[0.5, 1.0], [2.0, -1.0], [3.0, 4.0]])
    rel = np.array([[1.5, 0.5]])
    stack = denoise.light_aggregate(
        ad.constant(users), ad.constant(ents), ad.constant(rel), kg.full_edges(), graph, 2, 1
    )
    z = [ents]
    for _ in range(2):
        nxt = z[-1].copy()
        nxt[0] = rel[0] * z[-1][1]
        nxt[1] = rel[0] * z[-1][2]
        z.append(nxt)
    for layer in range(3):
        np.testing.assert_allclose(stack.items[layer].values[0], z[layer][0], atol=1e-12)


def test_light_all_ones_relations_equal_mean_pooling():
    rng = np.random.default_rng(12)
    triples = sorted({(int(rng.integers(4)), 0, int(rng.integers(6))) for _ in range(8)})
    kg = _kg(triples, 6)
    graph = InteractionGraph(3, 4, [(0, 0), (0, 1), (1, 2), (2, 3), (2, 0)])
    users = rng.normal(size=(3, 4))
    ents = rng.normal(size=(6, 4))
    stack = denoise.light_aggregate(
        ad.constant(users), ad.constant(ents), ad.constant(np.ones((1, 4))),
        kg.full_edges(), graph, 1, 4
    )
    edges = kg.full_edges()
    expected = ents.copy()
    for h in range(6):
        lo, hi = edges.offsets[h], edges.offsets[h + 1]
        if hi > lo:
            expected[h] = ents[edges.tail[lo:hi]].mean(axis=0)
    np.testing.assert_allclose(
        np.vstack([stack.items[1].values, expected[4:]])[:6], expected, atol=1e-12
    )
    u_expected = users.copy()
    for u in range(3):
        items = graph.items_of(u)
        u_expected[u] = ents[:4][items].mean(axis=0)
    np.testing.assert_allclose(stack.users[1].values, u_expected, atol=1e-12)


def test_light_empty_nodes_pass_through():
    kg = _kg([(0, 0, 1)], 3)
    graph = InteractionGraph(2, 2, [(0, 0)])
    users = ad.constant(RNG.normal(size=(2, 3)))
    ents = ad.constant(RNG.normal(size=(3, 3)))
    rel = ad.constant(RNG.normal(size=(1, 3)))
    stack = denoise.light_aggregate(users, ents, rel, kg.full_edges(), graph, 1, 2)
    np.testing.assert_array_equal(stack.users[1].values[1], users.values[1])
    np.testing.assert_array_equal(stack.items[1].values[1], ents.values[1])


# ---------------------------------------------------------------------------
# contrastive loss


def _stack(user_layers, item_layers):
    return denoise.LayerStack(
        users=[ad.constant(u) for u in user_layers],
        items=[ad.constant(i) for i in item_layers],
    )


def test_contrastive_two_user_orthogonal_oracle():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    track = _stack([z], [z])
    loss = denoise.contrastive_loss(track, _stack([z], [z]), tau=1.0)
    per_user = math.log(2.0) - 1.0
    # user side and item side contribute identically
    assert abs(loss.values - 2.0 * per_user) < 1e-9


def test_contrastive_identical_embeddings_oracle():
    for b in (2, 3, 5):
        z = np.tile([1.0, 1.0], (b, 1))
        track = _stack([z], [z])
        loss = denoise.contrastive_loss(track, _stack([z], [z]), tau=0.7)
        assert abs(loss.values - 2.0 * math.log(2.0 * (b - 1))) < 1e-9


def test_contrastive_orthogonal_views_tau_independent():
    # all similarities are exactly zero -> loss = log(2(B-1)) regardless of tau
    zg = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    zl = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
    vals = []
    for tau in (0.1, 0.5, 2.0):
        loss = denoise.contrastive_loss(_stack([zg], [zg]), _stack([zl], [zl]), tau=tau)
        vals.append(loss.values)
    for v in vals:
        assert abs(v - 2.0 * math.log(2.0)) < 1e-9


def test_contrastive_batch_of_one_rejected():
    z = np.array([[1.0, 0.0]])
    with pytest.raises(ContractError):
        denoise.contrastive_loss(_stack([z], [z]), _stack([z], [z]), tau=1.0)


def test_contrastive_layer_mismatch_rejected():
    z = np.eye(2)
    with pytest.raises(ContractError):
        denoise.contrastive_loss(_stack([z, z], [z, z]), _stack([z], [z]), tau=1.0)


def test_contrastive_zero_norm_rejected():
    z = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        denoise.contrastive_loss(_stack([z], [z]), _stack([z], [z]), tau=1.0)


def test_contrastive_permutation_equivariance():
    rng = np.random.default_rng(4)
    zg, zl = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    ig, il = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    base = denoise.contrastive_loss(_stack([zg], [ig]), _stack([zl], [il]), tau=0.4).values
    perm_u, perm_i = rng.permutation(6), rng.permutation(5)
    permuted = denoise.contrastive_loss(
        _stack([zg[perm_u]], [ig[perm_i]]), _stack([zl[perm_u]], [il[perm_i]]), tau=0.4
    ).values
    assert abs(base - permuted) < 1e-10


def test_contrastive_standard_form_includes_positive():
    z = np.tile([1.0, 1.0], (3, 1))
    track = _stack([z], [z])
    loss = denoise.contrastive_loss(track, _stack([z], [z]), tau=1.0, include_positive=True)
    # denominator gains the positive pair: log(2(B-1) + 1)
    assert abs(loss.values - 2.0 * math.log(2.0 * 2 + 1.0)) < 1e-9


def test_contrastive_layer_averaging_factor():
    rng = np.random.default_rng(9)
    z = [rng.normal(size=(3, 4)) for _ in range(3)]
    w = [rng.normal(size=(3, 4)) for _ in range(3)]
    single = [
        denoise.contrastive_loss(_stack([zg], [zg]), _stack([zl], [zl]), tau=0.5).values
        for zg, zl in zip(z, w)
    ]
    stacked = denoise.contrastive_loss(_stack(z, z), _stack(w, w), tau=0.5).values
    # layers 0..2 summed with a 1/2 factor
    assert abs(stacked - sum(single) / 2.0) < 1e-9


def test_contrastive_gradient_finite_difference():
    rng = np.random.default_rng(21)
    zg = ad.parameter(rng.normal(size=(3, 4)))
    zl = ad.parameter(rng.normal(size=(3, 4)))
    ig = ad.parameter(rng.normal(size=(3, 4)))
    il = ad.parameter(rng.normal(size=(3, 4)))

    def build():
        return denoise.contrastive_loss(
            denoise.LayerStack(users=[zg], items=[ig]),
            denoise.LayerStack(users=[zl], items=[il]),
            tau=0.3,
        )

    res = check_gradients(build, [("zg", zg), ("zl", zl), ("ig", ig), ("il", il)])
    assert res.max_rel_err < 1e-4


def _dense_infonce(layers_g, layers_l, tau, include_positive):
    """Dense NumPy InfoNCE for one side with hand-derived gradients.

    Diagonals are read with an explicit identity mask. Returns the loss and
    the gradients with respect to every global and local layer.
    """
    factor = 1.0 / max(1, len(layers_g) - 1)
    loss, grads_g, grads_l = 0.0, [], []
    for zg, zl in zip(layers_g, layers_l):
        b = zg.shape[0]
        eye = np.eye(b)
        ng = np.linalg.norm(zg, axis=1, keepdims=True)
        nl = np.linalg.norm(zl, axis=1, keepdims=True)
        g, l = zg / ng, zl / nl
        e_cross = np.exp(g @ l.T / tau)
        e_self = np.exp(g @ g.T / tau)
        pos = (e_cross * eye).sum(axis=1)
        denom = (e_self * (1.0 - eye)).sum(axis=1) + e_cross.sum(axis=1)
        if not include_positive:
            denom = denom - pos
        loss += factor * np.mean(np.log(denom) - np.log(pos))
        # d loss / d e_cross and d e_self, then through exp and the products
        w = factor / b
        keep_pos = 0.0 if include_positive else 1.0
        d_cross = (w / denom)[:, None] * (1.0 - keep_pos * eye) - (w / pos)[:, None] * eye
        d_self = (w / denom)[:, None] * (1.0 - eye)
        s_cross = d_cross * e_cross / tau
        s_self = d_self * e_self / tau
        dg = s_cross @ l + (s_self + s_self.T) @ g
        dl = s_cross.T @ g
        # through the row normalization z / |z|
        grads_g.append((dg - g * (dg * g).sum(axis=1, keepdims=True)) / ng)
        grads_l.append((dl - l * (dl * l).sum(axis=1, keepdims=True)) / nl)
    return loss, grads_g, grads_l


def test_contrastive_matches_dense_identity_oracle():
    rng = np.random.default_rng(77)
    tau = 0.35
    users_g = [rng.normal(size=(5, 4)) for _ in range(3)]
    users_l = [rng.normal(size=(5, 4)) for _ in range(3)]
    items_g = [rng.normal(size=(4, 4)) for _ in range(3)]
    items_l = [rng.normal(size=(4, 4)) for _ in range(3)]
    for include_positive in (False, True):
        params = [[ad.parameter(z) for z in group]
                  for group in (users_g, users_l, items_g, items_l)]
        with ad.Tape() as tape:
            loss = denoise.contrastive_loss(
                denoise.LayerStack(users=params[0], items=params[2]),
                denoise.LayerStack(users=params[1], items=params[3]),
                tau=tau, include_positive=include_positive,
            )
        tape.backward(loss)
        u_loss, u_dg, u_dl = _dense_infonce(users_g, users_l, tau, include_positive)
        i_loss, i_dg, i_dl = _dense_infonce(items_g, items_l, tau, include_positive)
        want = u_loss + i_loss
        assert abs(loss.values - want) <= 1e-10 * abs(want)
        for group, grads in zip(params, (u_dg, u_dl, i_dg, i_dl)):
            for p, g in zip(group, grads):
                assert np.max(np.abs(p.grad - g)) <= 1e-10 * np.max(np.abs(g))

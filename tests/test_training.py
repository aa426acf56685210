"""Prediction, losses, Adam, the fit loop, checkpoints, determinism."""
import gc
import hashlib
import inspect
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from kgtn import autodiff as ad
from kgtn import data, denoise, intents, training
from kgtn.config import ExperimentConfig
from kgtn.data import synthetic_dataset
from kgtn.errors import CheckpointError, KgtnError, TrainingDiverged

RNG = np.random.default_rng(77)


def _stack(users, items):
    return denoise.LayerStack(
        users=[ad.constant(u) for u in users], items=[ad.constant(i) for i in items]
    )


def small_cfg(**kw):
    base = dict(embed_dim=8, n_intents=2, n_heads=2, depth=1, agg_depth=1,
                k_top=2, batch_size=64, epochs=3, lr=1e-3, seed=5, patience=10)
    base.update(kw)
    return ExperimentConfig(**base).validate()


@pytest.fixture(scope="module")
def tiny_dataset():
    return synthetic_dataset(12, 16, 22, 2, density=0.5, seed=5, ratios=(0.6, 0.2, 0.2))


# ---------------------------------------------------------------------------
# predict


def test_predict_orthogonal_zero():
    stack = _stack([np.array([[1.0, 0.0]])], [np.array([[0.0, 1.0]])])
    assert training.predict([0], [0], *stack.summed()).values[0] == 0.0


def test_predict_self_product():
    stack = _stack([np.array([[1.0, 1.0]])], [np.array([[1.0, 1.0]])])
    assert training.predict([0], [0], *stack.summed()).values[0] == 2.0


def test_predict_single_layer_oracle():
    stack = _stack([np.array([[1.0, 2.0]])], [np.array([[3.0, 4.0]])])
    assert training.predict([0], [0], *stack.summed()).values[0] == 11.0


def test_predict_sums_layers():
    u0, u1 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    i0, i1 = np.array([[2.0, 0.0]]), np.array([[0.0, 3.0]])
    stack = _stack([u0, u1], [i0, i1])
    # (u0+u1) . (i0+i1) = [1,1] . [2,3]
    assert training.predict([0], [0], *stack.summed()).values[0] == 5.0


# ---------------------------------------------------------------------------
# losses


def test_bpr_zero_diff():
    out = training.bpr_loss(ad.constant([1.0]), ad.constant([1.0]))
    assert abs(out.values - math.log(2.0)) < 1e-9


def test_bpr_unit_diff_oracle():
    out = training.bpr_loss(ad.constant([1.0]), ad.constant([0.0]))
    assert abs(out.values - 0.31326168752) < 1e-9


def test_bpr_monotone_to_zero():
    diffs = [0.0, 1.0, 5.0, 20.0, 100.0]
    losses = [
        training.bpr_loss(ad.constant([d]), ad.constant([0.0])).values for d in diffs
    ]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-9


def test_total_loss_reduces_to_bpr():
    p = training.ModelParameters.initialize(2, 3, 1, small_cfg(), np.random.default_rng(0))
    bpr = ad.constant(0.42)
    total, _ = training.total_loss(bpr, None, p, alpha=0.0, l2_weight=0.0)
    assert total.values == 0.42


def test_total_loss_l2_oracle():
    cfg = small_cfg()
    p = training.ModelParameters.initialize(2, 3, 1, cfg, np.random.default_rng(0))
    # overwrite the whole set with zeros except one [3, 4] row
    for _, t in p.named():
        t.values[...] = 0.0
    p.relation_emb.values[0, :2] = [3.0, 4.0]
    total, reg = training.total_loss(ad.constant(0.0), None, p, alpha=0.0, l2_weight=1.0)
    assert abs(total.values - 25.0) < 1e-12
    assert abs(reg.values - 25.0) < 1e-12


# ---------------------------------------------------------------------------
# adam


def _adam(lr, **arrays):
    """Adam over a store of one view per keyword, in keyword order."""
    store, views = training._row_views(list(arrays.values()))
    return training.Adam(store, zip(arrays, views), lr=lr), views


def test_adam_zero_gradient_keeps_parameter():
    opt, (p,) = _adam(0.1, p=np.array([[1.0, -2.0]]))
    opt.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.values, [[1.0, -2.0]])


def test_adam_first_step_magnitude_is_lr():
    for g in (0.5, -3.0, 1e-4):
        opt, (p,) = _adam(0.01, p=np.array([[0.0]]))
        p.grad[...] = g
        opt.step()
        # bias-corrected first step: lr * g / (|g| + eps)
        expected = -0.01 * g / (abs(g) + 1e-8)
        assert abs(p.values[0, 0] - expected) < 1e-12


def test_adam_bitwise_determinism_over_steps():
    def run():
        rng = np.random.default_rng(3)
        opt, (p, q) = _adam(0.05, p=rng.normal(size=(4, 2)), q=rng.normal(size=(1, 2)))
        for step in range(5):
            opt.zero_grad()
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.mul(ad.softplus(p), p)) + ad.sum_all(ad.mul(q, q))
            tape.backward(loss)
            opt.step()
        return opt.store.values.copy()

    assert run().tobytes() == run().tobytes()


def test_adam_rejects_nan_gradient_naming_parameter():
    opt, (p,) = _adam(0.1, theta=np.array([[1.0]]))
    p.grad[...] = np.nan
    with pytest.raises(TrainingDiverged, match="theta"):
        opt.step()


def test_adam_checks_every_gradient_before_updating_any():
    # a NaN in the second tensor once left the first already stepped and t at 1
    opt, (a, b) = _adam(0.1, a=np.array([[1.0]]), b=np.array([[2.0]]))
    a.grad[...] = 1.0
    b.grad[...] = np.nan
    with pytest.raises(TrainingDiverged, match="'b'"):
        opt.step()
    assert a.values[0, 0] == 1.0 and b.values[0, 0] == 2.0 and opt.t == 0
    assert not opt.m.any() and not opt.v.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_adam_rejects_an_update_that_overflows_before_updating_any():
    # lr 1e300 on a gradient of 1e200 once wrote NaN into the parameter:
    # lr * m_hat and v_hat both overflow. fit ended with finite losses and a
    # NaN parameter when it was the last step.
    opt, (a, b, c) = _adam(1e300, a=np.array([[1.0]]), b=np.array([[2.0], [3.0]]),
                           c=np.array([[4.0]]))
    b.grad[1] = 1e200
    with pytest.raises(TrainingDiverged, match="non-finite update in parameter 'b'"):
        opt.step()
    assert (a.values[0, 0], c.values[0, 0]) == (1.0, 4.0) and opt.t == 0
    np.testing.assert_array_equal(b.values, [[2.0], [3.0]])
    assert not opt.m.any() and not opt.v.any()


def _assert_views_of_store(params):
    store = params.store
    assert store.values.flags.c_contiguous and store.values.ndim == 2
    rows = 0
    for name, p in params.named():
        assert np.shares_memory(p.values, store.values), name
        assert np.shares_memory(p.grad, store.grad), name
        rows += p.values.shape[0]
    assert rows == store.values.shape[0]


@pytest.mark.parametrize("depth, shared", [(0, False), (1, False), (3, False), (3, True)])
def test_every_parameter_is_a_row_view_of_the_store(tiny_dataset, tmp_path, depth, shared):
    cfg = small_cfg(depth=depth, share_transformer_weights=shared)
    params, view, batch = _step_inputs(tiny_dataset, cfg)
    _assert_views_of_store(params)
    # named() order is the store's row order
    np.testing.assert_array_equal(
        np.concatenate([p.values for _, p in params.named()]), params.store.values)
    opt = training.Adam(params.store, params.named(), lr=cfg.lr)
    opt.zero_grad()
    with ad.Tape() as tape:
        loss, _ = training.training_step_loss(params, tiny_dataset, view, cfg, batch)
    tape.backward(loss)
    before = params.copy_values()
    opt.step()
    _assert_views_of_store(params)
    # one step moves every parameter, and Adam holds two arrays at any depth
    after = params.copy_values()
    assert all(not np.array_equal(before[k], after[k]) for k in before)
    assert opt.m.shape == opt.v.shape == params.store.values.shape
    path = tmp_path / "model.bin"
    training.save_checkpoint(path, before)
    params.load_values(training.load_checkpoint(path))
    _assert_views_of_store(params)
    assert all(np.array_equal(before[k], v) for k, v in params.copy_values().items())


def test_gradient_check_keeps_every_parameter_a_view(monkeypatch):
    from kgtn import gradcheck

    made, toy_problem = [], gradcheck.toy_problem

    def recording(**kw):
        made.append(toy_problem(**kw))
        return made[-1]

    monkeypatch.setattr(gradcheck, "toy_problem", recording)
    assert gradcheck.full_model_check().ok
    _assert_views_of_store(made[0][0])


# ---------------------------------------------------------------------------
# fit


def test_fit_zero_epochs_returns_init_and_empty_log(tiny_dataset):
    cfg = small_cfg(epochs=0)
    result = training.fit(cfg, tiny_dataset)
    assert result.log == []
    fresh = training.ModelParameters.initialize(
        tiny_dataset.n_users, tiny_dataset.n_entities, tiny_dataset.n_relations,
        cfg, np.random.default_rng(cfg.seed),
    )
    for (_, a), (_, b) in zip(result.params.named(), fresh.named()):
        np.testing.assert_array_equal(a.values, b.values)


def test_fit_loss_decreases_over_first_five_epochs():
    # full-batch steps on the intact KG: the only epoch-to-epoch noise left
    # is ranking-negative resampling
    ds = synthetic_dataset(12, 10, 16, 2, density=0.4, seed=11, ratios=(1.0, 0.0, 0.0))
    cfg = small_cfg(epochs=5, lr=3e-3, batch_size=1024, seed=11, k_top=None)
    result = training.fit(cfg, ds)
    totals = [
        row["loss_bpr"] + cfg.alpha * row["loss_cl"] + cfg.l2 * row["loss_reg"]
        for row in result.log
    ]
    assert len(totals) == 5
    assert all(a > b for a, b in zip(totals, totals[1:])), totals


def test_fit_metric_log_reproducible(tiny_dataset):
    cfg = small_cfg(epochs=3)
    log1 = training.fit(cfg, tiny_dataset).log
    log2 = training.fit(cfg, tiny_dataset).log
    assert log1 == log2


def _step_inputs(dataset, cfg):
    """Fresh parameters, the full KG view and one batch of every train positive."""
    view = denoise.full_view(dataset.kg)
    rng = np.random.default_rng(0)
    batch = training.build_bpr_triples(dataset.train_graph, dataset.split.train[:, :2], rng)
    params = training.ModelParameters.initialize(
        dataset.n_users, dataset.n_entities, dataset.n_relations,
        cfg, np.random.default_rng(cfg.seed),
    )
    return params, view, batch


@pytest.mark.parametrize("n_relations", [0, 2])
def test_one_step_on_a_kg_without_triples(tiny_dataset, n_relations):
    # kg_pool and gated_sum pass every head through on a KG without triples,
    # so kg_aggregate and light_aggregate call them there as everywhere else
    kg = data.KnowledgeGraph(np.zeros((0, 3), dtype=np.int64),
                             n_entities=tiny_dataset.n_entities, n_relations=n_relations)
    ds = data.Dataset(tiny_dataset.n_users, tiny_dataset.n_items, kg, tiny_dataset.split)
    cfg = small_cfg(epochs=1, l2=0.0, agg_depth=2)
    params, view, batch = _step_inputs(ds, cfg)
    with ad.Tape() as tape:
        loss, _ = training.training_step_loss(params, ds, view, cfg, batch)
    tape.backward(loss)
    assert np.isfinite(loss.values)
    counts = tape.op_counts()
    assert (counts["kg_pool"], counts["gated_sum"]) == (cfg.depth, 2 * cfg.agg_depth)
    assert not params.relation_emb.grad.any()
    entity, relation = params.entity_emb.values, params.relation_emb.values
    assert intents.kg_aggregate(entity, relation, view.edges).values.tobytes() == entity.tobytes()
    assert np.isfinite(training.fit(cfg, ds).log[0]["loss_bpr"])


def test_fit_alpha_zero_skips_contrastive_ops(tiny_dataset):
    cfg_on = small_cfg(epochs=1)
    cfg_off = small_cfg(epochs=1, alpha=0.0)

    def counts(cfg):
        params, view, batch = _step_inputs(tiny_dataset, cfg)
        with ad.Tape() as tape:
            training.training_step_loss(params, tiny_dataset, view, cfg, batch)
        return tape.op_counts()

    on, off = counts(cfg_on), counts(cfg_off)
    # infonce appears only inside the contrastive objective
    assert off.get("infonce", 0) == 0
    assert on.get("infonce", 0) > 0
    assert sum(off.values()) < sum(on.values())


def _step_tape(dataset, cfg):
    params, view, batch = _step_inputs(dataset, cfg)
    with ad.Tape() as tape:
        loss, _ = training.training_step_loss(params, dataset, view, cfg, batch)
    return tape, loss


def test_step_node_count_independent_of_head_count(tiny_dataset):
    one, _ = _step_tape(tiny_dataset, small_cfg(n_heads=1))
    four, _ = _step_tape(tiny_dataset, small_cfg(n_heads=4))
    assert one.op_counts() == four.op_counts()


def test_step_records_every_public_op_and_no_other(tiny_dataset):
    cfg = small_cfg()
    assert cfg.alpha > 0
    public = {name for name, f in vars(ad).items()
              if inspect.isfunction(f) and f.__module__ == ad.__name__
              and not name.startswith("_")} - {"constant", "parameter"}
    tape, _ = _step_tape(tiny_dataset, cfg)
    assert set(tape.op_counts()) == public


@pytest.mark.parametrize("depth, agg_depth", [(1, 1), (1, 2), (2, 1)])
def test_each_aggregation_is_one_node(tiny_dataset, depth, agg_depth):
    counts = _step_tape(tiny_dataset, small_cfg(depth=depth, agg_depth=agg_depth))[0].op_counts()
    # per layer: one node per attention direction and one for the KG pool
    assert counts["edge_attention"] == 2 * depth
    assert counts["kg_pool"] == depth
    # per light layer and track: the entity pool (a gated sum) and the user pool
    assert counts["gated_sum"] == 2 * agg_depth
    assert counts["spmm"] == 2 * agg_depth
    assert not {"segment_sum_rows", "segment_softmax", "scale_rows"} & set(counts)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_step_restacks_no_projection(tiny_dataset, depth):
    # the projections are stored stacked: the only transposes are the two
    # prototype transposes of the intent readout, and the only concats join
    # the items to the other entities (after each layer but the first, and
    # at the readout); the L2 term reads the parameter store as is
    counts = _step_tape(tiny_dataset, small_cfg(depth=depth))[0].op_counts()
    assert tiny_dataset.n_entities > tiny_dataset.n_items
    assert counts["transpose"] == 2
    assert counts["concat"] == depth


def test_light_user_step_gathers_no_interaction_edges(tiny_dataset, monkeypatch):
    cfg = small_cfg(agg_depth=2)
    params, view, _ = _step_inputs(tiny_dataset, cfg)
    graph = tiny_dataset.train_graph
    gathers, slices = [], []
    gather, slice_rows = ad.gather_rows, ad.slice_rows

    def spy_gather(table, index):
        gathers.append(np.asarray(index))
        return gather(table, index)

    def spy_slice(table, start, stop):
        slices.append((start, stop))
        return slice_rows(table, start, stop)

    monkeypatch.setattr(ad, "gather_rows", spy_gather)
    monkeypatch.setattr(ad, "slice_rows", spy_slice)
    with ad.Tape() as tape:
        stack = denoise.light_aggregate(params.user_emb, params.entity_emb, params.relation_emb,
                                        view.edges, graph, cfg.agg_depth)
    # only the item prefix of every layer is sliced off: the kept slots' rows
    # live inside the gated sums, and no gather runs over the user-item edges
    assert gathers == []
    assert slices == [(0, graph.n_items)] * (cfg.agg_depth + 1)
    counts = tape.op_counts()
    assert counts["spmm"] == counts["gated_sum"] == cfg.agg_depth
    assert len(stack.users) == cfg.agg_depth + 1


def test_step_tape_holds_no_edge_block(tiny_dataset):
    # Every edge computation keeps only per-edge weights: no recorded output
    # has one row per interaction or per KG slot and d columns.
    cfg = small_cfg(depth=2, agg_depth=2, k_top=1)
    params, _, batch = _step_inputs(tiny_dataset, cfg)
    view = denoise.sample_topk(tiny_dataset.kg, params.entity_emb.values,
                               params.relation_emb.values, cfg.k_top, np.random.default_rng(0))
    batch = batch[:batch.shape[0] // 2]
    edge_rows = {tiny_dataset.train_graph.n_interactions, tiny_dataset.kg.n_triples,
                 view.edges.n_edges}
    node_rows = {tiny_dataset.n_users, tiny_dataset.n_items, tiny_dataset.n_entities,
                 tiny_dataset.n_relations, batch.shape[0], cfg.embed_dim, 1}
    assert len(edge_rows) == 3 and not edge_rows & node_rows  # the shapes tell them apart
    with ad.Tape() as tape:
        training.training_step_loss(params, tiny_dataset, view, cfg, batch)
    shapes = [(name, out.values.shape) for name, out, _ in tape._nodes]
    assert len(shapes) > 50
    assert [(name, shape) for name, shape in shapes
            if len(shape) == 2 and shape[0] in edge_rows and shape[1] == cfg.embed_dim] == []


def test_every_step_node_receives_a_gradient(tiny_dataset, monkeypatch):
    reached = []
    record = ad._record

    def counting_record(name, out, backward_fn):
        def backward(g):
            reached.append(name)
            backward_fn(g)

        record(name, out, backward)

    monkeypatch.setattr(ad, "_record", counting_record)
    tape, loss = _step_tape(tiny_dataset, small_cfg(depth=2, agg_depth=2))
    tape.backward(loss)
    missing = dict(tape.op_counts())
    for name in reached:
        missing[name] -= 1
    assert {k: v for k, v in missing.items() if v} == {}


def test_fit_builds_each_view_operator_once_per_epoch(tiny_dataset, monkeypatch):
    ds = tiny_dataset.with_split(tiny_dataset.split)
    views, built = [], []
    sample, build = denoise.sample_topk, data.block_operator

    def record_view(*args):
        views.append(sample(*args))
        return views[-1]

    def record_build(offsets, weights):
        built.append(offsets)
        return build(offsets, weights)

    monkeypatch.setattr(denoise, "sample_topk", record_view)
    monkeypatch.setattr(data, "block_operator", record_build)
    cfg = small_cfg(epochs=2)
    assert cfg.alpha > 0
    training.fit(cfg, ds)
    assert len(views) == 2
    for view in views:
        assert sum(offsets is view.edges.offsets for offsets in built) == 1
    # the full KG's operator and both attention operators at most once per fit
    graph = ds.train_graph
    for offsets in (ds.kg.full_edges().offsets, graph.u_offsets, graph.i_offsets):
        assert sum(o is offsets for o in built) <= 1


@pytest.mark.parametrize("k_top", [None, 1])
def test_fit_builds_no_sparse_matrix_after_the_first_step_of_an_epoch(tiny_dataset, monkeypatch,
                                                                      k_top):
    # Every operator, transpose and scatter is a fact of the graph or the
    # view that owns it. A fresh graph builds them in its first step, a
    # pruned view in the first step of its epoch; later steps build none.
    ds = tiny_dataset.with_split(tiny_dataset.split)
    events = []

    def mark(owner, name, event):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            events.append(event)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for cls in (sparse.csr_array, sparse.csc_array, sparse.coo_array,
                sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix):
        mark(cls, "__init__", "build")
    mark(data, "block_operator", "build")
    mark(training, "build_bpr_triples", "epoch")
    mark(training, "training_step_loss", "step")
    mark(training, "representations", "eval")
    cfg = small_cfg(epochs=2, batch_size=8, k_top=k_top)
    training.fit(cfg, ds)

    windows = []  # [marker, builds until the next marker]
    for event in events:
        if event == "build":
            if windows:
                windows[-1][1] += 1
        else:
            windows.append([event, 0])
    steps = [(prev[0], builds) for prev, (event, builds) in zip(windows, windows[1:])
             if event == "step"]
    assert sum(prev == "epoch" for prev, _ in steps) == cfg.epochs
    assert sum(prev == "step" for prev, _ in steps) >= cfg.epochs
    assert steps[0][1] > 0  # the first step does build: the counting works
    assert [builds for prev, builds in steps if prev == "step"] == \
        [0] * sum(prev == "step" for prev, _ in steps)


def test_fit_scores_slots_only_when_topk_prunes(tiny_dataset, monkeypatch):
    calls = {"global_state": 0, "training_step_loss": 0, "representations": 0}
    for name in calls:
        original = getattr(training, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(training, name, counted)
    logs = {}
    for k_top in (None, 2):
        for key in calls:
            calls[key] = 0
        cfg = small_cfg(epochs=2, k_top=k_top)
        logs[k_top] = training.fit(cfg, tiny_dataset).log
        prunes = not denoise.keeps_every_slot(tiny_dataset.kg, k_top)
        assert prunes is (k_top == 2)
        # one global forward per step and per evaluation, plus one per epoch
        # for the sampler's scores only where top-k drops a slot
        assert calls["global_state"] == (calls["training_step_loss"] + calls["representations"]
                                         + (cfg.epochs if prunes else 0))
    # a top-k as wide as the widest head draws nothing: the same log as no cut
    widest = int(tiny_dataset.kg.full_edges().counts.max())
    assert logs[None] == training.fit(small_cfg(epochs=2, k_top=widest), tiny_dataset).log


def test_representations_bitwise_equal_across_calls(tiny_dataset):
    cfg = small_cfg()
    params = training.ModelParameters.initialize(
        tiny_dataset.n_users, tiny_dataset.n_entities, tiny_dataset.n_relations,
        cfg, np.random.default_rng(cfg.seed),
    )
    first = training.representations(params, tiny_dataset, cfg)
    second = training.representations(params, tiny_dataset, cfg)
    # a fresh graph builds its operators anew and must agree to the bit
    fresh = training.representations(params, tiny_dataset.with_split(tiny_dataset.split), cfg)
    for a, b, c in zip(first, second, fresh):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


def test_infonce_standard_includes_positive_in_denominator(tiny_dataset):
    cfg_default = small_cfg(epochs=1)
    cfg_standard = small_cfg(epochs=1, infonce_standard=True)
    params, view, batch = _step_inputs(tiny_dataset, cfg_default)
    _, default = training.training_step_loss(params, tiny_dataset, view, cfg_default, batch)
    _, standard = training.training_step_loss(params, tiny_dataset, view, cfg_standard, batch)
    global_track, local_track = training.compute_tracks(
        params, tiny_dataset, view, cfg_standard, with_local=True
    )
    bu, bi = np.unique(batch[:, 0]), np.unique(batch[:, 1])
    expected = denoise.contrastive_loss(
        global_track.gather(bu, bi), local_track.gather(bu, bi), cfg_standard.tau,
        include_positive=True,
    )
    assert standard["cl"] == float(expected.values)
    assert standard["cl"] != default["cl"]
    assert standard["bpr"] == default["bpr"] and standard["reg"] == default["reg"]


def _tensors_with_grad():
    return {id(o): o for o in gc.get_objects()
            if isinstance(o, ad.Tensor) and o.grad is not None}


def test_backward_leaves_grads_only_on_parameters(tiny_dataset):
    cfg = small_cfg(epochs=1)
    params, view, batch = _step_inputs(tiny_dataset, cfg)
    before = _tensors_with_grad()  # kept alive, so no id is reused
    with ad.Tape() as tape:
        loss, _ = training.training_step_loss(params, tiny_dataset, view, cfg, batch)
    tape.backward(loss)
    # every node's closure still holds its output, yet no output keeps a grad
    recorded = [o for o in gc.get_objects() if isinstance(o, ad.Tensor) and o.requires_grad]
    leaves = {id(p): name for name, p in params.named()}
    assert len(recorded) >= len(tape) + len(leaves)
    held = {k for k in _tensors_with_grad() if k not in before or k in leaves}
    assert held == set(leaves)
    assert len(tape) > 0 and loss.grad is None


def _live_arrays():
    """Every ndarray that a GC-tracked object refers to, and the arrays they view."""
    found = {}
    for obj in gc.get_objects():
        for ref in gc.get_referents(obj):
            while isinstance(ref, np.ndarray) and id(ref) not in found:
                found[id(ref)] = ref
                ref = ref.base
    return found


def test_recorded_step_holds_no_batch_square_block(tiny_dataset):
    cfg = small_cfg(epochs=1)
    params, view, batch = _step_inputs(tiny_dataset, cfg)
    b = min(np.unique(batch[:, 0]).size, np.unique(batch[:, 1]).size)
    assert b > cfg.embed_dim  # no (rows, d) array passes for a block
    before = _live_arrays()  # kept alive, so no id is reused

    def blocks():
        return [a.shape for k, a in _live_arrays().items()
                if k not in before and a.ndim == 2 and min(a.shape) >= b]

    with ad.Tape() as tape:
        loss, _ = training.training_step_loss(params, tiny_dataset, view, cfg, batch)
    # the InfoNCE similarity blocks live only while their node is recorded
    assert blocks() == []
    tape.backward(loss)
    assert blocks() == []


def test_epoch_batches_each_have_two_users_and_items():
    # 10 rows per user and 6 per item, so only a short last batch can repeat
    # one user or item; the contrastive term needs 2 distinct of each, so
    # such a tail joins the batch before it
    users = np.arange(30) % 3
    triples = np.column_stack([users, np.arange(30) % 5, np.zeros(30, dtype=np.int64)])
    for seed in range(20):
        for batch_size in (13, 14, 28):
            batches = training._epoch_batches(triples, batch_size, np.random.default_rng(seed))
            for b in batches:
                assert np.unique(b[:, 0]).size >= 2 and np.unique(b[:, 1]).size >= 2
            joined = np.concatenate(batches)
            assert sorted(map(tuple, joined)) == sorted(map(tuple, triples))


def test_epoch_batches_merge_every_degenerate_batch():
    # at 2 or 3 rows a batch often repeats its user or its item: each such
    # batch joins the one after it, a degenerate rest the one before it, and
    # the batches stay contiguous pieces of the one shuffle
    triples = np.column_stack([np.arange(24) % 3, np.arange(24) % 4, np.arange(24)])
    for seed in range(20):
        for batch_size in (2, 3):
            batches = training._epoch_batches(triples, batch_size, np.random.default_rng(seed))
            assert len(batches) > 1
            for b in batches:
                assert np.unique(b[:, 0]).size >= 2 and np.unique(b[:, 1]).size >= 2
            np.testing.assert_array_equal(
                np.concatenate(batches), triples[np.random.default_rng(seed).permutation(24)])


def test_epoch_batches_that_qualify_are_plain_slices():
    triples = np.column_stack([np.arange(30) % 3, np.arange(30) % 5, np.arange(30)])
    qualified = 0
    for seed in range(20):
        shuffled = triples[np.random.default_rng(seed).permutation(30)]
        plain = [shuffled[k:k + 7] for k in range(0, 30, 7)]
        if all(np.unique(b[:, 0]).size > 1 and np.unique(b[:, 1]).size > 1 for b in plain):
            qualified += 1
            batches = training._epoch_batches(triples, 7, np.random.default_rng(seed))
            assert len(batches) == len(plain)
            for got, want in zip(batches, plain):
                np.testing.assert_array_equal(got, want)
    assert qualified > 10


def test_fit_at_batch_size_two():
    # every batch of 2 rows that repeats a user or an item once made fit
    # raise ContractError in the contrastive term
    ds = synthetic_dataset(40, 30, 50, 3)
    result = training.fit(small_cfg(batch_size=2, epochs=2), ds)
    assert len(result.log) == 2
    assert all(math.isfinite(row[k]) for row in result.log
               for k in ("loss_bpr", "loss_cl", "loss_reg"))


def test_fit_divergence_aborts_with_last_good(tiny_dataset, monkeypatch):
    real = training.training_step_loss
    calls = {"n": 0}

    def wrecked(*args, **kwargs):
        calls["n"] += 1
        total, parts = real(*args, **kwargs)
        if calls["n"] >= 3:
            return ad.constant(float("nan")), parts
        return total, parts

    monkeypatch.setattr(training, "training_step_loss", wrecked)
    cfg = small_cfg(epochs=10, batch_size=1024)
    with pytest.raises(TrainingDiverged, match="non-finite loss") as err:
        training.fit(cfg, tiny_dataset)
    assert err.value.last_good is not None
    assert "user_emb" in err.value.last_good


@pytest.fixture(scope="module")
def toy_dataset():
    """The criterion-4 capacity data: 40 users, 30 items, 50 entities."""
    return synthetic_dataset(40, 30, 50, 3, density=0.5, seed=7, ratios=(1.0, 0.0, 0.0))


@given(st.floats(min_value=1e-4, max_value=10.0))
@example(1e-2)
@example(1e-3)
@example(1e-4)
@settings(max_examples=6, deadline=None)
def test_every_valid_tau_trains_finitely(toy_dataset, tau):
    # Temperatures this small once overflowed the unshifted exp of the
    # InfoNCE logits or cancelled its subtracted denominator to zero.
    ds = toy_dataset
    cfg = ExperimentConfig(epochs=3, seed=7, lr=3e-3, batch_size=32, tau=tau).validate()
    params = training.ModelParameters.initialize(
        ds.n_users, ds.n_entities, ds.n_relations, cfg, np.random.default_rng(cfg.seed))
    rng = np.random.default_rng(0)
    triples = training.build_bpr_triples(ds.train_graph, ds.split.train[:, :2], rng)
    batch = training._epoch_batches(triples, cfg.batch_size, rng)[0]
    with ad.Tape() as tape:
        loss, parts = training.training_step_loss(params, ds, denoise.full_view(ds.kg), cfg,
                                                  batch)
    tape.backward(loss)
    assert np.isfinite(loss.values) and np.isfinite(parts["cl"])
    for name, p in params.named():
        assert np.all(np.isfinite(p.grad)), name
    result = training.fit(cfg, ds)
    assert all(math.isfinite(row[k]) for row in result.log
               for k in ("loss_bpr", "loss_cl", "loss_reg"))
    assert all(np.all(np.isfinite(p.values)) for _, p in result.params.named())


_RATIO = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _valid_configs(draw):
    """A small config that `validate()` accepts; floats span their valid
    range and the split may be degenerate."""
    d = draw(st.sampled_from([4, 8]))
    low, high = sorted(draw(st.tuples(_RATIO, _RATIO)))
    return ExperimentConfig(
        embed_dim=d,
        n_heads=draw(st.sampled_from([h for h in (1, 2, 4, 8) if d % h == 0])),
        n_intents=draw(st.integers(1, 4)),
        depth=draw(st.integers(0, 2)),
        agg_depth=draw(st.integers(0, 2)),
        k_top=draw(st.one_of(st.none(), st.integers(1, 4))),
        tau=draw(st.floats(1e-300, 1e300)),
        share_transformer_weights=draw(st.booleans()),
        infonce_standard=draw(st.booleans()),
        alpha=draw(st.floats(0.0, 1e300)),
        l2=draw(st.floats(0.0, 1e300)),
        lr=draw(st.floats(1e-300, 1e300)),
        batch_size=draw(st.integers(2, 80)),
        epochs=draw(st.integers(0, 2)),
        patience=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2 ** 32)),
        noise_ratio=draw(st.floats(0.0, 0.5)),
        train_ratio=low,
        eval_ratio=high - low,
        test_ratio=1.0 - high,
        recall_ks=tuple(draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))),
    ).validate()


@given(cfg=_valid_configs(), data_seed=st.integers(0, 2 ** 16))
@example(  # a finite gradient once stepped a parameter to NaN in the last step
    cfg=ExperimentConfig(embed_dim=4, n_intents=1, depth=0, agg_depth=0, n_heads=1, k_top=None,
                         tau=1.3162013174534953e-74, alpha=1.0, l2=0.0, lr=5.356293054680316e234,
                         batch_size=3, epochs=1, seed=0, train_ratio=0.0, eval_ratio=0.0,
                         test_ratio=1.0, recall_ks=(1,)),
    data_seed=0,
)
@settings(max_examples=30, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_every_valid_config_trains_or_fails_by_name(cfg, data_seed):
    # the data a run of this config trains on: its split and injected noise
    raw = data.generate_synthetic(12, 16, 22, 2, seed=data_seed)
    ds = data.build_dataset(raw.interactions(), raw.knowledge_graph(), cfg.split_ratios, cfg.seed)
    try:
        if cfg.noise_ratio > 0:
            ds = data.inject_noise(ds, cfg.noise_ratio, seed=cfg.seed + 1)
        result = training.fit(cfg, ds)
    except KgtnError:
        return
    assert all(math.isfinite(row[k]) for row in result.log
               for k in ("loss_bpr", "loss_cl", "loss_reg"))
    assert all(np.all(np.isfinite(p.values)) for _, p in result.params.named())


def test_fit_prototype_symmetry_breaks_after_one_step():
    ds = synthetic_dataset(12, 10, 16, 2, density=0.4, seed=3, ratios=(1.0, 0.0, 0.0))
    cfg = small_cfg(epochs=1, n_intents=4, seed=3)
    result = training.fit(cfg, ds)
    from kgtn.intents import intent_assignment

    weights = intent_assignment(result.params.user_emb, result.params.intent_user).values
    assert np.abs(weights - 1.0 / cfg.n_intents).max() > 1e-6


def test_fit_monotone_regularization():
    ds = synthetic_dataset(10, 8, 12, 2, density=0.4, seed=11, ratios=(1.0, 0.0, 0.0))
    norms = {}
    for l2 in (1e-5, 1e-3):
        cfg = small_cfg(epochs=40, l2=l2, lr=3e-3, batch_size=32, seed=11)
        result = training.fit(cfg, ds)
        norms[l2] = math.sqrt(sum(
            float((t.values ** 2).sum()) for _, t in result.params.named()
        ))
    assert norms[1e-3] <= norms[1e-5]


def test_fit_early_stopping(tiny_dataset):
    cfg = small_cfg(epochs=60, patience=2, lr=1e-5)
    result = training.fit(cfg, tiny_dataset)
    assert result.stopped_early
    assert len(result.log) < 60


# ---------------------------------------------------------------------------
# checkpoints and logs


def test_checkpoint_round_trip(tmp_path):
    cfg = small_cfg()
    p = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(1))
    path = tmp_path / "model.bin"
    training.save_checkpoint(path, p.copy_values())
    blob = training.load_checkpoint(path)
    q = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(9))
    q.load_values(blob)
    for (_, a), (_, b) in zip(p.named(), q.named()):
        np.testing.assert_array_equal(a.values, b.values)


def test_checkpoint_bytes_of_a_seeded_initialization_are_pinned(tmp_path):
    # digests taken while each head's projections were stored as their own
    # (d/H, d) tensors: the stacked store writes the same bytes
    digests = {}
    for kw in (dict(depth=2, n_heads=2),
               dict(depth=2, n_heads=4, share_transformer_weights=True),
               dict(depth=0, n_heads=1)):
        cfg = ExperimentConfig(embed_dim=8, n_intents=2, agg_depth=1, seed=5, **kw).validate()
        p = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(11))
        path = tmp_path / "model.bin"
        training.save_checkpoint(path, p.copy_values())
        digests[kw["n_heads"]] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {
        2: "bea720d87f9c9a7f9bc8f81b3ddc497e32bb1f561e659d0aecf5d94b8c07347f",
        4: "12fa6353f50c86757c8e6e7f267705e5863c8124170df1436f8d7884807c5012",
        1: "26b10ad6e6d0e3060268d4a19e30083d7bc32a369a54afdf2c7d9e908638810f",
    }


@pytest.mark.parametrize("saved, loaded", [
    (dict(depth=2), dict(depth=1)),
    (dict(depth=2), dict(depth=2, share_transformer_weights=True)),
])
def test_checkpoint_entry_the_model_lacks_is_a_checkpoint_error(saved, loaded):
    # a depth-2 checkpoint once loaded into a depth-1 or a shared model,
    # dropping the second layer without a word
    blob = training.ModelParameters.initialize(
        3, 5, 2, small_cfg(**saved), np.random.default_rng(1)).copy_values()
    q = training.ModelParameters.initialize(3, 5, 2, small_cfg(**loaded), np.random.default_rng(9))
    before = q.copy_values()
    with pytest.raises(CheckpointError, match=r"lacks parameter 'transformer\.l1\.h0\.wq'"):
        q.load_values(blob)
    assert all(np.array_equal(v, q.copy_values()[k]) for k, v in before.items())


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        training.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    cfg = small_cfg()
    p = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(1))
    path = tmp_path / "model.bin"
    training.save_checkpoint(path, p.copy_values())
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CheckpointError, match="truncated"):
        training.load_checkpoint(path)


def _small_checkpoint(path):
    training.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2),
                                    "s": np.array(0.5)})
    return path.read_bytes()


def test_checkpoint_every_truncation_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "model.bin"
    raw = _small_checkpoint(path)
    assert set(training.load_checkpoint(path)) == {"w", "b", "s"}
    for cut in range(9, len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError):
            training.load_checkpoint(path)


def test_checkpoint_undecodable_name_is_a_checkpoint_error(tmp_path):
    path = tmp_path / "model.bin"
    raw = _small_checkpoint(path)
    at = raw.index(b"w")
    path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
    with pytest.raises(CheckpointError, match="name"):
        training.load_checkpoint(path)


def _declared_shape_checkpoint(shape, payload=b"\x00" * 64):
    """One parameter 'w' whose header declares `shape`, followed by `payload`."""
    return (b"KGTNCKPT" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"w"
            + struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape) + payload)


@pytest.mark.parametrize("shape", [(2**31, 2**31), (2**32 - 1,) * 3, (2**32 - 1,) * 4,
                                   (2**16,) * 4])
def test_checkpoint_huge_declared_shape_is_a_checkpoint_error(tmp_path, shape):
    # the byte count exceeds what the file holds, whether or not it fits in int64
    path = tmp_path / "model.bin"
    path.write_bytes(_declared_shape_checkpoint(shape))
    with pytest.raises(CheckpointError, match="truncated data for parameter 'w'"):
        training.load_checkpoint(path)


@pytest.mark.parametrize("shape", [(0, 2**32 - 1, 2**32 - 1), (2**32 - 1,) * 3 + (0,)])
def test_checkpoint_empty_shape_too_large_to_represent_is_a_checkpoint_error(tmp_path, shape):
    path = tmp_path / "model.bin"
    path.write_bytes(_declared_shape_checkpoint(shape, payload=b""))
    with pytest.raises(CheckpointError, match="parameter 'w'"):
        training.load_checkpoint(path)


def test_metric_log_bytes_reproducible(tmp_path, tiny_dataset):
    cfg = small_cfg(epochs=2)
    paths = []
    for name in ("a.csv", "b.csv"):
        result = training.fit(cfg, tiny_dataset)
        path = tmp_path / name
        training.write_metric_log(path, result.log)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_parameter_names_are_unique():
    cfg = small_cfg(depth=3)
    p = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(0))
    names = [name for name, _ in p.named()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("depth, share, n_layers", [(0, False, 1), (1, False, 1), (3, False, 3),
                                                    (3, True, 1)])
def test_each_layer_stores_three_stacked_projections(depth, share, n_layers):
    cfg = small_cfg(depth=depth, n_heads=4, share_transformer_weights=share)
    p = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(0))
    names = [name for name, _ in p.named()]
    assert names[5:] == [f"transformer.l{l}.{w}" for l in range(n_layers)
                         for w in ("wq", "wk", "wv")]
    for layer in p.transformer:
        assert layer.n_heads == 4
        for _, w in layer.tensors():
            assert w.values.shape == (8, 8) and w.values.flags.c_contiguous
    assert len(p.layer_list(depth)) == depth


def test_checkpoint_entry_is_a_head_column_block_transposed():
    cfg = small_cfg(depth=2, n_heads=4)
    p = training.ModelParameters.initialize(3, 5, 2, cfg, np.random.default_rng(0))
    blob = p.copy_values()
    assert len(blob) == 5 + 2 * 4 * 3
    layer = p.transformer[1]
    np.testing.assert_array_equal(blob["transformer.l1.h2.wk"], layer.wk.values[:, 4:6].T)
    assert blob["transformer.l1.h2.wk"].flags.c_contiguous
    blob["transformer.l1.h2.wk"][...] = 7.0  # a copy: the model is untouched
    assert not (layer.wk.values == 7.0).any()
    p.load_values(blob)
    assert (layer.wk.values[:, 4:6] == 7.0).all()
    assert not (np.delete(layer.wk.values, [4, 5], axis=1) == 7.0).any()


def test_shared_transformer_weights_reduce_parameter_count():
    cfg_shared = small_cfg(depth=2, share_transformer_weights=True)
    cfg_sep = small_cfg(depth=2)
    shared = training.ModelParameters.initialize(3, 5, 2, cfg_shared, np.random.default_rng(0))
    separate = training.ModelParameters.initialize(3, 5, 2, cfg_sep, np.random.default_rng(0))
    assert len(shared.named()) < len(separate.named())
    assert len(shared.layer_list(2)) == 2
    assert shared.layer_list(2)[0] is shared.layer_list(2)[1]

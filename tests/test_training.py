"""Prediction, losses, Adam, the fit loop, checkpoints, determinism."""
import gc
import math

import numpy as np
import pytest

from kgtn import autodiff as ad
from kgtn import denoise, training
from kgtn.config import ExperimentConfig
from kgtn.data import synthetic_dataset
from kgtn.errors import CheckpointError, TrainingDiverged

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
    assert training.predict([0], [0], stack).values[0] == 0.0


def test_predict_self_product():
    stack = _stack([np.array([[1.0, 1.0]])], [np.array([[1.0, 1.0]])])
    assert training.predict([0], [0], stack).values[0] == 2.0


def test_predict_single_layer_oracle():
    stack = _stack([np.array([[1.0, 2.0]])], [np.array([[3.0, 4.0]])])
    assert training.predict([0], [0], stack).values[0] == 11.0


def test_predict_sums_layers():
    u0, u1 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    i0, i1 = np.array([[2.0, 0.0]]), np.array([[0.0, 3.0]])
    stack = _stack([u0, u1], [i0, i1])
    # (u0+u1) . (i0+i1) = [1,1] . [2,3]
    assert training.predict([0], [0], stack).values[0] == 5.0


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


def test_adam_zero_gradient_keeps_parameter():
    p = ad.parameter(np.array([1.0, -2.0]))
    opt = training.Adam([("p", p)], lr=0.1)
    opt.zero_grad()
    opt.step()
    np.testing.assert_array_equal(p.values, [1.0, -2.0])


def test_adam_first_step_magnitude_is_lr():
    for g in (0.5, -3.0, 1e-4):
        p = ad.parameter(np.array([0.0]))
        opt = training.Adam([("p", p)], lr=0.01)
        p.grad[...] = g
        opt.step()
        # bias-corrected first step: lr * g / (|g| + eps)
        expected = -0.01 * g / (abs(g) + 1e-8)
        assert abs(p.values[0] - expected) < 1e-12


def test_adam_bitwise_determinism_over_steps():
    def run():
        rng = np.random.default_rng(3)
        p = ad.parameter(rng.normal(size=(4, 2)))
        opt = training.Adam([("p", p)], lr=0.05)
        for step in range(5):
            opt.zero_grad()
            with ad.Tape() as tape:
                loss = ad.sum_all(ad.mul(ad.softplus(p), p))
            tape.backward(loss)
            opt.step()
        return p.values.copy()

    assert run().tobytes() == run().tobytes()


def test_adam_rejects_nan_gradient_naming_parameter():
    p = ad.parameter(np.array([1.0]))
    opt = training.Adam([("theta", p)], lr=0.1)
    p.grad[...] = np.nan
    with pytest.raises(TrainingDiverged, match="theta"):
        opt.step()


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
    cfg = small_cfg(epochs=5, lr=3e-3, batch_size=1024, seed=11, sample_knowledge=False)
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


def test_fit_alpha_zero_skips_contrastive_ops(tiny_dataset):
    cfg_on = small_cfg(epochs=1)
    cfg_off = small_cfg(epochs=1, alpha=0.0)

    def counts(cfg):
        params, view, batch = _step_inputs(tiny_dataset, cfg)
        with ad.Tape() as tape:
            training.training_step_loss(params, tiny_dataset, view, cfg, batch)
        return tape.op_counts()

    on, off = counts(cfg_on), counts(cfg_off)
    # log appears only inside the contrastive objective
    assert off.get("log", 0) == 0
    assert on.get("log", 0) > 0
    assert sum(off.values()) < sum(on.values())


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


def test_shared_transformer_weights_reduce_parameter_count():
    cfg_shared = small_cfg(depth=2, share_transformer_weights=True)
    cfg_sep = small_cfg(depth=2)
    shared = training.ModelParameters.initialize(3, 5, 2, cfg_shared, np.random.default_rng(0))
    separate = training.ModelParameters.initialize(3, 5, 2, cfg_sep, np.random.default_rng(0))
    assert len(shared.named()) < len(separate.named())
    assert len(shared.layer_list(2)) == 2
    assert shared.layer_list(2)[0] is shared.layer_list(2)[1]

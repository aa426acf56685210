"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 8 needs the public Last.FM-derived rating/triple files and
is skipped when they are not present (point KGTN_LASTFM_DIR at them).
"""
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from recall_oracle import loop_recall_at_k, same_bits

from kgtn import autodiff as ad
from kgtn import cli, denoise, experiments, intents, metrics, training
from kgtn.config import ExperimentConfig
from kgtn.data import InteractionGraph, KnowledgeGraph, load_dataset, synthetic_dataset
from kgtn.gradcheck import full_model_check


def _report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {n} {name}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    start = time.time()
    result = full_model_check()
    elapsed = time.time() - start
    _report(
        1,
        "gradient fidelity",
        result.max_rel_err < 1e-4 and elapsed < 60.0,
        f"(max rel err {result.max_rel_err:.3e} over {result.entries_checked} entries, {elapsed:.1f}s)",
    )


def test_criterion_2_closed_form_loss_oracles():
    bpr0 = training.bpr_loss(ad.constant([1.0]), ad.constant([1.0])).values
    bpr1 = training.bpr_loss(ad.constant([1.0]), ad.constant([0.0])).values
    ok = abs(bpr0 - 0.69314718056) < 1e-9 and abs(bpr1 - 0.31326168752) < 1e-9

    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    track = denoise.LayerStack(users=[ad.constant(z)], entities=[ad.constant(z)])
    local = denoise.LayerStack(users=[ad.constant(z)], entities=[ad.constant(z)])
    loss = denoise.contrastive_loss(track, local, np.arange(2), np.arange(2), tau=1.0).values
    per_user = loss / 2.0  # user side and item side are identical here
    ok = ok and abs(per_user - (math.log(2.0) - 1.0)) < 1e-9

    ok = ok and denoise.gumbel_perturb(0.0, math.exp(-1.0)) == 0.0
    _report(2, "closed-form loss oracles", ok,
            f"(bpr {bpr0:.6f}/{bpr1:.6f}, contrastive {per_user:.6f})")


def test_criterion_3_structural_invariants():
    worst_sum_err = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=rng.integers(1, 9)) * rng.uniform(0.1, 30)
        # with e = v[None] and identity prototypes the readout is softmax(v)
        s = ad.prototype_mix(ad.constant(v[None]), np.eye(v.size)).values
        worst_sum_err = max(worst_sum_err, abs(s.sum() - 1.0))
        e = ad.constant(rng.normal(size=(int(rng.integers(1, 5)), 4)))
        c = ad.constant(rng.normal(size=(int(rng.integers(1, 6)), 4)))
        rows = intents.intent_assignment(e, c).sum(axis=1)
        worst_sum_err = max(worst_sum_err, float(np.abs(rows - 1.0).max()))
        # the KG pool's slot weights sum to 1 over every head with slots
        n_ent = int(rng.integers(1, 5))
        heads = np.repeat(np.arange(n_ent), rng.integers(0, 4, size=n_ent))
        triples = np.stack([heads, rng.integers(0, 2, size=heads.size),
                            rng.integers(0, n_ent, size=heads.size)], axis=1)
        edges = KnowledgeGraph(triples, n_entities=n_ent, n_relations=2).full_edges()
        s = ad._slot_weights(rng.normal(size=(n_ent, 4)) * rng.uniform(0.1, 3),
                             rng.normal(size=(2, 4)), edges)
        for k in range(n_ent):
            seg = s[edges.offsets[k]:edges.offsets[k + 1]]
            if seg.size:
                worst_sum_err = max(worst_sum_err, abs(seg.sum() - 1.0))
    ok = worst_sum_err < 1e-9

    # transformer mask: zero gradient onto never-interacted items
    rng = np.random.default_rng(0)
    graph = InteractionGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    params = intents.TransformerLayerParams(
        *(ad.parameter(rng.normal(size=(4, 4)) * 0.4) for _ in range(3)), n_heads=2)
    items = ad.parameter(rng.normal(size=(3, 4)))
    with ad.Tape() as tape:
        new_u, _ = intents.transformer_layer(ad.constant(rng.normal(size=(2, 4))), items, params, graph)
        loss = ad.sum_all(ad.mul(new_u, ad.constant(np.outer([1.0, 0.0], np.ones(4)))))
    tape.backward(loss)
    mask_leak = float(np.abs(items.grad[2]).max())
    ok = ok and mask_leak < 1e-12

    # top-k budget; sampling builds a view and never writes the KG
    rng = np.random.default_rng(1)
    triples = sorted({(int(rng.integers(5)), int(rng.integers(2)), int(rng.integers(8)))
                      for _ in range(20)})
    kg = KnowledgeGraph(np.array(triples), n_entities=8)
    edges = kg.full_edges()

    def snapshot():
        return (sorted(vars(kg)), kg.triples.tobytes(), edges.offsets.tobytes(),
                edges.rel.tobytes(), edges.tail.tobytes())

    before = snapshot()
    budget_ok = True
    for k in (1, 2):
        view = denoise.sample_topk(kg, rng.normal(size=(8, 4)), rng.normal(size=(2, 4)),
                                   k, np.random.default_rng(k))
        budget_ok = budget_ok and view.edges.n_edges == view.kept.sum()
        for h in range(8):
            lo, hi = edges.offsets[h], edges.offsets[h + 1]
            budget_ok = budget_ok and view.kept[lo:hi].sum() <= min(k, hi - lo)
    ok = ok and budget_ok and snapshot() == before
    _report(3, "structural invariants", ok,
            f"(worst distribution sum err {worst_sum_err:.2e}, mask leak {mask_leak:.2e})")


@pytest.fixture(scope="module")
def capacity_runs():
    """All four variants trained at the overfit operating point.

    Every positive goes to train (capacity is measured, not generalization)
    and the batch is desk-scale: 2048 would mean a single optimizer step
    per epoch on 362 positives.
    """
    ds = synthetic_dataset(40, 30, 50, 3, density=0.5, seed=7, ratios=(1.0, 0.0, 0.0))
    cfg = ExperimentConfig(epochs=200, seed=7, lr=3e-3, batch_size=32, patience=500).validate()
    aucs = {}
    timings = {}
    epochs = {}
    for variant in experiments.ABLATION_VARIANTS:
        vcfg = experiments.variant_config(cfg, variant)
        start = time.time()
        result = training.fit(vcfg, ds)
        timings[variant] = time.time() - start
        epochs[variant] = len(result.log)
        zu, zi = training.representations(result.params, ds, vcfg)
        pairs = experiments.balanced_pairs(ds, split="train", seed=123)
        aucs[variant], _ = experiments.ctr_eval(zu, zi, pairs)
    return cfg, aucs, timings, epochs


def test_criterion_4_overfit_capacity(capacity_runs):
    _, aucs, timings, epochs = capacity_runs
    auc = aucs["full"]
    _report(4, "overfit capacity", auc >= 0.95 and timings["full"] < 300.0,
            f"(train auc {auc:.4f} in {epochs['full']} epochs, {timings['full']:.0f}s)")


def test_criterion_5_metric_oracles():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 501))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        fast = metrics.auc(scores, labels)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        slow = (wins + 0.5 * ties) / (len(pos) * len(neg))
        worst = max(worst, abs(fast - slow))
    ok = worst < 1e-12

    ds = synthetic_dataset(12, 16, 22, 2, density=0.5, seed=5)
    cfg = ExperimentConfig(embed_dim=8, n_intents=2, n_heads=2, epochs=2,
                           batch_size=64, seed=5, recall_ks=(3, 8)).validate()
    result = training.fit(cfg, ds)
    zu, zi = training.representations(result.params, ds, cfg)
    got = experiments.recall_at_k(zu, zi, ds, ks=(3, 8))
    recall_ok = same_bits(got, loop_recall_at_k(zu, zi, ds, (3, 8)))

    # leakage guard: boosting a training positive cannot raise recall
    test_pos = ds.split.test[ds.split.test[:, 2] == 1]
    graph = ds.train_graph
    u = int(test_pos[0, 0])
    train_items = graph.items_of(u)
    zi_boost = zi.copy()
    zi_boost[train_items[0]] = zu[u] * 1e6
    boosted = experiments.recall_at_k(zu, zi_boost, ds, ks=(3, 8))
    leak_ok = all(boosted[k] <= got[k] + 1e-12 for k in (3, 8))
    _report(5, "metric oracles", ok and recall_ok and leak_ok,
            f"(worst auc deviation {worst:.2e})")


def test_criterion_6_ablation_harness(capacity_runs):
    ds = synthetic_dataset(40, 30, 50, 3, density=0.5, seed=7)
    cfg = ExperimentConfig(epochs=20, seed=7, lr=3e-3, batch_size=64, patience=100).validate()
    report = experiments.run_ablation(cfg, ds)
    labels_ok = [row.label for row in report.rows] == list(experiments.ABLATION_VARIANTS)
    complete = all(
        0.0 <= row.auc <= 1.0 and 0.0 <= row.f1 <= 1.0 and set(row.recall) == {10, 20}
        for row in report.rows
    )
    mapping_ok = (
        experiments.variant_config(cfg, "wo_contrast").alpha == 0.0
        and experiments.variant_config(cfg, "wo_sampling").k_top is None
        and experiments.variant_config(cfg, "wo_intents").n_intents == 1
    )
    # comparative capacity oracle: ablations never dominate by a margin
    _, aucs, _, _ = capacity_runs
    margin = min(aucs["full"] - aucs[v] for v in aucs)
    _report(6, "ablation harness",
            labels_ok and complete and mapping_ok and margin >= -0.02,
            f"(worst train-auc margin {margin:+.4f})")


def test_criterion_7_noise_protocol():
    ds = synthetic_dataset(40, 30, 50, 3, density=0.5, seed=7)
    digest_before = ds.split.eval_test_digest()
    cfg = ExperimentConfig(epochs=8, seed=7, lr=3e-3, batch_size=64, patience=100).validate()
    report = experiments.noise_robustness(cfg, ds, ratios=experiments.NOISE_RATIOS)
    table_ok = set(report.noise_drops) == {0.0, 0.05, 0.10, 0.15, 0.20}
    zero_ok = report.noise_drops[0.0] == (0.0, 0.0)
    base = next(r for r in report.rows if r.label == "noise_0")
    formula_ok = all(
        abs(report.noise_drops[ratio][0] - 100.0 * (base.auc - row.auc) / base.auc) < 1e-9
        for ratio, row in zip(experiments.NOISE_RATIOS, report.rows)
    )
    digest_ok = ds.split.eval_test_digest() == digest_before
    _report(7, "noise protocol", table_ok and zero_ok and formula_ok and digest_ok,
            f"(drops {[round(report.noise_drops[r][0], 2) for r in experiments.NOISE_RATIOS]}%)")


def test_criterion_8_lastfm_reproduction():
    data_dir = os.environ.get("KGTN_LASTFM_DIR", "")
    candidates = [data_dir] if data_dir else []
    candidates += ["data/lastfm", "tests/data/lastfm"]
    found = None
    for cand in candidates:
        if cand and Path(cand, "ratings_final.txt").exists() and Path(cand, "kg_final.txt").exists():
            found = cand
            break
    if found is None:
        print("[criterion 8] lastfm reproduction: SKIP (no ratings_final.txt/kg_final.txt; "
              "set KGTN_LASTFM_DIR)")
        pytest.skip("Last.FM files not available in this environment")
    start = time.time()
    cfg = ExperimentConfig(epochs=40, seed=7, lr=1e-3, patience=10).validate()
    ds = load_dataset(found, cfg.split_ratios, cfg.seed)
    stats_ok = (
        (ds.n_users, ds.n_items) == (1872, 3846)
        and ds.kg.n_triples == 15518
        and ds.n_entities == 9366
        and ds.n_relations == 60
    )
    result = training.fit(cfg, ds)
    row = experiments.evaluate_model(result.params, ds, cfg, label="lastfm")
    elapsed = time.time() - start
    _report(8, "lastfm reproduction", stats_ok and row.auc >= 0.84 and elapsed < 3600.0,
            f"(test auc {row.auc:.4f}, {elapsed:.0f}s)")


def test_criterion_9_determinism(tmp_path):
    raw_out = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert cli.main(["gen-synth", "--seed", "7", "--out", str(out)]) == 0
        raw_out.append((out / "ratings_final.txt").read_bytes()
                       + (out / "kg_final.txt").read_bytes())
    synth_ok = raw_out[0] == raw_out[1]

    cfgfile = tmp_path / "fast.ini"
    cfgfile.write_text(
        "[model]\nembed_dim = 8\nn_intents = 2\nn_heads = 2\nk_top = 2\n"
        "[train]\nepochs = 2\nbatch_size = 64\nseed = 5\n",
        encoding="utf-8",
    )
    logs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        code = cli.main(["train", "--config", str(cfgfile),
                         "--data-dir", str(tmp_path / "d1"), "--out", str(out)])
        assert code == 0
        logs.append((out / "metrics.csv").read_bytes())
    _report(9, "determinism", synth_ok and logs[0] == logs[1],
            "(gen-synth files and train metric logs bitwise identical)")

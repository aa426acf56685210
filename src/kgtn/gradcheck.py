"""Central-difference verification of tape gradients.

The checker is deliberately independent of the backward pass it verifies:
it re-evaluates the forward loss at perturbed parameter values and compares
(f(x+eps) - f(x-eps)) / (2 eps) against the accumulated `.grad` entries.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_param: str
    entries_checked: int
    per_param: dict = field(default_factory=dict)

    @property
    def ok(self):
        return self.max_rel_err < 1e-4


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_gradients(loss_fn, named_params, eps=1e-5):
    """Compare tape gradients of `loss_fn()` against central differences.

    `loss_fn` must rebuild the loss from the current parameter values on
    every call (it is invoked twice per parameter entry). Gradients are
    checked for every entry of every named parameter.
    """
    params = list(named_params)
    for _, p in params:
        if not isinstance(p, Tensor) or not p.requires_grad:
            raise TypeError("check_gradients expects leaf parameter tensors")
        p.zero_grad()

    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in params}

    max_err = 0.0
    worst = ""
    checked = 0
    per_param = {}
    for name, p in params:
        flat = p.values.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        param_err = 0.0
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = float(loss_fn().values)
            flat[j] = orig - eps
            down = float(loss_fn().values)
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            err = _rel_err(grad_flat[j], numeric)
            param_err = max(param_err, err)
            checked += 1
        per_param[name] = param_err
        if param_err > max_err:
            max_err = param_err
            worst = name
    return GradCheckResult(max_err, worst, checked, per_param)


def toy_problem(seed=0, embed_dim=8, n_intents=2, n_heads=2, depth=1, k_top=1):
    """Tiny 3-user/4-item/5-entity/3-relation instance with a frozen view.

    The knowledge view is sampled once and pinned so the loss is a smooth
    function of the parameters; the ranking batch covers every training
    positive with one fixed negative each.
    """
    from .config import ExperimentConfig
    from .data import build_dataset, generate_synthetic
    from .denoise import sample_topk
    from .training import ModelParameters, build_bpr_triples

    raw = generate_synthetic(3, 4, 5, 3, density=0.3, seed=seed, n_groups=1)
    dataset = build_dataset(raw.interactions(), raw.knowledge_graph(), (1.0, 0.0, 0.0), seed)
    cfg = ExperimentConfig(
        embed_dim=embed_dim, n_intents=n_intents, n_heads=n_heads,
        depth=depth, k_top=k_top, epochs=0,
    ).validate()
    rng = np.random.default_rng(seed)
    params = ModelParameters.initialize(
        dataset.n_users, dataset.n_entities, dataset.n_relations, cfg, rng
    )
    view = sample_topk(
        dataset.kg, params.entity_emb.values, params.relation_emb.values, cfg.k_top, rng
    )
    batch = build_bpr_triples(dataset.train_graph, dataset.split.train[:, :2], rng)
    return params, dataset, view, cfg, batch


def full_model_check(seed=0, eps=1e-5):
    """Finite-difference check of the complete multi-task loss."""
    from .training import training_step_loss

    params, dataset, view, cfg, batch = toy_problem(seed=seed)

    def loss_fn():
        total, _ = training_step_loss(params, dataset, view, cfg, batch)
        return total

    return check_gradients(loss_fn, params.named(), eps=eps)

"""Whole-pipeline value oracle.

Recomputes one full training-step loss with straight-line numpy loops
(dense per-node arithmetic, no autodiff, no shared helpers) and compares
it against the library's tape-built loss. Guards the wiring between
modules: which embeddings seed which track, which layer feeds which
update, and how the loss terms are assembled.
"""
import math

import numpy as np

from kgtn import denoise, training
from kgtn.config import ExperimentConfig
from kgtn.data import synthetic_dataset
from kgtn.training import build_bpr_triples


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def _mix(e, protos):
    scores = e @ protos.T
    shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = shifted / shifted.sum(axis=1, keepdims=True)
    return weights @ protos


def _kg_slots(edges):
    by_head = {}
    for k in range(edges.n_edges):
        by_head.setdefault(int(edges.head[k]), []).append(
            (int(edges.rel[k]), int(edges.tail[k]))
        )
    return by_head


def _dense_kg_aggregate(ents, rel, edges):
    out = ents.copy()
    for head, slots in _kg_slots(edges).items():
        logits = np.array([ents[head] @ ents[t] + rel[r] @ rel[r] for r, t in slots])
        w = _softmax(logits)
        acc = np.zeros_like(ents[head])
        for wk, (r, t) in zip(w, slots):
            acc += wk * rel[r] * ents[t]
        out[head] = acc / len(slots)
    return out


def _dense_transformer(users, items, layer, graph, d):
    H = layer.n_heads
    dh = d // H
    scale = 1.0 / math.sqrt(dh)
    # head h: its own column block of each stacked (d, d) projection
    heads = [tuple(w.values[:, h * dh:(h + 1) * dh] for w in (layer.wq, layer.wk, layer.wv))
             for h in range(H)]

    def one_side(src, dst, offsets, targets):
        out = src.copy()
        for node in range(src.shape[0]):
            lo, hi = offsets[node], offsets[node + 1]
            if lo == hi:
                continue
            tgt = targets[lo:hi]
            pieces = []
            for wq, wk, wv in heads:
                q = src[node] @ wq
                logits = np.array([q @ (dst[t] @ wk) for t in tgt]) * scale
                alpha = _softmax(logits)
                pieces.append(sum(a * (dst[t] @ wv) for a, t in zip(alpha, tgt)))
            out[node] = np.concatenate(pieces)
        return out

    new_u = one_side(users, items, graph.u_offsets, graph.u_items)
    new_i = one_side(items, users, graph.i_offsets, graph.i_users)
    return new_u, new_i


def _dense_light(users0, ents0, rel, view_edges, graph, depth, n_items):
    slots = _kg_slots(view_edges)
    zu = [users0.copy()]
    ze = [ents0.copy()]
    for _ in range(depth):
        prev_e, prev_u = ze[-1], zu[-1]
        nxt_e = prev_e.copy()
        for head, head_slots in slots.items():
            acc = np.zeros_like(prev_e[head])
            for r, t in head_slots:
                acc += rel[r] * prev_e[t]
            nxt_e[head] = acc / len(head_slots)
        nxt_u = prev_u.copy()
        for u in range(prev_u.shape[0]):
            lo, hi = graph.u_offsets[u], graph.u_offsets[u + 1]
            if lo == hi:
                continue
            nxt_u[u] = prev_e[:n_items][graph.u_items[lo:hi]].mean(axis=0)
        zu.append(nxt_u)
        ze.append(nxt_e)
    return zu, [z[:n_items] for z in ze]


def _dense_contrast_side(glob_layers, loc_layers, tau):
    total = 0.0
    for zg, zl in zip(glob_layers, loc_layers):
        gn = zg / np.linalg.norm(zg, axis=1, keepdims=True)
        ln = zl / np.linalg.norm(zl, axis=1, keepdims=True)
        b = gn.shape[0]
        terms = []
        for u in range(b):
            pos = math.exp(gn[u] @ ln[u] / tau)
            denom = 0.0
            for k in range(b):
                if k == u:
                    continue
                denom += math.exp(gn[u] @ gn[k] / tau)
                denom += math.exp(gn[u] @ ln[k] / tau)
            terms.append(math.log(denom) - math.log(pos))
        total += np.mean(terms)
    return total / max(1, len(glob_layers) - 1)


def test_training_step_loss_matches_dense_reimplementation():
    ds = synthetic_dataset(6, 5, 9, 2, density=0.5, seed=13, ratios=(1.0, 0.0, 0.0))
    cfg = ExperimentConfig(embed_dim=8, n_intents=3, n_heads=2, depth=1, agg_depth=2,
                           k_top=2, alpha=0.1, l2=1e-4, tau=0.5, batch_size=64,
                           seed=13).validate()
    rng = np.random.default_rng(13)
    params = training.ModelParameters.initialize(
        ds.n_users, ds.n_entities, ds.n_relations, cfg, rng
    )
    view = denoise.sample_topk(
        ds.kg, params.entity_emb.values, params.relation_emb.values, cfg.k_top, rng
    )
    batch = build_bpr_triples(ds.train_graph, ds.split.train[:, :2], rng)

    total, parts = training.training_step_loss(params, ds, view, cfg, batch)

    # --- independent dense recomputation -----------------------------------
    users0 = params.user_emb.values
    ents0 = params.entity_emb.values
    rel = params.relation_emb.values
    cu = params.intent_user.values
    cv = params.intent_item.values
    n_items = ds.n_items

    ent_agg = _dense_kg_aggregate(ents0, rel, ds.kg.full_edges())
    u1, i1 = _dense_transformer(users0, ent_agg[:n_items], params.transformer[0],
                                ds.train_graph, cfg.embed_dim)
    ia_u = _mix(u1, cu)
    ia_i = _mix(i1, cv)
    ent1 = np.vstack([i1, ent_agg[n_items:]])

    g_users, g_items = _dense_light(ia_u, np.vstack([ia_i, ent1[n_items:]]), rel,
                                    view.edges, ds.train_graph, cfg.agg_depth, n_items)
    l_users, l_items = _dense_light(users0, ents0, rel,
                                    view.edges, ds.train_graph, cfg.agg_depth, n_items)

    zu = sum(g_users)
    zi = sum(g_items)
    diffs = [
        zu[u] @ zi[i] - zu[u] @ zi[j]
        for u, i, j in batch
    ]
    bpr = float(np.mean([math.log1p(math.exp(-d)) if d > -30 else -d for d in diffs]))

    bu = np.unique(batch[:, 0])
    bi = np.unique(batch[:, 1])
    cl = _dense_contrast_side([g[bu] for g in g_users], [l[bu] for l in l_users], cfg.tau)
    cl += _dense_contrast_side([g[bi] for g in g_items], [l[bi] for l in l_items], cfg.tau)

    reg = sum(float((t.values ** 2).sum()) for _, t in params.named())
    expected = bpr + cfg.alpha * cl + cfg.l2 * reg

    assert abs(parts["bpr"] - bpr) < 1e-10, (parts["bpr"], bpr)
    assert abs(parts["cl"] - cl) < 1e-9, (parts["cl"], cl)
    assert abs(parts["reg"] - reg) < 1e-9
    assert abs(float(total.values) - expected) < 1e-9

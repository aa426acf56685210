"""Evaluation protocol: CTR metrics, top-K recall, ablations, noise runs."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import training
from .data import InteractionGraph, inject_noise, rows_with_negatives
from .errors import ContractError, DomainError
from .metrics import ctr_eval  # the one CTR path; also reachable as experiments.ctr_eval


@dataclass
class MetricRow:
    label: str
    auc: float
    f1: float
    recall: dict = field(default_factory=dict)   # K -> recall@K


@dataclass
class MetricReport:
    rows: list = field(default_factory=list)
    noise_drops: dict = field(default_factory=dict)  # ratio -> (auc %drop, f1 %drop)

    def validate(self):
        for row in self.rows:
            if not (0.0 <= row.auc <= 1.0 and 0.0 <= row.f1 <= 1.0):
                raise ContractError(f"{row.label}: metrics out of [0, 1]")
            ks = sorted(row.recall)
            values = [row.recall[k] for k in ks]
            if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
                raise ContractError(f"{row.label}: recall@K decreased in K")
        return self

    def render_table(self):
        ks = sorted({k for row in self.rows for k in row.recall})
        header = ["variant", "auc", "f1"] + [f"recall@{k}" for k in ks]
        lines = ["  ".join(f"{h:>12}" for h in header)]
        for row in self.rows:
            cells = [row.label, f"{row.auc:.4f}", f"{row.f1:.4f}"]
            cells += [f"{row.recall.get(k, float('nan')):.4f}" for k in ks]
            lines.append("  ".join(f"{c:>12}" for c in cells))
        if self.noise_drops:
            lines.append("")
            lines.append("  ".join(f"{h:>12}" for h in ("noise %", "auc drop %", "f1 drop %")))
            for ratio in sorted(self.noise_drops):
                da, df = self.noise_drops[ratio]
                lines.append("  ".join(f"{c:>12}" for c in (f"{100 * ratio:.0f}", f"{da:.2f}", f"{df:.2f}")))
        return "\n".join(lines)

    def to_csv(self):
        """One row per metric row, then one `drop_{ratio}` row per noise
        ratio holding the AUC and F1 % drops, its recall cells `nan`."""
        ks = sorted({k for row in self.rows for k in row.recall})
        out = [",".join(["label", "auc", "f1"] + [f"recall_at_{k}" for k in ks])]
        for row in self.rows:
            cells = [row.label, repr(row.auc), repr(row.f1)]
            cells += [repr(row.recall.get(k, float("nan"))) for k in ks]
            out.append(",".join(cells))
        for ratio in sorted(self.noise_drops):
            da, df = self.noise_drops[ratio]
            out.append(",".join([f"drop_{ratio:g}", repr(da), repr(df)] + ["nan"] * len(ks)))
        return "\n".join(out) + "\n"


def balanced_pairs(dataset, split="train", seed=123):
    """Positives of a split plus per-user balanced sampled negatives.

    Eval/test splits already carry frozen negatives; this helper exists for
    measuring CTR metrics on the train portion (whose ranking negatives are
    resampled every epoch and never stored). A user's negatives avoid their
    train positives and the split's, so no pair carries both labels.
    """
    pairs = getattr(dataset.split, split)
    positives = pairs[pairs[:, 2] == 1]
    graph = InteractionGraph(dataset.n_users, dataset.n_items,
                             np.concatenate([dataset.split.train[:, :2], positives[:, :2]]))
    rng = np.random.default_rng(seed)
    wanted = np.bincount(positives[:, 0], minlength=dataset.n_users)
    n_negative = np.minimum(wanted, dataset.n_items - np.diff(graph.u_offsets))
    return rows_with_negatives(graph, positives, n_negative, rng)


# Scores held at once by `recall_at_k`, summed over the blocks in flight: a
# block of test users is as many rows as fit in this many scores divided by
# the cores that rank blocks together (about 8 MiB of float64 in all).
RECALL_BLOCK_SCORES = 1 << 20


def _csr_entries(offsets, values, rows):
    """(position in `rows`, value) of every entry of the given CSR rows."""
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    ends = np.cumsum(counts)
    index = np.arange(ends[-1]) - np.repeat(ends - counts - starts, counts)
    return np.repeat(np.arange(rows.size), counts), values[index]


def _ranked_top(keys, top):
    """Columns of each row's `top` smallest keys, as `argsort(kind="stable")` orders them.

    Keys ascend, ties go to the lower column and NaN sorts after every
    number. One `argpartition` at `top` picks a candidate set: the largest
    picked key is the top-th smallest, and every key left out is at least
    the key the partition puts at position `top`. A row whose two boundary
    keys are equal (ties left outside the set), or whose largest picked key
    is NaN, gets its first `top` columns from a full stable sort instead.
    """
    if top >= keys.shape[1]:
        return np.argsort(keys, axis=1, kind="stable")
    part = np.argpartition(keys, top, axis=1)
    picked = part[:, :top]
    kth = np.take_along_axis(keys, picked, axis=1).max(axis=1)   # NaN propagates
    next_key = np.take_along_axis(keys, part[:, top:top + 1], axis=1)[:, 0]
    unsettled = np.isnan(kth) | (kth == next_key)
    if unsettled.any():
        picked[unsettled] = np.argsort(keys[unsettled], axis=1, kind="stable")[:, :top]
    picked.sort(axis=1)
    order = np.argsort(np.take_along_axis(keys, picked, axis=1), axis=1, kind="stable")
    return np.take_along_axis(picked, order, axis=1)


def recall_at_k(zu, zi, dataset, ks, split="test"):
    """Mean Recall@K over users with at least one positive in `split`.

    Candidates are every item except the user's training positives; the
    exclusion guards against leaking memorized training interactions into
    the ranking. A user's ranking is `argsort(-scores, kind="stable")` with
    the training positives scored -inf: scores descend, ties go to the lower
    item index (also at the top-K boundary), the training positives follow
    every candidate and a NaN score follows every number. Recall@K of a
    user is the share of their distinct positives in the first K ranked
    items; the mean adds users in ascending order.

    Users are ranked in blocks: one score GEMM, one train-positive scatter
    and one `argpartition` per block, and the hits are the ranked (user,
    item) keys found in the sorted keys of the distinct positives. When the
    process may use more than one core and the users span more than one
    block, the blocks are ranked on the `autodiff` worker pool, one thread
    per core, and each block shrinks by the core count, so the blocks in
    flight hold at most `RECALL_BLOCK_SCORES` scores. Each block's
    arithmetic is the same on either path and the per-user recalls are
    summed in user order, so the results are bitwise equal.
    Raises `DomainError` for any K < 1.
    """
    ks = sorted(ks)
    if ks and ks[0] < 1:
        raise DomainError(f"recall@k needs k >= 1, got {ks[0]}")
    n_items = zi.shape[0]
    pairs = getattr(dataset.split, split)
    positives = pairs[pairs[:, 2] == 1]
    positive_keys = np.unique(positives[:, 0] * n_items + positives[:, 1])   # flat (user, item)
    n_relevant = np.bincount(positive_keys // n_items)   # distinct positives per user
    users = np.flatnonzero(n_relevant)
    if users.size == 0 or not ks:
        return {k: float("nan") for k in ks}
    graph = dataset.train_graph
    top = min(ks[-1], n_items)
    at = np.minimum(ks, top) - 1   # column of recall@k in the running hit count
    block = max(1, RECALL_BLOCK_SCORES // n_items)
    lanes = ad._cores() if users.size > block else 1
    block = max(1, block // lanes)
    neg_items = -zi   # keys equal -(zu @ zi.T) exactly: negation only flips signs

    def rank(start):
        """Recall@k of the users of the block at `start`, one column per k."""
        rows = users[start:start + block]
        keys = zu[rows] @ neg_items.T
        keys[_csr_entries(graph.u_offsets, graph.u_items, rows)] = np.inf
        ranked = _ranked_top(keys, top)
        ranked += (rows * n_items)[:, None]   # flat (user, item) keys, as positive_keys
        at_key = np.searchsorted(positive_keys, ranked)
        hits = np.cumsum(positive_keys.take(at_key, mode="clip") == ranked, axis=1)
        return hits[:, at] / n_relevant[rows][:, None]

    recalls = list((ad._executor().map if lanes > 1 else map)(rank, range(0, users.size, block)))
    totals = np.cumsum(np.concatenate(recalls), axis=0)[-1]   # sequential, in user order
    return {k: float(total) / users.size for k, total in zip(ks, totals)}


def evaluate_model(params, dataset, cfg, label="model", split="test"):
    """MetricRow for a trained parameter set on one split."""
    zu, zi = training.representations(params, dataset, cfg)
    pairs = getattr(dataset.split, split)
    auc_value, f1_value = ctr_eval(zu, zi, pairs)
    recall = recall_at_k(zu, zi, dataset, cfg.recall_ks, split=split)
    return MetricRow(label=label, auc=auc_value, f1=f1_value, recall=recall)


def train_and_evaluate(cfg, dataset, label="model"):
    result = training.fit(cfg, dataset)
    row = evaluate_model(result.params, dataset, cfg, label=label)
    return result, row


# ---------------------------------------------------------------------------
# ablation harness

ABLATION_VARIANTS = ("full", "wo_sampling", "wo_contrast", "wo_intents")


def variant_config(cfg, variant):
    """Configuration mapping for one ablation variant."""
    if variant == "full":
        return replace(cfg)
    if variant == "wo_sampling":
        return replace(cfg, k_top=None)
    if variant == "wo_contrast":
        return replace(cfg, alpha=0.0)
    if variant == "wo_intents":
        return replace(cfg, n_intents=1, k_top=None, alpha=0.0)
    raise ContractError(f"unknown ablation variant '{variant}'")


def run_ablation(cfg, dataset):
    """Train all four variants under identical seeds/splits and report."""
    report = MetricReport()
    for variant in ABLATION_VARIANTS:
        vcfg = variant_config(cfg, variant)
        _, row = train_and_evaluate(vcfg, dataset, label=variant)
        report.rows.append(row)
    return report.validate()


# ---------------------------------------------------------------------------
# noise robustness protocol

NOISE_RATIOS = (0.0, 0.05, 0.10, 0.15, 0.20)


def noise_robustness(cfg, dataset, ratios=NOISE_RATIOS):
    """Contaminate training positives at each ratio and report %drops.

    Eval/test portions are untouched (their digest is asserted); the drop
    at ratio r is (m_0 - m_r) / m_0 * 100 relative to the clean run, which
    is always included.
    """
    ratios = tuple(sorted(set(ratios) | {0.0}))
    baseline_digest = dataset.split.eval_test_digest()
    report = MetricReport()
    results = {}
    for ratio in ratios:
        noisy = inject_noise(dataset, ratio, seed=cfg.seed + 1)
        if noisy.split.eval_test_digest() != baseline_digest:
            raise ContractError("noise injection altered the eval/test portions")
        _, row = train_and_evaluate(cfg, noisy, label=f"noise_{ratio:g}")
        report.rows.append(row)
        results[ratio] = row
    base = results[0.0]
    for ratio in ratios:
        row = results[ratio]
        report.noise_drops[ratio] = (
            100.0 * (base.auc - row.auc) / base.auc if base.auc else float("nan"),
            100.0 * (base.f1 - row.f1) / base.f1 if base.f1 else float("nan"),
        )
    return report.validate()


# ---------------------------------------------------------------------------
# plot-data emission


def plot_series(report, out_dir, stem):
    """Write x/y CSV series (one file per metric) for external plotting."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if report.noise_drops:
        path = out / f"{stem}_noise_drop.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("noise_ratio,auc_drop_pct,f1_drop_pct\n")
            for ratio in sorted(report.noise_drops):
                da, df = report.noise_drops[ratio]
                fh.write(f"{ratio!r},{da!r},{df!r}\n")
        written.append(path)
    if report.rows:
        path = out / f"{stem}_metrics.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,auc,f1\n")
            for row in report.rows:
                fh.write(f"{row.label},{row.auc!r},{row.f1!r}\n")
        written.append(path)
    return written

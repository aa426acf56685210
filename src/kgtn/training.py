"""Model parameters, losses, Adam, and the training loop.

One training step records the whole forward pass on a fresh tape: global
intent propagation over the intact KG, light aggregation of the global
(and, when the contrastive weight is nonzero, local) track over the
epoch's sampled view, pairwise ranking loss over the batch, the
layer-wise contrastive term, and L2 over every parameter. The ranking
head is one `ad.score` node per prediction, which reads and sums the
batch rows of the global track's layers, and one `ad.bpr` node; no
layer-summed table is recorded. The knowledge view is redrawn once per
epoch, between steps, as a `denoise.SampledGraphView`; the dataset's
knowledge graph is only read.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import denoise, intents, metrics
from .errors import CheckpointError, ContractError, TrainingDiverged


def _xavier(rng, rows, cols):
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def _row_views(arrays):
    """One leaf holding `arrays` stacked by rows, and per array a leaf whose
    `.values` and `.grad` are that row block of the store's."""
    store = ad.parameter(np.concatenate(arrays))
    bounds = np.cumsum([len(a) for a in arrays])[:-1]
    views = [ad.Tensor(rows, requires_grad=True) for rows in np.split(store.values, bounds)]
    for view, grad in zip(views, np.split(store.grad, bounds)):
        view.grad = grad
    return store, views


@dataclass
class ModelParameters:
    """The learnable set: embedding tables, prototypes, transformer projections.

    Each entry of `transformer` is one layer's query, key and value
    projection, each stored as one (d, d) matrix whose column block
    h*d/H .. (h+1)*d/H - 1 belongs to head h. A model with shared
    transformer weights stores one layer and reuses it at every depth;
    otherwise it stores max(1, depth) layers.

    Every parameter is a row block of `store`, one C-contiguous (rows, d)
    leaf in `named()` order: its `.values` and `.grad` are views of the
    store's, so Adam and the L2 term each treat the whole set as one array.

    Checkpoints keep the per-head layout: the entry
    `transformer.l{l}.h{h}.w{q,k,v}` holds head h's column block of that
    matrix, transposed to (d/H, d), so a checkpoint names its head count.
    """

    user_emb: ad.Tensor
    entity_emb: ad.Tensor
    relation_emb: ad.Tensor
    intent_user: ad.Tensor
    intent_item: ad.Tensor
    transformer: list
    store: ad.Tensor

    @classmethod
    def initialize(cls, n_users, n_entities, n_relations, cfg, rng):
        d, K, H = cfg.embed_dim, cfg.n_intents, cfg.n_heads
        if d % H != 0:
            raise ContractError(f"head count {H} must divide embedding size {d}")
        dh = d // H
        n_layer_params = 1 if cfg.share_transformer_weights else max(1, cfg.depth)
        projections = []
        for _ in range(n_layer_params):
            # per head, a (d/H, d) block for q, k, v in turn; stacked and
            # transposed, the blocks become each matrix's column blocks
            blocks = [[_xavier(rng, dh, d) for _ in range(3)] for _ in range(H)]
            projections.extend(np.concatenate(kind).T for kind in zip(*blocks))
        tables = [_xavier(rng, n, d) for n in (n_users, n_entities, n_relations, K, K)]
        store, views = _row_views(tables + projections)
        layers = [intents.TransformerLayerParams(*views[k:k + 3], n_heads=H)
                  for k in range(5, len(views), 3)]
        return cls(*views[:5], transformer=layers, store=store)

    def _tables(self):
        return [
            ("user_emb", self.user_emb),
            ("entity_emb", self.entity_emb),
            ("relation_emb", self.relation_emb),
            ("intent_user", self.intent_user),
            ("intent_item", self.intent_item),
        ]

    def named(self):
        out = self._tables()
        for l, layer in enumerate(self.transformer):
            out.extend((f"transformer.l{l}.{name}", t) for name, t in layer.tensors())
        return out

    def layer_list(self, depth):
        """One layer per propagation step: the shared layer repeated, or the
        first `depth` stored layers."""
        if len(self.transformer) == 1:
            return self.transformer * depth
        return self.transformer[:depth]

    def l2_term(self):
        """Sum of squares of every parameter entry."""
        return ad.sum_all(ad.mul(self.store, self.store))

    def _checkpoint_views(self):
        """Checkpoint entry name -> the view of the parameter values it holds."""
        views = {name: p.values for name, p in self._tables()}
        for l, layer in enumerate(self.transformer):
            dh = layer.wq.values.shape[1] // layer.n_heads
            for h in range(layer.n_heads):
                for name, t in layer.tensors():
                    views[f"transformer.l{l}.h{h}.{name}"] = t.values[:, h * dh:(h + 1) * dh].T
        return views

    def copy_values(self):
        return {name: view.copy() for name, view in self._checkpoint_views().items()}

    def load_values(self, blob):
        """Overwrite every parameter from `blob`, or raise CheckpointError
        without writing any when an entry is missing, misshapen or unknown."""
        views = self._checkpoint_views()
        for name, view in views.items():
            if name not in blob:
                raise CheckpointError(f"checkpoint is missing parameter '{name}'")
            if blob[name].shape != view.shape:
                raise CheckpointError(
                    f"parameter '{name}' has shape {blob[name].shape}, expected {view.shape}"
                )
        for name in blob:
            if name not in views:
                raise CheckpointError(f"the model lacks parameter '{name}' of the checkpoint")
        for name, view in views.items():
            view[...] = blob[name]


class Adam:
    """Bias-corrected Adam over one parameter store.

    `named` are the (name, view) pairs that cover `store`; they only name
    the parameter of a non-finite gradient.
    """

    def __init__(self, store, named, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.named = list(named)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(store.values)
        self.v = np.zeros_like(store.values)

    def _diverged(self, what, rows):
        """TrainingDiverged naming the parameter that holds the first
        non-finite row of the store-shaped `rows`."""
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
        ends = np.cumsum([p.values.shape[0] for _, p in self.named])
        name = self.named[np.searchsorted(ends, bad, side="right")][0]
        return TrainingDiverged(f"non-finite {what} in parameter '{name}'")

    def step(self):
        """One update of every parameter; a non-finite gradient, new value or
        second moment anywhere raises TrainingDiverged before any value or
        moment changes."""
        g = self.store.grad
        if not np.isfinite(g).all():
            raise self._diverged("gradient", g)
        t = self.t + 1
        with np.errstate(over="ignore", invalid="ignore"):  # caught below, by name
            m = self.beta1 * self.m + (1.0 - self.beta1) * g
            v = self.beta2 * self.v + (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            # a finite gradient can still overflow the update: lr * m_hat and
            # v_hat both infinite give NaN
            new = self.store.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if not np.isfinite(new).all():
            raise self._diverged("update", new)
        # (1 - beta2) * g * g overflows for |g| above ~4e155: the update
        # m_hat / inf is then a finite 0, and an infinite v would hold that
        # entry still for good
        if not np.isfinite(v).all():
            raise self._diverged("second moment", v)
        self.t, self.m, self.v = t, m, v
        self.store.values[...] = new

    def zero_grad(self):
        self.store.grad.fill(0.0)


# ---------------------------------------------------------------------------
# forward assembly


def global_state(params, dataset, cfg):
    """Intent-aware propagation over the intact KG and interaction graph."""
    return intents.forward_global(
        params.user_emb,
        params.entity_emb,
        params.relation_emb,
        params.intent_user,
        params.intent_item,
        params.layer_list(cfg.depth),
        dataset.train_graph,
        dataset.kg.full_edges(),
    )


def compute_tracks(params, dataset, view, cfg, with_local):
    """Global propagation plus light aggregation of one or both tracks."""
    graph = dataset.train_graph
    state = global_state(params, dataset, cfg)
    global_track = denoise.light_aggregate(
        state.users, state.entities, params.relation_emb, view.edges, graph, cfg.agg_depth
    )
    local_track = None
    if with_local:
        local_track = denoise.light_aggregate(
            params.user_emb, params.entity_emb, params.relation_emb, view.edges, graph,
            cfg.agg_depth,
        )
    return global_track, local_track


def predict(users, items, track):
    """Matching scores of (user, item) pairs: inner products of the
    layer-summed user and entity rows of `track` (a `denoise.LayerStack`),
    whose item rows are the entity prefix; one `ad.score` node."""
    return ad.score(track.users, track.entities, users, items)


def bpr_loss(pos_scores, neg_scores):
    """Mean pairwise ranking loss -ln sigma(pos - neg); one `ad.bpr` node."""
    return ad.bpr(pos_scores, neg_scores)


def total_loss(bpr, contrastive, params, alpha, l2_weight):
    """Weighted multi-task objective; L2 covers every parameter entry."""
    reg = params.l2_term()
    total = bpr
    if contrastive is not None and alpha != 0.0:
        total = total + ad.mul(contrastive, alpha)
    total = total + ad.mul(reg, l2_weight)
    return total, reg


def training_step_loss(params, dataset, view, cfg, batch):
    """Loss for one (user, pos, neg) batch; returns (total, parts dict)."""
    users, pos_items, neg_items = batch[:, 0], batch[:, 1], batch[:, 2]
    with_contrast = cfg.alpha != 0.0
    global_track, local_track = compute_tracks(params, dataset, view, cfg, with_contrast)
    pos_scores = predict(users, pos_items, global_track)
    neg_scores = predict(users, neg_items, global_track)
    bpr = bpr_loss(pos_scores, neg_scores)
    contrast = None
    if with_contrast:
        contrast = denoise.contrastive_loss(
            global_track, local_track, np.unique(users), np.unique(pos_items), cfg.tau,
            include_positive=cfg.infonce_standard,
        )
    total, reg = total_loss(bpr, contrast, params, cfg.alpha, cfg.l2)
    parts = {
        "bpr": float(bpr.values),
        "cl": float(contrast.values) if contrast is not None else 0.0,
        "reg": float(reg.values),
    }
    return total, parts


# ---------------------------------------------------------------------------
# epoch loop


def sample_bpr_negatives(graph, users, rng):
    """One uniformly drawn non-interacted item per user row (with rejection).

    One vector draw gives every row its first candidate, and one
    `searchsorted` of the flat (user, item) keys over the sorted, unique
    `graph.pairs` tests them all. Only the rejected rows, in ascending
    order, redraw one scalar at a time until `graph.has` rejects no more,
    which is the draw order of a per-row loop, so the negatives and the
    generator's state are the same.
    """
    n_items = graph.n_items
    negs = rng.integers(0, n_items, size=users.shape[0])
    keys = users * n_items + negs
    pair_keys = graph.pairs[:, 0] * n_items + graph.pairs[:, 1]
    at = np.searchsorted(pair_keys, keys)
    rejected = at < pair_keys.size
    rejected[rejected] = pair_keys[at[rejected]] == keys[rejected]
    for k in np.flatnonzero(rejected):
        u = int(users[k])
        guard = 0
        while True:
            negs[k] = rng.integers(0, n_items)
            guard += 1
            if guard > 100 * n_items:
                raise ContractError(f"user {u} has no negative items to sample")
            if not graph.has(u, int(negs[k])):
                break
    return negs


def build_bpr_triples(graph, train_pos, rng):
    """(user, pos, neg) triples, one fresh negative per trainable positive.

    Positives of users who interacted with every item are skipped: no
    ranking pair exists for them.
    """
    if train_pos.shape[0] == 0:
        raise ContractError("no trainable positives: the train split is empty")
    degrees = np.diff(graph.u_offsets)
    keep = degrees[train_pos[:, 0]] < graph.n_items
    kept = train_pos[keep]
    if kept.shape[0] == 0:
        raise ContractError("no trainable positives: every user covers all items")
    negs = sample_bpr_negatives(graph, kept[:, 0], rng)
    return np.column_stack([kept, negs])


def _epoch_batches(triples, batch_size, rng):
    """Shuffled batches of `batch_size` rows.

    A batch with fewer than 2 distinct users or positive items (too few for
    the contrastive term) joins the batch after it; such a last batch joins
    the batch before it. Every batch is a contiguous slice of one shuffle.
    """
    shuffled = triples[rng.permutation(triples.shape[0])]
    n = shuffled.shape[0]
    cuts = [0]
    for stop in range(batch_size, n + batch_size, batch_size):
        block = shuffled[cuts[-1]:stop]
        if (block[:, 0] != block[0, 0]).any() and (block[:, 1] != block[0, 1]).any():
            cuts.append(min(stop, n))
    if len(cuts) > 1:
        cuts[-1] = n  # a degenerate rest joins the batch before it
    elif n:
        cuts.append(n)
    return [shuffled[a:b] for a, b in zip(cuts, cuts[1:])]


def representations(params, dataset, cfg):
    """Final layer-summed user/item matrices on the intact KG (no recording).

    The layers' plain arrays are added in layer order: the user tables
    whole, of the entity tables only the item-row prefix.
    """
    view = denoise.full_view(dataset.kg)
    global_track, _ = compute_tracks(params, dataset, view, cfg, with_local=False)
    users = [u.values for u in global_track.users]
    items = [e.values[:dataset.n_items] for e in global_track.entities]
    return sum(users[1:], users[0]), sum(items[1:], items[0])


@dataclass
class FitResult:
    params: ModelParameters
    log: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False


def fit(cfg, dataset):
    """Train on the dataset's train split; returns parameters and the log.

    Per epoch: redraw the knowledge view from the current intent-aware
    representations (unless top-k keeps every slot, when the view is the
    whole KG throughout), resample one ranking negative per positive, then sweep
    shuffled batches recording forward/backward and applying Adam. Early
    stopping watches eval AUC with the configured patience and restores the
    best parameters. Non-finite losses or gradients abort with the last
    completed epoch's parameters attached.

    Each completed epoch takes one snapshot of the parameters: the best
    epoch's snapshot is that same dict, which nothing writes, so a best
    epoch costs no second copy.
    """
    rng = np.random.default_rng(cfg.seed)
    params = ModelParameters.initialize(
        dataset.n_users, dataset.n_entities, dataset.n_relations, cfg, rng
    )
    optimizer = Adam(params.store, params.named(), lr=cfg.lr)
    graph = dataset.train_graph
    train_pos = dataset.split.train[:, :2]
    eval_pairs = dataset.split.eval
    # AUC/F1 need both classes; without them the log records NaN
    can_eval = np.unique(eval_pairs[:, 2]).size == 2
    log = []
    best_auc = -np.inf
    best_epoch = -1
    best_values = None
    last_good = params.copy_values()
    stopped = False
    # a top-k that keeps every slot needs no scores: the view is the whole KG
    resample = not denoise.keeps_every_slot(dataset.kg, cfg.k_top)

    for epoch in range(cfg.epochs):
        if resample:
            entity_vals = global_state(params, dataset, cfg).entities.values
            view = denoise.sample_topk(
                dataset.kg, entity_vals, params.relation_emb.values, cfg.k_top, rng
            )
        else:
            view = denoise.full_view(dataset.kg)

        triples = build_bpr_triples(graph, train_pos, rng)
        sums = {"bpr": 0.0, "cl": 0.0, "reg": 0.0}
        n_batches = 0
        for batch in _epoch_batches(triples, cfg.batch_size, rng):
            optimizer.zero_grad()
            with ad.Tape() as tape:
                loss, parts = training_step_loss(params, dataset, view, cfg, batch)
            if not np.isfinite(loss.values):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}", last_good=last_good
                )
            tape.backward(loss)
            try:
                optimizer.step()
            except TrainingDiverged as err:
                raise TrainingDiverged(str(err), last_good=last_good) from None
            for key in sums:
                sums[key] += parts[key]
            n_batches += 1

        eval_auc = eval_f1 = float("nan")
        if can_eval:
            zu, zi = representations(params, dataset, cfg)
            eval_auc, eval_f1 = metrics.ctr_eval(zu, zi, eval_pairs)
        log.append(
            {
                "epoch": epoch,
                "loss_bpr": sums["bpr"] / max(1, n_batches),
                "loss_cl": sums["cl"] / max(1, n_batches),
                "loss_reg": sums["reg"] / max(1, n_batches),
                "eval_auc": eval_auc,
                "eval_f1": eval_f1,
            }
        )
        last_good = params.copy_values()
        if not math.isnan(eval_auc):
            if eval_auc > best_auc:
                best_auc = eval_auc
                best_epoch = epoch
                best_values = last_good
            elif epoch - best_epoch >= cfg.patience:
                stopped = True
                break

    if best_values is not None:
        params.load_values(best_values)
    return FitResult(params=params, log=log, best_epoch=best_epoch, stopped_early=stopped)


# ---------------------------------------------------------------------------
# checkpoints and metric logs

_MAGIC = b"KGTNCKPT"
_VERSION = 1


def save_checkpoint(path, named_values):
    """Versioned binary checkpoint: named float64 little-endian blobs."""
    items = list(named_values.items()) if isinstance(named_values, dict) else list(named_values)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(items)))
        for name, arr in items:
            arr = np.ascontiguousarray(arr, dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_exact(fh, n_bytes, path, what):
    raw = fh.read(n_bytes)
    if len(raw) != n_bytes:
        raise CheckpointError(f"{path}: truncated {what}")
    return raw


def load_checkpoint(path):
    """Read a checkpoint; a corrupt or truncated file, or a repeated entry, raises
    CheckpointError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 8, path, "magic")
        if magic != _MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, path, "header"))
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        blob = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, path, "parameter name"))
            try:
                name = _read_exact(fh, name_len, path, "parameter name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: parameter name is not valid UTF-8") from None
            if name in blob:
                raise CheckpointError(f"{path}: parameter '{name}' appears twice")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, path, f"shape of parameter '{name}'"))
            shape = struct.unpack(
                f"<{ndim}I", _read_exact(fh, 4 * ndim, path, f"shape of parameter '{name}'")
            )
            # Python ints: a declared shape may not fit in int64
            n_bytes = 8 * math.prod(shape)
            if n_bytes > size - fh.tell():
                raise CheckpointError(f"{path}: truncated data for parameter '{name}'")
            raw = _read_exact(fh, n_bytes, path, f"data for parameter '{name}'")
            try:
                blob[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError:
                raise CheckpointError(
                    f"{path}: parameter '{name}' has shape {shape}, too large to represent"
                ) from None
        return blob


_LOG_COLUMNS = ("epoch", "loss_bpr", "loss_cl", "loss_reg", "eval_auc", "eval_f1")


def write_metric_log(path, log):
    """CSV metric log with repr-exact floats (bitwise reproducible)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_LOG_COLUMNS) + "\n")
        for row in log:
            cells = [str(row["epoch"])] + [repr(float(row[c])) for c in _LOG_COLUMNS[1:]]
            fh.write(",".join(cells) + "\n")

"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set covers exactly what the recommender's forward pass needs:
- arithmetic: `add`, `mul` (elementwise, with scalar broadcast);
- neighborhood sums: `spmm`, a constant sparse matrix (cached by the graph
  that owns the structure) times the leading rows of a dense block, with a
  fallback row where the matrix row is empty;
- fused edge operations, one node each over every edge of a graph:
  `edge_attention` (one direction of masked multi-head attention, with
  its query, key and value projections, over the tables' leading rows),
  `kg_pool` (the relation-aware attention pool of the KG slots) and
  `gated_sum` (the per-head mean of relation-gated KG rows);
- reductions: `sum_all`;
- the intent readout: `prototype_mix`, the softmax(e @ P.T)-weighted sum
  of the prototype rows P over the leading rows of e, one node;
- the ranking head: `score`, the inner products of layer-summed batch
  rows, and `bpr`, the mean pairwise ranking loss of two score vectors;
- the contrastive objective: `infonce`, one fused node that sums one
  InfoNCE term per layer of any number of sides, a side being global and
  local layers read at the same batch rows.
There is no general broadcasting; the only implicit broadcasts are scalar
(0-d) tensors and plain Python numbers against an array operand.

Recording is dynamic: while a `Tape` is active (`with Tape() as tape:`),
every primitive whose inputs require gradients appends one node: its name,
its output tensor and its backward function. `tape.backward(loss)` runs the
nodes in exact reverse execution order, once per tape; a second call raises
`ContractError`.

Gradient lifetime differs between leaves and intermediates:
- Leaves (parameters, and any tensor built directly with
  `requires_grad=True`) accumulate `d loss / d leaf` into `.grad`
  additively, so a parameter used in several places sums its
  contributions. Their gradients are zeroed explicitly between optimizer
  steps, never implicitly.
- Intermediates (the loss and every recorded op output) hold a `.grad`
  only while backward still needs it: for each node, `backward` takes
  the output's gradient, sets `.grad` back to `None` and then passes the
  gradient to the node's backward function, which pushes it to the
  operands. A node whose output received no gradient is skipped. After
  `backward` returns, only leaves carry gradients.
  The replay also drops each node once it has run: the output tensor and
  the closure, with the forward values it captured. A forward array is
  thus freed as soon as the last node that reads it has run (unless the
  caller holds it), and a replayed tape holds only its op names.

Backward does only the work a gradient needs:
- The first contribution to a tensor without a `.grad` buffer becomes the
  buffer. An array the backward has just computed is adopted as is; a
  pass-through gradient or a view of one (the upstream gradient itself, a
  split piece, a broadcast) is copied, so no two tensors share a buffer.
  Later contributions are added in place.
- The one exception is a parameter store (`training.ModelParameters`):
  one leaf whose rows are cut into named parameter leaves, each with
  `.values` and `.grad` that are views of the store's. A leaf always has
  its grad buffer, so `_accum` adds into it in place and never replaces
  it, and a gradient reaching a parameter view lands in the store's.
- Operands that are not grad-requiring tensors (constants, Python numbers)
  get no gradient computed at all.
- No op builds a sparse matrix per call. Every operator, transpose and
  index set that depends only on a graph's structure is a fact of the
  object that owns the structure, built on first use and kept with it:
  `data.InteractionGraph` and its `EdgeList`s for the whole fit,
  `data.KGEdges` for the fit (the full KG) or for one epoch (a pruned
  view). A `SparseOperator` keeps its CSR transpose and the index of its
  empty rows; `KGEdges` keeps its mean operator and the one-hot
  `tail_sum` and `relation_sum` scatters; `EdgeList` and `KGEdges` keep
  `segments`, the starts and lengths of their nonempty segments that the
  segment softmax reads; the (d, H) head indicator of `edge_attention` is
  built once per (d, H). Each cached product sums in
  the same order as what it replaces, so the gradients are bitwise equal.
- A fallback receives the upstream gradient on the empty rows only, added
  into those rows of its gradient buffer (a zero buffer is made first if
  it has none). The ops that read leading rows add into those rows the
  same way, and a row that passes through gets its upstream row. None forms
  a full-size masked copy of the upstream gradient.
- The scatter behind `score` and `infonce`, the ops that take per-step
  batch indices, is one flat `np.bincount` over `row * d + column`, summed
  into the table's gradient as a single block.
- The fused edge operations keep no (E, d) array between forward and
  backward, only their operands and per-edge weights: the (E, H)
  attention weights, the (E,) slot weights. Backward gathers the edge
  rows it needs again, which costs a few gathers and saves holding them
  on the tape for the whole step. Gradients onto the rows of a graph go
  through its cached one-hot operators (the interaction graph's
  `source_sum` and `target_sum`, the KG's `tail_sum` and `relation_sum`)
  or through a segment sum for the KG heads that group the slots.
- `infonce` forms its operand gradients in the forward: the output is a
  scalar, so each term's gradient on its rows of a table is a fixed (b, d)
  array times the upstream scalar. The layers of one side share their
  rows and run in units: as many consecutive layers as whole (b, 2b)
  logit blocks fit in `INFONCE_SLAB_BYTES` stack on a leading axis, with
  one gather per table, batched matmuls and one scatter index per view of
  the unit. A layer whose block does not fit alone is a unit of its own, its
  block built, reduced and differentiated in slabs of rows of at most that
  cap; each slab writes its rows of the global view's gradient and adds
  its share of the key gradient in place, so the whole block never
  exists. Each layer's arithmetic is the same in any unit. Backward only
  scales and scatters.

Forward ops never mutate their inputs; only `.grad` buffers change during
backward. Recording and backward run on the calling thread and use no
other. The one op that runs threads is an `infonce` call of several
units: when some unit spans more than one slab and the process's one
worker pool (`_executor`, one thread per core at its first use) has more
than one thread, each unit runs whole on a thread of that pool
(`experiments.recall_at_k` ranks its user blocks on the same pool). The
calling thread checks every operand and reads its rows first, waits for
every unit, and records the one node.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dgemm
from scipy.special import expit

from .errors import ContractError, DomainError, ShapeError

_TAPE = None


class Tensor:
    """A dense float64 array plus a lazily materialized gradient buffer.

    A leaf's `.grad` persists and accumulates across uses; a recorded op
    output's `.grad` is released (set to `None`) as soon as backward has
    pushed it to the operands.
    """

    __slots__ = ("values", "grad", "requires_grad")

    def __init__(self, values, requires_grad=False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        else:
            self.grad.fill(0.0)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; all dispatch to the module-level primitives.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


def constant(values):
    """Tensor that never receives gradients."""
    return Tensor(values, requires_grad=False)


def parameter(values):
    """Leaf tensor with an eagerly zeroed gradient buffer."""
    t = Tensor(values, requires_grad=True)
    t.grad = np.zeros_like(t.values)
    return t


class Tape:
    """Ordered record of executed primitives; replayed backward once.

    The replay releases each node's output and closure as soon as the node
    has run, so a replayed tape holds no arrays, only the names of the ops
    it recorded: `len(tape)` and `op_counts()` read the same after it.
    """

    def __init__(self):
        self._nodes = []
        self._replayed = False

    def __enter__(self):
        global _TAPE
        if _TAPE is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _TAPE
        _TAPE = None
        return False

    def __len__(self):
        return len(self._nodes)

    def op_counts(self):
        counts = {}
        for name, _, _ in self._nodes:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def backward(self, loss):
        """Accumulate d loss / d leaf into every reachable leaf's .grad.

        Each node is dropped from the tape as soon as it has run: its output
        tensor, with its `.grad`, and its backward closure, with the forward
        arrays that closure captured. Every consumer of an output runs before
        the node that made it, so a forward array is freed once its last
        reader has run, unless the caller still holds it. Afterwards only
        leaves hold gradients. A tape replays once: calling `backward` again
        raises `ContractError` (a rejected loss does not count as a replay).
        """
        if not isinstance(loss, Tensor):
            raise ContractError("backward expects a Tensor loss")
        if loss.values.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.values.shape}"
            )
        if self._replayed:
            raise ContractError("tape already replayed; a tape supports one backward")
        self._replayed = True
        loss.grad = np.ones((), dtype=np.float64)
        nodes = self._nodes
        for k in range(len(nodes) - 1, -1, -1):
            name, out, backward_fn = nodes[k]
            nodes[k] = (name, None, None)
            g = out.grad
            if g is not None:
                out.grad = None
                backward_fn(g)


def _record(name, out, backward_fn):
    if _TAPE is not None and out.requires_grad:
        _TAPE._nodes.append((name, out, backward_fn))


def _tracked(x):
    return isinstance(x, Tensor) and x.requires_grad


def _needs_grad(*args):
    if _TAPE is None:
        return False
    return any(_tracked(a) for a in args)


def _accum(t, g, fresh=False):
    """Add gradient contribution `g` into `t.grad`.

    `fresh=True` promises that `g` was just allocated by the caller and is
    referenced nowhere else, so a first contribution may adopt it;
    otherwise the first contribution is copied into a new buffer.
    """
    if not _tracked(t):
        return
    if t.grad is not None:
        np.add(t.grad, g, out=t.grad)
    elif fresh:
        t.grad = np.asarray(g, dtype=np.float64)
    else:
        t.grad = np.empty_like(t.values)
        np.copyto(t.grad, g)


def _values(x):
    return x.values if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _binary_shapes(name, a, b):
    """Same shape, or one 0-d operand; anything else is a shape error."""
    av, bv = _values(a), _values(b)
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise ShapeError(f"{name}: operand shapes {av.shape} and {bv.shape} differ")
    return av, bv


def _reduce_to(g, shape):
    # Undo the scalar broadcast: a 0-d operand receives the summed gradient.
    if shape == () and np.ndim(g) != 0:
        return g.sum()
    return g


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b):
    av, bv = _binary_shapes("add", a, b)
    out = Tensor(av + bv, requires_grad=_needs_grad(a, b))

    def backward(g):
        _accum(a, _reduce_to(g, av.shape))
        _accum(b, _reduce_to(g, bv.shape))

    _record("add", out, backward)
    return out


def mul(a, b):
    """Elementwise product; scalar operands broadcast."""
    av, bv = _binary_shapes("mul", a, b)
    out = Tensor(av * bv, requires_grad=_needs_grad(a, b))

    def backward(g):
        if _tracked(a):
            _accum(a, _reduce_to(g * bv, av.shape), fresh=True)
        if _tracked(b):
            _accum(b, _reduce_to(g * av, bv.shape), fresh=True)

    _record("mul", out, backward)
    return out


# ---------------------------------------------------------------------------
# indexing and neighborhood sums


def _row_index(op, index, n):
    """A 1-d integer index into `n` rows; an empty index of any dtype is allowed."""
    idx = np.asarray(index)
    if idx.size == 0:
        return np.zeros(0, dtype=np.intp)
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeError(
            f"{op}: index must be a 1-d integer array, got {idx.dtype} with shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= n:
        raise ShapeError(f"{op}: index out of range for table with {n} rows")
    return idx


def _scatter_rows(index, rows, n):
    """The (n, d) sums of each (b, d) slice of `rows` by their row `index`,
    a list with one table per slice along the leading axes: one flat
    bincount per slice over `row * d + column`, the index built once."""
    b, d = rows.shape[-2:]
    flat = (index.astype(np.intp, copy=False)[:, None] * d + np.arange(d)).ravel()
    return [np.bincount(flat, weights=layer.ravel(), minlength=n * d).reshape(n, d)
            for layer in rows.reshape(math.prod(rows.shape[:-2]), b, d)]


class SparseOperator(sparse.csr_array):
    """A constant CSR matrix that keeps what backward reads from it.

    Its CSR transpose and the index of its empty rows are built on first use
    and live as long as the matrix. The graphs build their propagation
    operators as `SparseOperator`s and keep them, so each is built once per
    structure. The transpose sums each row's entries in the same order as
    `matrix.T @ g` does, so both products are bitwise equal.
    """

    @cached_property
    def transposed(self):
        return self.T.tocsr()

    @cached_property
    def empty_rows(self):
        return np.flatnonzero(self.indptr[1:] == self.indptr[:-1])


def _fallback_rows(operator, sums, fallback):
    """Put `fallback` rows where `operator` has an empty row."""
    empty = operator.empty_rows
    if empty.size:
        sums[empty] = fallback[empty]


def _accum_rows(t, rows, g):
    """Add `g` into rows `rows` (a slice or an index) of `t.grad`; the other
    rows are left as they are."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad[rows] += g


def _accum_prefix(t, g):
    """Add `g` into the leading rows of `t.grad`. A `g` that covers every
    row must be fresh (see `_accum`) and may become the buffer."""
    if g.shape[0] == t.values.shape[0]:
        _accum(t, g, fresh=True)
    else:
        _accum_rows(t, slice(0, g.shape[0]), g)


def _accum_fallback(fallback, g, operator):
    empty = operator.empty_rows
    if _tracked(fallback) and empty.size:
        _accum_rows(fallback, empty, g[empty])


def spmm(matrix, x, fallback):
    """Sparse-dense product whose rows without entries fall back.

    Row i of the output is `(matrix @ x[:m])[i]`, or `fallback[i]` when
    row i of `matrix` holds no entries. `matrix` is a constant
    `SparseOperator` (n, m), `x` is (m', d) with m' >= m, of which only the
    first m rows are read in place, and `fallback` is (n, d). Backward adds
    `matrix.T @ g` into those rows of `x`'s gradient, through the transpose
    the operator keeps, and gives `g` on the empty rows only to `fallback`.
    """
    if not isinstance(matrix, SparseOperator):
        raise ContractError(f"spmm: matrix must be a SparseOperator, got {type(matrix).__name__}")
    xv, fv = _values(x), _values(fallback)
    n, m = matrix.shape
    if xv.ndim != 2 or xv.shape[0] < m or fv.shape != (n, xv.shape[1]):
        raise ShapeError(
            f"spmm: matrix {matrix.shape}, x {xv.shape} and fallback {fv.shape} do not fit"
        )
    sums = matrix @ xv[:m]
    _fallback_rows(matrix, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(x, fallback))

    def backward(g):
        _accum_fallback(fallback, g, matrix)
        if _tracked(x):
            _accum_prefix(x, matrix.transposed @ g)

    _record("spmm", out, backward)
    return out


# ---------------------------------------------------------------------------
# fused edge operations: each keeps only per-edge weights for backward and
# gathers the (E, d) edge rows again there


def _segment_softmax(logits, segments):
    """Softmax of each column within every CSR segment, max-shifted.

    `segments` is the graph's kept index of its nonempty segments, their
    starts and lengths (`data.segment_index`). Each reduction covers those
    segments and is repeated back over their rows; an empty segment has no
    rows to fill.
    """
    starts, counts = segments
    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts, axis=0), counts, axis=0)
    e = np.exp(shifted)
    return e / np.repeat(np.add.reduceat(e, starts, axis=0), counts, axis=0)


def _segment_softmax_backward(g, s, segments):
    """Gradient on the logits of `s = _segment_softmax(logits, segments)`."""
    starts, counts = segments
    inner = np.repeat(np.add.reduceat(g * s, starts, axis=0), counts, axis=0)
    return s * (g - inner)


@lru_cache(maxsize=8)
def _head_blocks(d, n_heads):
    """The (d, H) head indicator and its copy scaled by 1 / sqrt(d/H), read-only.

    `(q * k) @ scaled` gives one scaled logit column per head, and
    `x @ blocks` sums each head's columns of x.
    """
    blocks = np.repeat(np.eye(n_heads), d // n_heads, axis=0)
    scaled = blocks * (1.0 / math.sqrt(d / n_heads))
    blocks.flags.writeable = scaled.flags.writeable = False
    return blocks, scaled


def _project_back(table, tv, weight, wv, g):
    """Push the gradient `g` on the product `tv @ wv` back to its factors:
    `g @ wv.T` into the leading rows of `table`, `tv.T @ g` into `weight`."""
    if _tracked(table):
        _accum_prefix(table, g @ wv.T)
    if _tracked(weight):
        _accum(weight, tv.T @ g, fresh=True)


def edge_attention(sources, targets, wq, wk, wv, edges, n_heads):
    """Masked multi-head scaled dot-product attention along an edge list.

    `edges` is one direction of the interaction graph (`data.EdgeList`):
    edge e runs from source row `edges.source[e]` to target row
    `edges.target[e]`, grouped by source along `edges.offsets`. The op
    projects the leading rows of `sources`, one per source of the graph, to
    the queries (`@ wq`) and those of `targets` to the keys (`@ wk`) and
    the values (`@ wv`), each projection a (d, d) matrix; either table may
    hold more rows. Head h owns columns h*d/H .. (h+1)*d/H - 1 of the
    projections. Its logit on edge e is q_s . k_t / sqrt(d/H) over those
    columns, its weight alpha the softmax of the logits over each source's
    edges, and source row s of the output is the alpha-weighted sum of its
    targets' value rows, summed by the constant operator `edges.source_sum`;
    a source without edges, and every row past the sources, keeps its own
    row of `sources`.

    Only the projected tables and alpha (E, H) are kept. Backward gathers
    the query, key and value rows of the edges again, scatters the source-
    and target-side gradients through `edges.source_sum` and
    `edges.target_sum` and projects them back (`_project_back`): `sources`
    gets its rows kept as they were, then the queries' share, and `targets`
    the values' share, then the keys': the order in which a tape of the
    three projections and the attention replays, so the gradients are
    bitwise equal to that tape's.
    """
    xs, xt, wqv, wkv, wvv = (_values(t) for t in (sources, targets, wq, wk, wv))
    sums_to_source, sums_to_target = edges.source_sum, edges.target_sum
    n_src, n_tgt = sums_to_source.shape[0], sums_to_target.shape[0]
    if (xs.ndim != 2 or xt.ndim != 2 or xt.shape[1] != xs.shape[1]
            or xs.shape[0] < n_src or xt.shape[0] < n_tgt
            or any(w.shape != (xs.shape[1],) * 2 for w in (wqv, wkv, wvv))):
        raise ShapeError(
            f"edge_attention: sources {xs.shape}, targets {xt.shape} and projections "
            f"{wqv.shape}, {wkv.shape}, {wvv.shape} do not fit {n_src} sources and "
            f"{n_tgt} targets"
        )
    d = xs.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"head count {n_heads} must divide embedding size {d}")
    tail = xs[n_src:]   # the source rows past the graph
    xs, xt = xs[:n_src], xt[:n_tgt]
    qv, kv, vv = xs @ wqv, xt @ wkv, xt @ wvv
    src, tgt, segments = edges.source, edges.target, edges.segments
    blocks, scaled = _head_blocks(d, n_heads)
    prod = qv[src]
    prod *= kv[tgt]
    alpha = _segment_softmax(prod @ scaled, segments)
    del prod
    msg = vv[tgt]
    heads = msg.reshape(-1, n_heads, d // n_heads)   # a view: head h's value columns
    heads *= alpha[:, :, None]
    sums = np.concatenate([sums_to_source @ msg, tail])
    del msg, heads
    _fallback_rows(sums_to_source, sums, xs)
    out = Tensor(sums, requires_grad=_needs_grad(sources, targets, wq, wk, wv))

    def backward(g):
        _accum_fallback(sources, g, sums_to_source)
        if len(tail) and _tracked(sources):
            _accum_rows(sources, slice(n_src, None), g[n_src:])
        g_edge = g[src]
        g_values = g_edge.reshape(-1, n_heads, d // n_heads) * alpha[:, :, None]
        _project_back(targets, xt, wv, wvv, sums_to_target @ g_values.reshape(g_edge.shape))
        g_edge *= vv[tgt]
        d_prod = _segment_softmax_backward(g_edge @ blocks, alpha, segments) @ scaled.T
        del g_edge, g_values
        g_queries = sums_to_source @ (d_prod * kv[tgt])
        d_prod *= qv[src]
        _project_back(targets, xt, wk, wkv, sums_to_target @ d_prod)
        _project_back(sources, xs, wq, wqv, g_queries)

    _record("edge_attention", out, backward)
    return out


def _check_kg_tables(name, entity, relation, edges):
    if (entity.ndim != 2 or relation.ndim != 2 or entity.shape[1] != relation.shape[1]
            or entity.shape[0] != edges.offsets.size - 1
            or relation.shape[0] != edges.n_relations):
        raise ShapeError(
            f"{name}: entities {entity.shape} and relations {relation.shape} do not fit "
            f"{edges.offsets.size - 1} heads and {edges.n_relations} relations"
        )


def _slot_weights(entity, relation, edges):
    """The (E,) slot weights `kg_pool` applies: per-head softmax of the
    slot logits of the plain `entity` and `relation` arrays."""
    return _segment_softmax(edges.slot_logits(entity, relation), edges.segments)


def kg_pool(entity, relation, edges):
    """Relation-aware attention pool of every head's knowledge-graph slots.

    `edges` is a `data.KGEdges`, its slots grouped by head along
    `edges.offsets`. The weight beta of slot (h, r, t) is the softmax, over
    head h's slots, of its logit `edges.slot_logits`: e_h . e_t + e_r . e_r.
    Row h of the output is the mean over head h's slots of beta times row r
    of `relation` times row t of `entity`, summed by the edges'
    `mean_operator`, or `entity[h]` where head h has no slots.

    Only the (E,) beta is kept. Backward gathers the slot rows again, holds
    at most three (E, d) blocks at once and scatters them once through the
    edges' one-hot `relation_sum` and once through `tail_sum`; the heads'
    share is summed through `head_sum`.
    """
    ev, rv = _values(entity), _values(relation)
    _check_kg_tables("kg_pool", ev, rv, edges)
    operator = edges.mean_operator
    beta = _slot_weights(ev, rv, edges)
    msg = rv[edges.rel]
    msg *= ev[edges.tail]
    msg *= beta[:, None]
    sums = operator @ msg
    _fallback_rows(operator, sums, ev)
    out = Tensor(sums, requires_grad=_needs_grad(entity, relation))

    def backward(g):
        _accum_fallback(entity, g, operator)
        g_edge = operator.transposed @ g
        rel_rows, tail_rows = rv[edges.rel], ev[edges.tail]
        d_logits = _segment_softmax_backward(
            np.einsum("ij,ij,ij->i", g_edge, rel_rows, tail_rows), beta, edges.segments)
        g_edge *= beta[:, None]
        rel_rows *= g_edge  # from here on the gradient onto each slot's tail
        if _tracked(relation):
            g_edge *= tail_rows
            grad = edges.relation_sum @ g_edge
            # the logit's e_r . e_r term needs no slot rows: 2 e_r times the
            # summed logit gradient of the relation's slots
            grad += 2.0 * rv * (edges.relation_sum @ d_logits)[:, None]
            _accum(relation, grad, fresh=True)
        del g_edge
        if _tracked(entity):
            tail_rows *= d_logits[:, None]
            grad = edges.head_sum @ tail_rows
            del tail_rows
            head_rows = ev[edges.head]
            head_rows *= d_logits[:, None]
            rel_rows += head_rows
            grad += edges.tail_sum @ rel_rows
            _accum(entity, grad, fresh=True)

    _record("kg_pool", out, backward)
    return out


def gated_sum(edges, gate, table):
    """Mean over each head's slots of relation-gated rows.

    `edges` is a `data.KGEdges`. Slot e's message is row `edges.rel[e]` of
    the (relations, d) `gate` times row `edges.tail[e]` of the
    (entities, d) `table`. Row h of the output is the mean of head h's
    messages, summed by the edges' `mean_operator`, or `table[h]` where
    head h has no slots. Only the operands are kept; backward gathers the
    slot rows again and scatters them through the edges' one-hot
    `relation_sum` and `tail_sum`.
    """
    gv, tv = _values(gate), _values(table)
    _check_kg_tables("gated_sum", tv, gv, edges)
    operator = edges.mean_operator
    msg = gv[edges.rel]
    msg *= tv[edges.tail]
    sums = operator @ msg
    _fallback_rows(operator, sums, tv)
    out = Tensor(sums, requires_grad=_needs_grad(gate, table))

    def backward(g):
        _accum_fallback(table, g, operator)
        g_edge = operator.transposed @ g
        if _tracked(gate):
            _accum(gate, edges.relation_sum @ (g_edge * tv[edges.tail]), fresh=True)
        if _tracked(table):
            g_edge *= gv[edges.rel]
            _accum(table, edges.tail_sum @ g_edge, fresh=True)

    _record("gated_sum", out, backward)
    return out


# ---------------------------------------------------------------------------
# reductions


def sum_all(a):
    av = _values(a)
    out = Tensor(av.sum(), requires_grad=_needs_grad(a))
    _record("sum_all", out, lambda g: _accum(a, np.broadcast_to(g, av.shape)))
    return out


# ---------------------------------------------------------------------------
# intent readout


def _prototype_weights(name, e, prototypes, rows=None):
    """The weights `prototype_mix` applies to the plain (n, d) `e` and
    (K, d) `prototypes`, the max-shifted row softmax of
    `e[:rows] @ prototypes.T`, and the transposed copy of the prototypes
    that product reads. Bad shapes, `rows` outside [0, n] and an empty
    prototype set raise, by `name`.
    """
    if e.ndim != 2 or prototypes.ndim != 2 or e.shape[1] != prototypes.shape[1]:
        raise ShapeError(f"{name}: embeddings {e.shape} vs prototypes {prototypes.shape}")
    if rows is not None and not 0 <= rows <= e.shape[0]:
        raise ShapeError(f"{name}: rows {rows} outside [0, {e.shape[0]}]")
    if prototypes.shape[0] < 1:
        raise DomainError(f"{name}: need at least one prototype")
    transposed = prototypes.T.copy()
    logits = e[:rows] @ transposed
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True), transposed


def prototype_mix(e, prototypes, rows=None):
    """Attentive mixture over prototype rows, softmax(e @ P.T) @ P, of the
    first `rows` rows of `e` (all by default); the other rows pass through.

    `e` is (n, d) and the prototypes P are (K, d), K >= 1. Row i of the
    weights is the softmax over k of e_i . p_k, and row i of the output the
    weighted sum of the rows of P. Only the (rows, K) weights w and the
    transposed copy of P are kept. Backward adds `w.T @ g` into P first,
    then pushes `g @ P.T` through the softmax to the logit gradient dL and
    adds `dL @ P` into `e` and `(e.T @ dL).T` into P: the arithmetic and
    order of the matmul, transpose, softmax and matmul it fuses, so the
    gradients are bitwise equal to theirs.
    """
    ev, pv = _values(e), _values(prototypes)
    w, transposed = _prototype_weights("prototype_mix", ev, pv, rows)
    rows = len(w)
    head, tail = ev[:rows], ev[rows:]
    out = Tensor(np.concatenate([w @ pv, tail]), requires_grad=_needs_grad(e, prototypes))

    def backward(g):
        g_head = g[:rows]
        if _tracked(prototypes):
            _accum(prototypes, w.T @ g_head, fresh=True)
        g_w = g_head @ pv.T
        d_logits = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
        if _tracked(e):
            _accum_prefix(e, d_logits @ transposed.T)
            _accum_rows(e, slice(rows, None), g[rows:])  # the rows passed through
        if _tracked(prototypes):
            _accum(prototypes, (head.T @ d_logits).T)

    _record("prototype_mix", out, backward)
    return out


# ---------------------------------------------------------------------------
# ranking head


def _batch_rows(side, layers, index):
    """The checked index of one `score` side and its layer-summed batch
    rows, added in layer order."""
    tables = [_values(t) for t in layers]
    if not tables or any(t.ndim != 2 or t.shape != tables[0].shape for t in tables):
        raise ShapeError(
            f"score: {side} layers must be matrices of one shape, got {[t.shape for t in tables]}")
    idx = _row_index("score", index, tables[0].shape[0])
    rows = tables[0][idx]
    for t in tables[1:]:
        rows += t[idx]
    return idx, rows


def score(user_layers, item_layers, users, items):
    """Inner products of layer-summed rows, one per batch entry:
    entry k is `(sum_l user_layers[l])[users[k]] . (sum_l item_layers[l])[items[k]]`.

    Each side is a list of tables of one shape, both sides of one width;
    `users` and `items` are 1-d integer indexes of one length (repeats
    allowed). The op reads only the batch rows of each layer and adds them
    in layer order, so no layer-summed table is formed. Backward forms one
    (n, d) scatter-add of the row gradients per side and adds it into every
    layer of that side.
    """
    users, urows = _batch_rows("user", user_layers, users)
    items, irows = _batch_rows("item", item_layers, items)
    if users.size != items.size or urows.shape[1] != irows.shape[1]:
        raise ShapeError(
            f"score: user rows {urows.shape} and item rows {irows.shape} do not pair up")
    out = Tensor((urows * irows).sum(axis=1),
                 requires_grad=_needs_grad(*user_layers, *item_layers))

    def backward(g):
        for layers, idx, other in ((user_layers, users, irows), (item_layers, items, urows)):
            tracked = [t for t in layers if _tracked(t)]
            if tracked:
                grad, = _scatter_rows(idx, g[:, None] * other, tracked[0].values.shape[0])
                for k, t in enumerate(tracked):
                    _accum(t, grad, fresh=k == len(tracked) - 1)

    _record("score", out, backward)
    return out


def bpr(pos, neg):
    """Mean pairwise ranking loss of two (b,) score vectors: the mean of
    softplus(neg - pos) = -ln sigmoid(pos - neg), computed without overflow.

    Backward gives `neg` sigmoid(neg - pos) / b times the upstream gradient
    and `pos` its negative. An empty batch raises `DomainError`.
    """
    pv, nv = _values(pos), _values(neg)
    if pv.ndim != 1 or nv.shape != pv.shape:
        raise ShapeError(f"bpr: score vectors {pv.shape} and {nv.shape} are not one batch")
    if pv.size == 0:
        raise DomainError("bpr: empty batch")
    diff = nv - pv
    out = Tensor(np.logaddexp(0.0, diff).mean(), requires_grad=_needs_grad(pos, neg))

    def backward(g):
        g_neg = g / diff.size * expit(diff)
        if _tracked(pos):
            _accum(pos, -g_neg, fresh=True)
        _accum(neg, g_neg, fresh=True)

    _record("bpr", out, backward)
    return out


# ---------------------------------------------------------------------------
# contrastive objective


def _row_norms(z):
    """Euclidean norms along the last axis of `z`, none of them zero."""
    sq = (z * z).sum(axis=-1)
    if np.any(sq <= 0.0):
        raise DomainError("infonce: zero-norm embedding row")
    return np.sqrt(sq)


def _unit_rows_backward(grad, unit, norms):
    """Push a gradient on the unit rows (last axis) through the normalization z / |z|."""
    return (grad - unit * (grad * unit).sum(axis=-1)[..., None]) / norms[..., None]


# Cap on the bytes of one row slab of the InfoNCE logit block.
INFONCE_SLAB_BYTES = 2 ** 21


def _cores():
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _executor():
    """The process's one pool of worker threads, one per core at its first
    use. Its threads start with its first task."""
    return ThreadPoolExecutor(max_workers=_cores(), thread_name_prefix="kgtn-worker")


def _pool_width():
    """Threads of the worker pool: the `_cores()` of its first use, not of now."""
    return _executor()._max_workers


# A forked child inherits the executor but not its threads: it starts its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


class _InfonceUnit:
    """Consecutive layers of one InfoNCE side, which share its batch rows:
    `__init__` reads their rows and checks them on the calling thread, `run`
    does the slab work on any thread.

    The L layers stack on a leading axis: one gather per table into the
    (L, 2b, d) keys, one (L, slab, 2b) logit block per slab and batched
    matmuls. Each layer's arithmetic is that of a unit of its own, so the
    results do not depend on how the layers are grouped. `run` allocates
    every buffer it writes and drops them when it returns, keeping only the
    L values and the (L, b, d) gradients on the table rows, so a unit holds
    its buffers only while it runs.
    """

    def __init__(self, global_layers, local_layers, rows, tau, include_positive):
        b = rows.size
        # the rows of both views of each layer, stacked: keys = [local; global]
        keys = np.empty((len(global_layers), 2 * b, _values(global_layers[0]).shape[1]))
        for k, (g, l) in enumerate(zip(global_layers, local_layers)):
            # `rows` is checked, so "clip" changes no row; it lets take
            # write into the keys unbuffered
            np.take(_values(l), rows, axis=0, out=keys[k, :b], mode="clip")
            np.take(_values(g), rows, axis=0, out=keys[k, b:], mode="clip")
        self.norms = _row_norms(keys)
        self.keys, self.rows, self.b = keys, rows, b
        self.layers = global_layers, local_layers
        self.tau, self.include_positive = tau, include_positive
        self.requires_grad = _needs_grad(*global_layers, *local_layers)
        self.slab = max(1, INFONCE_SLAB_BYTES // (2 * b * 8))

    def run(self):
        """Set `values`, the L layer terms, and `grads`, the (layers,
        (L, b, d) gradient) pair of each view with a tracked layer, forming
        the logit block slab by slab."""
        b, tau, slab, keys = self.b, self.tau, self.slab, self.keys
        del self.keys
        n_layers = keys.shape[0]
        keys *= (1.0 / self.norms)[:, :, None]   # the unit rows: [ln; gn]
        ln, gn = keys[:, :b], keys[:, b:]
        queries = gn * (1.0 / tau)
        if self.requires_grad:
            d_gn = np.empty_like(gn)
            d_keys = np.zeros_like(keys)
        terms = np.empty((n_layers, b))
        buffer = np.empty((n_layers, min(slab, b), 2 * b))
        for r0 in range(0, b, slab):
            r1 = min(r0 + slab, b)
            rows = np.arange(r1 - r0)
            diag = r0 + rows
            block = np.matmul(queries[:, r0:r1], keys.transpose(0, 2, 1),
                              out=buffer[:, :r1 - r0])
            positive = block[:, rows, diag]
            block[:, rows, b + diag] = -np.inf
            if not self.include_positive:
                block[:, rows, diag] = -np.inf
            shift = block.max(axis=2)
            block -= shift[:, :, None]
            np.exp(block, out=block)
            mass = block.sum(axis=2)
            terms[:, r0:r1] = shift + np.log(mass) - positive
            if not self.requires_grad:
                continue
            # d out / d block = (softmax - positive indicator) / b, and the block
            # is (gn / tau) @ keys.T: fold 1 / (b * tau) into the softmax rows.
            block *= (1.0 / (mass * (b * tau)))[:, :, None]
            block[:, rows, diag] -= 1.0 / (b * tau)
            np.matmul(block, keys, out=d_gn[:, r0:r1])
            # d_keys += block.T @ gn[r0:r1] per layer, accumulated in place: the
            # transposed product d_keys.T += gn[r0:r1].T @ block on the Fortran
            # views, which dgemm overwrites
            for k in range(n_layers):
                dgemm(1.0, gn[k, r0:r1].T, block[k].T, beta=1.0, c=d_keys[k].T,
                      trans_b=1, overwrite_c=1)
        self.values = terms.mean(axis=1)
        del buffer, queries, terms   # the gradients below can reuse their room
        self.grads = []
        if self.requires_grad:
            global_layers, local_layers = self.layers
            if any(map(_tracked, global_layers)):
                d_gn += d_keys[:, b:]
                self.grads.append(
                    (global_layers, _unit_rows_backward(d_gn, gn, self.norms[:, b:])))
            if any(map(_tracked, local_layers)):
                self.grads.append(
                    (local_layers, _unit_rows_backward(d_keys[:, :b], ln, self.norms[:, :b])))


def _side_units(side, tau, include_positive):
    """The checked units of one `(global_layers, local_layers, rows)` side:
    consecutive layers, as many to a unit as whole (b, 2b) logit blocks fit
    in `INFONCE_SLAB_BYTES`, and one to a unit when one block does not."""
    global_layers, local_layers, rows = side
    tables = [_values(t) for t in (*global_layers, *local_layers)]
    if (not global_layers or len(local_layers) != len(global_layers)
            or any(t.ndim != 2 or t.shape != tables[0].shape for t in tables)):
        raise ShapeError(
            f"infonce: global layers {[t.shape for t in tables[:len(global_layers)]]} and "
            f"local layers {[t.shape for t in tables[len(global_layers):]]} must be as many "
            f"matrices of one shape")
    rows = _row_index("infonce", rows, tables[0].shape[0])
    b = rows.size
    if b < 2:
        raise DomainError(f"infonce: needs at least 2 rows, got {b}")
    stack = max(1, INFONCE_SLAB_BYTES // (2 * b * b * 8))
    return [_InfonceUnit(global_layers[k:k + stack], local_layers[k:k + stack], rows, tau,
                         include_positive)
            for k in range(0, len(global_layers), stack)]


def infonce(sides, tau, include_positive=False):
    """The sum over `(global_layers, local_layers, rows)` sides of one
    InfoNCE term per layer pair, the mean over `rows` below; one scalar
    tensor.

    All layers of a side are matrices of one shape, as many global as local
    ones (a misfit raises `ShapeError`, as in `score`); layer k pairs
    `global_layers[k]` with `local_layers[k]`. A term reads the (b, d) views
    `table[rows]` of both tables (repeats allowed). Row i of each view is
    normalized; its positive is the cross-view logit gn_i . ln_i / tau, and
    its candidates are the logit row gn_i @ [ln; gn].T / tau with the
    self-similarity gn_i . gn_i masked to -inf, and the positive masked too
    unless `include_positive` is set. The term is the max-shifted row
    log-sum-exp minus the positive, so it is finite for every temperature
    whose reciprocal is a finite float. The terms are summed side by side
    and layer by layer.

    A side runs in units of consecutive layers (`_InfonceUnit`). A unit of L
    layers stacks them when their L (b, 2b) logit blocks fit whole in
    `INFONCE_SLAB_BYTES` (b <= 209 rows for 3 layers); a layer whose block
    does not fit alone (b > 362) is a unit of its own, its block formed,
    reduced and differentiated in slabs of rows of at most that cap, so it
    never exists whole. The output is a scalar, so each view's gradient is a
    fixed array times the upstream scalar. When recorded, the op forms
    those arrays here, slab by slab, from the softmax of the slab; backward
    only scales them and scatter-adds them into the layers' rows, as
    `score` does: one flat bincount per layer, over an index built once per
    view of a unit. Each layer's bincount makes its own gradient buffer, so
    no layer's gradient keeps another layer's rows alive.

    Every side is checked, and its rows read, on the calling thread before
    any unit is computed, so a bad side raises here and nothing is
    recorded. The units share nothing: when there are several, some unit
    spans more than one slab and the worker pool has more than one thread
    (`_pool_width`), each unit runs on a thread of the pool, otherwise one
    after another on the calling thread. A unit's arithmetic is the same on
    either path and per layer the same as a unit of that layer alone, so
    the results are bitwise equal. At most the pool's width of units hold
    their buffers at once. The calling thread then records the one
    `infonce` node; no worker touches the tape.
    """
    if not sides:
        raise DomainError("infonce: no (global layers, local layers, rows) triples")
    if not tau > 0:
        raise DomainError(f"infonce: temperature must be positive, got {tau}")
    units = [unit for side in sides for unit in _side_units(side, tau, include_positive)]
    pooled = len(units) > 1 and any(u.slab < u.b for u in units) and _pool_width() > 1
    list((_executor().map if pooled else map)(_InfonceUnit.run, units))
    out = Tensor(sum(value for u in units for value in u.values),
                 requires_grad=any(u.requires_grad for u in units))
    grads = [(u.rows, u.grads) for u in units]

    def backward(g):
        for rows, views in grads:
            sums = []
            for layers, grad in views:
                grad *= g
                sums.append(zip(layers, _scatter_rows(rows, grad, _values(layers[0]).shape[0])))
            # layer by layer, the global view first: the order of one-layer units
            for per_layer in zip(*sums):
                for table, layer_sum in per_layer:
                    _accum(table, layer_sum, fresh=True)
        grads.clear()

    _record("infonce", out, backward)
    return out

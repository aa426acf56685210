"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set covers exactly what the recommender's forward pass needs:
- arithmetic: `add`, `mul` (elementwise, with scalar broadcast);
- linear algebra: `matmul`;
- layout: `slice_rows` (a contiguous block of rows, whose backward is a
  slice add), `splice` (a table with its first rows replaced);
- neighborhood sums: `spmm`, a constant sparse matrix (cached by the graph
  that owns the structure) times the leading rows of a dense block, with a
  fallback row where the matrix row is empty;
- fused edge operations, one node each over every edge of a graph:
  `edge_attention` (one direction of masked multi-head attention),
  `kg_pool` (the relation-aware attention pool of the KG slots) and
  `gated_sum` (the per-head mean of relation-gated KG rows);
- reductions: `sum_all`;
- the intent readout: `prototype_mix`, the softmax(e @ P.T)-weighted sum
  of the prototype rows P, one node;
- the ranking head: `score`, the inner products of layer-summed batch
  rows, and `bpr`, the mean pairwise ranking loss of two score vectors;
- the contrastive objective: `infonce`, one fused node that sums any
  number of InfoNCE terms, each over given rows of two tables.
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
  `tail_sum` and `relation_sum` scatters; the (d, H) head indicator of
  `edge_attention` is built once per (d, H). Each cached product sums in
  the same order as what it replaces, so the gradients are bitwise equal.
- A fallback receives the upstream gradient on the empty rows only, added
  into those rows of its gradient buffer (a zero buffer is made first if
  it has none); `slice_rows`, `splice` and `spmm` add into the rows they
  read the same way. None forms a full-size masked copy of the upstream
  gradient.
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
  array times the upstream scalar. The (b, 2b) logit block is built,
  reduced and differentiated in slabs of rows of at most
  `INFONCE_SLAB_BYTES`; each slab writes its rows of the global view's
  gradient and adds its share of the key gradient in place, so the whole
  block never exists. Backward only scales and scatters.

Forward ops never mutate their inputs; only `.grad` buffers change during
backward. Recording and backward run on the calling thread and use no
other. The one op that runs threads is an `infonce` call of several
terms: when the process may use more than one core and some term spans
more than one slab, each term runs whole on a thread of the process's one
worker pool (`_executor`, one thread per core, started on first use;
`experiments.recall_at_k` ranks its user blocks on the same pool). The
calling thread checks every operand and reads its rows first, waits for
every term, and records the one node.
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

    def __matmul__(self, other):
        return matmul(self, other)


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
# linear algebra


def matmul(a, b):
    av, bv = _values(a), _values(b)
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(f"matmul: cannot multiply shapes {av.shape} and {bv.shape}")
    out = Tensor(av @ bv, requires_grad=_needs_grad(a, b))

    def backward(g):
        if _tracked(a):
            _accum(a, g @ bv.T, fresh=True)
        if _tracked(b):
            _accum(b, av.T @ g, fresh=True)

    _record("matmul", out, backward)
    return out


# ---------------------------------------------------------------------------
# indexing and layout


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


def slice_rows(table, start, stop):
    """Rows `start` .. `stop - 1` of a matrix, as a copy.

    Backward adds the gradient into those rows of the table's gradient and
    touches no other row.
    """
    tv = _values(table)
    if tv.ndim != 2 or not 0 <= start <= stop <= tv.shape[0]:
        raise ShapeError(f"slice_rows: rows {start}..{stop} do not fit shape {tv.shape}")
    out = Tensor(tv[start:stop].copy(), requires_grad=_needs_grad(table))
    _record("slice_rows", out, lambda g: _accum_rows(table, slice(start, stop), g))
    return out


def _scatter_rows(index, rows, n):
    """(n, d) sums of `rows` by their row `index`: one flat bincount over
    `row * d + column`."""
    d = rows.shape[1]
    flat = (index.astype(np.intp, copy=False)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * d).reshape(n, d)


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
            _accum_rows(x, slice(0, m), matrix.transposed @ g)

    _record("spmm", out, backward)
    return out


def splice(prefix, table):
    """A copy of `table` whose first rows are `prefix`.

    Backward gives `prefix` the first rows of the gradient and adds the
    other rows into the same rows of `table`'s gradient.
    """
    pv, tv = _values(prefix), _values(table)
    if pv.ndim != 2 or tv.ndim != 2 or pv.shape[0] > tv.shape[0] or pv.shape[1] != tv.shape[1]:
        raise ShapeError(f"splice: prefix {pv.shape} does not fit table {tv.shape}")
    k = pv.shape[0]
    out = Tensor(np.concatenate([pv, tv[k:]]), requires_grad=_needs_grad(prefix, table))

    def backward(g):
        _accum(prefix, g[:k])
        if _tracked(table):
            _accum_rows(table, slice(k, None), g[k:])

    _record("splice", out, backward)
    return out


# ---------------------------------------------------------------------------
# fused edge operations: each keeps only per-edge weights for backward and
# gathers the (E, d) edge rows again there


def _segments(offsets):
    """Starts and lengths of the nonempty CSR segments, and their mask.

    `np.add.reduceat` mishandles empty segments, so every segment reduction
    runs over the nonempty ones only.
    """
    counts = np.diff(offsets)
    nonempty = counts > 0
    return offsets[:-1][nonempty], counts[nonempty], nonempty


def _segsum(x, offsets):
    """Sum of each CSR segment; an empty segment sums to zero."""
    starts, _, nonempty = _segments(offsets)
    out = np.zeros((nonempty.size,) + x.shape[1:], dtype=np.float64)
    if starts.size:
        out[nonempty] = np.add.reduceat(x, starts, axis=0)
    return out


def _segment_softmax(logits, offsets):
    """Softmax of each column within every CSR segment, max-shifted.

    Each reduction covers the nonempty segments and is repeated back over
    their rows; an empty segment has no rows to fill.
    """
    starts, counts, _ = _segments(offsets)
    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts, axis=0), counts, axis=0)
    e = np.exp(shifted)
    return e / np.repeat(np.add.reduceat(e, starts, axis=0), counts, axis=0)


def _segment_softmax_backward(g, s, offsets):
    """Gradient on the logits of `s = _segment_softmax(logits, offsets)`."""
    starts, counts, _ = _segments(offsets)
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


def edge_attention(queries, keys, values, fallback, edges, n_heads):
    """Masked multi-head scaled dot-product attention along an edge list.

    `edges` is one direction of the interaction graph (`data.EdgeList`):
    edge e runs from source row `edges.source[e]` to target row
    `edges.target[e]`, grouped by source along `edges.offsets`. Head h owns
    columns h*d/H .. (h+1)*d/H - 1 of the (sources, d) `queries` and the
    (targets, d) `keys` and `values`. Its logit on edge e is
    q_s . k_t / sqrt(d/H) over those columns, its weight alpha the softmax
    of the logits over each source's edges, and source row s of the output
    is the alpha-weighted sum of its targets' value rows, summed by the
    constant operator `edges.source_sum`; a source without edges takes
    `fallback[s]`.

    Only alpha (E, H) is kept. Backward gathers the query, key and value
    rows of the edges again and scatters the source-side gradients through
    `edges.source_sum`, the target-side ones through `edges.target_sum`.
    """
    qv, kv, vv, fv = (_values(t) for t in (queries, keys, values, fallback))
    sums_to_source, sums_to_target = edges.source_sum, edges.target_sum
    if (qv.ndim != 2 or kv.shape != (sums_to_target.shape[0], qv.shape[1])
            or vv.shape != kv.shape or fv.shape != qv.shape
            or qv.shape[0] != sums_to_source.shape[0]):
        raise ShapeError(
            f"edge_attention: queries {qv.shape}, keys {kv.shape}, values {vv.shape} and "
            f"fallback {fv.shape} do not fit {sums_to_source.shape[0]} sources and "
            f"{sums_to_target.shape[0]} targets"
        )
    d = qv.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"head count {n_heads} must divide embedding size {d}")
    src, tgt, offsets = edges.source, edges.target, edges.offsets
    blocks, scaled = _head_blocks(d, n_heads)
    prod = qv[src]
    prod *= kv[tgt]
    alpha = _segment_softmax(prod @ scaled, offsets)
    del prod
    msg = vv[tgt]
    heads = msg.reshape(-1, n_heads, d // n_heads)   # a view: head h's value columns
    heads *= alpha[:, :, None]
    sums = sums_to_source @ msg
    del msg, heads
    _fallback_rows(sums_to_source, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(queries, keys, values, fallback))

    def backward(g):
        _accum_fallback(fallback, g, sums_to_source)
        g_edge = g[src]
        if _tracked(values):
            g_values = g_edge.reshape(-1, n_heads, d // n_heads) * alpha[:, :, None]
            _accum(values, sums_to_target @ g_values.reshape(g_edge.shape), fresh=True)
        if not (_tracked(queries) or _tracked(keys)):
            return
        g_edge *= vv[tgt]
        d_prod = _segment_softmax_backward(g_edge @ blocks, alpha, offsets) @ scaled.T
        del g_edge
        if _tracked(queries):
            _accum(queries, sums_to_source @ (d_prod * kv[tgt]), fresh=True)
        if _tracked(keys):
            d_prod *= qv[src]
            _accum(keys, sums_to_target @ d_prod, fresh=True)

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
    return _segment_softmax(edges.slot_logits(entity, relation), edges.offsets)


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
    share is a segment sum.
    """
    ev, rv = _values(entity), _values(relation)
    _check_kg_tables("kg_pool", ev, rv, edges)
    offsets, operator = edges.offsets, edges.mean_operator
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
            np.einsum("ij,ij,ij->i", g_edge, rel_rows, tail_rows), beta, offsets)
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
            grad = _segsum(tail_rows, offsets)  # heads own the segments
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


def _prototype_weights(name, e, prototypes):
    """The (n, K) weights `prototype_mix` applies to the plain (n, d) `e`
    and (K, d) `prototypes`, the max-shifted row softmax of
    `e @ prototypes.T`, and the transposed copy of the prototypes that
    product reads. Bad shapes and an empty prototype set raise, by `name`.
    """
    if e.ndim != 2 or prototypes.ndim != 2 or e.shape[1] != prototypes.shape[1]:
        raise ShapeError(f"{name}: embeddings {e.shape} vs prototypes {prototypes.shape}")
    if prototypes.shape[0] < 1:
        raise DomainError(f"{name}: need at least one prototype")
    transposed = prototypes.T.copy()
    logits = e @ transposed
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return exp / exp.sum(axis=-1, keepdims=True), transposed


def prototype_mix(e, prototypes):
    """Attentive mixture over prototype rows: softmax(e @ P.T) @ P.

    `e` is (n, d) and the prototypes P are (K, d), K >= 1. Row i of the
    weights is the softmax over k of e_i . p_k, and row i of the output the
    weighted sum of the rows of P. Only the (n, K) weights w and the
    transposed copy of P are kept. Backward adds `w.T @ g` into P first,
    then pushes `g @ P.T` through the softmax to the logit gradient dL and
    adds `dL @ P` into `e` and `(e.T @ dL).T` into P: the arithmetic and
    order of the matmul, transpose, softmax and matmul it fuses, so the
    gradients are bitwise equal to theirs.
    """
    ev, pv = _values(e), _values(prototypes)
    w, transposed = _prototype_weights("prototype_mix", ev, pv)
    out = Tensor(w @ pv, requires_grad=_needs_grad(e, prototypes))

    def backward(g):
        if _tracked(prototypes):
            _accum(prototypes, w.T @ g, fresh=True)
        g_w = g @ pv.T
        d_logits = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
        if _tracked(e):
            _accum(e, d_logits @ transposed.T, fresh=True)
        if _tracked(prototypes):
            _accum(prototypes, (ev.T @ d_logits).T)

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
                grad = _scatter_rows(idx, g[:, None] * other, tracked[0].values.shape[0])
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
    """Euclidean norms of the rows of `z`, none of them zero."""
    sq = (z * z).sum(axis=1)
    if np.any(sq <= 0.0):
        raise DomainError("infonce: zero-norm embedding row")
    return np.sqrt(sq)


def _unit_rows_backward(grad, unit, norms):
    """Push a gradient on the unit rows through the normalization z / |z|."""
    return (grad - unit * (grad * unit).sum(axis=1)[:, None]) / norms[:, None]


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
    """The process's one pool of worker threads, one per core, started by
    the first pooled `infonce` or `experiments.recall_at_k` call."""
    return ThreadPoolExecutor(max_workers=_cores(), thread_name_prefix="kgtn-worker")


# A forked child inherits the executor but not its threads: it starts its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


class _InfonceTerm:
    """One InfoNCE term: `__init__` checks it and reads its rows on the
    calling thread, `run` does the slab work on any thread.

    `run` allocates every buffer it writes and drops them when it returns,
    keeping only the value and the (b, d) gradients on the table rows, so a
    term holds its buffers only while it runs.
    """

    def __init__(self, global_table, local_table, rows, tau, include_positive):
        gt, lt = _values(global_table), _values(local_table)
        if gt.ndim != 2 or lt.ndim != 2 or gt.shape[1] != lt.shape[1]:
            raise ShapeError(
                f"infonce: tables {gt.shape} and {lt.shape} are not matrices of one width")
        self.rows = _row_index("infonce", rows, min(gt.shape[0], lt.shape[0]))
        b = self.rows.size
        if b < 2:
            raise DomainError(f"infonce: needs at least 2 rows, got {b}")
        if not tau > 0:
            raise DomainError(f"infonce: temperature must be positive, got {tau}")
        self.tables = global_table, local_table
        self.views = gt[self.rows], lt[self.rows]
        self.b, self.tau, self.include_positive = b, tau, include_positive
        self.g_norms, self.l_norms = _row_norms(self.views[0]), _row_norms(self.views[1])
        self.requires_grad = _needs_grad(global_table, local_table)
        self.slab = max(1, INFONCE_SLAB_BYTES // (2 * b * 8))

    def run(self):
        """Set `value` and `grads`, the (table, (b, d) gradient) pairs of the
        tracked tables, forming the logit block slab by slab."""
        b, tau, slab = self.b, self.tau, self.slab
        gv, lv = self.views
        del self.views
        # the unit rows of both views, stacked: keys = [ln; gn]
        keys = np.empty((2 * b, gv.shape[1]))
        ln, gn = keys[:b], keys[b:]
        np.multiply(lv, (1.0 / self.l_norms)[:, None], out=ln)
        np.multiply(gv, (1.0 / self.g_norms)[:, None], out=gn)
        queries = gn * (1.0 / tau)
        if self.requires_grad:
            d_gn = np.empty_like(gn)
            d_keys = np.zeros_like(keys)
        terms = np.empty(b)
        buffer = np.empty((min(slab, b), 2 * b))
        for r0 in range(0, b, slab):
            r1 = min(r0 + slab, b)
            rows = np.arange(r1 - r0)
            diag = r0 + rows
            block = np.matmul(queries[r0:r1], keys.T, out=buffer[:r1 - r0])
            positive = block[rows, diag]
            block[rows, b + diag] = -np.inf
            if not self.include_positive:
                block[rows, diag] = -np.inf
            shift = block.max(axis=1)
            block -= shift[:, None]
            np.exp(block, out=block)
            mass = block.sum(axis=1)
            terms[r0:r1] = shift + np.log(mass) - positive
            if not self.requires_grad:
                continue
            # d out / d block = (softmax - positive indicator) / b, and the block
            # is (gn / tau) @ keys.T: fold 1 / (b * tau) into the softmax rows.
            block *= (1.0 / (mass * (b * tau)))[:, None]
            block[rows, diag] -= 1.0 / (b * tau)
            np.matmul(block, keys, out=d_gn[r0:r1])
            # d_keys += block.T @ gn[r0:r1], accumulated in place: the transposed
            # product d_keys.T += gn[r0:r1].T @ block on the Fortran views
            d_keys = dgemm(1.0, gn[r0:r1].T, block.T, beta=1.0, c=d_keys.T,
                           trans_b=1, overwrite_c=1).T
        self.value = np.mean(terms)
        del buffer, queries, terms   # the gradients below can reuse their room
        self.grads = []
        if self.requires_grad:
            global_table, local_table = self.tables
            if _tracked(global_table):
                d_gn += d_keys[b:]
                self.grads.append((global_table, _unit_rows_backward(d_gn, gn, self.g_norms)))
            if _tracked(local_table):
                self.grads.append(
                    (local_table, _unit_rows_backward(d_keys[:b], ln, self.l_norms)))


def infonce(pairs, tau, include_positive=False):
    """The sum over `(global_table, local_table, rows)` triples of one
    InfoNCE term each, the mean over `rows` below; one scalar tensor.

    A term reads the (b, d) views `table[rows]` of both tables (repeats
    allowed). Row i of each view is normalized; its positive is the
    cross-view logit gn_i . ln_i / tau, and its candidates are the logit row
    gn_i @ [ln; gn].T / tau with the self-similarity gn_i . gn_i masked to
    -inf, and the positive masked too unless `include_positive` is set.
    The term is the max-shifted row log-sum-exp minus the positive, so it
    is finite for every temperature whose reciprocal is a finite float.

    A term's (b, 2b) logit block never exists whole: it is formed, reduced
    and differentiated in slabs of rows of at most `INFONCE_SLAB_BYTES`. The
    output is a scalar, so each view's gradient is a fixed (b, d) array
    times the upstream scalar. When recorded, the op forms those arrays
    here, slab by slab, from the softmax of the slab; backward only scales
    them and scatter-adds them into the tables' rows, as `score` does.

    Every triple is checked, and its views read, on the calling thread
    before any term is computed, so a bad triple raises here and nothing is
    recorded. The terms share nothing: when the process may run on more
    than one core and some term spans more than one slab, each term runs
    on a thread of the worker pool, otherwise one after another on the
    calling thread. A term's arithmetic is the same on either path, so the
    results are bitwise equal. The pool has one thread per core, so at
    most that many terms hold their buffers at once. The calling thread
    then records the one `infonce` node; no worker touches the tape.
    """
    if not pairs:
        raise DomainError("infonce: no (global, local, rows) triples")
    terms = [_InfonceTerm(g, l, rows, tau, include_positive) for g, l, rows in pairs]
    pooled = len(terms) > 1 and _cores() > 1 and any(t.slab < t.b for t in terms)
    list((_executor().map if pooled else map)(_InfonceTerm.run, terms))
    out = Tensor(sum(t.value for t in terms), requires_grad=any(t.requires_grad for t in terms))
    grads = [(table, t.rows, grad) for t in terms for table, grad in t.grads]

    def backward(g):
        for table, rows, grad in grads:
            grad *= g
            _accum(table, _scatter_rows(rows, grad, table.values.shape[0]), fresh=True)
        grads.clear()

    _record("infonce", out, backward)
    return out

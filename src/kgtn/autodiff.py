"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set covers exactly what the recommender's forward pass needs:
- arithmetic: `add`, `sub`, `mul` (elementwise, with scalar broadcast);
- linear algebra: `matmul`, `transpose`;
- layout: `gather_rows` (whose backward scatter-adds), `slice_rows` (a
  contiguous block of rows, whose backward is a slice add), `concat`
  (row-wise);
- neighborhood sums: `spmm`, a constant sparse matrix (cached by the graph
  that owns the structure) times a dense block, with a fallback row where
  the matrix row is empty;
- fused edge operations, one node each over every edge of a graph:
  `edge_attention` (one direction of masked multi-head attention),
  `kg_pool` (the relation-aware attention pool of the KG slots) and
  `gated_sum` (the per-head mean of relation-gated KG rows);
- reductions: `sum_all`, `mean_all`, `rowsum`;
- maps: `softmax`, `softplus`;
- the contrastive objective: `infonce`, one fused node per InfoNCE term.
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
  The closures and the forward values they captured stay alive until the
  tape is dropped.

Backward does only the work a gradient needs:
- The first contribution to a tensor without a `.grad` buffer becomes the
  buffer. An array the backward has just computed is adopted as is; a
  pass-through gradient or a view of one (the upstream gradient itself, a
  transpose, a split piece, a broadcast) is copied, so no two tensors
  share a buffer. Later contributions are added in place.
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
  it has none); `slice_rows` adds into its own rows the same way. Neither
  forms a full-size masked copy of the upstream gradient.
- The scatter behind `gather_rows`, the one op that takes per-step batch
  indices, is one flat `np.bincount` over `row * d + column`, summed into
  the table's gradient as a single block.
- The fused edge operations keep no (E, d) array between forward and
  backward, only their operands and per-edge weights: the (E, H)
  attention weights, the (E,) slot weights. Backward gathers the edge
  rows it needs again, which costs a few gathers and saves holding them
  on the tape for the whole step. Gradients onto the rows of a graph go
  through its cached one-hot operators (the interaction graph's
  `source_sum` and `target_sum`, the KG's `tail_sum` and `relation_sum`)
  or through a segment sum for the KG heads that group the slots.
- `infonce` forms its operand gradients in the forward: its output is a
  scalar, so each gradient is a fixed (b, d) array times the upstream
  scalar. The (b, 2b) logit block is built, reduced and differentiated in
  slabs of rows of at most `INFONCE_SLAB_BYTES`; each slab writes its
  rows of the global view's gradient and adds its share of the key
  gradient in place, so the whole block never exists. Backward only
  scales and accumulates.

Forward ops never mutate their inputs; only `.grad` buffers change during
backward. Tape recording and backward are single-threaded per training step.
"""
from __future__ import annotations

import math
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

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(constant(other), self)

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
    """Ordered record of executed primitives; replayed backward once."""

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

        Each recorded output's `.grad` is released once its node has run, so
        afterwards only leaves hold gradients. A tape replays once: calling
        `backward` again raises `ContractError` (a rejected loss does not
        count as a replay).
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
        for _, out, backward_fn in reversed(self._nodes):
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


def sub(a, b):
    av, bv = _binary_shapes("sub", a, b)
    out = Tensor(av - bv, requires_grad=_needs_grad(a, b))

    def backward(g):
        _accum(a, _reduce_to(g, av.shape))
        if _tracked(b):
            _accum(b, _reduce_to(-g, bv.shape), fresh=True)

    _record("sub", out, backward)
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


def transpose(a):
    av = _values(a)
    if av.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {av.shape}")
    out = Tensor(av.T.copy(), requires_grad=_needs_grad(a))
    _record("transpose", out, lambda g: _accum(a, g.T))
    return out


# ---------------------------------------------------------------------------
# indexing and layout


def _row_index(index):
    """A 1-d integer row index; an empty index of any dtype is allowed."""
    idx = np.asarray(index)
    if idx.ndim == 1 and idx.dtype.kind in "iu":
        return idx
    if idx.size == 0:
        return np.zeros(0, dtype=np.intp)
    raise ShapeError(
        f"gather_rows: index must be a 1-d integer array, got {idx.dtype} "
        f"with shape {idx.shape}"
    )


def gather_rows(table, index):
    """Select rows `table[index]`; backward scatters gradients back additively.

    `index` is a 1-d integer array (repeats allowed); boolean masks, float
    or multi-dimensional indexes raise `ShapeError`.
    """
    tv = _values(table)
    idx = _row_index(index)
    if tv.ndim != 2:
        raise ShapeError(f"gather_rows: expected a matrix, got shape {tv.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= tv.shape[0]):
        raise ShapeError(
            f"gather_rows: index out of range for table with {tv.shape[0]} rows"
        )
    out = Tensor(tv[idx], requires_grad=_needs_grad(table))
    _record("gather_rows", out, lambda g: _accum(table, _scatter_rows(idx, g, tv.shape[0]),
                                                 fresh=True))
    return out


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

    Row i of the output is `(matrix @ x)[i]`, or `fallback[i]` when row i of
    `matrix` holds no entries. `matrix` is a constant `SparseOperator`
    (n, m), `x` is (m, d) and `fallback` is (n, d). Backward gives
    `matrix.T @ g` to `x`, through the transpose the operator keeps, and
    `g` on the empty rows only to `fallback`.
    """
    if not isinstance(matrix, SparseOperator):
        raise ContractError(f"spmm: matrix must be a SparseOperator, got {type(matrix).__name__}")
    xv, fv = _values(x), _values(fallback)
    n, m = matrix.shape
    if xv.ndim != 2 or xv.shape[0] != m or fv.shape != (n, xv.shape[1]):
        raise ShapeError(
            f"spmm: matrix {matrix.shape}, x {xv.shape} and fallback {fv.shape} do not fit"
        )
    sums = matrix @ xv
    _fallback_rows(matrix, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(x, fallback))

    def backward(g):
        _accum_fallback(fallback, g, matrix)
        if _tracked(x):
            _accum(x, matrix.transposed @ g, fresh=True)

    _record("spmm", out, backward)
    return out


def concat(parts):
    """Stack matrices row-wise (along axis 0)."""
    vals = [_values(p) for p in parts]
    if not parts:
        raise DomainError("concat: no operands")
    out = Tensor(np.concatenate(vals), requires_grad=_needs_grad(*parts))
    splits = np.cumsum([v.shape[0] for v in vals])[:-1]

    def backward(g):
        for part, piece in zip(parts, np.split(g, splits)):
            _accum(part, piece)

    _record("concat", out, backward)
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
    `alpha @ blocks.T` spreads each head's weight over its value columns.
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
    msg *= alpha @ blocks.T
    sums = sums_to_source @ msg
    del msg
    _fallback_rows(sums_to_source, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(queries, keys, values, fallback))

    def backward(g):
        _accum_fallback(fallback, g, sums_to_source)
        g_edge = g[src]
        if _tracked(values):
            _accum(values, sums_to_target @ (g_edge * (alpha @ blocks.T)), fresh=True)
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


def mean_all(a):
    av = _values(a)
    if av.size == 0:
        raise DomainError("mean_all: empty input")
    out = Tensor(av.mean(), requires_grad=_needs_grad(a))
    _record("mean_all", out, lambda g: _accum(a, np.broadcast_to(g / av.size, av.shape)))
    return out


def rowsum(a):
    """Sum a matrix over its columns: (n, d) -> (n,)."""
    av = _values(a)
    if av.ndim != 2:
        raise ShapeError(f"rowsum: expected a matrix, got shape {av.shape}")
    out = Tensor(av.sum(axis=1), requires_grad=_needs_grad(a))
    _record("rowsum", out, lambda g: _accum(a, np.broadcast_to(g[:, None], av.shape)))
    return out


# ---------------------------------------------------------------------------
# elementwise maps


def softmax(a):
    """Softmax over the last axis of a vector or matrix, max-shifted."""
    av = _values(a)
    if av.size == 0:
        raise DomainError("softmax: empty input")
    if av.ndim not in (1, 2):
        raise ShapeError(f"softmax: expected vector or matrix, got shape {av.shape}")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s, requires_grad=_needs_grad(a))

    def backward(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        _accum(a, s * (g - inner), fresh=True)

    _record("softmax", out, backward)
    return out


def softplus(a):
    """log(1 + exp(x)) computed without overflow; gradient is sigmoid(x)."""
    av = _values(a)
    v = np.logaddexp(0.0, av)
    out = Tensor(v, requires_grad=_needs_grad(a))
    _record("softplus", out, lambda g: _accum(a, g * expit(av), fresh=True))
    return out


# ---------------------------------------------------------------------------
# contrastive objective


def _unit_rows(z):
    """Rows of `z` scaled to unit length, and their original norms."""
    sq = (z * z).sum(axis=1)
    if np.any(sq <= 0.0):
        raise DomainError("infonce: zero-norm embedding row")
    norms = np.sqrt(sq)
    return z * (1.0 / norms)[:, None], norms


def _unit_rows_backward(grad, unit, norms):
    """Push a gradient on the unit rows through the normalization z / |z|."""
    return (grad - unit * (grad * unit).sum(axis=1)[:, None]) / norms[:, None]


# Cap on the bytes of one row slab of the InfoNCE logit block.
INFONCE_SLAB_BYTES = 2 ** 21


def infonce(global_rows, local_rows, tau, include_positive=False):
    """Mean over rows of the InfoNCE term between two (b, d) views.

    Row i of each view is normalized; its positive is the cross-view logit
    gn_i . ln_i / tau, and its candidates are the logit row
    gn_i @ [ln; gn].T / tau with the self-similarity gn_i . gn_i masked to
    -inf, and the positive masked too unless `include_positive` is set.
    The term is the max-shifted row log-sum-exp minus the positive, so it
    is finite for every temperature whose reciprocal is a finite float.

    The (b, 2b) logit block never exists whole: it is formed, reduced and
    differentiated in slabs of rows of at most `INFONCE_SLAB_BYTES`. The
    output is a scalar, so each operand's gradient is a fixed (b, d) array
    times the upstream scalar. When recorded, the op forms those arrays
    here, slab by slab, from the softmax of the slab; backward only scales
    and accumulates them.
    """
    gv, lv = _values(global_rows), _values(local_rows)
    if gv.ndim != 2 or gv.shape != lv.shape:
        raise ShapeError(f"infonce: views {gv.shape} and {lv.shape} are not matching matrices")
    b = gv.shape[0]
    if b < 2:
        raise DomainError(f"infonce: needs at least 2 rows, got {b}")
    if not tau > 0:
        raise DomainError(f"infonce: temperature must be positive, got {tau}")
    gn, g_norms = _unit_rows(gv)
    ln, l_norms = _unit_rows(lv)
    keys = np.concatenate([ln, gn])
    queries = gn * (1.0 / tau)
    requires_grad = _needs_grad(global_rows, local_rows)
    if requires_grad:
        d_gn = np.empty_like(gn)
        d_keys = np.zeros_like(keys)
    terms = np.empty(b)
    slab = max(1, INFONCE_SLAB_BYTES // (2 * b * 8))
    for r0 in range(0, b, slab):
        r1 = min(r0 + slab, b)
        rows = np.arange(r1 - r0)
        diag = r0 + rows
        block = queries[r0:r1] @ keys.T
        positive = block[rows, diag]
        block[rows, b + diag] = -np.inf
        if not include_positive:
            block[rows, diag] = -np.inf
        shift = block.max(axis=1)
        block -= shift[:, None]
        np.exp(block, out=block)
        mass = block.sum(axis=1)
        terms[r0:r1] = shift + np.log(mass) - positive
        if not requires_grad:
            continue
        # d out / d block = (softmax - positive indicator) / b, and the block
        # is (gn / tau) @ keys.T: fold 1 / (b * tau) into the softmax rows.
        block *= (1.0 / (mass * (b * tau)))[:, None]
        block[rows, diag] -= 1.0 / (b * tau)
        np.matmul(block, keys, out=d_gn[r0:r1])
        # d_keys += block.T @ gn[r0:r1], accumulated in place: the transposed
        # product d_keys.T += gn[r0:r1].T @ block on the Fortran views
        d_keys = dgemm(1.0, gn[r0:r1].T, block.T, beta=1.0, c=d_keys.T, trans_b=1,
                       overwrite_c=1).T
    out = Tensor(np.mean(terms), requires_grad=requires_grad)
    if not requires_grad:
        return out

    grads = []
    if _tracked(global_rows):
        d_gn += d_keys[b:]
        grads.append((global_rows, _unit_rows_backward(d_gn, gn, g_norms)))
    if _tracked(local_rows):
        grads.append((local_rows, _unit_rows_backward(d_keys[:b], ln, l_norms)))

    def backward(g):
        for operand, grad in grads:
            grad *= g
            _accum(operand, grad, fresh=True)
        grads.clear()

    _record("infonce", out, backward)
    return out

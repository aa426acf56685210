"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set covers exactly what the recommender's forward pass needs:
- arithmetic: `add`, `sub`, `mul` (elementwise, with scalar broadcast);
- linear algebra: `matmul`, `transpose`;
- layout: `gather_rows` (whose backward scatter-adds), `concat` (row-wise);
- neighborhood sums: `spmm`, a constant sparse matrix (cached by the graph
  that owns the structure) times a dense block, with a fallback row where
  the matrix row is empty;
- fused edge operations, one node each over every edge of a graph:
  `edge_attention` (one direction of masked multi-head attention),
  `slot_attention` (the relation-aware KG slot weights) and `gated_sum`
  (a sparse sum of relation-gated rows, optionally weighted per edge);
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
  transpose, a split piece, a broadcast) is copied, so no two tensors ever
  share a buffer. Later contributions are added in place.
- Operands that are not grad-requiring tensors (constants, Python numbers)
  get no gradient computed at all.
- The scatter behind `gather_rows` is one flat `np.bincount` over
  `row * d + column`, summed into the table's gradient as a single block.
- The fused edge operations keep no (E, d) array between forward and
  backward, only their operands and per-edge weights: the (E, H)
  attention weights, the (E,) slot weights. Backward gathers the edge
  rows it needs again, which costs a few gathers and saves holding them
  on the tape for the whole step. Gradients onto the rows of a graph go
  through its cached one-hot operators where it has them (the
  interaction graph's `source_sum` and `target_sum`), through a segment
  sum for the KG heads that group the slots, and otherwise through the
  same bincount scatter as `gather_rows`.
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


def _row_index(index, name="gather_rows"):
    """A 1-d integer row index; an empty index of any dtype is allowed."""
    idx = np.asarray(index)
    if idx.ndim == 1 and idx.dtype.kind in "iu":
        return idx
    if idx.size == 0:
        return np.zeros(0, dtype=np.intp)
    raise ShapeError(
        f"{name}: index must be a 1-d integer array, got {idx.dtype} "
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


def _scatter_rows(index, rows, n):
    """(n, d) sums of `rows` by their row `index`: one flat bincount over
    `row * d + column`."""
    d = rows.shape[1]
    flat = (index.astype(np.intp, copy=False)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def _check_csr(name, matrix):
    if not (sparse.issparse(matrix) and matrix.format == "csr"):
        raise ContractError(
            f"{name}: matrix must be a constant CSR sparse matrix, got {type(matrix).__name__}"
        )


def _fallback_rows(matrix, sums, fallback):
    """Put `fallback` rows where `matrix` has an empty row; return the mask."""
    empty = matrix.indptr[1:] == matrix.indptr[:-1]
    if empty.any():
        sums[empty] = fallback[empty]
    return empty


def _accum_fallback(fallback, g, empty):
    if _tracked(fallback):
        _accum(fallback, np.where(empty[:, None], g, 0.0), fresh=True)


def spmm(matrix, x, fallback):
    """Sparse-dense product whose rows without entries fall back.

    Row i of the output is `(matrix @ x)[i]`, or `fallback[i]` when row i of
    `matrix` holds no entries. `matrix` is a constant scipy CSR matrix
    (n, m), `x` is (m, d) and `fallback` is (n, d). Backward gives
    `matrix.T @ g` to `x` and `g` on the empty rows only to `fallback`.
    """
    _check_csr("spmm", matrix)
    xv, fv = _values(x), _values(fallback)
    n, m = matrix.shape
    if xv.ndim != 2 or xv.shape[0] != m or fv.shape != (n, xv.shape[1]):
        raise ShapeError(
            f"spmm: matrix {matrix.shape}, x {xv.shape} and fallback {fv.shape} do not fit"
        )
    sums = matrix @ xv
    empty = _fallback_rows(matrix, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(x, fallback))

    def backward(g):
        _accum_fallback(fallback, g, empty)
        if _tracked(x):
            _accum(x, matrix.T @ g, fresh=True)

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


def _segsum(x, offsets):
    # np.add.reduceat mishandles empty segments; route around them.
    n = offsets.size - 1
    out = np.zeros((n,) + x.shape[1:], dtype=np.float64)
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = np.add.reduceat(x, offsets[:-1][nonempty], axis=0)
    return out


def _segmax(x, offsets):
    n = offsets.size - 1
    out = np.full((n,) + x.shape[1:], -np.inf, dtype=np.float64)
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(x, offsets[:-1][nonempty], axis=0)
    return out


def _segment_softmax(logits, offsets):
    """Softmax of each column within every CSR segment, max-shifted."""
    counts = np.diff(offsets)
    shifted = logits - np.repeat(_segmax(logits, offsets), counts, axis=0)
    e = np.exp(shifted)
    return e / np.repeat(_segsum(e, offsets), counts, axis=0)


def _segment_softmax_backward(g, s, offsets):
    """Gradient on the logits of `s = _segment_softmax(logits, offsets)`."""
    inner = np.repeat(_segsum(g * s, offsets), np.diff(offsets), axis=0)
    return s * (g - inner)


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
    # (d, H) head indicator: (q * k) @ blocks gives one column per head and
    # alpha @ blocks.T spreads each head's weight over its value columns
    blocks = np.repeat(np.eye(n_heads), d // n_heads, axis=0)
    scaled = blocks * (1.0 / math.sqrt(d / n_heads))
    prod = qv[src]
    prod *= kv[tgt]
    alpha = _segment_softmax(prod @ scaled, offsets)
    del prod
    msg = vv[tgt]
    msg *= alpha @ blocks.T
    sums = sums_to_source @ msg
    del msg
    empty = _fallback_rows(sums_to_source, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(queries, keys, values, fallback))

    def backward(g):
        _accum_fallback(fallback, g, empty)
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


def slot_attention(entity, relation, edges):
    """Relation-aware attention weight of every knowledge-graph slot.

    `edges` is a `data.KGEdges`, its slots grouped by head along
    `edges.offsets`. The weight of slot (h, r, t) is the softmax, over head
    h's slots, of its logit `edges.slot_logits`: e_h . e_t + e_r . e_r.
    Only the (E,) weights are kept; backward gathers the slot rows again.
    """
    ev, rv = _values(entity), _values(relation)
    offsets = edges.offsets
    if ev.ndim != 2 or rv.ndim != 2 or ev.shape[1] != rv.shape[1] or ev.shape[0] != offsets.size - 1:
        raise ShapeError(
            f"slot_attention: entities {ev.shape} and relations {rv.shape} do not fit "
            f"{offsets.size - 1} heads"
        )
    beta = _segment_softmax(edges.slot_logits(ev, rv), offsets)
    out = Tensor(beta, requires_grad=_needs_grad(entity, relation))

    def backward(g):
        d_logits = _segment_softmax_backward(g, beta, offsets)[:, None]
        if _tracked(entity):
            grad = _segsum(d_logits * ev[edges.tail], offsets)  # heads own the segments
            grad += _scatter_rows(edges.tail, d_logits * ev[edges.head], ev.shape[0])
            _accum(entity, grad, fresh=True)
        if _tracked(relation):
            rows = rv[edges.rel]
            rows *= 2.0 * d_logits
            _accum(relation, _scatter_rows(edges.rel, rows, rv.shape[0]), fresh=True)

    _record("slot_attention", out, backward)
    return out


def gated_sum(operator, gate, gate_index, table, table_index, fallback, weight=None):
    """Sparse sum of gated rows, `operator @ (gate[gate_index] * table[table_index])`.

    Edge e's message is gate row `gate_index[e]` times table row
    `table_index[e]`, scaled by `weight[e]` when an (E,) `weight` is given.
    `operator` is a constant (n, E) CSR matrix; row i of the output is row i
    of the product, or `fallback[i]` where row i of `operator` is empty.
    Only the operands are kept; backward gathers the edge rows again.
    """
    _check_csr("gated_sum", operator)
    gv, tv, fv = _values(gate), _values(table), _values(fallback)
    gidx, tidx = _row_index(gate_index, "gated_sum"), _row_index(table_index, "gated_sum")
    wv = None if weight is None else _values(weight)
    n, n_edges = operator.shape
    if (gv.ndim != 2 or tv.ndim != 2 or gv.shape[1] != tv.shape[1]
            or fv.shape != (n, tv.shape[1]) or gidx.shape != (n_edges,)
            or tidx.shape != (n_edges,) or (wv is not None and wv.shape != (n_edges,))):
        raise ShapeError(
            f"gated_sum: operator {operator.shape}, gate {gv.shape}, table {tv.shape}, "
            f"fallback {fv.shape} and {n_edges} edges do not fit"
        )
    msg = gv[gidx]
    msg *= tv[tidx]
    if wv is not None:
        msg *= wv[:, None]
    sums = operator @ msg
    del msg
    empty = _fallback_rows(operator, sums, fv)
    out = Tensor(sums, requires_grad=_needs_grad(gate, table, fallback, weight))

    def backward(g):
        _accum_fallback(fallback, g, empty)
        g_edge = operator.T @ g
        gate_rows, table_rows = gv[gidx], tv[tidx]
        if _tracked(weight):
            _accum(weight, (g_edge * (gate_rows * table_rows)).sum(axis=1), fresh=True)
        if wv is not None:
            g_edge *= wv[:, None]
        if _tracked(gate):
            _accum(gate, _scatter_rows(gidx, g_edge * table_rows, gv.shape[0]), fresh=True)
        if _tracked(table):
            g_edge *= gate_rows
            _accum(table, _scatter_rows(tidx, g_edge, tv.shape[0]), fresh=True)

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

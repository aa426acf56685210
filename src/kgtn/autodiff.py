"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set covers exactly what the recommender's forward pass needs:
- arithmetic: `add`, `sub`, `mul` (elementwise, with scalar broadcast);
- linear algebra: `matmul`, `transpose`;
- layout: `gather_rows` (whose backward scatter-adds), `concat`
  (row-wise), and over CSR neighborhoods `segment_softmax` (column by
  column for multi-head logits);
- neighborhood sums: `spmm`, one node per neighborhood aggregation: a
  constant sparse matrix (cached by the graph that owns the structure)
  times a dense block, with a fallback row where the matrix row is empty;
- reductions and scaling: `sum_all`, `mean_all`, `rowsum`, `scale_rows`;
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
- `infonce` is the one op that forms its operand gradients in the
  forward: its output is a scalar, so each gradient is a fixed (b, d)
  array times the upstream scalar. Building them while the (b, 2b) logit
  block exists lets the block be freed before the op returns; backward
  only scales and accumulates.

Forward ops never mutate their inputs; only `.grad` buffers change during
backward. Tape recording and backward are single-threaded per training step.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
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
    n, d = tv.shape

    def backward(g):
        flat = (idx.astype(np.intp, copy=False)[:, None] * d + np.arange(d)).ravel()
        block = np.bincount(flat, weights=g.ravel(), minlength=n * d)
        _accum(table, block.reshape(n, d), fresh=True)

    _record("gather_rows", out, backward)
    return out


def _check_offsets(name, offsets, length):
    off = np.asarray(offsets)
    if off.ndim != 1 or off.size < 1:
        raise ShapeError(f"{name}: offsets must be a 1-d array")
    if off[0] != 0 or off[-1] != length or np.any(np.diff(off) < 0):
        raise ShapeError(
            f"{name}: offsets must rise from 0 to {length}, got [{off[0]}..{off[-1]}]"
        )
    return off


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


def spmm(matrix, x, fallback):
    """Sparse-dense product whose rows without entries fall back.

    Row i of the output is `(matrix @ x)[i]`, or `fallback[i]` when row i of
    `matrix` holds no entries. `matrix` is a constant scipy CSR matrix
    (n, m), `x` is (m, d) and `fallback` is (n, d). Backward gives
    `matrix.T @ g` to `x` and `g` on the empty rows only to `fallback`.
    """
    if not (sparse.issparse(matrix) and matrix.format == "csr"):
        raise ContractError(
            f"spmm: matrix must be a constant CSR sparse matrix, got {type(matrix).__name__}"
        )
    xv, fv = _values(x), _values(fallback)
    n, m = matrix.shape
    if xv.ndim != 2 or xv.shape[0] != m or fv.shape != (n, xv.shape[1]):
        raise ShapeError(
            f"spmm: matrix {matrix.shape}, x {xv.shape} and fallback {fv.shape} do not fit"
        )
    empty = matrix.indptr[1:] == matrix.indptr[:-1]
    sums = matrix @ xv
    if empty.any():
        sums[empty] = fv[empty]
    out = Tensor(sums, requires_grad=_needs_grad(x, fallback))

    def backward(g):
        if _tracked(fallback):
            _accum(fallback, np.where(empty[:, None], g, 0.0), fresh=True)
        if _tracked(x):
            _accum(x, matrix.T @ g, fresh=True)

    _record("spmm", out, backward)
    return out


def segment_softmax(logits, offsets):
    """Softmax within each consecutive CSR segment, max-shifted for stability.

    `logits` is a vector or an (E, H) matrix; each column of a matrix is its
    own softmax over the same segments (one column per attention head).
    """
    lv = _values(logits)
    if lv.ndim not in (1, 2):
        raise ShapeError(f"segment_softmax: expected a vector or matrix, got shape {lv.shape}")
    off = _check_offsets("segment_softmax", offsets, lv.shape[0])
    counts = np.diff(off)
    shifted = lv - np.repeat(_segmax(lv, off), counts, axis=0)
    e = np.exp(shifted)
    denom = np.repeat(_segsum(e, off), counts, axis=0)
    s = e / denom
    out = Tensor(s, requires_grad=_needs_grad(logits))

    def backward(g):
        inner = np.repeat(_segsum(g * s, off), counts, axis=0)
        _accum(logits, s * (g - inner), fresh=True)

    _record("segment_softmax", out, backward)
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


def scale_rows(m, w):
    """Scale row i of a matrix by w[i]; differentiable through both operands."""
    mv, wv = _values(m), _values(w)
    if mv.ndim != 2 or wv.shape != (mv.shape[0],):
        raise ShapeError(f"scale_rows: matrix {mv.shape} incompatible with weights {wv.shape}")
    out = Tensor(mv * wv[:, None], requires_grad=_needs_grad(m, w))

    def backward(g):
        if _tracked(m):
            _accum(m, g * wv[:, None], fresh=True)
        if _tracked(w):
            _accum(w, (g * mv).sum(axis=1), fresh=True)

    _record("scale_rows", out, backward)
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


def infonce(global_rows, local_rows, tau, include_positive=False):
    """Mean over rows of the InfoNCE term between two (b, d) views.

    Row i of each view is normalized; its positive is the cross-view logit
    gn_i . ln_i / tau, and its candidates are one (b, 2b) logit block
    gn @ [ln; gn].T / tau with the self-similarity gn_i . gn_i masked to
    -inf, and the positive masked too unless `include_positive` is set.
    The term is the max-shifted row log-sum-exp minus the positive, so it
    is finite for every temperature whose reciprocal is a finite float.

    The output is a scalar, so each operand's gradient is a fixed (b, d)
    array times the upstream scalar. When recorded, the op forms those
    arrays here from the softmax of the block and frees the block before
    returning; backward only scales and accumulates them.
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
    block = (gn * (1.0 / tau)) @ keys.T
    diag = np.arange(b)
    positive = block[diag, diag]
    block[diag, b + diag] = -np.inf
    if not include_positive:
        block[diag, diag] = -np.inf
    shift = block.max(axis=1)
    block -= shift[:, None]
    np.exp(block, out=block)
    mass = block.sum(axis=1)
    out = Tensor(np.mean(shift + np.log(mass) - positive),
                 requires_grad=_needs_grad(global_rows, local_rows))
    if not out.requires_grad:
        return out

    # d out / d block = (softmax - positive indicator) / b, and the block
    # is (gn / tau) @ keys.T: fold 1 / (b * tau) into the softmax rows.
    block *= (1.0 / (mass * (b * tau)))[:, None]
    block[diag, diag] -= 1.0 / (b * tau)
    d_keys = block.T @ gn
    grads = []
    if _tracked(global_rows):
        d_gn = block @ keys
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

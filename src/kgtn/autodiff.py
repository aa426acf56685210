"""Dense float64 tensors with tape-based reverse-mode differentiation.

The operator set covers exactly what the recommender's forward pass needs:
matrix products, embedding-row gathers (whose backward scatter-adds),
segment softmax over CSR neighborhoods, elementwise maps, reductions, row
scaling, and concatenation.
There is no general broadcasting; the only implicit broadcasts are scalar
(0-d) tensors and plain Python numbers against an array operand.

Recording is dynamic: while a `Tape` is active (`with Tape() as tape:`),
every primitive whose inputs require gradients appends a backward closure.
`tape.backward(loss)` replays the closures in exact reverse execution order,
once per tape; a second call raises `ContractError`.

Gradient lifetime differs between leaves and intermediates:
- Leaves (parameters, and any tensor built directly with
  `requires_grad=True`) accumulate `d loss / d leaf` into `.grad`
  additively, so a parameter used in several places sums its
  contributions. Their gradients are zeroed explicitly between optimizer
  steps, never implicitly.
- Intermediates (the loss and every recorded op output) hold a `.grad`
  only while backward still needs it: each node takes its output's
  gradient, sets `.grad` back to `None` and then pushes the gradient to
  its operands. After `backward` returns, only leaves carry gradients.
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

Forward ops never mutate their inputs; only `.grad` buffers change during
backward. Tape recording and backward are single-threaded per training step.
"""
from __future__ import annotations

import numpy as np
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

    def __truediv__(self, other):
        return div(self, other)

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
        for name, _ in self._nodes:
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
        for _, fn in reversed(self._nodes):
            fn()


def _record(name, out, backward_fn):
    if _TAPE is not None and out.requires_grad:

        def node():
            g = out.grad
            if g is not None:
                out.grad = None
                backward_fn(g)

        _TAPE._nodes.append((name, node))


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


def div(a, b):
    av, bv = _binary_shapes("div", a, b)
    out = Tensor(av / bv, requires_grad=_needs_grad(a, b))

    def backward(g):
        if _tracked(a):
            _accum(a, _reduce_to(g / bv, av.shape), fresh=True)
        if _tracked(b):
            _accum(b, _reduce_to(-g * av / (bv * bv), bv.shape), fresh=True)

    _record("div", out, backward)
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
    out = np.full(n, -np.inf, dtype=np.float64)
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(x, offsets[:-1][nonempty])
    return out


def segment_sum_rows(rows, offsets):
    """Sum consecutive row blocks delimited by CSR offsets (empty blocks -> 0)."""
    rv = _values(rows)
    off = _check_offsets("segment_sum_rows", offsets, rv.shape[0])
    out = Tensor(_segsum(rv, off), requires_grad=_needs_grad(rows))
    counts = np.diff(off)
    _record("segment_sum_rows", out,
            lambda g: _accum(rows, np.repeat(g, counts, axis=0), fresh=True))
    return out


def segment_softmax(logits, offsets):
    """Softmax within each consecutive CSR segment, max-shifted for stability."""
    lv = _values(logits)
    if lv.ndim != 1:
        raise ShapeError(f"segment_softmax: expected a vector, got shape {lv.shape}")
    off = _check_offsets("segment_softmax", offsets, lv.shape[0])
    counts = np.diff(off)
    shifted = lv - np.repeat(_segmax(lv, off), counts)
    e = np.exp(shifted)
    denom = np.repeat(_segsum(e, off), counts)
    s = e / denom
    out = Tensor(s, requires_grad=_needs_grad(logits))

    def backward(g):
        inner = np.repeat(_segsum(g * s, off), counts)
        _accum(logits, s * (g - inner), fresh=True)

    _record("segment_softmax", out, backward)
    return out


def concat(parts, axis=0):
    """Concatenate matrices along rows (axis 0) or columns (axis 1)."""
    vals = [_values(p) for p in parts]
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
    if not parts:
        raise DomainError("concat: no operands")
    out = Tensor(np.concatenate(vals, axis=axis), requires_grad=_needs_grad(*parts))
    sizes = [v.shape[axis] for v in vals]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        for part, piece in zip(parts, np.split(g, splits, axis=axis)):
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


def exp(a):
    av = _values(a)
    e = np.exp(av)
    out = Tensor(e, requires_grad=_needs_grad(a))
    _record("exp", out, lambda g: _accum(a, g * e, fresh=True))
    return out


def log(a):
    av = _values(a)
    if np.any(av <= 0.0):
        raise DomainError("log: input must be strictly positive")
    out = Tensor(np.log(av), requires_grad=_needs_grad(a))
    _record("log", out, lambda g: _accum(a, g / av, fresh=True))
    return out


def sqrt(a):
    av = _values(a)
    if np.any(av <= 0.0):
        raise DomainError("sqrt: input must be strictly positive")
    r = np.sqrt(av)
    out = Tensor(r, requires_grad=_needs_grad(a))
    _record("sqrt", out, lambda g: _accum(a, g / (2.0 * r), fresh=True))
    return out


def softplus(a):
    """log(1 + exp(x)) computed without overflow; gradient is sigmoid(x)."""
    av = _values(a)
    v = np.logaddexp(0.0, av)
    out = Tensor(v, requires_grad=_needs_grad(a))
    _record("softplus", out, lambda g: _accum(a, g * expit(av), fresh=True))
    return out


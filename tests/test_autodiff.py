"""Primitive-level contracts: identity cases, edge cases, finite differences."""
import inspect
import math
import multiprocessing
import re
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import logsumexp

from kgtn import autodiff as ad
from kgtn.data import InteractionGraph, KnowledgeGraph, block_operator
from kgtn.errors import ContractError, DomainError, ShapeError
from kgtn.gradcheck import check_gradients

RNG = np.random.default_rng(2024)


def fd_check(build, named, tol=1e-4):
    result = check_gradients(build, named)
    assert result.max_rel_err < tol, f"{result.worst_param}: {result.max_rel_err}"
    return result


def _public_ops():
    """The public ops of `kgtn.autodiff`, the set a training step records."""
    return {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and not name.startswith("_")} - {"constant", "parameter"}


def test_module_docstring_lists_exactly_the_public_ops():
    # the operator list runs from its lead-in to the broadcasting paragraph
    doc = ad.__doc__
    listing = doc[doc.index("The operator set"):doc.index("There is no general broadcasting")]
    listed = re.findall(r"`(\w+)`", listing)
    assert len(listed) == len(set(listed))
    assert set(listed) == _public_ops()


def test_readme_module_table_counts_the_public_ops():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    row, = (line for line in readme.splitlines() if line.startswith("| `kgtn.autodiff` |"))
    assert re.findall(r"(\d+) primitive ops", row) == [str(len(_public_ops()))]


# ---------------------------------------------------------------------------
# prototype_mix: softmax(e @ P.T) @ P; with identity prototypes, e = v[None]
# and P = I, the output is softmax(v)


def softmax(v):
    """Softmax of the last axis of a vector or matrix, through `prototype_mix`
    with identity prototypes."""
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    return ad.prototype_mix(ad.constant(v), np.eye(v.shape[1])).values


def test_softmax_equal_logits():
    for c in (0.0, 5.0, -3.25):
        np.testing.assert_allclose(softmax([c, c, c]), [np.ones(3) / 3])


def test_softmax_shift_invariance():
    v = RNG.normal(size=7)
    np.testing.assert_allclose(softmax(v), softmax(v + 17.5), atol=1e-12)


def test_softmax_two_logit_oracle():
    # e / (e + 1) and 1 / (e + 1)
    np.testing.assert_allclose(softmax([1.0, 0.0]), [[0.73105857863, 0.26894142137]], atol=1e-9)


def test_softmax_empty_input():
    # no logits means no prototypes
    with pytest.raises(DomainError):
        softmax(np.zeros(0))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one(logits):
    out = softmax(np.array(logits))
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out > 0) and np.all(out < 1 + 1e-12)


def test_softmax_rows_and_finite_difference():
    m = ad.parameter(RNG.normal(size=(4, 5)))
    np.testing.assert_allclose(softmax(m.values).sum(axis=1), np.ones(4), atol=1e-9)
    w = ad.constant(RNG.normal(size=(4, 5)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.prototype_mix(m, np.eye(5)), w)), [("m", m)])


def _prototype_mix_oracle(e, p, g):
    """The matmul, transpose, softmax, matmul composition in numpy: the
    output and the gradients of sum(g * output) on e and p, each formed and
    added in the order its four backward steps ran."""
    pt = p.T.copy()
    logits = e @ pt
    x = np.exp(logits - logits.max(axis=-1, keepdims=True))
    w = x / x.sum(axis=-1, keepdims=True)
    g_p = w.T @ g
    g_w = g @ p.T
    d_logits = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
    g_p += (e.T @ d_logits).T
    return w @ p, d_logits @ pt.T, g_p


@pytest.mark.parametrize("n, k, d", [(1, 1, 3), (5, 4, 3), (40, 7, 16)])
def test_prototype_mix_bitwise_equals_composition_oracle(n, k, d):
    rng = np.random.default_rng(n)
    e = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    p = ad.Tensor(rng.normal(size=(k, d)), requires_grad=True)
    g = rng.normal(size=(n, d))
    with ad.Tape() as tape:
        out = ad.prototype_mix(e, p)
        loss = ad.sum_all(ad.mul(out, g))
    tape.backward(loss)
    assert tape.op_counts() == {"prototype_mix": 1, "mul": 1, "sum_all": 1}
    want_out, want_e, want_p = _prototype_mix_oracle(e.values, p.values, g)
    assert out.values.tobytes() == want_out.tobytes()
    assert e.grad.tobytes() == want_e.tobytes()
    assert p.grad.tobytes() == want_p.tobytes()


@pytest.mark.parametrize("tracked", ["both", "e", "prototypes"])
def test_prototype_mix_finite_difference(tracked):
    e = RNG.normal(size=(6, 4))
    p = RNG.normal(size=(3, 4))
    e = ad.parameter(e) if tracked != "prototypes" else ad.constant(e)
    p = ad.parameter(p) if tracked != "e" else ad.constant(p)
    w = ad.constant(RNG.normal(size=(6, 4)))
    named = [(name, t) for name, t in (("e", e), ("p", p)) if t.requires_grad]
    fd_check(lambda: ad.sum_all(ad.mul(ad.prototype_mix(e, p), w)), named, tol=1e-6)
    assert all(t.grad is None for t in (e, p) if not t.requires_grad)


def test_prototype_mix_rejects_bad_operands_by_name():
    e = np.ones((3, 4))
    for bad_e, bad_p in ((np.ones(4), np.ones((2, 4))), (e, np.ones(4)),
                         (e, np.ones((2, 3))), (np.ones((3, 4, 1)), np.ones((2, 4)))):
        with pytest.raises(ShapeError, match="prototype_mix"):
            ad.prototype_mix(bad_e, bad_p)
    with pytest.raises(DomainError, match="prototype_mix.*prototype"):
        ad.prototype_mix(e, np.ones((0, 4)))


@pytest.mark.parametrize("rows", [0, 2, 5])
def test_prototype_mix_finite_difference_with_passthrough_rows(rows):
    e = ad.parameter(RNG.normal(size=(5, 4)))
    p = ad.parameter(RNG.normal(size=(3, 4)))
    w = RNG.normal(size=(5, 4))
    fd_check(lambda: ad.sum_all(ad.mul(ad.prototype_mix(e, p, rows), w)),
             [("e", e), ("p", p)], tol=1e-6)
    # the rows past `rows` pass through: their gradient is the upstream row
    np.testing.assert_array_equal(e.grad[rows:], w[rows:])
    out = ad.prototype_mix(e, p, rows).values
    assert out[:rows].tobytes() == ad.prototype_mix(e.values[:rows], p).values.tobytes()
    # a copy, so later in-place parameter writes do not reach it
    assert not np.shares_memory(out, e.values)
    np.testing.assert_array_equal(out[rows:], e.values[rows:])


def test_prototype_mix_rejects_rows_outside_the_table():
    e, p = np.ones((3, 4)), np.ones((2, 4))
    for rows in (-1, 4):
        with pytest.raises(ShapeError, match=rf"prototype_mix: rows {rows} outside \[0, 3\]"):
            ad.prototype_mix(e, p, rows)


# ---------------------------------------------------------------------------
# Hadamard (elementwise) product and arithmetic; `mul` is the product


def test_hadamard_identity_and_annihilator():
    a = ad.constant([2.0, -3.0, 0.5])
    np.testing.assert_array_equal(ad.mul(a, ad.constant(np.ones(3))).values, a.values)
    np.testing.assert_array_equal(ad.mul(a, ad.constant(np.zeros(3))).values, np.zeros(3))


def test_hadamard_scalar_oracle():
    np.testing.assert_array_equal(
        ad.mul(ad.constant([2.0, 3.0]), ad.constant([4.0, 5.0])).values, [8.0, 15.0]
    )


def test_hadamard_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.mul(ad.constant(np.ones(3)), ad.constant(np.ones(4)))


def test_elementwise_finite_difference():
    a = ad.parameter(RNG.normal(size=(3, 3)) + 3.0)
    b = ad.parameter(RNG.normal(size=(3, 3)) + 3.0)

    def build():
        return ad.sum_all(ad.mul(ad.mul(a, b) + ad.add(a, ad.mul(b, -1.0)),
                                 ad.prototype_mix(b, np.eye(3))))

    fd_check(build, [("a", a), ("b", b)])


def test_scalar_broadcast_arithmetic():
    a = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = (2.0 * a + 1.0) * 0.5 + (-0.5)
    np.testing.assert_allclose(out.values, a.values)
    fd_check(lambda: ad.sum_all(ad.mul(3.0 * a + (-1.0), a * 0.5)), [("a", a)])


# ---------------------------------------------------------------------------
# backward contract


def test_backward_sum_gives_ones():
    p = ad.parameter(RNG.normal(size=(2, 3)))
    with ad.Tape() as tape:
        loss = ad.sum_all(p)
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, np.ones((2, 3)))


def test_backward_unused_parameter_zero_grad():
    p = ad.parameter(np.ones(4))
    q = ad.parameter(np.ones(4))
    with ad.Tape() as tape:
        loss = ad.sum_all(p)
    tape.backward(loss)
    np.testing.assert_array_equal(q.grad, np.zeros(4))


def test_backward_rejects_non_scalar():
    p = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        out = ad.mul(p, 2.0)
    with pytest.raises(ContractError):
        tape.backward(out)


def test_second_backward_on_same_tape_rejected():
    p = ad.parameter(np.array([1.5, -2.0]))
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.mul(p, 3.0), ad.mul(p, 3.0)))
    tape.backward(loss)
    once = p.grad.copy()
    np.testing.assert_allclose(once, 18.0 * p.values)
    with pytest.raises(ContractError):
        tape.backward(loss)
    np.testing.assert_array_equal(p.grad, once)


def test_rejected_loss_leaves_tape_replayable():
    p = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        out = ad.mul(p, 2.0)
        loss = ad.sum_all(out)
    with pytest.raises(ContractError):
        tape.backward(out)
    tape.backward(loss)
    np.testing.assert_array_equal(p.grad, np.full(3, 2.0))


def test_backward_releases_each_node_once_it_has_run():
    p = ad.parameter(RNG.normal(size=(5, 3)))
    w = RNG.normal(size=(5, 3))
    want = (2.0 * p.values * w + 1.0) * w
    closure_only = weakref.ref(w)  # after `del w`, only mul's closure holds it
    with ad.Tape() as tape:
        h = ad.mul(p, w)
        del w
        h = ad.add(ad.mul(h, h), ad.mul(h, 1.0))
        loss = ad.sum_all(h)
    del h
    outputs = [weakref.ref(out.values) for _, out, _ in tape._nodes if out is not loss]
    names, counts = [name for name, _, _ in tape._nodes], tape.op_counts()
    assert len(outputs) == len(names) - 1 == 4 and closure_only() is not None

    # the first node runs last: by then every later node has been released
    def checked(g, first_fn=tape._nodes[0][2]):
        assert [r for r in outputs[1:] if r() is not None] == []
        first_fn(g)

    tape._nodes[0] = tape._nodes[0][:2] + (checked,)
    del checked
    tape.backward(loss)
    assert [r for r in outputs if r() is not None] == [] and closure_only() is None
    np.testing.assert_allclose(p.grad, want, rtol=1e-12)
    assert [name for name, _, _ in tape._nodes] == names and tape.op_counts() == counts
    assert len(tape) == len(names) and loss.grad is None
    with pytest.raises(ContractError, match="already replayed"):
        tape.backward(loss)


def test_gradients_accumulate_across_uses():
    p = ad.parameter(np.array([2.0]))
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(p, p) + ad.mul(p, 3.0))
    tape.backward(loss)
    np.testing.assert_allclose(p.grad, [2 * 2.0 + 3.0])


def test_tapes_do_not_nest():
    with ad.Tape():
        with pytest.raises(ContractError):
            with ad.Tape():
                pass


# ---------------------------------------------------------------------------
# score: the ranking head's indexed row reads. Its index check and its
# backward scatter-add (shared with infonce) keep the contracts the removed
# `gather_rows` had; the `gather_rows_*` and `scatter_add_*` tests check them
# here. A table read through `score` against a constant weight table w:
# sum_all(score([t], [w], idx, arange(b))) = sum over k of t[idx[k]] . w[k].


def _read(t, idx, w):
    return ad.sum_all(ad.score([t], [ad.constant(w)], idx, np.arange(len(w))))


def test_gather_rows_identity_permutation():
    t = ad.constant(RNG.normal(size=(4, 3)))
    out = ad.score([t], [ad.constant(np.ones((4, 3)))], np.arange(4), np.arange(4))
    np.testing.assert_array_equal(out.values, t.values.sum(axis=1))


def test_gather_rows_out_of_range():
    with pytest.raises(ShapeError, match="score"):
        ad.score([ad.constant(np.ones((2, 2)))], [ad.constant(np.ones((2, 2)))],
                 np.array([0, 2]), np.array([0, 1]))


def test_gather_rows_finite_difference():
    t = ad.parameter(RNG.normal(size=(5, 3)))
    idx = np.array([0, 2, 2, 4, 1])
    w = RNG.normal(size=(5, 3))
    fd_check(lambda: _read(t, idx, w), [("t", t)])


def _gather_grad(n_rows, idx, upstream):
    """Gradient score scatter-adds into its user table when the item rows
    are `upstream` and the upstream gradient is 1."""
    t = ad.parameter(np.zeros((n_rows, upstream.shape[1])))
    with ad.Tape() as tape:
        loss = _read(t, idx, upstream)
    tape.backward(loss)
    return t.grad


def test_scatter_add_matches_loop_oracle():
    rows = RNG.normal(size=(6, 2))
    idx = np.array([0, 1, 1, 3, 0, 3])
    expected = np.zeros((4, 2))
    for k, j in enumerate(idx):
        expected[j] += rows[k]
    np.testing.assert_allclose(_gather_grad(4, idx, rows), expected, atol=1e-12)


def test_scatter_add_bounds_and_empty_target():
    with pytest.raises(ShapeError):
        _read(ad.parameter(np.ones((3, 2))), np.array([5]), np.ones((1, 2)))
    out = _gather_grad(4, np.array([1, 1]), np.ones((2, 2)))
    np.testing.assert_array_equal(out[0], np.zeros(2))
    np.testing.assert_array_equal(out[1], np.full(2, 2.0))


def test_scatter_add_finite_difference():
    # gradients of a table read through repeated and missing indices
    t = ad.parameter(RNG.normal(size=(4, 2)))
    idx = np.array([0, 1, 1, 3, 0, 3])
    w = RNG.normal(size=(6, 2))
    fd_check(lambda: _read(t, idx, w), [("t", t)])


def test_gather_rows_rejects_boolean_mask():
    t = ad.parameter(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="integer"):
        _read(t, np.array([True, False, True]), np.ones((3, 2)))


def test_gather_rows_rejects_float_index():
    with pytest.raises(ShapeError, match="integer"):
        _read(ad.parameter(np.ones((3, 2))), np.array([0.0, 2.0]), np.ones((2, 2)))


def test_gather_rows_rejects_two_dimensional_index():
    with pytest.raises(ShapeError, match="1-d"):
        _read(ad.parameter(np.ones((3, 2))), np.array([[0, 1], [2, 0]]), np.ones((2, 2)))


def test_gather_rows_empty_index_of_any_dtype():
    for index in (np.array([]), [], np.zeros(0, dtype=np.int32), np.zeros((0, 3))):
        t = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            out = ad.score([t], [t], index, index)
            loss = ad.sum_all(out)
        assert out.shape == (0,)
        tape.backward(loss)
        assert t.grad.dtype == np.float64
        np.testing.assert_array_equal(t.grad, np.zeros((3, 2)))


def test_gather_rows_scatter_bitwise_equals_add_at_from_zero():
    idx = RNG.integers(0, 7, size=40)
    upstream = RNG.normal(size=(40, 5))
    oracle = np.zeros((7, 5))
    np.add.at(oracle, idx, upstream)
    for dtype in (np.int64, np.int32, np.uint32):
        assert _gather_grad(7, idx.astype(dtype), upstream).tobytes() == oracle.tobytes()


def test_gather_rows_scatter_into_nonzero_grad():
    idx = RNG.integers(0, 7, size=40)
    upstream = RNG.normal(size=(40, 5))
    start = RNG.normal(size=(7, 5))
    t = ad.parameter(np.zeros((7, 5)))
    t.grad[...] = start
    with ad.Tape() as tape:
        loss = _read(t, idx, upstream)
    tape.backward(loss)
    oracle = start.copy()
    np.add.at(oracle, idx, upstream)
    np.testing.assert_allclose(t.grad, oracle, rtol=0, atol=1e-12)


def _layers(n, rows, d=3):
    return [RNG.normal(size=(rows, d)) for _ in range(n)]


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_score_bitwise_equals_whole_table_sum_oracle(n_layers):
    # item ids index the prefix of taller entity tables; rows repeat
    us, es = _layers(n_layers, 5), _layers(n_layers, 9)
    users, items = np.array([0, 4, 4, 2, 0, 1]), np.array([3, 3, 0, 5, 1, 3])
    out = ad.score([ad.constant(u) for u in us], [ad.constant(e) for e in es], users, items)
    zu, ze = sum(us[1:], us[0]), sum(es[1:], es[0])
    assert out.values.tobytes() == (zu[users] * ze[items]).sum(axis=1).tobytes()


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_score_finite_difference(n_layers):
    # repeated rows on both sides; with more than one layer, user layer 0 is
    # a constant that reaches the output but takes no gradient
    us = [ad.parameter(u) for u in _layers(n_layers, 4)]
    if n_layers > 1:
        us[0] = ad.constant(us[0].values)
    es = [ad.parameter(e) for e in _layers(n_layers, 6)]
    users, items = np.array([0, 3, 3, 1, 0]), np.array([2, 2, 5, 0, 1])
    w = ad.constant(RNG.normal(size=5))
    tracked = [(f"u{l}", t) for l, t in enumerate(us) if t.requires_grad]
    tracked += [(f"e{l}", t) for l, t in enumerate(es)]
    fd_check(lambda: ad.sum_all(ad.mul(ad.score(us, es, users, items), w)), tracked)
    if n_layers > 1:
        assert us[0].grad is None


def test_score_gives_every_layer_of_a_side_its_own_copy_of_one_gradient():
    # layers built with requires_grad=True start without a buffer, so they
    # must not end up sharing the side's one scatter
    us = [ad.Tensor(u, requires_grad=True) for u in _layers(3, 4)]
    es = [ad.Tensor(e, requires_grad=True) for e in _layers(2, 5)]
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.score(us, es, np.array([0, 1, 1]), np.array([4, 0, 4])))
    tape.backward(loss)
    for side in (us, es):
        for t in side[1:]:
            assert t.grad.tobytes() == side[0].grad.tobytes()
        assert len({id(t.grad) for t in side}) == len(side)
        assert not any(np.shares_memory(a.grad, b.grad) for a in side for b in side if a is not b)


@pytest.mark.parametrize("user_layers, item_layers, users, items, match", [
    ([np.ones((3, 2))], [np.ones((4, 2))], [0, 3], [0, 1], "out of range"),
    ([np.ones((3, 2))], [np.ones((4, 2))], [0, 1], [0, 1, 2], "do not pair up"),
    ([np.ones((3, 2))], [np.ones((4, 3))], [0, 1], [0, 1], "do not pair up"),
    ([np.ones((3, 2)), np.ones((4, 2))], [np.ones((4, 2))], [0], [0], "user layers"),
    ([np.ones((3, 2))], [np.ones((4, 2)), np.ones((4, 3))], [0], [0], "item layers"),
    ([np.ones(3)], [np.ones(3)], [0], [0], "user layers"),
    ([], [np.ones((4, 2))], [0], [0], "user layers"),
], ids=["bad-index", "batch-lengths", "widths", "user-shapes", "item-shapes", "vectors",
        "no-layers"])
def test_score_rejects_bad_operands_by_name(user_layers, item_layers, users, items, match):
    with pytest.raises(ShapeError, match=f"score: .*{match}"):
        ad.score([ad.parameter(t) for t in user_layers], [ad.parameter(t) for t in item_layers],
                 np.array(users), np.array(items))


def test_bpr_bitwise_equals_logaddexp_oracle():
    pos, neg = RNG.normal(size=50) * 30.0, RNG.normal(size=50) * 30.0
    out = ad.bpr(ad.constant(pos), ad.constant(neg))
    assert out.values.tobytes() == np.logaddexp(0.0, neg - pos).mean().tobytes()


def test_bpr_finite_difference():
    pos, neg = ad.parameter(RNG.normal(size=7) * 2.0), ad.parameter(RNG.normal(size=7) * 2.0)
    fd_check(lambda: ad.mul(ad.bpr(pos, neg), 3.0), [("pos", pos), ("neg", neg)])


def test_bpr_rejects_bad_operands_by_name():
    with pytest.raises(ShapeError, match="bpr"):
        ad.bpr(ad.constant(np.ones(3)), ad.constant(np.ones(2)))
    with pytest.raises(ShapeError, match="bpr"):
        ad.bpr(ad.constant(np.ones((2, 2))), ad.constant(np.ones((2, 2))))


def test_mean_all_rejects_empty():
    # the batch mean of the ranking loss, formerly mean_all's
    with pytest.raises(DomainError, match="bpr"):
        ad.bpr(ad.constant(np.zeros(0)), ad.constant(np.zeros(0)))


# ---------------------------------------------------------------------------
# spmm


def _csr(dense):
    return ad.SparseOperator(np.asarray(dense, dtype=np.float64))


def test_spmm_empty_rows_take_fallback():
    x = RNG.normal(size=(5, 2))
    matrix = block_operator(np.array([0, 2, 2, 5, 5]), np.array([0.5, 7.0, -2.0, 3.0]))
    fallback = np.arange(8.0).reshape(4, 2)
    out = ad.spmm(matrix, ad.constant(x), fallback).values
    np.testing.assert_allclose(out[0], 0.5 * x[:2].sum(axis=0))
    np.testing.assert_array_equal(out[1], fallback[1])
    np.testing.assert_allclose(out[2], -2.0 * x[2:5].sum(axis=0))
    np.testing.assert_array_equal(out[3], fallback[3])


def test_spmm_finite_difference_through_x_and_fallback():
    rng = np.random.default_rng(11)
    # rows 1 and 3 are empty; columns repeat and column 2 is never read
    matrix = _csr([[0.5, 0.0, 0.0, -1.5], [0.0, 0.0, 0.0, 0.0],
                   [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    x = ad.parameter(rng.normal(size=(4, 3)))
    fallback = ad.parameter(rng.normal(size=(4, 3)))
    w = ad.constant(rng.normal(size=(4, 3)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.spmm(matrix, x, fallback), w)),
             [("x", x), ("fallback", fallback)], tol=1e-6)


def test_spmm_gradients_split_by_emptiness():
    x = ad.parameter(np.ones((3, 2)))
    fallback = ad.parameter(np.zeros((4, 2)))
    matrix = block_operator(np.array([0, 0, 2, 2, 3]), np.array([9.0, 0.5, 9.0, 2.0]))
    upstream = np.arange(1.0, 9.0).reshape(4, 2)
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.spmm(matrix, x, fallback), ad.constant(upstream)))
    tape.backward(loss)
    # Rows of block 1 get 0.5 * upstream[1], the row of block 3 gets 2 * upstream[3];
    # the fallback gets upstream on the empty rows 0 and 2 and nothing elsewhere.
    np.testing.assert_array_equal(x.grad, [[1.5, 2.0], [1.5, 2.0], [14.0, 16.0]])
    np.testing.assert_array_equal(fallback.grad, [[1.0, 2.0], [0.0, 0.0], [5.0, 6.0], [0.0, 0.0]])


def test_spmm_reads_the_prefix_of_a_taller_x():
    # rows 1 and 3 are empty; x has two rows more than the matrix has columns
    matrix = _csr([[0.5, 0.0, 0.0, -1.5], [0.0, 0.0, 0.0, 0.0],
                   [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    x = ad.parameter(RNG.normal(size=(6, 3)))
    start = RNG.normal(size=(6, 3))
    x.grad[...] = start
    fallback = ad.parameter(RNG.normal(size=(4, 3)))
    upstream = RNG.normal(size=(4, 3))
    with ad.Tape() as tape:
        out = ad.spmm(matrix, x, fallback)
        loss = ad.sum_all(ad.mul(out, ad.constant(upstream)))
    tape.backward(loss)
    want = ad.spmm(matrix, x.values[:4].copy(), fallback.values).values
    assert out.values.tobytes() == want.tobytes()
    np.testing.assert_allclose(x.grad[:4], start[:4] + matrix.toarray().T @ upstream,
                               rtol=0, atol=1e-12)
    assert x.grad[4:].tobytes() == start[4:].tobytes()


def test_spmm_finite_difference_through_a_taller_x():
    rng = np.random.default_rng(12)
    matrix = _csr([[0.5, 0.0, -1.5], [0.0, 0.0, 0.0], [2.0, 1.0, 0.0]])
    x = ad.parameter(rng.normal(size=(5, 2)))
    fallback = ad.parameter(rng.normal(size=(3, 2)))
    w = ad.constant(rng.normal(size=(3, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.spmm(matrix, x, fallback), w)),
             [("x", x), ("fallback", fallback)], tol=1e-6)


def test_spmm_all_empty_is_fallback():
    fallback = np.arange(6.0).reshape(3, 2)
    matrix = block_operator(np.zeros(4, dtype=np.int64), np.full(3, np.inf))
    out = ad.spmm(matrix, np.zeros((0, 2)), fallback)
    np.testing.assert_array_equal(out.values, fallback)
    assert not np.shares_memory(out.values, fallback)


def test_spmm_rejects_bad_operands():
    matrix = block_operator(np.array([0, 1, 3]), np.ones(2))
    with pytest.raises(ShapeError):
        ad.spmm(matrix, np.ones((3, 2)), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        ad.spmm(matrix, np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ad.spmm(matrix, np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.spmm(matrix, np.ones((5, 3)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        ad.spmm(matrix, np.ones(3), np.ones((2, 1)))
    with pytest.raises(ContractError):
        ad.spmm(matrix.toarray(), np.ones((3, 2)), np.ones((2, 2)))
    with pytest.raises(ContractError):
        ad.spmm(ad.constant(matrix.toarray()), np.ones((3, 2)), np.ones((2, 2)))
    # a raw CSR matrix is no operator: wrapping it on every call rebuilt its
    # transpose each time
    with pytest.raises(ContractError, match="SparseOperator"):
        ad.spmm(sparse.csr_array(matrix), np.ones((3, 2)), np.ones((2, 2)))


def test_spmm_operators_match_dense_oracle_with_isolated_nodes():
    # user 2 and item 3 have no interactions; entities 1, 4 and 5 head no triple
    graph = InteractionGraph(4, 5, [(0, 0), (0, 2), (1, 2), (1, 4), (3, 1), (3, 0), (3, 4)])
    kg = KnowledgeGraph(np.array([[0, 0, 3], [0, 1, 5], [2, 0, 1], [3, 1, 0], [3, 0, 2],
                                  [3, 1, 4]]), n_entities=6)
    edges = kg.full_edges()
    rng = np.random.default_rng(5)
    users, items, ents = (rng.normal(size=(n, 3)) for n in (4, 5, 6))

    def oracle(blocks, prev, mean):
        out = prev.copy()
        for row, block in enumerate(blocks):
            if len(block):
                out[row] = np.mean(block, axis=0) if mean else np.sum(block, axis=0)
        return out

    by_user = [items[graph.items_of(u)] for u in range(4)]
    np.testing.assert_allclose(ad.spmm(graph.user_mean, items, users).values,
                               oracle(by_user, users, mean=True), rtol=0, atol=1e-14)
    edge_rows = rng.normal(size=(graph.n_interactions, 3))
    user_blocks = [edge_rows[graph.u_offsets[u]:graph.u_offsets[u + 1]] for u in range(4)]
    np.testing.assert_allclose(ad.spmm(graph.user_edges.source_sum, edge_rows, users).values,
                               oracle(user_blocks, users, mean=False), rtol=0, atol=1e-14)
    item_rows = rng.normal(size=(graph.n_interactions, 3))
    item_blocks = [item_rows[graph.i_offsets[i]:graph.i_offsets[i + 1]] for i in range(5)]
    np.testing.assert_allclose(ad.spmm(graph.item_edges.source_sum, item_rows, items).values,
                               oracle(item_blocks, items, mean=False), rtol=0, atol=1e-14)
    msgs = rng.normal(size=(kg.n_triples, 3))
    head_blocks = [msgs[edges.head == h] for h in range(6)]
    out = ad.spmm(edges.mean_operator, msgs, ents).values
    np.testing.assert_allclose(out, oracle(head_blocks, ents, mean=True), rtol=0, atol=1e-14)
    for isolated in (1, 4, 5):
        np.testing.assert_array_equal(out[isolated], ents[isolated])


# ---------------------------------------------------------------------------
# segment softmax (the shared core of kg_pool and edge_attention)


def _segment_fd(logits, offsets, upstream, eps=1e-6):
    """Central differences of sum(upstream * segment softmax) per logit."""
    grad = np.zeros_like(logits)
    for j in np.ndindex(logits.shape):
        hi, lo = logits.copy(), logits.copy()
        hi[j] += eps
        lo[j] -= eps
        grad[j] = ((upstream * ad._segment_softmax(hi, offsets)).sum()
                   - (upstream * ad._segment_softmax(lo, offsets)).sum()) / (2 * eps)
    return grad


def test_segment_softmax_sums_per_segment():
    logits = RNG.normal(size=7)
    offsets = np.array([0, 3, 3, 7])
    out = ad._segment_softmax(logits, offsets)
    assert abs(out[:3].sum() - 1.0) < 1e-9
    assert abs(out[3:].sum() - 1.0) < 1e-9


def test_segment_softmax_finite_difference():
    logits = RNG.normal(size=6)
    offsets = np.array([0, 2, 6])
    w = RNG.normal(size=6)
    got = ad._segment_softmax_backward(w, ad._segment_softmax(logits, offsets), offsets)
    np.testing.assert_allclose(got, _segment_fd(logits, offsets, w), rtol=0, atol=1e-8)


def test_segment_softmax_matrix_bitwise_equals_column_calls():
    # one column per head; the second segment is empty
    offsets = np.array([0, 3, 3, 9, 10])
    logits = RNG.normal(size=(10, 4)) * 3.0
    upstream = RNG.normal(size=(10, 4))
    s = ad._segment_softmax(logits, offsets)
    g = ad._segment_softmax_backward(upstream, s, offsets)
    for h in range(4):
        s_h = ad._segment_softmax(logits[:, h].copy(), offsets)
        np.testing.assert_array_equal(s[:, h], s_h)
        np.testing.assert_array_equal(
            g[:, h], ad._segment_softmax_backward(upstream[:, h].copy(), s_h, offsets))


def test_segment_softmax_matrix_finite_difference():
    logits = RNG.normal(size=(6, 3))
    offsets = np.array([0, 2, 2, 6])
    w = RNG.normal(size=(6, 3))
    got = ad._segment_softmax_backward(w, ad._segment_softmax(logits, offsets), offsets)
    np.testing.assert_allclose(got, _segment_fd(logits, offsets, w), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# fused edge operations

# user 2 and item 3 have no interactions; entities 1, 4 and 5 head no slot
_PAIRS = [(0, 0), (0, 2), (1, 2), (1, 4), (3, 1), (3, 0), (3, 4)]
_TRIPLES = [[0, 0, 3], [0, 1, 5], [2, 0, 1], [3, 1, 0], [3, 0, 2], [3, 1, 4], [2, 1, 2]]


def _edge_fixture():
    return InteractionGraph(4, 5, _PAIRS), KnowledgeGraph(np.array(_TRIPLES), n_entities=6,
                                                          n_relations=3).full_edges()


def _attention_oracle(q, k, v, fallback, targets_of, n_heads):
    """Per-source, per-head loop over explicit target lists."""
    out = fallback.copy()
    dh = q.shape[1] // n_heads
    for s, targets in enumerate(targets_of):
        for h in range(n_heads if len(targets) else 0):
            cols = slice(h * dh, (h + 1) * dh)
            logits = np.array([q[s, cols] @ k[t, cols] for t in targets]) / math.sqrt(dh)
            w = np.exp(logits - logits.max())
            w /= w.sum()
            out[s, cols] = sum(wt * v[t, cols] for wt, t in zip(w, targets))
    return out


def _attention_operands(rng, n_src, n_tgt, d, tracked=True):
    """Random source and target tables and three (d, d) projections, as
    parameters (or constants), in the argument order of `edge_attention`."""
    make = ad.parameter if tracked else ad.constant
    return [make(rng.normal(size=shape))
            for shape in ((n_src, d), (n_tgt, d), (d, d), (d, d), (d, d))]


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_edge_attention_matches_per_head_loop_oracle(n_heads):
    graph, _ = _edge_fixture()
    users_of = [[u for u, i in _PAIRS if i == item] for item in range(5)]
    items_of = [graph.items_of(u) for u in range(4)]
    for edges, targets_of, n_src, n_tgt, isolated in ((graph.user_edges, items_of, 4, 5, 2),
                                                      (graph.item_edges, users_of, 5, 4, 3)):
        xs, xt, wq, wk, wv = (t.values for t in _attention_operands(RNG, n_src, n_tgt, 4, False))
        wq *= 1.5  # sharper weights
        out = ad.edge_attention(xs, xt, wq, wk, wv, edges, n_heads).values
        np.testing.assert_allclose(
            out, _attention_oracle(xs @ wq, xt @ wk, xt @ wv, xs, targets_of, n_heads),
            rtol=0, atol=1e-12)
        # the isolated user and the isolated item keep their own rows
        np.testing.assert_array_equal(out[isolated], xs[isolated])


@pytest.mark.parametrize("direction", ["user_edges", "item_edges"])
def test_edge_attention_finite_difference(direction):
    graph, _ = _edge_fixture()
    edges = getattr(graph, direction)
    n_src, n_tgt = edges.source_sum.shape[0], edges.target_sum.shape[0]
    operands = _attention_operands(RNG, n_src, n_tgt, 4)
    w = RNG.normal(size=(n_src, 4))
    fd_check(lambda: ad.sum_all(ad.mul(ad.edge_attention(*operands, edges, 2), w)),
             list(zip(("sources", "targets", "wq", "wk", "wv"), operands)), tol=1e-7)
    # the one source without edges passes its row through: its gradient is
    # the upstream row
    isolated = edges.source_sum.empty_rows
    assert isolated.size == 1
    np.testing.assert_array_equal(operands[0].grad[isolated], w[isolated])


def test_edge_attention_rejects_misfit_shapes():
    graph, _ = _edge_fixture()
    edges = graph.user_edges
    xs, xt, w = np.ones((4, 4)), np.ones((5, 4)), np.ones((4, 4))
    # taller tables are read by their leading rows; shorter ones do not fit
    for args in ((np.ones((3, 4)), xt, w, w, w), (xs, xs, w, w, w), (xs, np.ones(5), w, w, w),
                 (xs, np.ones((5, 2)), w, w, w), (np.ones((6, 4)), np.ones((6, 2)), w, w, w),
                 (xs, xt, np.ones((4, 2)), w, w), (xs, xt, w, np.ones((2, 4)), w),
                 (xs, xt, w, w, np.ones(4)), (np.ones((4, 2, 2)), xt, w, w, w)):
        with pytest.raises(ShapeError, match="edge_attention"):
            ad.edge_attention(*args, edges, 2)
    with pytest.raises(ShapeError, match="head count 3"):
        ad.edge_attention(xs, xt, w, w, w, edges, 3)


@pytest.mark.parametrize("direction", ["user_edges", "item_edges"])
def test_edge_attention_finite_difference_with_taller_tables(direction):
    graph, _ = _edge_fixture()
    edges = getattr(graph, direction)
    n_src, n_tgt = edges.source_sum.shape[0], edges.target_sum.shape[0]
    operands = _attention_operands(RNG, n_src + 2, n_tgt + 3, 4)
    w = RNG.normal(size=(n_src + 2, 4))
    fd_check(lambda: ad.sum_all(ad.mul(ad.edge_attention(*operands, edges, 2), w)),
             list(zip(("sources", "targets", "wq", "wk", "wv"), operands)), tol=1e-7)
    # source rows past the graph pass through; target rows past it are not read
    np.testing.assert_array_equal(operands[0].grad[n_src:], w[n_src:])
    np.testing.assert_array_equal(operands[1].grad[n_tgt:], 0.0)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("direction", ["user_edges", "item_edges"])
def test_edge_attention_with_taller_tables_bitwise_equals_the_prefix_oracle(direction, n_heads):
    graph, _ = _edge_fixture()
    edges, d = getattr(graph, direction), 4
    n_src, n_tgt = edges.source_sum.shape[0], edges.target_sum.shape[0]
    rng = np.random.default_rng(10 + n_heads)
    operands = _attention_operands(rng, n_src + 3, n_tgt + 2, d)
    xs, xt, wq, wk, wv = (t.values for t in operands)
    g = rng.normal(size=(n_src + 3, d))
    # gradients already held, so that the order of the contributions shows
    held = [rng.normal(size=t.values.shape) for t in operands]
    for t, start in zip(operands, held):
        t.grad[...] = start
    with ad.Tape() as tape:
        out = ad.edge_attention(*operands, edges, n_heads)
        loss = ad.sum_all(ad.mul(out, g))
    tape.backward(loss)
    # the oracle runs on the graph's rows and adds into those rows of the
    # held gradients; the source rows past the graph get the upstream rows
    want_grads = [start.copy() for start in held]
    prefix_grads = [want_grads[0][:n_src], want_grads[1][:n_tgt], *want_grads[2:]]
    want_out = _composed_attention_oracle(xs[:n_src], xt[:n_tgt], wq, wk, wv, edges, n_heads,
                                          g[:n_src], prefix_grads)
    want_grads[0][n_src:] += g[n_src:]
    assert out.values[:n_src].tobytes() == want_out.tobytes()
    assert out.values[n_src:].tobytes() == xs[n_src:].tobytes()
    assert not np.shares_memory(out.values, xs)
    for t, want in zip(operands, want_grads):
        assert t.grad.tobytes() == want.tobytes()
    targets_of = [edges.target[edges.offsets[s]:edges.offsets[s + 1]] for s in range(n_src)]
    np.testing.assert_allclose(
        want_out, _attention_oracle(xs[:n_src] @ wq, xt[:n_tgt] @ wk, xt[:n_tgt] @ wv,
                                    xs[:n_src], targets_of, n_heads), rtol=0, atol=1e-12)


def _wide_edges(seed):
    """A random interaction graph and KG over 64-wide rows, where a changed
    summation order would show in the last bits."""
    rng = np.random.default_rng(seed)
    pairs = np.unique(np.column_stack([rng.integers(0, 40, 600), rng.integers(0, 50, 600)]), axis=0)
    triples = np.column_stack([rng.integers(0, 80, 500), rng.integers(0, 7, 500),
                               rng.integers(0, 80, 500)])
    return InteractionGraph(40, 50, pairs), KnowledgeGraph(triples, n_entities=80,
                                                           n_relations=7).full_edges()


@pytest.mark.parametrize("n_heads", [1, 4])
def test_edge_attention_equals_the_head_indicator_spread_bitwise(n_heads):
    # the oracle spreads alpha over each head's value columns as
    # `alpha @ blocks.T`, in the forward and in the values gradient
    graph, _ = _wide_edges(3)
    edges, d = graph.user_edges, 64
    src, tgt = edges.source, edges.target
    rng = np.random.default_rng(4)
    xs, xt, wq, wk = (rng.normal(size=shape) for shape in ((40, d), (50, d), (d, d), (d, d)))
    wv = ad.parameter(rng.normal(size=(d, d)))
    upstream = rng.normal(size=(40, d))
    blocks, scaled = ad._head_blocks(d, n_heads)
    alpha = ad._segment_softmax(((xs @ wq)[src] * (xt @ wk)[tgt]) @ scaled, edges.offsets)
    want = edges.source_sum @ ((xt @ wv.values)[tgt] * (alpha @ blocks.T))
    ad._fallback_rows(edges.source_sum, want, xs)
    want_grad = xt.T @ (edges.target_sum @ (upstream[src] * (alpha @ blocks.T)))
    with ad.Tape() as tape:
        out = ad.edge_attention(xs, xt, wq, wk, wv, edges, n_heads)
        loss = ad.sum_all(ad.mul(out, upstream))
    tape.backward(loss)
    assert out.values.tobytes() == want.tobytes()
    assert wv.grad.tobytes() == want_grad.tobytes()


def _composed_attention_oracle(xs, xt, wq, wk, wv, edges, n_heads, g, grads):
    """Three numpy projections, then masked attention over them: the output,
    and `grads`, the gradient buffers of the two tables and the three
    projections, into which the gradients of sum(g * output) are added in
    place, each formed and added in the order a tape of three projection
    nodes and one attention node replays them."""
    q, k, v = xs @ wq, xt @ wk, xt @ wv
    src, tgt, offsets = edges.source, edges.target, edges.offsets
    dh = xs.shape[1] // n_heads
    blocks, scaled = ad._head_blocks(xs.shape[1], n_heads)
    empty = edges.source_sum.empty_rows
    prod = q[src]
    prod *= k[tgt]
    alpha = ad._segment_softmax(prod @ scaled, offsets)
    msg = v[tgt]
    heads = msg.reshape(-1, n_heads, dh)
    heads *= alpha[:, :, None]
    out = edges.source_sum @ msg
    out[empty] = xs[empty]
    # the attention node: the source rows without edges, then the values,
    # queries and keys
    grads[0][empty] += g[empty]
    g_edge = g[src]
    g_values = edges.target_sum @ (
        g_edge.reshape(-1, n_heads, dh) * alpha[:, :, None]).reshape(g_edge.shape)
    g_edge *= v[tgt]
    d_prod = ad._segment_softmax_backward(g_edge @ blocks, alpha, offsets) @ scaled.T
    g_queries = edges.source_sum @ (d_prod * k[tgt])
    d_prod *= q[src]
    g_keys = edges.target_sum @ d_prod
    # the projection nodes, last recorded first: values, keys, queries
    for x, w, g_proj, at_x, at_w in ((xt, wv, g_values, 1, 4), (xt, wk, g_keys, 1, 3),
                                     (xs, wq, g_queries, 0, 2)):
        grads[at_x] += g_proj @ w.T
        grads[at_w] += x.T @ g_proj
    return out


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("direction", ["user_edges", "item_edges"])
@pytest.mark.parametrize("wide", [False, True])
def test_edge_attention_bitwise_equals_projection_composition_oracle(wide, direction, n_heads):
    # the small graph has a user and an item without edges; the wide one has
    # 64-wide rows, where a changed summation order would show
    graph = _wide_edges(3)[0] if wide else _edge_fixture()[0]
    edges, d = getattr(graph, direction), 64 if wide else 4
    rng = np.random.default_rng(n_heads)
    operands = _attention_operands(rng, edges.source_sum.shape[0], edges.target_sum.shape[0], d)
    g = rng.normal(size=(edges.source_sum.shape[0], d))
    # gradients already held, so that the order of the contributions shows
    held = [rng.normal(size=t.values.shape) for t in operands]
    for t, start in zip(operands, held):
        t.grad[...] = start
    with ad.Tape() as tape:
        out = ad.edge_attention(*operands, edges, n_heads)
        loss = ad.sum_all(ad.mul(out, g))
    tape.backward(loss)
    assert tape.op_counts() == {"edge_attention": 1, "mul": 1, "sum_all": 1}
    want_grads = [start.copy() for start in held]
    want_out = _composed_attention_oracle(*(t.values for t in operands), edges, n_heads, g,
                                          want_grads)
    assert edges.source_sum.empty_rows.size == (0 if wide else 1)
    assert out.values.tobytes() == want_out.tobytes()
    for t, want in zip(operands, want_grads):
        assert t.grad.tobytes() == want.tobytes()


def test_slot_logits_equal_the_per_slot_relation_norms_bitwise():
    # the oracle sums e_r . e_r once per slot, over the gathered relation rows
    _, edges = _wide_edges(5)
    rng = np.random.default_rng(6)
    ent, rel = rng.normal(size=(80, 64)), rng.normal(size=(7, 64))
    r = rel[edges.rel]
    want = (ent[edges.head] * ent[edges.tail]).sum(axis=1) + (r * r).sum(axis=1)
    assert edges.slot_logits(ent, rel).tobytes() == want.tobytes()


def _kg_oracle_weights(ent, rel):
    """Per-head loop: softmax of e_h . e_t + e_r . e_r over each head's slots."""
    beta = {}
    for head in range(ent.shape[0]):
        slots = [(r, t) for h, r, t in _TRIPLES if h == head]
        if slots:
            logits = np.array([ent[head] @ ent[t] + rel[r] @ rel[r] for r, t in slots])
            w = np.exp(logits - logits.max())
            beta.update({(head, r, t): x for (r, t), x in zip(slots, w / w.sum())})
    return beta


def test_kg_pool_and_gated_sum_match_dense_oracle():
    _, edges = _edge_fixture()
    ent, rel = RNG.normal(size=(6, 3)), RNG.normal(size=(3, 3))
    want = _kg_oracle_weights(ent, rel)
    slots = list(zip(edges.head.tolist(), edges.rel.tolist(), edges.tail.tolist()))
    np.testing.assert_allclose(ad._slot_weights(ent, rel, edges), [want[slot] for slot in slots],
                               rtol=0, atol=1e-14)
    table = RNG.normal(size=(6, 3))
    # the pool weights each slot and falls back to the entity row; the gated
    # sum weights every slot 1 and falls back to its table's row
    for out, weight_of, rows in ((ad.kg_pool(ent, rel, edges).values, want.get, ent),
                                 (ad.gated_sum(edges, rel, table).values, lambda slot: 1.0, table)):
        expect = rows.copy()
        for head in range(6):
            msgs = [weight_of((h, r, t)) * rel[r] * rows[t] for h, r, t in slots if h == head]
            if msgs:
                expect[head] = np.mean(msgs, axis=0)
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14)
        for isolated in (1, 4, 5):
            np.testing.assert_array_equal(out[isolated], rows[isolated])


def test_kg_pool_finite_difference():
    # each table on its own, the other one a constant
    _, edges = _edge_fixture()
    ent, rel = RNG.normal(size=(6, 3)), RNG.normal(size=(3, 3))
    w = RNG.normal(size=(6, 3))
    for name, p in (("ent", ad.parameter(ent)), ("rel", ad.parameter(rel))):
        tables = {"ent": ent, "rel": rel, name: p}
        fd_check(lambda: ad.sum_all(ad.mul(ad.kg_pool(tables["ent"], tables["rel"], edges), w)),
                 [(name, p)], tol=1e-7)


def test_kg_pool_rejects_misfit_shapes():
    _, edges = _edge_fixture()
    for ent, rel in ((np.ones((5, 3)), np.ones((3, 3))), (np.ones((6, 3)), np.ones((3, 2))),
                     (np.ones(6), np.ones((3, 3)))):
        with pytest.raises(ShapeError, match="kg_pool"):
            ad.kg_pool(ent, rel, edges)


@pytest.mark.parametrize("pruned", [False, True])
def test_gated_sum_finite_difference_through_every_input(pruned):
    _, edges = _edge_fixture()
    if pruned:  # one slot per head that has any, as a top-1 sampled view keeps
        edges = KnowledgeGraph(np.array([[0, 0, 3], [2, 0, 1], [3, 1, 0]]), n_entities=6,
                               n_relations=3).full_edges()
    gate, table = ad.parameter(RNG.normal(size=(3, 3))), ad.parameter(RNG.normal(size=(6, 3)))
    w = RNG.normal(size=(6, 3))
    fd_check(lambda: ad.sum_all(ad.mul(ad.gated_sum(edges, gate, table), w)),
             [("gate", gate), ("table", table)], tol=1e-7)
    # a row that heads no slot and is no slot's tail only passes through
    lone = [h for h in range(6) if edges.counts[h] == 0 and h not in edges.tail]
    assert lone == ([4, 5] if pruned else [])
    np.testing.assert_array_equal(table.grad[lone], w[lone])


def test_knowledge_pool_finite_difference_with_shared_entity_table():
    # the KG pool's layout: one entity table is the attention input, the
    # gated table and the fallback at once
    _, edges = _edge_fixture()
    ent, rel = ad.parameter(RNG.normal(size=(6, 3))), ad.parameter(RNG.normal(size=(3, 3)))
    w = RNG.normal(size=(6, 3))
    fd_check(lambda: ad.sum_all(ad.mul(ad.kg_pool(ent, rel, edges), w)),
             [("ent", ent), ("rel", rel)], tol=1e-7)


def test_gated_sum_rejects_bad_operands():
    _, edges = _edge_fixture()
    gate, table = np.ones((3, 3)), np.ones((6, 3))
    for args in ((np.ones((3, 2)), table),
                 (np.ones((2, 3)), table),
                 (gate, np.ones((5, 3))),
                 (gate, np.ones(6))):
        with pytest.raises(ShapeError, match="gated_sum"):
            ad.gated_sum(edges, *args)


# ---------------------------------------------------------------------------
# reductions and maps; score's row sums and bpr's mean of softplus are the
# reductions and the map of the ranking head


def test_reduction_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ad.sum_all(ad.constant(m)).values == 10.0
    pairs = [0, 1], [0, 1]
    assert ad.bpr(ad.constant([0.0, -5.0]), ad.constant([0.0, -5.0])).values == math.log(2.0)
    np.testing.assert_array_equal(
        ad.score([ad.constant(m)], [ad.constant(np.ones((2, 2)))], *pairs).values, [3.0, 7.0])


def test_reduction_finite_difference():
    # one table on both sides of both scores, rows repeated
    m = ad.parameter(RNG.normal(size=(3, 4)))
    users = np.array([0, 2, 2, 1])
    fd_check(lambda: ad.bpr(ad.score([m], [m], users, np.array([1, 1, 0, 2])),
                            ad.score([m], [m], users, np.array([0, 2, 2, 2])))
             + ad.sum_all(m * 0.5), [("m", m)])


def test_map_values():
    assert abs(ad.bpr(ad.constant([0.0]), ad.constant([0.0])).values - math.log(2.0)) < 1e-12
    # softplus must not overflow for large inputs
    assert abs(ad.bpr(ad.constant([-800.0]), ad.constant([0.0])).values - 800.0) < 1e-9
    assert ad.bpr(ad.constant([800.0]), ad.constant([0.0])).values < 1e-300


def test_map_finite_difference():
    x = ad.parameter(RNG.normal(size=6) * 2.0)

    def build():
        return ad.bpr(ad.mul(x, 0.3), x) + ad.bpr(x, ad.mul(x, -2.0))

    fd_check(build, [("x", x)])


# ---------------------------------------------------------------------------
# infonce


def _infonce_oracle(zg, zl, tau, include_positive):
    """Row mean of logsumexp(candidates) - positive, from an explicit mask."""
    g = zg / np.linalg.norm(zg, axis=1, keepdims=True)
    l = zl / np.linalg.norm(zl, axis=1, keepdims=True)
    b = g.shape[0]
    logits = np.hstack([g @ l.T, g @ g.T]) / tau
    keep = np.hstack([np.ones((b, b)), 1.0 - np.eye(b)]).astype(bool)
    if not include_positive:
        keep[:, :b] &= ~np.eye(b, dtype=bool)
    lse = logsumexp(np.where(keep, logits, -np.inf), axis=1)
    return float(np.mean(lse - np.diag(logits[:, :b])))


def test_infonce_value_matches_masked_logsumexp():
    zg, zl = RNG.normal(size=(6, 4)), RNG.normal(size=(6, 4))
    for tau in (10.0, 0.3, 1e-3):
        for include_positive in (False, True):
            out = ad.infonce([(ad.constant(zg), ad.constant(zl), np.arange(6))], tau,
                             include_positive).values
            want = _infonce_oracle(zg, zl, tau, include_positive)
            assert np.isfinite(out) and abs(out - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("include_positive", [False, True])
def test_infonce_finite_difference(include_positive):
    g = ad.parameter(RNG.normal(size=(5, 4)))
    l = ad.parameter(RNG.normal(size=(5, 4)))
    # the upstream scale checks that backward multiplies by its gradient
    fd_check(lambda: ad.mul(ad.infonce([(g, l, np.arange(5))], 0.4, include_positive), 2.5),
             [("g", g), ("l", l)], tol=1e-6)


def test_infonce_constant_view_gets_no_gradient():
    zg, zl = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))
    grads = []
    for constant_local in (False, True):
        g = ad.parameter(zg)
        l = ad.constant(zl) if constant_local else ad.parameter(zl)
        with ad.Tape() as tape:
            loss = ad.infonce([(g, l, np.arange(4))], 0.5)
        tape.backward(loss)
        grads.append(g.grad)
    assert l.grad is None
    np.testing.assert_array_equal(grads[0], grads[1])


def test_infonce_domain_errors():
    z = RNG.normal(size=(3, 2))
    rows = np.arange(3)
    with pytest.raises(DomainError, match="zero-norm"):
        ad.infonce([(ad.constant(np.vstack([z[:2], np.zeros(2)])), ad.constant(z), rows)], 1.0)
    with pytest.raises(DomainError, match="zero-norm"):
        ad.infonce([(ad.constant(z), ad.constant(np.vstack([np.zeros(2), z[1:]])), rows)], 1.0)
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="temperature"):
            ad.infonce([(ad.constant(z), ad.constant(z), rows)], tau)
    with pytest.raises(DomainError, match="2 rows"):
        ad.infonce([(ad.constant(z[:1]), ad.constant(z[:1]), np.arange(1))], 1.0)
    with pytest.raises(ShapeError):
        ad.infonce([(ad.constant(z), ad.constant(z[:2]), rows)], 1.0)
    with pytest.raises(DomainError, match="no .* triples"):
        ad.infonce([], 1.0)


def _infonce_run(zg, zl, tau, include_positive, rows=None):
    g, l = ad.parameter(zg), ad.parameter(zl)
    rows = np.arange(zg.shape[0]) if rows is None else rows
    with ad.Tape() as tape:
        loss = ad.infonce([(g, l, rows)], tau, include_positive)
    tape.backward(loss)
    return loss.item(), g.grad, l.grad


def test_infonce_bad_rows_raise_before_any_term(infonce_pool):
    z = RNG.normal(size=(4, 3))
    good = (ad.parameter(z), ad.parameter(z), np.arange(4))
    for rows in (np.array([0, 4]), np.array([-1, 2]), np.array([0.0, 1.0]),
                 np.array([True, False, True, True]), np.array([[0, 1], [2, 3]])):
        with ad.Tape() as tape:
            with pytest.raises(ShapeError, match="infonce: index"):
                ad.infonce([good, good, (ad.parameter(z), ad.parameter(z), rows)], 0.5)
        assert len(tape) == 0 and infonce_pool == []


@pytest.mark.parametrize("include_positive", [False, True])
def test_infonce_duplicate_rows_scatter_add(include_positive):
    zg, zl = RNG.normal(size=(3, 4)), RNG.normal(size=(3, 4))
    rows = np.array([2, 0, 2, 1, 0])
    value, d_g, d_l = _infonce_run(zg, zl, 0.4, include_positive, rows)
    # the same term over the gathered views, its gradients added row by row
    want, view_g, view_l = _infonce_run(zg[rows], zl[rows], 0.4, include_positive)
    assert value == want
    for got, view in ((d_g, view_g), (d_l, view_l)):
        scattered = np.zeros_like(zg)
        np.add.at(scattered, rows, view)
        np.testing.assert_array_equal(got, scattered)


def _slab_rows(monkeypatch, rows, b):
    monkeypatch.setattr(ad, "INFONCE_SLAB_BYTES", rows * 2 * b * 8)


@pytest.mark.parametrize("include_positive", [False, True])
@pytest.mark.parametrize("b, rows", [(2, 1), (5, 2), (7, 3), (9, 4), (6, 6), (4, 100)])
def test_infonce_slabs_match_one_block(monkeypatch, b, rows, include_positive):
    # slabs of `rows` rows: one row, a partial last slab, an exact multiple,
    # exactly one slab and fewer rows than one slab
    zg, zl = RNG.normal(size=(b, 3)), RNG.normal(size=(b, 3))
    for tau in (1e-4, 1e-2, 0.3, 1.0, 10.0):
        _slab_rows(monkeypatch, b, b)
        whole = _infonce_run(zg, zl, tau, include_positive)
        _slab_rows(monkeypatch, rows, b)
        value, d_g, d_l = _infonce_run(zg, zl, tau, include_positive)
        want = _infonce_oracle(zg, zl, tau, include_positive)
        assert np.isfinite(value) and abs(value - want) <= 1e-12 * max(1.0, abs(want))
        scale = max(1.0, np.abs(whole[1]).max(), np.abs(whole[2]).max())
        assert np.isfinite(d_g).all() and np.isfinite(d_l).all()
        np.testing.assert_allclose(d_g, whole[1], rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(d_l, whole[2], rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("include_positive", [False, True])
def test_infonce_slab_finite_difference(monkeypatch, include_positive):
    _slab_rows(monkeypatch, 3, 7)
    g = ad.parameter(RNG.normal(size=(7, 4)))
    l = ad.parameter(RNG.normal(size=(7, 4)))
    fd_check(lambda: ad.mul(ad.infonce([(g, l, np.arange(7))], 0.4, include_positive), 2.5),
             [("g", g), ("l", l)], tol=1e-6)


def test_infonce_default_slab_partial_last_slab(monkeypatch):
    # 700 rows at the default cap give slabs of 187 rows, the last one 139
    b = 700
    assert b % (ad.INFONCE_SLAB_BYTES // (2 * b * 8)) != 0
    zg, zl = RNG.normal(size=(b, 8)), RNG.normal(size=(b, 8))
    value, d_g, d_l = _infonce_run(zg, zl, 0.2, False)
    assert abs(value - _infonce_oracle(zg, zl, 0.2, False)) <= 1e-12 * max(1.0, abs(value))
    _slab_rows(monkeypatch, b, b)
    _, want_g, want_l = _infonce_run(zg, zl, 0.2, False)
    np.testing.assert_allclose(d_g, want_g, rtol=0, atol=1e-15 * b)
    np.testing.assert_allclose(d_l, want_l, rtol=0, atol=1e-15 * b)


def _infonce_terms(pairs, tau, include_positive):
    """Value, table gradients and recorded nodes of one multi-term call."""
    leaves = [(ad.parameter(g), ad.parameter(l), np.arange(g.shape[0])) for g, l in pairs]
    with ad.Tape() as tape:
        out = ad.infonce(leaves, tau, include_positive)
        loss = ad.mul(out, 2.5)
    recorded = [node for name, node, _ in tape._nodes if name == "infonce"]
    assert len(recorded) == 1 and recorded[0] is out
    names = [name for name, _, _ in tape._nodes]
    tape.backward(loss)
    # the replay keeps each node's name and releases its output and closure
    assert tape._nodes == [(name, None, None) for name in names]
    return (out.item(), [(g.grad.tobytes(), l.grad.tobytes()) for g, l, _ in leaves], names)


@pytest.mark.parametrize("include_positive", [False, True])
@pytest.mark.parametrize("cores", [2, 6])
def test_infonce_pool_matches_inline_bitwise(infonce_pool, worker_cores, cores, include_positive):
    pairs = [(RNG.normal(size=(b, 3)), RNG.normal(size=(b, 3))) for b in (5, 7, 2, 9, 6, 4)]
    worker_cores(cores)
    # six workers on fewer cores, switching threads as often as possible
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _infonce_terms(pairs, 0.3, include_positive)
    finally:
        sys.setswitchinterval(interval)
    assert len(infonce_pool) == 6
    assert all(name.startswith("kgtn-worker") for name in infonce_pool)
    assert ad._executor()._max_workers == cores
    infonce_pool.clear()
    worker_cores(1)
    inline = _infonce_terms(pairs, 0.3, include_positive)
    assert infonce_pool == [threading.current_thread().name] * 6
    # the same values, operand gradients and tape op sequence, bit for bit
    assert pooled == inline


def test_infonce_pool_is_not_started_for_one_slab_terms(monkeypatch, infonce_pool):
    # b = 2 rows fit in one slab once the cap holds two rows
    monkeypatch.setattr(ad, "INFONCE_SLAB_BYTES", 2 * 2 * 2 * 8)
    pairs = [(RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3)))] * 6
    _infonce_terms(pairs, 0.3, False)
    assert infonce_pool == [threading.current_thread().name] * 6


def test_infonce_pool_zero_norm_row_raises_before_any_term(infonce_pool):
    pairs = [(ad.parameter(RNG.normal(size=(4, 3))), ad.parameter(RNG.normal(size=(4, 3))),
              np.arange(4)) for _ in range(6)]
    pairs[4][0].values[2] = 0.0
    with ad.Tape() as tape:
        with pytest.raises(DomainError, match="zero-norm"):
            ad.infonce(pairs, 0.5)
    assert len(tape) == 0 and infonce_pool == []


def test_infonce_pool_runs_at_most_one_term_per_core(monkeypatch, infonce_pool):
    # each running term holds its buffers: no more terms at once than cores.
    # A term waits 5 ms once it has started, so every free worker starts one.
    flight, most = [0], [0]
    lock = threading.Lock()
    run = ad._InfonceTerm.run

    def counted_run(term):
        with lock:
            flight[0] += 1
            most[0] = max(most[0], flight[0])
        try:
            time.sleep(5e-3)
            run(term)
        finally:
            with lock:
                flight[0] -= 1

    monkeypatch.setattr(ad._InfonceTerm, "run", counted_run)
    pairs = [(RNG.normal(size=(b, 3)), RNG.normal(size=(b, 3))) for b in (9, 7, 12, 8, 10, 11)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for include_positive in (False, True):
            _infonce_terms(pairs, 0.3, include_positive)
    finally:
        sys.setswitchinterval(interval)
    assert len(infonce_pool) == 12
    assert all(name.startswith("kgtn-worker") for name in infonce_pool)
    assert 1 <= most[0] <= 2


class _TermFailed(Exception):
    pass


def test_infonce_pool_term_error_reaches_the_caller(monkeypatch, infonce_pool):
    run = ad._InfonceTerm.run
    failed_on = []

    def failing_run(term):
        if term.b == 7:
            failed_on.append(threading.current_thread().name)
            raise _TermFailed(f"term of {term.b} rows")
        run(term)

    monkeypatch.setattr(ad._InfonceTerm, "run", failing_run)
    pairs = [(ad.parameter(RNG.normal(size=(b, 3))), ad.parameter(RNG.normal(size=(b, 3))),
              np.arange(b)) for b in (5, 7, 2, 9, 6, 4)]
    with ad.Tape() as tape:
        with pytest.raises(_TermFailed, match="term of 7 rows"):
            ad.infonce(pairs, 0.5)
    assert len(tape) == 0
    assert len(failed_on) == 1 and failed_on[0].startswith("kgtn-worker")
    assert all(g.grad is not None and not g.grad.any() for g, _, _ in pairs)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_infonce_pool_runs_in_a_forked_child(infonce_pool):
    # the child inherits the parent's executor but not its threads; a task
    # queued there would never run
    pairs = [(ad.constant(RNG.normal(size=(5, 3))), ad.constant(RNG.normal(size=(5, 3))),
              np.arange(5))] * 3
    want = ad.infonce(pairs, 0.5).item()
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=lambda: results.put(ad.infonce(pairs, 0.5).item()))
    child.start()
    try:
        got = results.get(timeout=30)
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert got == want and child.exitcode == 0


# ---------------------------------------------------------------------------
# substrate invariants


def test_forward_ops_do_not_mutate_inputs():
    a = ad.parameter(RNG.normal(size=(3, 3)))
    b = ad.parameter(RNG.normal(size=(3, 3)))
    snap_a, snap_b = a.values.copy(), b.values.copy()
    edges = InteractionGraph(3, 3, [(0, 1), (0, 2), (2, 0)]).user_edges
    with ad.Tape() as tape:
        attended = ad.edge_attention(a, b, a, b, a, edges, 1)
        loss = ad.sum_all(ad.mul(attended, ad.prototype_mix(b, a)))
        # score adds each layer's rows into the first layer's gathered copy
        loss = loss + ad.bpr(ad.score([a, b], [b, a], [0, 1, 1], [2, 2, 0]),
                             ad.score([b, a], [a], [2, 0, 0], [1, 0, 2]))
    tape.backward(loss)
    np.testing.assert_array_equal(a.values, snap_a)
    np.testing.assert_array_equal(b.values, snap_b)


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(99)
        p = ad.parameter(rng.normal(size=(4, 4)))
        q = ad.parameter(rng.normal(size=(4, 4)))
        edges = InteractionGraph(4, 4, [(0, 0), (0, 3), (1, 2), (3, 1), (3, 2)]).user_edges
        with ad.Tape() as tape:
            h = ad.edge_attention(p, q, q, p, q, edges, 2)
            loss = ad.sum_all(ad.mul(ad.prototype_mix(h, p), ad.prototype_mix(p, q)))
        tape.backward(loss)
        return loss.values.copy(), p.grad.copy(), q.grad.copy()

    l1, g1, h1 = run()
    l2, g2, h2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert g1.tobytes() == g2.tobytes()
    assert h1.tobytes() == h2.tobytes()


def test_add_operands_get_distinct_grad_buffers():
    a = ad.parameter(RNG.normal(size=(3, 2)))
    b = ad.parameter(RNG.normal(size=(3, 2)))
    with ad.Tape() as tape:
        # c's gradient flows unchanged into the intermediates x and y; z's
        # contribution reaches x after c's, and must not leak into y
        x, y = ad.mul(a, 1.0), ad.mul(b, 1.0)
        z = ad.mul(x, 3.0)
        c = x + y
        loss = ad.sum_all(ad.mul(c, c)) + ad.sum_all(ad.mul(ad.mul(c, c), c)) + ad.sum_all(z)
    tape.backward(loss)
    want = 2.0 * c.values + 3.0 * c.values ** 2
    np.testing.assert_allclose(a.grad, want + 3.0, atol=1e-12)
    np.testing.assert_allclose(b.grad, want, atol=1e-12)
    assert all(t.grad is None for t in (x, y, z, c, loss))


def test_reduction_first_then_other_op_accumulates():
    m = RNG.normal(size=(3, 4))
    w = RNG.normal(size=(3, 4))
    rows = np.arange(3)
    for reduce, seed_grad in (
        (ad.sum_all, np.ones((3, 4))),
        (lambda t: ad.sum_all(ad.score([t], [ad.constant(np.full((3, 4), 0.5))], rows, rows)),
         np.full((3, 4), 0.5)),
    ):
        p = ad.parameter(m)
        with ad.Tape() as tape:
            h = ad.mul(p, 2.0)
            # backward reaches h through the reduction first (it ran last),
            # then adds the softmax's contribution into the same buffer
            loss = ad.sum_all(ad.mul(ad.prototype_mix(h, np.eye(4)), w)) + reduce(h)
        tape.backward(loss)
        s = softmax(2.0 * m)
        want_h = seed_grad + s * (w - (w * s).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(p.grad, 2.0 * want_h, atol=1e-12)
        assert h.grad is None


def test_pass_through_views_are_copied():
    # leaves built with requires_grad=True start without a buffer, so their
    # first contribution decides it: a split piece (b's rows past the mixed
    # ones), the upstream gradient itself (m, through an add) and a
    # broadcast (s, which then takes a second contribution)
    b = ad.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    m = ad.Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    s = ad.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        prod = ad.prototype_mix(b, ad.add(m, 0.0), 2)
        loss = ad.sum_all(ad.mul(prod, prod)) + ad.sum_all(ad.mul(s, s)) + ad.sum_all(s)
    tape.backward(loss)
    for t in (b, m, s):
        assert t.grad.flags.writeable and t.grad.flags.owndata
        assert t.grad.flags.c_contiguous and t.grad.shape == t.values.shape
    _, db, dm = _prototype_mix_oracle(b.values[:2], m.values, 2.0 * prod.values[:2])
    np.testing.assert_allclose(b.grad[:2], db, atol=1e-12)
    np.testing.assert_array_equal(b.grad[2:], 2.0 * b.values[2:])
    np.testing.assert_allclose(m.grad, dm, atol=1e-12)
    np.testing.assert_allclose(s.grad, 2.0 * s.values + 1.0, atol=1e-12)


def test_intermediate_grads_released_leaves_kept():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    q = ad.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    with ad.Tape() as tape:
        # h feeds three consumers; its gradient must survive until all ran
        h = ad.mul(p, q)
        e = ad.prototype_mix(h, np.eye(3))
        loss = (ad.sum_all(ad.mul(h, e)) + ad.sum_all(ad.prototype_mix(h, np.eye(3)))
                + ad.sum_all(ad.mul(e, e)))
    tape.backward(loss)
    assert h.grad is None and e.grad is None and loss.grad is None
    assert p.grad is not None and q.grad is not None


def test_gradcheck_passes_through_shared_intermediates():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    q = ad.parameter(RNG.normal(size=(3, 3)))

    def build():
        h = ad.prototype_mix(p, q)
        e = ad.prototype_mix(ad.mul(h, 0.3), np.eye(3))
        return (ad.sum_all(ad.mul(h, e)) + ad.sum_all(ad.prototype_mix(h, np.eye(3)))
                + ad.sum_all(ad.mul(e, e)))

    fd_check(build, [("p", p), ("q", q)], tol=1e-7)


def test_constants_receive_no_gradient():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    consts = [ad.constant(RNG.normal(size=(3, 3))) for _ in range(4)]
    with ad.Tape() as tape:
        h = ad.mul(p, consts[0])
        h = ad.add(h, consts[1])
        h = ad.add(consts[2], h)
        # tracked sources, a constant target table and constant projections
        pairs = InteractionGraph(3, 3, [(0, 1), (1, 1), (1, 2)])
        h = ad.edge_attention(h, consts[3], consts[0], consts[1], consts[2], pairs.user_edges, 1)
        # a constant gate and a constant relation table, tracked entities
        edges = KnowledgeGraph(np.array([[0, 0, 2], [1, 1, 0]]), n_entities=3,
                               n_relations=3).full_edges()
        h = ad.gated_sum(edges, consts[0], h)
        h = ad.kg_pool(h, consts[1], edges)
        # a constant layer and a constant item table in score, a constant
        # negative score in bpr
        s = ad.score([h, consts[3]], [consts[2]], [0, 1, 2], [2, 1, 0])
        loss = ad.sum_all(ad.mul(h, 0.5)) + ad.bpr(s, ad.constant(np.zeros(3)))
    tape.backward(loss)
    assert all(c.grad is None for c in consts)
    assert np.any(p.grad != 0.0)


def test_no_recording_without_tape():
    p = ad.parameter(np.ones(3))
    out = ad.mul(p, 2.0)
    assert out.requires_grad is False

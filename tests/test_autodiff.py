"""Primitive-level contracts: identity cases, edge cases, finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.special import expit, logsumexp

from kgtn import autodiff as ad
from kgtn.data import InteractionGraph, KnowledgeGraph, block_operator
from kgtn.errors import ContractError, DomainError, ShapeError
from kgtn.gradcheck import check_gradients

RNG = np.random.default_rng(2024)


def fd_check(build, named, tol=1e-4):
    result = check_gradients(build, named)
    assert result.max_rel_err < tol, f"{result.worst_param}: {result.max_rel_err}"
    return result


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = ad.constant(np.eye(2))
    b = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(ad.matmul(a, b).values, [[1, 2], [3, 4]])


def test_matmul_orthogonal_rows():
    out = ad.matmul(ad.constant([[1.0, 0.0]]), ad.constant([[0.0], [1.0]]))
    assert out.values == np.zeros((1, 1))


def test_matmul_shape_error_names_both():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_matmul_finite_difference():
    a = ad.parameter(RNG.normal(size=(3, 4)))
    b = ad.parameter(RNG.normal(size=(4, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
             [("a", a), ("b", b)], tol=1e-6)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_equal_logits():
    for c in (0.0, 5.0, -3.25):
        np.testing.assert_allclose(ad.softmax(ad.constant([c, c, c])).values, np.ones(3) / 3)


def test_softmax_shift_invariance():
    v = RNG.normal(size=7)
    s1 = ad.softmax(ad.constant(v)).values
    s2 = ad.softmax(ad.constant(v + 17.5)).values
    np.testing.assert_allclose(s1, s2, atol=1e-12)


def test_softmax_two_logit_oracle():
    # e / (e + 1) and 1 / (e + 1)
    out = ad.softmax(ad.constant([1.0, 0.0])).values
    np.testing.assert_allclose(out, [0.73105857863, 0.26894142137], atol=1e-9)


def test_softmax_empty_input():
    with pytest.raises(DomainError):
        ad.softmax(ad.constant(np.zeros(0)))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one(logits):
    out = ad.softmax(ad.constant(np.array(logits))).values
    assert abs(out.sum() - 1.0) < 1e-9
    assert np.all(out > 0) and np.all(out < 1 + 1e-12)


def test_softmax_rows_and_finite_difference():
    m = ad.parameter(RNG.normal(size=(4, 5)))
    out = ad.softmax(m).values
    np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-9)
    w = ad.constant(RNG.normal(size=(4, 5)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.softmax(m), w)), [("m", m)])


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
        return ad.sum_all(ad.mul(ad.mul(a, b) + ad.sub(a, b), ad.softplus(b)))

    fd_check(build, [("a", a), ("b", b)])


def test_scalar_broadcast_arithmetic():
    a = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = (2.0 * a + 1.0) * 0.5 - 0.5
    np.testing.assert_allclose(out.values, a.values)
    fd_check(lambda: ad.sum_all(ad.mul(3.0 * a - 1.0, a * 0.5)), [("a", a)])


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
# gather (backward scatter-adds) / segments / concat


def test_gather_rows_identity_permutation():
    t = ad.constant(RNG.normal(size=(4, 3)))
    np.testing.assert_array_equal(ad.gather_rows(t, np.arange(4)).values, t.values)


def test_gather_rows_out_of_range():
    with pytest.raises(ShapeError):
        ad.gather_rows(ad.constant(np.ones((2, 2))), np.array([0, 2]))


def test_gather_rows_finite_difference():
    t = ad.parameter(RNG.normal(size=(5, 3)))
    idx = np.array([0, 2, 2, 4, 1])
    w = ad.constant(RNG.normal(size=(5, 3)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.gather_rows(t, idx), w)), [("t", t)])


def _gather_grad(n_rows, idx, upstream):
    """Gradient gather_rows scatter-adds into its table for a given upstream."""
    t = ad.parameter(np.zeros((n_rows, upstream.shape[1])))
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.gather_rows(t, idx), ad.constant(upstream)))
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
        ad.gather_rows(ad.parameter(np.ones((3, 2))), np.array([5]))
    out = _gather_grad(4, np.array([1, 1]), np.ones((2, 2)))
    np.testing.assert_array_equal(out[0], np.zeros(2))
    np.testing.assert_array_equal(out[1], np.full(2, 2.0))


def test_scatter_add_finite_difference():
    # gradients of a table read through repeated and missing indices
    t = ad.parameter(RNG.normal(size=(4, 2)))
    idx = np.array([0, 1, 1, 3, 0, 3])
    w = ad.constant(RNG.normal(size=(6, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.gather_rows(t, idx), w)), [("t", t)])


def test_gather_rows_rejects_boolean_mask():
    t = ad.parameter(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="integer"):
        ad.gather_rows(t, np.array([True, False, True]))


def test_gather_rows_rejects_float_index():
    with pytest.raises(ShapeError, match="integer"):
        ad.gather_rows(ad.parameter(np.ones((3, 2))), np.array([0.0, 2.0]))


def test_gather_rows_rejects_two_dimensional_index():
    with pytest.raises(ShapeError, match="1-d"):
        ad.gather_rows(ad.parameter(np.ones((3, 2))), np.array([[0, 1], [2, 0]]))


def test_gather_rows_empty_index_of_any_dtype():
    for index in (np.array([]), [], np.zeros(0, dtype=np.int32), np.zeros((0, 3))):
        t = ad.parameter(np.ones((3, 2)))
        with ad.Tape() as tape:
            out = ad.gather_rows(t, index)
            loss = ad.sum_all(out)
        assert out.shape == (0, 2)
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
        loss = ad.sum_all(ad.mul(ad.gather_rows(t, idx), ad.constant(upstream)))
    tape.backward(loss)
    oracle = start.copy()
    np.add.at(oracle, idx, upstream)
    np.testing.assert_allclose(t.grad, oracle, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# slice_rows: a contiguous block of rows


@pytest.mark.parametrize("start, stop", [(0, 4), (2, 6), (1, 3), (0, 6), (3, 3)])
def test_slice_rows_finite_difference(start, stop):
    t = ad.parameter(RNG.normal(size=(6, 3)))
    w = ad.constant(RNG.normal(size=(stop - start, 3)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.slice_rows(t, start, stop), w)), [("t", t)], tol=1e-7)


def test_slice_rows_copies_its_rows():
    # Adam writes parameters in place, so a slice must not see later writes
    t = ad.parameter(RNG.normal(size=(5, 3)))
    rows = t.values[1:4].copy()
    out = ad.slice_rows(t, 1, 4)
    assert not np.shares_memory(out.values, t.values)
    t.values -= 1.0
    np.testing.assert_array_equal(out.values, rows)


def test_slice_rows_sends_gradient_only_to_its_rows():
    start = RNG.normal(size=(6, 2))
    t = ad.parameter(np.zeros((6, 2)))
    t.grad[...] = start
    upstream = RNG.normal(size=(2, 2))
    with ad.Tape() as tape:
        mid = ad.mul(t, 1.0)  # an intermediate table without a grad buffer
        loss = ad.sum_all(ad.mul(ad.slice_rows(t, 3, 5), ad.constant(upstream)))
        loss = loss + ad.sum_all(ad.mul(ad.slice_rows(mid, 0, 2), ad.constant(upstream)))
    tape.backward(loss)
    expect = start.copy()
    expect[3:5] += upstream
    expect[0:2] += upstream
    assert t.grad.tobytes() == expect.tobytes()


def test_slice_rows_rejects_rows_outside_the_table():
    t = ad.constant(np.ones((4, 2)))
    for start, stop in ((-1, 2), (2, 5), (3, 2)):
        with pytest.raises(ShapeError, match="slice_rows"):
            ad.slice_rows(t, start, stop)
    with pytest.raises(ShapeError, match="slice_rows"):
        ad.slice_rows(ad.constant(np.ones(4)), 0, 2)


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


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_edge_attention_matches_per_head_loop_oracle(n_heads):
    graph, _ = _edge_fixture()
    users_of = [[u for u, i in _PAIRS if i == item] for item in range(5)]
    items_of = [graph.items_of(u) for u in range(4)]
    for edges, targets_of, n_src, n_tgt, isolated in ((graph.user_edges, items_of, 4, 5, 2),
                                                      (graph.item_edges, users_of, 5, 4, 3)):
        q, fallback = RNG.normal(size=(n_src, 4)) * 2.0, RNG.normal(size=(n_src, 4))
        k, v = RNG.normal(size=(n_tgt, 4)) * 2.0, RNG.normal(size=(n_tgt, 4))
        out = ad.edge_attention(q, k, v, fallback, edges, n_heads).values
        np.testing.assert_allclose(out, _attention_oracle(q, k, v, fallback, targets_of, n_heads),
                                   rtol=0, atol=1e-12)
        # the isolated user and the isolated item keep their fallback rows
        np.testing.assert_array_equal(out[isolated], fallback[isolated])


@pytest.mark.parametrize("direction", ["user_edges", "item_edges"])
def test_edge_attention_finite_difference(direction):
    graph, _ = _edge_fixture()
    edges = getattr(graph, direction)
    n_src, n_tgt = edges.source_sum.shape[0], edges.target_sum.shape[0]
    q, fallback = ad.parameter(RNG.normal(size=(n_src, 4))), ad.parameter(RNG.normal(size=(n_src, 4)))
    k, v = ad.parameter(RNG.normal(size=(n_tgt, 4))), ad.parameter(RNG.normal(size=(n_tgt, 4)))
    w = RNG.normal(size=(n_src, 4))
    result = fd_check(lambda: ad.sum_all(ad.mul(ad.edge_attention(q, k, v, fallback, edges, 2), w)),
                      [("q", q), ("k", k), ("v", v), ("fallback", fallback)], tol=1e-7)
    # the fallback gradient reaches only the row without edges
    assert np.count_nonzero(np.abs(fallback.grad).sum(axis=1)) == 1


def test_edge_attention_rejects_misfit_shapes():
    graph, _ = _edge_fixture()
    edges = graph.user_edges
    q, k = np.ones((4, 4)), np.ones((5, 4))
    for args in ((q, k, k, np.ones((5, 4))), (q, q, k, q), (q, k, np.ones((5, 2)), q),
                 (np.ones((4, 2, 2)), k, k, q)):
        with pytest.raises(ShapeError, match="edge_attention"):
            ad.edge_attention(*args, edges, 2)
    with pytest.raises(ShapeError, match="head count 3"):
        ad.edge_attention(q, k, k, q, edges, 3)


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


def test_concat_round_trip_rows():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(4, 3))
    np.testing.assert_array_equal(
        ad.concat([ad.constant(a), ad.constant(b)]).values, np.vstack([a, b])
    )


def test_concat_rejects_empty_operand_list():
    with pytest.raises(DomainError):
        ad.concat([])


def test_mean_all_rejects_empty():
    with pytest.raises(DomainError):
        ad.mean_all(ad.constant(np.zeros((0, 2))))


def test_concat_finite_difference():
    a = ad.parameter(RNG.normal(size=(2, 2)))
    b = ad.parameter(RNG.normal(size=(3, 2)))
    w = ad.constant(RNG.normal(size=(5, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.concat([a, b]), w)), [("a", a), ("b", b)])


# ---------------------------------------------------------------------------
# reductions and maps


def test_reduction_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert ad.sum_all(ad.constant(m)).values == 10.0
    assert ad.mean_all(ad.constant(m)).values == 2.5
    np.testing.assert_array_equal(ad.rowsum(ad.constant(m)).values, [3.0, 7.0])


def test_reduction_finite_difference():
    m = ad.parameter(RNG.normal(size=(3, 4)))
    fd_check(lambda: ad.mean_all(ad.mul(m, m)) + ad.sum_all(ad.rowsum(m) * 0.5), [("m", m)])


def test_map_values():
    assert abs(ad.softplus(ad.constant(0.0)).values - math.log(2.0)) < 1e-12
    # softplus must not overflow for large inputs
    assert abs(ad.softplus(ad.constant(800.0)).values - 800.0) < 1e-9


def test_map_finite_difference():
    x = ad.parameter(RNG.normal(size=6) * 2.0)

    def build():
        return ad.sum_all(ad.mul(ad.softplus(ad.mul(x, 0.3)), x) + ad.softplus(x))

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
            out = ad.infonce(ad.constant(zg), ad.constant(zl), tau, include_positive).values
            want = _infonce_oracle(zg, zl, tau, include_positive)
            assert np.isfinite(out) and abs(out - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("include_positive", [False, True])
def test_infonce_finite_difference(include_positive):
    g = ad.parameter(RNG.normal(size=(5, 4)))
    l = ad.parameter(RNG.normal(size=(5, 4)))
    # the upstream scale checks that backward multiplies by its gradient
    fd_check(lambda: ad.mul(ad.infonce(g, l, 0.4, include_positive), 2.5),
             [("g", g), ("l", l)], tol=1e-6)


def test_infonce_constant_view_gets_no_gradient():
    zg, zl = RNG.normal(size=(4, 3)), RNG.normal(size=(4, 3))
    grads = []
    for constant_local in (False, True):
        g = ad.parameter(zg)
        l = ad.constant(zl) if constant_local else ad.parameter(zl)
        with ad.Tape() as tape:
            loss = ad.infonce(g, l, 0.5)
        tape.backward(loss)
        grads.append(g.grad)
    assert l.grad is None
    np.testing.assert_array_equal(grads[0], grads[1])


def test_infonce_domain_errors():
    z = RNG.normal(size=(3, 2))
    with pytest.raises(DomainError, match="zero-norm"):
        ad.infonce(ad.constant(np.vstack([z[:2], np.zeros(2)])), ad.constant(z), 1.0)
    with pytest.raises(DomainError, match="zero-norm"):
        ad.infonce(ad.constant(z), ad.constant(np.vstack([np.zeros(2), z[1:]])), 1.0)
    for tau in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="temperature"):
            ad.infonce(ad.constant(z), ad.constant(z), tau)
    with pytest.raises(DomainError, match="2 rows"):
        ad.infonce(ad.constant(z[:1]), ad.constant(z[:1]), 1.0)
    with pytest.raises(ShapeError):
        ad.infonce(ad.constant(z), ad.constant(z[:2]), 1.0)


def _infonce_run(zg, zl, tau, include_positive):
    g, l = ad.parameter(zg), ad.parameter(zl)
    with ad.Tape() as tape:
        loss = ad.infonce(g, l, tau, include_positive)
    tape.backward(loss)
    return loss.item(), g.grad, l.grad


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
    fd_check(lambda: ad.mul(ad.infonce(g, l, 0.4, include_positive), 2.5),
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


# ---------------------------------------------------------------------------
# substrate invariants


def test_forward_ops_do_not_mutate_inputs():
    a = ad.parameter(RNG.normal(size=(3, 3)))
    b = ad.parameter(RNG.normal(size=(3, 3)))
    snap_a, snap_b = a.values.copy(), b.values.copy()
    with ad.Tape() as tape:
        loss = ad.sum_all(ad.mul(ad.matmul(a, b), ad.softmax(b)))
    tape.backward(loss)
    np.testing.assert_array_equal(a.values, snap_a)
    np.testing.assert_array_equal(b.values, snap_b)


def test_tape_replay_determinism():
    def run():
        rng = np.random.default_rng(99)
        p = ad.parameter(rng.normal(size=(4, 4)))
        q = ad.parameter(rng.normal(size=(4, 4)))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.mul(ad.softmax(ad.matmul(p, q)), ad.softplus(p)))
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
        loss = ad.sum_all(ad.mul(c, c)) + ad.sum_all(ad.softplus(c)) + ad.sum_all(z)
    tape.backward(loss)
    want = 2.0 * c.values + expit(c.values)
    np.testing.assert_allclose(a.grad, want + 3.0, atol=1e-12)
    np.testing.assert_allclose(b.grad, want, atol=1e-12)
    assert all(t.grad is None for t in (x, y, z, c, loss))


def test_reduction_first_then_other_op_accumulates():
    m = RNG.normal(size=(3, 4))
    for reduce, seed_grad in (
        (ad.sum_all, np.ones((3, 4))),
        (ad.mean_all, np.full((3, 4), 1.0 / 12)),
        (lambda t: ad.sum_all(ad.rowsum(t)), np.ones((3, 4))),
    ):
        p = ad.parameter(m)
        with ad.Tape() as tape:
            h = ad.mul(p, 2.0)
            # backward reaches h through the reduction first (it ran last),
            # then adds softplus's contribution into the same buffer
            loss = ad.sum_all(ad.softplus(h)) + reduce(h)
        tape.backward(loss)
        want_h = seed_grad + expit(2.0 * m)
        np.testing.assert_allclose(p.grad, 2.0 * want_h, atol=1e-12)
        assert h.grad is None


def test_pass_through_views_are_copied():
    # leaves built with requires_grad=True start without a buffer, so their
    # first contribution decides it: a split piece (a, b), a transpose (m)
    # and a broadcast (s, which then takes a second contribution)
    a = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    m = ad.Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    s = ad.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        cat = ad.concat([a, b])
        prod = ad.matmul(cat, ad.transpose(m))
        loss = ad.sum_all(ad.mul(prod, prod)) + ad.sum_all(ad.mul(s, s)) + ad.sum_all(s)
    tape.backward(loss)
    for t in (a, b, m, s):
        assert t.grad.flags.writeable and t.grad.flags.owndata
        assert t.grad.flags.c_contiguous and t.grad.shape == t.values.shape
    dcat = 2.0 * prod.values @ m.values
    np.testing.assert_allclose(a.grad, dcat[:2], atol=1e-12)
    np.testing.assert_allclose(b.grad, dcat[2:], atol=1e-12)
    np.testing.assert_allclose(m.grad, 2.0 * prod.values.T @ cat.values, atol=1e-12)
    np.testing.assert_allclose(s.grad, 2.0 * s.values + 1.0, atol=1e-12)


def test_intermediate_grads_released_leaves_kept():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    q = ad.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
    with ad.Tape() as tape:
        # h feeds three consumers; its gradient must survive until all ran
        h = ad.matmul(p, q)
        e = ad.softplus(h)
        loss = ad.sum_all(ad.mul(h, e)) + ad.sum_all(ad.softmax(h)) + ad.mean_all(e)
    tape.backward(loss)
    assert h.grad is None and e.grad is None and loss.grad is None
    assert p.grad is not None and q.grad is not None


def test_gradcheck_passes_through_shared_intermediates():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    q = ad.parameter(RNG.normal(size=(3, 3)))

    def build():
        h = ad.matmul(p, q)
        e = ad.softplus(ad.mul(h, 0.3))
        return ad.sum_all(ad.mul(h, e)) + ad.sum_all(ad.softmax(h)) + ad.mean_all(e)

    fd_check(build, [("p", p), ("q", q)], tol=1e-7)


def test_constants_receive_no_gradient():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    consts = [ad.constant(RNG.normal(size=(3, 3))) for _ in range(4)]
    with ad.Tape() as tape:
        h = ad.mul(p, consts[0])
        h = ad.add(h, consts[1])
        h = ad.sub(consts[2], h)
        h = ad.matmul(consts[3], h)
        # a constant gate and a constant relation table, tracked entities
        edges = KnowledgeGraph(np.array([[0, 0, 2], [1, 1, 0]]), n_entities=3,
                               n_relations=3).full_edges()
        h = ad.gated_sum(edges, consts[0], h)
        h = ad.kg_pool(h, consts[1], edges)
        loss = ad.sum_all(ad.mul(h, 0.5))
    tape.backward(loss)
    assert all(c.grad is None for c in consts)
    assert np.any(p.grad != 0.0)


def test_no_recording_without_tape():
    p = ad.parameter(np.ones(3))
    out = ad.mul(p, 2.0)
    assert out.requires_grad is False

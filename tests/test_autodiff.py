"""Primitive-level contracts: identity cases, edge cases, finite differences."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgtn import autodiff as ad
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
        return ad.sum_all(ad.div(ad.mul(a, b) + ad.sub(a, b), ad.add(b, 2.0)))

    fd_check(build, [("a", a), ("b", b)])


def test_scalar_broadcast_arithmetic():
    a = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = (2.0 * a + 1.0) / 2.0 - 0.5
    np.testing.assert_allclose(out.values, a.values)
    fd_check(lambda: ad.sum_all(ad.mul(3.0 * a - 1.0, a / 2.0)), [("a", a)])


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


def test_segment_sum_rows_with_empty_segments():
    rows = RNG.normal(size=(5, 2))
    offsets = np.array([0, 2, 2, 5, 5])
    out = ad.segment_sum_rows(ad.constant(rows), offsets).values
    np.testing.assert_allclose(out[0], rows[:2].sum(axis=0))
    np.testing.assert_array_equal(out[1], np.zeros(2))
    np.testing.assert_allclose(out[2], rows[2:5].sum(axis=0))
    np.testing.assert_array_equal(out[3], np.zeros(2))


def test_segment_sum_rows_finite_difference():
    rows = ad.parameter(RNG.normal(size=(5, 2)))
    offsets = np.array([0, 2, 2, 5])
    w = ad.constant(RNG.normal(size=(3, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.segment_sum_rows(rows, offsets), w)), [("rows", rows)])


def test_segment_softmax_sums_per_segment():
    logits = RNG.normal(size=7)
    offsets = np.array([0, 3, 3, 7])
    out = ad.segment_softmax(ad.constant(logits), offsets).values
    assert abs(out[:3].sum() - 1.0) < 1e-9
    assert abs(out[3:].sum() - 1.0) < 1e-9


def test_segment_softmax_finite_difference():
    logits = ad.parameter(RNG.normal(size=6))
    offsets = np.array([0, 2, 6])
    w = ad.constant(RNG.normal(size=6))
    fd_check(lambda: ad.sum_all(ad.mul(ad.segment_softmax(logits, offsets), w)), [("l", logits)])


def test_segment_softmax_bad_offsets():
    with pytest.raises(ShapeError):
        ad.segment_softmax(ad.constant(np.ones(4)), np.array([0, 2, 3]))


def test_concat_round_trip_both_axes():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(4, 3))
    np.testing.assert_array_equal(
        ad.concat([ad.constant(a), ad.constant(b)], axis=0).values, np.vstack([a, b])
    )
    c = RNG.normal(size=(2, 5))
    np.testing.assert_array_equal(
        ad.concat([ad.constant(a), ad.constant(c)], axis=1).values, np.hstack([a, c])
    )


def test_concat_rejects_empty_operand_list():
    with pytest.raises(DomainError):
        ad.concat([], axis=0)


def test_mean_all_rejects_empty():
    with pytest.raises(DomainError):
        ad.mean_all(ad.constant(np.zeros((0, 2))))


def test_concat_finite_difference():
    a = ad.parameter(RNG.normal(size=(2, 2)))
    b = ad.parameter(RNG.normal(size=(3, 2)))
    w = ad.constant(RNG.normal(size=(5, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.concat([a, b], axis=0), w)), [("a", a), ("b", b)])


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


def test_scale_rows_value_and_finite_difference():
    m = ad.parameter(RNG.normal(size=(3, 2)))
    w = ad.parameter(RNG.normal(size=3))
    np.testing.assert_allclose(
        ad.scale_rows(m, w).values, m.values * w.values[:, None], atol=1e-12
    )
    q = ad.constant(RNG.normal(size=(3, 2)))
    fd_check(lambda: ad.sum_all(ad.mul(ad.scale_rows(m, w), q)), [("m", m), ("w", w)])


def test_map_values():
    assert abs(ad.exp(ad.constant(1.0)).values - math.e) < 1e-12
    assert abs(ad.log(ad.constant(math.e)).values - 1.0) < 1e-12
    assert abs(ad.sqrt(ad.constant(4.0)).values - 2.0) < 1e-15
    assert abs(ad.softplus(ad.constant(0.0)).values - math.log(2.0)) < 1e-12
    # softplus must not overflow for large inputs
    assert abs(ad.softplus(ad.constant(800.0)).values - 800.0) < 1e-9


def test_map_domain_errors():
    with pytest.raises(DomainError):
        ad.log(ad.constant([1.0, -1.0]))
    with pytest.raises(DomainError):
        ad.sqrt(ad.constant(0.0))


def test_map_finite_difference():
    x = ad.parameter(RNG.normal(size=6) * 0.7 + 2.0)

    def build():
        return ad.sum_all(
            ad.exp(ad.mul(x, 0.3)) + ad.log(x) + ad.sqrt(x) + ad.softplus(x)
        )

    fd_check(build, [("x", x)])


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
        loss = ad.sum_all(ad.mul(c, c)) + ad.sum_all(ad.exp(c)) + ad.sum_all(z)
    tape.backward(loss)
    want = 2.0 * c.values + np.exp(c.values)
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
            # then adds exp's contribution into the same buffer
            loss = ad.sum_all(ad.exp(h)) + reduce(h)
        tape.backward(loss)
        want_h = seed_grad + np.exp(2.0 * m)
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
        cat = ad.concat([a, b], axis=0)
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
        e = ad.exp(h)
        loss = ad.sum_all(ad.mul(h, e)) + ad.sum_all(ad.softmax(h)) + ad.mean_all(e)
    tape.backward(loss)
    assert h.grad is None and e.grad is None and loss.grad is None
    assert p.grad is not None and q.grad is not None


def test_gradcheck_passes_through_shared_intermediates():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    q = ad.parameter(RNG.normal(size=(3, 3)))

    def build():
        h = ad.matmul(p, q)
        e = ad.exp(ad.mul(h, 0.3))
        return ad.sum_all(ad.mul(h, e)) + ad.sum_all(ad.softmax(h)) + ad.mean_all(e)

    fd_check(build, [("p", p), ("q", q)], tol=1e-7)


def test_constants_receive_no_gradient():
    p = ad.parameter(RNG.normal(size=(3, 3)))
    consts = [ad.constant(RNG.normal(size=(3, 3))) for _ in range(4)]
    w = ad.constant(RNG.normal(size=3))
    with ad.Tape() as tape:
        h = ad.mul(p, consts[0])
        h = ad.div(h, consts[1])
        h = ad.sub(consts[2], h)
        h = ad.matmul(consts[3], h)
        h = ad.scale_rows(h, w)
        loss = ad.sum_all(ad.mul(h, 0.5))
    tape.backward(loss)
    assert all(c.grad is None for c in consts) and w.grad is None
    assert np.any(p.grad != 0.0)


def test_no_recording_without_tape():
    p = ad.parameter(np.ones(3))
    out = ad.mul(p, 2.0)
    assert out.requires_grad is False

"""The data set-up path: blocked row draws, row dedupe and batched negatives.

Each rebuilt step must give what the per-user reference loops of
`tests/data_oracle.py` give, bit for bit, and leave its inputs unchanged.
"""
import warnings

import numpy as np
import pytest

import data_oracle as oracle
from kgtn import data
from kgtn.errors import DomainError


def same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


def _first_draws_without_a_hit(n_users, n_items, n_entities, density, seed, n_groups=4):
    """Users whose first `rng.random(n_items)` row has no hit, found by
    replaying the per-user row loop of `generate_synthetic`."""
    rng = np.random.default_rng(seed)
    groups = min(n_groups, n_users, n_items, n_entities - n_items or 1)
    user_groups = rng.integers(0, groups, size=n_users)
    item_groups = rng.integers(0, groups, size=n_items)
    spread = 0.4 * (1.0 - abs(2.0 * density - 1.0))
    p_same, p_diff = min(1.0, density + spread), max(0.0, density - spread)
    empty = []
    for u in range(n_users):
        p = np.where(item_groups == user_groups[u], p_same, p_diff)
        for attempt in range(1000):
            if (rng.random(n_items) < p).any():
                break
            if attempt == 0:
                empty.append(u)
        else:
            rng.integers(n_items)
    return empty


def _where_blocks_restart(empty, n_users, block):
    """Whether a first draw without a hit opens a block, and whether one
    falls inside a block, for blocks of `block` rows that restart after
    each such row."""
    at_start = mid_block = False
    u = 0
    while u < n_users:
        inside = [e for e in empty if u <= e < u + block]
        if not inside:
            u += block
            continue
        at_start |= inside[0] == u
        mid_block |= inside[0] > u
        u = inside[0] + 1
    return at_start, mid_block


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_rows_equal_the_per_user_oracle(monkeypatch, seed):
    # blocks of 3 rows; 4 to 9 of the 30 users' first draws have no hit
    args, density, rows = (30, 40, 40, 4), 0.02, 3
    empty = _first_draws_without_a_hit(*args[:3], density, seed)
    assert _where_blocks_restart(empty, args[0], rows) == (True, True)
    monkeypatch.setattr(data, "SYNTH_BLOCK_DOUBLES", rows * args[1])
    got = data.generate_synthetic(*args, density=density, seed=seed)
    want = oracle.generate_synthetic(*args, density=density, seed=seed)
    for name in ("pairs", "triples", "user_groups", "item_groups"):
        assert same(getattr(got, name), getattr(want, name)), name
    # the draws after the rows (negatives, then the KG) saw the same stream,
    # and so does the split built from them
    inter = got.interactions()
    split = data.make_split(inter, (0.6, 0.2, 0.2), seed)
    want = oracle.make_split(inter, (0.6, 0.2, 0.2), seed)
    assert all(same(getattr(split, p), getattr(want, p)) for p in ("train", "eval", "test"))


def test_a_row_longer_than_a_block_is_a_block_of_its_own(monkeypatch):
    monkeypatch.setattr(data, "SYNTH_BLOCK_DOUBLES", 7)
    args = (25, 20, 30, 3)
    got = data.generate_synthetic(*args, density=0.5, seed=4)
    want = oracle.generate_synthetic(*args, density=0.5, seed=4)
    assert same(got.pairs, want.pairs) and same(got.triples, want.triples)


@pytest.mark.parametrize("rows", [
    np.array([[2, 1, 0], [0, 5, 1], [2, 1, 0], [0, 5, 0], [-1, 9, 9], [0, 5, 1]]),
    np.array([[3, 3], [3, 3], [3, 3]]),
    np.zeros((0, 3), dtype=np.int64),
    np.array([[7, 1, 4]]),
    np.random.default_rng(0).integers(0, 4, size=(200, 3)),
])
def test_unique_rows_equals_numpy_unique_along_rows(rows):
    got = data.unique_rows(rows)
    want = np.unique(rows, axis=0)
    assert same(got, want) and got.flags.c_contiguous


def test_rows_with_negatives_labels_the_draws_it_made():
    # user 0 asks for 3 negatives but lacks only item 3: the draw is cut to
    # one negative with a warning, and the rows label that one only
    graph = data.InteractionGraph(2, 4, [(0, 0), (0, 1), (0, 2), (1, 3)])
    positives = graph.pairs
    with pytest.warns(UserWarning, match="user 0: requested 3 negatives, only 1 available"):
        rows = data.rows_with_negatives(graph, positives, np.array([3, 1]),
                                        np.random.default_rng(0))
    assert rows.shape == (6, 3)
    assert same(rows[:4], np.column_stack([positives, np.ones(4, dtype=np.int64)]))
    negatives = rows[4:]
    assert negatives[:, 0].tolist() == [0, 1] and (negatives[:, 2] == 0).all()
    assert negatives[0, 1] == 3 and negatives[1, 1] in (0, 1, 2)


def test_rows_with_negatives_draws_what_negative_sample_draws():
    graph = data.InteractionGraph(4, 9, [(0, 0), (0, 4), (1, 8), (3, 1), (3, 2), (3, 3)])
    counts = np.array([2, 8, 0, 9])
    rng = np.random.default_rng(11)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = data.rows_with_negatives(graph, graph.pairs, counts, rng)
        want_rng = np.random.default_rng(11)
        want = [data.negative_sample(graph, u, counts[u], want_rng) for u in (0, 1, 3)]
    # user 3's cut draw warns once in each
    messages = [str(w.message) for w in caught]
    assert len(messages) == 2 and messages[0] == messages[1]
    assert same(rows[graph.n_interactions:, 1], np.concatenate(want))
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_rows_with_negatives_refuses_a_user_with_every_item():
    graph = data.InteractionGraph(2, 2, [(0, 0), (0, 1), (1, 0)])
    with pytest.raises(DomainError, match="user 0 has interacted with every item"):
        data.rows_with_negatives(graph, graph.pairs, np.array([1, 1]), np.random.default_rng(0))


def test_negative_draws_leave_the_graph_untouched(fingerprint):
    # no per-graph cache: a draw adds no attribute and changes none
    graph = data.InteractionGraph(3, 12, [(0, 0), (0, 5), (1, 11), (2, 3), (2, 4)])
    keys, before = set(vars(graph)), fingerprint(graph)
    data.negative_sample(graph, 2, 4, seed=1)
    data.rows_with_negatives(graph, graph.pairs, np.array([2, 2, 2]), np.random.default_rng(1))
    assert set(vars(graph)) == keys and fingerprint(graph) == before

"""The seeded data stream: set-up outputs equal the reference loops bit for bit.

`tests/data_oracle.py` keeps the per-user set-algebra versions of the data
path; every output here must match them in value, shape and dtype.
"""
import hashlib
import warnings

import numpy as np
import pytest

import data_oracle as oracle
from kgtn import data, experiments
from kgtn.errors import DomainError

SEEDS = (0, 1, 7, 123)


def same(got, want):
    return got.dtype == want.dtype and np.array_equal(got, want)


def same_split(got, want):
    return all(same(getattr(got, part), getattr(want, part)) for part in ("train", "eval", "test"))


def _interactions(n_users, n_items, positives):
    pairs = np.array([(u, i, 1) for u, i in positives], dtype=np.int64).reshape(-1, 3)
    return data.Interactions(pairs=pairs, n_users=n_users, n_items=n_items)


def _with_warnings(fn, *args):
    """`fn(*args)` and the text of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


def _split_or_error(make_split, *args):
    try:
        return make_split(*args)
    except DomainError as err:
        return str(err)


# Users with 0, 1, 2, 3, 5 and 8 of 10 items: the first three stay in train
# whole, and under ratios (0, 0.5, 0.5) the last asks for 8 negatives with
# only 2 items left, so its draw is truncated with a warning.
EDGE = _interactions(6, 10, [(1, 0), (2, 3), (2, 5)] + [(3, i) for i in range(3)]
                     + [(4, i) for i in range(0, 10, 2)] + [(5, i) for i in range(8)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ratios", [(1.0, 0.0, 0.0), (0.6, 0.2, 0.2), (0.0, 0.5, 0.5)])
def test_make_split_edge_shapes_equal_oracle(ratios, seed):
    got, got_warned = _with_warnings(data.make_split, EDGE, ratios, seed)
    want, want_warned = _with_warnings(oracle.make_split, EDGE, ratios, seed)
    assert same_split(got, want)
    assert got_warned == want_warned
    assert bool(got_warned) == (ratios == (0.0, 0.5, 0.5))


def test_user_with_every_item_equals_oracle():
    inter = _interactions(2, 5, [(0, i) for i in range(5)] + [(1, 2)])
    # nothing held out: no negatives are drawn, so the full user is skipped
    assert same_split(data.make_split(inter, (1, 0, 0), 3), oracle.make_split(inter, (1, 0, 0), 3))
    for make_split in (data.make_split, oracle.make_split):
        with pytest.raises(DomainError, match="user 0 has interacted with every item"):
            make_split(inter, (0.6, 0.2, 0.2), 3)
    kg = data.KnowledgeGraph(np.array([[0, 0, 1]]), n_entities=5)
    ds = data.build_dataset(inter, kg, (1, 0, 0), seed=3)
    pairs = experiments.balanced_pairs(ds, split="train", seed=5)
    assert same(pairs, oracle.balanced_pairs(ds, split="train", seed=5))
    assert (pairs[pairs[:, 0] == 0, 2] == 1).all()
    # an empty split gives an empty table of rows
    assert experiments.balanced_pairs(ds, split="eval").shape == (0, 3)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("args, density", [
    ((25, 20, 30, 3), 0.5),
    ((12, 9, 15, 2), 1.0),      # complete bipartite: every user skips its negatives
    ((30, 40, 40, 4), 0.05),    # no tag entities; some empty rows are drawn again
    ((40, 30, 50, 3), 0.9),     # truncated draws; at most seeds a full user fails the split
])
def test_synthetic_split_and_pairs_equal_oracle(args, density, seed):
    got = data.generate_synthetic(*args, density=density, seed=seed)
    want = oracle.generate_synthetic(*args, density=density, seed=seed)
    for name in ("pairs", "triples", "user_groups", "item_groups"):
        assert same(getattr(got, name), getattr(want, name)), name
    inter = got.interactions()
    split, warned = _with_warnings(_split_or_error, data.make_split, inter, (0.6, 0.2, 0.2), seed)
    want, want_warned = _with_warnings(_split_or_error, oracle.make_split, inter, (0.6, 0.2, 0.2),
                                       seed)
    assert split == want if isinstance(want, str) else same_split(split, want)
    assert warned == want_warned


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("split", ["train", "eval", "test"])
def test_balanced_pairs_equal_oracle(fingerprint, split, seed):
    ds = data.synthetic_dataset(30, 25, 35, 3, density=0.6, seed=seed)
    before = fingerprint(ds.split)
    got = experiments.balanced_pairs(ds, split=split, seed=seed)
    assert same(got, oracle.balanced_pairs(ds, split=split, seed=seed))
    assert fingerprint(ds.split) == before


def test_lastfm_shape_quarter_scale_equals_oracle():
    # Last.FM counts (1872 users, 3846 items, 9366 entities, 60 relations,
    # interaction density 0.006) at a quarter of every count
    args, density, seed = (468, 962, 2342, 60), 0.024, 11
    got = data.generate_synthetic(*args, density=density, seed=seed)
    want = oracle.generate_synthetic(*args, density=density, seed=seed)
    assert same(got.pairs, want.pairs) and same(got.triples, want.triples)
    ds = data.build_dataset(got.interactions(), got.knowledge_graph(), (0.6, 0.2, 0.2), seed)
    assert same_split(ds.split, oracle.make_split(got.interactions(), (0.6, 0.2, 0.2), seed))
    assert same(experiments.balanced_pairs(ds, seed=seed), oracle.balanced_pairs(ds, seed=seed))


# sha256 of the seeded data stream, recorded before the set-up was rebuilt
# from arrays: (generated pairs and triples, train/eval/test, train pairs
# with balanced negatives) of `synthetic_dataset(70, 60, 90, 4, 0.3, seed)`.
STREAM = {
    3: ("60f94f025ba9ee3268c9295a5ea7193f774a090a45c9ced1e8c223da8a63b2a0",
        "d61bf6527f5e65717ad7eadd86ac764c9963ce408ac3928a5704416b4342d5b5",
        "f2d6a95c49de89e854ea5e1ebf7e95cbb27d35d2a4a44a651575ef72978be3b1"),
    2024: ("36553a5da30bfaf795f5315fdac57131d636e5b200017eaf5a81a86e9149eb34",
           "fe58c893555b50806059f58e4592347033bb6ee8ca54fd52b34e31815f262864",
           "62f994e3bffde62d4e493b6b8d0cc24038718776c95ca944f114bc29ea9c5eac"),
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(STREAM))
def test_data_stream_unchanged(seed):
    args = (70, 60, 90, 4)
    raw = data.generate_synthetic(*args, density=0.3, seed=seed)
    ds = data.synthetic_dataset(*args, density=0.3, seed=seed)
    got = (_digest(raw.pairs, raw.triples),
           _digest(ds.split.train, ds.split.eval, ds.split.test),
           _digest(experiments.balanced_pairs(ds, "train", seed)))
    assert got == STREAM[seed], (
        "the seeded data stream changed: the same seed now gives other data, "
        "splits or negatives. Record the stream change once in CHANGES.md, "
        "then update these digests."
    )

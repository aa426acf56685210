"""Fuzzed input: every file gives a result or a `KgtnError`, never a raw error.

Random interaction graphs check that negative sampling matches its reference.
"""
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import data_oracle as oracle
from kgtn import data, training
from kgtn.config import ExperimentConfig, parse_config, to_ini
from kgtn.errors import DomainError, KgtnError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# A field is usually an integer of any size (negative, beyond int64, ...),
# sometimes arbitrary text; a line joins a few fields with tabs.
_field = st.one_of(st.integers().map(str), st.integers(0, 12).map(str), st.text(max_size=6))
_line = st.lists(_field, min_size=0, max_size=4).map("\t".join)
_line_file = st.lists(_line, max_size=12).map(lambda lines: "\n".join(lines).encode("utf-8"))
# Raw bytes, alone or spliced into an otherwise valid file.
_byte_file = st.one_of(
    st.binary(max_size=64),
    st.tuples(_line_file, st.binary(min_size=1, max_size=4)).map(lambda p: p[0] + p[1]),
)


def _loads_or_kgtn_error(load, path, raw):
    path.write_bytes(raw)
    try:
        return load(path)
    except KgtnError:
        return None


@FUZZ
@given(raw=st.one_of(_line_file, _byte_file))
@example(raw=b"0\t0\t1\n1\t18446744073709551616\t0\n")
@example(raw=b"0\t0\t1\n1\t\xff\t0\n")
def test_fuzz_load_interactions(tmp_path, raw):
    inter = _loads_or_kgtn_error(data.load_interactions, tmp_path / "ratings.txt", raw)
    if inter is not None:
        assert inter.pairs.shape[1] == 3 and set(np.unique(inter.pairs[:, 2])) <= {0, 1}
        assert inter.pairs[:, 0].max() == inter.n_users - 1
        assert inter.pairs[:, 1].max() == inter.n_items - 1


@FUZZ
@given(raw=st.one_of(_line_file, _byte_file), min_entities=st.integers(0, 6))
@example(raw=b"0\t0\t9223372036854775808\n", min_entities=0)
@example(raw=b"0\t0\t1\n\xc3\n", min_entities=0)
@example(raw=b"0\t1000000000000\t1\n", min_entities=0)
def test_fuzz_load_kg(tmp_path, raw, min_entities):
    kg = _loads_or_kgtn_error(lambda p: data.load_kg(p, min_entities), tmp_path / "kg.txt", raw)
    if kg is not None:
        # dense entity IDs: the table never outgrows what the file names
        assert min_entities <= kg.n_entities <= min_entities + 2 * kg.n_triples
        assert kg.n_relations <= kg.n_triples
        assert kg.full_edges().offsets[-1] == kg.n_triples


_keys = st.sampled_from(sorted(vars(ExperimentConfig())) + ["threads", "x"])
_entry = st.tuples(_keys, st.text(max_size=12)).map(lambda kv: f"{kv[0]} = {kv[1]}")
_section = st.sampled_from(["[data]", "[model]", "[train]", "[eval]", "[DEFAULT]", "["])
_ini_file = st.lists(st.one_of(_entry, _section, st.text(max_size=12)), max_size=10).map(
    lambda lines: ("[train]\n" + "\n".join(lines)).encode("utf-8"))


@FUZZ
@given(raw=st.one_of(_ini_file, _byte_file))
@example(raw=b"[train]\nseed = %(x)s\n")
@example(raw=b"[data]\ndata_dir = /x/100%d\n")
@example(raw=b"[train]\nlr = nan\n")
@example(raw=b"[train]\nseed = -1\n")
@example(raw=b"[train]\nseed = 1 \xe9\n")
def test_fuzz_parse_config(tmp_path, raw):
    cfg = _loads_or_kgtn_error(parse_config, tmp_path / "c.ini", raw)
    if cfg is not None:
        (tmp_path / "again.ini").write_text(to_ini(cfg), encoding="utf-8")
        assert parse_config(tmp_path / "again.ini") == cfg


def _valid_checkpoint():
    """Bytes of a small valid checkpoint: a matrix, a vector and a scalar."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bin"
        training.save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2),
                                        "s": np.array(0.5)})
        return path.read_bytes()


_CHECKPOINT = _valid_checkpoint()


def _mutate(edits, cut):
    raw = bytearray(_CHECKPOINT)
    for at, byte in edits:
        raw[at] = byte
    return bytes(raw[:cut])


# A valid checkpoint with a few bytes overwritten, then possibly cut short.
_mutated_checkpoint = st.builds(
    _mutate,
    st.lists(st.tuples(st.integers(0, len(_CHECKPOINT) - 1), st.integers(0, 255)), max_size=4),
    st.integers(0, len(_CHECKPOINT)),
)


@FUZZ
@given(raw=st.one_of(_mutated_checkpoint, _byte_file))
@example(raw=_CHECKPOINT)
@example(raw=_mutate([(k, 0xFF) for k in range(20, 28)], len(_CHECKPOINT)))  # (2^32-1, 2^32-1)
def test_fuzz_load_checkpoint(tmp_path, raw):
    blob = _loads_or_kgtn_error(training.load_checkpoint, tmp_path / "c.bin", raw)
    if blob is not None:
        for values in blob.values():
            assert values.dtype == np.float64
            assert 8 * values.size <= len(raw)


# A small interaction graph: (n_users, n_items, positive pairs), often dense
# enough that a user holds every item or has fewer free items than asked.
_graph = st.integers(1, 4).flatmap(lambda n_users: st.integers(1, 10).flatmap(
    lambda n_items: st.tuples(st.just(n_users), st.just(n_items), st.lists(
        st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)), max_size=40))))


def _draw(sample, graph, user, count, seed):
    """What one draw gives, and the shared stream's next value after it."""
    rng = np.random.default_rng(seed)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = sample(graph, user, count, rng)
    except DomainError as err:
        return str(err), None, None
    return out, [str(w.message) for w in caught], rng.integers(2**62)


@FUZZ
@given(graph=_graph, user=st.integers(0, 3), count=st.integers(0, 12), seed=st.integers(0, 2**32))
def test_negative_sample_matches_oracle(fingerprint, graph, user, count, seed):
    n_users, n_items, pairs = graph
    graph = data.InteractionGraph(n_users, n_items, pairs)
    user %= n_users
    before = fingerprint(graph)
    got, got_warned, got_next = _draw(data.negative_sample, graph, user, count, seed)
    want, want_warned, want_next = _draw(oracle.negative_sample, graph, user, count, seed)
    assert fingerprint(graph) == before
    if isinstance(want, str):
        assert got == want
        return
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (got_warned, got_next) == (want_warned, want_next)
    assert np.unique(got).size == got.size
    assert not np.isin(got, graph.items_of(user)).any()
    assert got.size == min(count, n_items - graph.user_degree(user))

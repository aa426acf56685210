"""Loaders, splits, sampling, noise injection, synthetic fixtures."""
import numpy as np
import pytest
from scipy.stats import chisquare

from kgtn import data, training
from kgtn.config import ExperimentConfig
from kgtn.errors import ConfigError, DataFormatError, DomainError


@pytest.fixture
def tmp_ratings(tmp_path):
    def write(text):
        path = tmp_path / "ratings_final.txt"
        path.write_text(text, encoding="utf-8")
        return path

    return write


@pytest.fixture
def raw40():
    return data.generate_synthetic(40, 30, 50, 3, density=0.5, seed=7)


# ---------------------------------------------------------------------------
# load_interactions


def test_load_two_line_file(tmp_ratings):
    inter = data.load_interactions(tmp_ratings("0\t0\t1\n0\t1\t0\n"))
    assert inter.n_users == 1 and inter.n_items == 2
    assert inter.positives.shape == (1, 2)
    assert (inter.pairs[:, 2] == 0).sum() == 1


def test_load_empty_file_rejected(tmp_ratings):
    with pytest.raises(DataFormatError, match="empty"):
        data.load_interactions(tmp_ratings(""))


def test_load_malformed_line_reports_number(tmp_ratings):
    with pytest.raises(DataFormatError, match="line 2"):
        data.load_interactions(tmp_ratings("0\t0\t1\nnot\tan\tint\n"))


def test_load_bad_label_rejected(tmp_ratings):
    with pytest.raises(DataFormatError, match="label"):
        data.load_interactions(tmp_ratings("0\t0\t2\n"))


def test_load_deduplicates_and_remaps(tmp_ratings):
    inter = data.load_interactions(tmp_ratings("7\t9\t1\n7\t9\t1\n3\t9\t0\n"))
    assert inter.pairs.shape[0] == 2
    assert inter.n_users == 2 and inter.n_items == 1
    assert inter.pairs[:, 0].max() == 1 and inter.pairs[:, 1].max() == 0


def test_load_remaps_sparse_unsorted_ids_by_rank(tmp_ratings):
    rng = np.random.default_rng(13)
    user_ids = rng.choice(10**9, size=25, replace=False)
    item_ids = rng.choice(10**6, size=40, replace=False)
    rows = np.column_stack([
        rng.choice(user_ids, size=300), rng.choice(item_ids, size=300),
        rng.integers(0, 2, size=300),
    ])
    text = "".join(f"{u}\t{i}\t{y}\n" for u, i, y in rows)
    inter = data.load_interactions(tmp_ratings(text))
    # oracle: each raw id maps to its rank among the distinct ids seen
    uniq = np.unique(rows, axis=0)
    umap = {u: k for k, u in enumerate(sorted(set(rows[:, 0].tolist())))}
    imap = {i: k for k, i in enumerate(sorted(set(rows[:, 1].tolist())))}
    want = np.array([[umap[u], imap[i], y] for u, i, y in uniq.tolist()], dtype=np.int64)
    assert inter.pairs.dtype == np.int64
    np.testing.assert_array_equal(inter.pairs, want)
    assert (inter.n_users, inter.n_items) == (len(umap), len(imap))


# ---------------------------------------------------------------------------
# load_kg / KnowledgeGraph


def test_load_kg_single_triple(tmp_path):
    path = tmp_path / "kg_final.txt"
    path.write_text("0\t0\t1\n", encoding="utf-8")
    kg = data.load_kg(path)
    assert kg.n_triples == 1
    edges = kg.full_edges()
    assert edges.offsets[1] - edges.offsets[0] == 1


def test_load_kg_deduplicates(tmp_path):
    path = tmp_path / "kg_final.txt"
    path.write_text("0\t0\t1\n0\t0\t1\n", encoding="utf-8")
    assert data.load_kg(path).n_triples == 1


def test_pruning_fit_never_writes_kg_or_split(fingerprint):
    ds = _dataset40()
    assert ds.kg.full_edges().counts.max() > 1  # so k_top = 1 really prunes
    ds.train_graph  # fill the lazy cache so its arrays are compared too
    before = fingerprint(ds)  # split, KG, its CSR edges and the train graph
    cfg = ExperimentConfig(embed_dim=8, n_intents=2, n_heads=2, agg_depth=1, k_top=1,
                           batch_size=64, epochs=2, seed=7).validate()
    training.fit(cfg, ds)
    assert fingerprint(ds) == before


def test_kg_declared_entities_enforced():
    with pytest.raises(DataFormatError, match="overflow"):
        data.KnowledgeGraph(np.array([[9, 0, 1]]), n_entities=5)


def test_interaction_graph_has_matches_pairs(raw40):
    positives = raw40.interactions().positives
    graph = data.InteractionGraph(40, 30, positives)
    observed = set(map(tuple, positives.tolist()))
    for u in range(40):
        for i in range(30):
            assert graph.has(u, i) is ((u, i) in observed)


# ---------------------------------------------------------------------------
# negative sampling


def test_negative_sample_forced_single():
    graph = data.InteractionGraph(1, 3, [(0, 0), (0, 1)])
    out = data.negative_sample(graph, 0, 1, seed=0)
    assert list(out) == [2]


def test_negative_sample_count_zero():
    graph = data.InteractionGraph(1, 3, [(0, 0)])
    assert data.negative_sample(graph, 0, 0, seed=0).size == 0


def test_negative_sample_exhausted_user():
    graph = data.InteractionGraph(1, 2, [(0, 0), (0, 1)])
    with pytest.raises(DomainError):
        data.negative_sample(graph, 0, 1, seed=0)


def test_negative_sample_truncates_with_warning():
    graph = data.InteractionGraph(1, 4, [(0, 0)])
    with pytest.warns(UserWarning, match="truncat"):
        out = data.negative_sample(graph, 0, 10, seed=0)
    assert sorted(out) == [1, 2, 3]


def test_negative_sample_uniformity_chi_square():
    graph = data.InteractionGraph(1, 10, [(0, 0), (0, 4), (0, 9)])
    rng = np.random.default_rng(5)
    draws = np.array([data.negative_sample(graph, 0, 1, rng)[0] for _ in range(10_000)])
    assert set(np.unique(draws)) <= {1, 2, 3, 5, 6, 7, 8}
    counts = np.bincount(draws, minlength=10)[[1, 2, 3, 5, 6, 7, 8]]
    assert chisquare(counts).pvalue > 0.01


def test_negative_sample_no_repeats_and_subset():
    graph = data.InteractionGraph(1, 10, [(0, 0), (0, 4), (0, 9)])
    out = data.negative_sample(graph, 0, 7, seed=3)
    assert len(set(out.tolist())) == 7
    assert not {0, 4, 9} & set(out.tolist())


# ---------------------------------------------------------------------------
# splits


def _interactions_with(n_users, n_items, positives):
    pairs = np.array([(u, i, 1) for u, i in positives], dtype=np.int64)
    return data.Interactions(pairs=pairs, n_users=n_users, n_items=n_items)


def test_split_all_train():
    inter = _interactions_with(2, 30, [(0, i) for i in range(10)] + [(1, j) for j in range(5)])
    split = data.make_split(inter, (1.0, 0.0, 0.0), seed=0)
    assert split.eval.shape[0] == 0 and split.test.shape[0] == 0
    assert split.train.shape[0] == 15


def test_split_exact_arithmetic_10_positives():
    inter = _interactions_with(1, 40, [(0, i) for i in range(10)])
    split = data.make_split(inter, (0.6, 0.2, 0.2), seed=1)
    assert (split.train[:, 2] == 1).sum() == 6
    assert (split.eval[:, 2] == 1).sum() == 2
    assert (split.test[:, 2] == 1).sum() == 2


def test_split_small_users_go_to_train():
    inter = _interactions_with(1, 10, [(0, 0), (0, 1)])
    split = data.make_split(inter, (0.6, 0.2, 0.2), seed=0)
    assert split.train.shape[0] == 2
    assert split.eval.shape[0] == 0 and split.test.shape[0] == 0


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_split_balance_and_disjointness(seed):
    raw = data.generate_synthetic(25, 20, 30, 3, density=0.5, seed=seed)
    inter = raw.interactions()
    split = data.make_split(inter, (0.6, 0.2, 0.2), seed=seed)
    for part in (split.eval, split.test):
        for u in np.unique(part[:, 0]):
            rows = part[part[:, 0] == u]
            assert (rows[:, 2] == 1).sum() == (rows[:, 2] == 0).sum()
    seen = set()
    for part in (split.train, split.eval, split.test):
        for u, i, _ in part:
            assert (u, i) not in seen
            seen.add((u, i))


def test_split_bad_ratios():
    inter = _interactions_with(1, 5, [(0, 0)])
    with pytest.raises(ConfigError):
        data.make_split(inter, (0.5, 0.2, 0.2), seed=0)


# ---------------------------------------------------------------------------
# noise injection


def _dataset40():
    raw = data.generate_synthetic(40, 30, 50, 3, density=0.5, seed=7)
    return data.build_dataset(raw.interactions(), raw.knowledge_graph(), (0.6, 0.2, 0.2), 7)


def test_inject_noise_zero_is_identity():
    ds = _dataset40()
    noisy = data.inject_noise(ds, 0.0, seed=1)
    assert noisy.split.train.tobytes() == ds.split.train.tobytes()


def test_inject_noise_leaves_input_unchanged(fingerprint):
    ds = _dataset40()
    ds.train_graph  # fill the lazy cache so its arrays are compared too
    before = fingerprint(ds)
    for ratio in (0.0, 0.2):
        noisy = data.inject_noise(ds, ratio, seed=1)
        assert noisy is not ds and noisy.split is not ds.split
        assert fingerprint(ds) == before


def test_inject_noise_adds_floor_ratio():
    ds = _dataset40()
    n = ds.split.train.shape[0]
    noisy = data.inject_noise(ds, 0.10, seed=1)
    assert noisy.split.train.shape[0] == n + int(0.10 * n)


def test_injected_pairs_absent_from_original_matrix():
    raw = data.generate_synthetic(40, 30, 50, 3, density=0.5, seed=7)
    observed = set(map(tuple, raw.interactions().positives.tolist()))
    ds = _dataset40()
    noisy = data.inject_noise(ds, 0.20, seed=1)
    added = noisy.split.train[ds.split.train.shape[0]:]
    assert added.shape[0] > 0
    for u, i, y in added:
        assert y == 1
        assert (int(u), int(i)) not in observed


def test_inject_noise_keeps_eval_test_digest():
    ds = _dataset40()
    digest = ds.split.eval_test_digest()
    for ratio in (0.05, 0.10, 0.15, 0.20):
        assert data.inject_noise(ds, ratio, seed=2).split.eval_test_digest() == digest


def test_inject_noise_ratio_validated():
    ds = _dataset40()
    with pytest.raises(ConfigError):
        data.inject_noise(ds, 0.6, seed=0)


# ---------------------------------------------------------------------------
# synthetic generation


def test_synthetic_density_one_complete_bipartite():
    raw = data.generate_synthetic(5, 6, 10, 2, density=1.0, seed=0)
    assert raw.interactions().positives.shape[0] == 5 * 6


def test_synthetic_determinism_identical_files(tmp_path):
    raw1 = data.generate_synthetic(10, 8, 12, 2, density=0.5, seed=11)
    raw2 = data.generate_synthetic(10, 8, 12, 2, density=0.5, seed=11)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    data.write_dataset(raw1, d1)
    data.write_dataset(raw2, d2)
    for name in ("ratings_final.txt", "kg_final.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_synthetic_planted_preference_counting():
    raw = data.generate_synthetic(200, 40, 60, 3, density=0.5, seed=3)
    positives = {(int(u), int(i)) for u, i in raw.interactions().positives}
    same_hits = same_total = diff_hits = diff_total = 0
    for u in range(200):
        for i in range(40):
            same = raw.user_groups[u] == raw.item_groups[i]
            hit = (u, i) in positives
            if same:
                same_total += 1
                same_hits += hit
            else:
                diff_total += 1
                diff_hits += hit
    assert abs(same_hits / same_total - 0.9) < 0.03
    assert abs(diff_hits / diff_total - 0.1) < 0.03


def test_synthetic_every_user_active_every_item_linked():
    raw = data.generate_synthetic(15, 12, 20, 3, density=0.2, seed=4)
    graph = data.InteractionGraph(15, 12, raw.interactions().positives)
    assert all(graph.user_degree(u) >= 1 for u in range(15))
    kg = raw.knowledge_graph()
    counts = np.diff(kg.full_edges().offsets)
    assert all(counts[i] >= 1 for i in range(12))


def test_synthetic_validates_arguments():
    with pytest.raises(ConfigError):
        data.generate_synthetic(4, 10, 5, 2, density=0.5, seed=0)
    with pytest.raises(ConfigError):
        data.generate_synthetic(4, 3, 5, 2, density=0.0, seed=0)


def test_round_trip_write_then_load(tmp_path, raw40):
    data.write_dataset(raw40, tmp_path)
    inter = data.load_interactions(tmp_path / "ratings_final.txt")
    kg = data.load_kg(tmp_path / "kg_final.txt", min_entities=inter.n_items)
    assert inter.n_users == raw40.n_users and inter.n_items == raw40.n_items
    assert np.array_equal(np.unique(raw40.pairs, axis=0), np.unique(inter.pairs, axis=0))
    orig = raw40.knowledge_graph()
    assert np.array_equal(kg.triples, orig.triples)
    assert kg.full_edges().offsets.tobytes() == orig.full_edges().offsets.tobytes()


def test_item_entity_alignment_enforced():
    inter = _interactions_with(2, 5, [(0, 0), (1, 4), (0, 1)])
    kg = data.KnowledgeGraph(np.array([[0, 0, 1]]))  # only 2 entities
    with pytest.raises(DataFormatError, match="prefix"):
        data.build_dataset(inter, kg, (1.0, 0.0, 0.0), seed=0)


def test_interaction_graph_symmetry(raw40):
    graph = data.InteractionGraph(40, 30, raw40.interactions().positives)
    fwd = {(int(u), int(i)) for u, i in graph.pairs}
    rev = set()
    for i in range(30):
        for u in graph.i_users[graph.i_offsets[i]:graph.i_offsets[i + 1]]:
            rev.add((int(u), i))
    assert fwd == rev

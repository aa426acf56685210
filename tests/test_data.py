"""Loaders, splits, sampling, noise injection, synthetic fixtures."""
import numpy as np
import pytest
from scipy.stats import chisquare

from kgtn import autodiff as ad
from kgtn import data, denoise, training
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


@pytest.mark.parametrize("loader", ["ratings", "kg"])
def test_id_beyond_int64_reports_line(tmp_path, loader):
    path = tmp_path / "f.txt"
    path.write_text("0\t0\t1\n\n1\t9223372036854775808\t0\n", encoding="utf-8")
    load = data.load_interactions if loader == "ratings" else data.load_kg
    with pytest.raises(DataFormatError, match="line 3"):
        load(path)


def test_largest_int64_id_loads(tmp_ratings):
    inter = data.load_interactions(tmp_ratings("9223372036854775807\t0\t1\n0\t0\t0\n"))
    assert inter.n_users == 2 and inter.pairs.tolist() == [[0, 0, 0], [1, 0, 1]]


@pytest.mark.parametrize("loader", ["ratings", "kg"])
def test_non_utf8_byte_reports_line(tmp_path, loader):
    path = tmp_path / "f.txt"
    path.write_bytes(b"0\t0\t1\r\n1\t0\t0\n2\t\xff\t1\n")
    load = data.load_interactions if loader == "ratings" else data.load_kg
    with pytest.raises(DataFormatError, match="line 3.*UTF-8"):
        load(path)


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


def test_load_kg_rejects_gaps_above_item_prefix(tmp_path):
    path = tmp_path / "kg_final.txt"
    path.write_text("0\t0\t3\n1\t1\t4\n", encoding="utf-8")
    # entities 0-1 are items (prefix), 3-4 name triples, 2 names nothing
    with pytest.raises(DataFormatError, match="line 1.*dense"):
        data.load_kg(path, min_entities=2)
    assert data.load_kg(path, min_entities=3).n_entities == 5
    # a far-off ID fails before anything is sized by it
    path.write_text("0\t0\t1\n1\t0\t1000000000000\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2.*dense"):
        data.load_kg(path, min_entities=1)


def test_load_kg_rejects_relation_id_beyond_triple_count(tmp_path):
    raw = data.generate_synthetic(12, 16, 22, 2, density=0.5, seed=5)
    data.write_dataset(raw, tmp_path)
    path = tmp_path / "kg_final.txt"
    n_lines = raw.triples.shape[0]
    # one stray relation ID would otherwise size the relation table at fit
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0\t1000000000000\t1\n")
    with pytest.raises(DataFormatError, match=f"line {n_lines + 1}.*relation ID 1000000000000"):
        data.load_kg(path, min_entities=16)
    # the bound is the count of distinct triples, so duplicate lines do not widen it
    path.write_text("0\t0\t1\n0\t3\t1\n0\t3\t1\n0\t3\t1\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2.*relation ID 3.*2 distinct"):
        data.load_kg(path)
    path.write_text("0\t0\t1\n0\t2\t1\n1\t0\t0\n", encoding="utf-8")
    assert data.load_kg(path).n_relations == 3


@pytest.mark.parametrize("args", [(40, 30, 50, 3), (12, 16, 22, 2), (5, 6, 10, 2), (3, 4, 5, 3),
                                  (15, 12, 20, 3), (3, 4, 12, 4)])
def test_generated_kg_files_load(tmp_path, args):
    raw = data.generate_synthetic(*args, density=0.5, seed=7)
    data.write_dataset(raw, tmp_path)
    kg = data.load_kg(tmp_path / "kg_final.txt", min_entities=raw.n_items)
    assert np.array_equal(kg.triples, raw.triples)
    assert kg.n_relations <= kg.n_triples


def test_pruning_fit_never_writes_kg_or_split(fingerprint):
    ds = _dataset40()
    assert ds.kg.full_edges().counts.max() > 1  # so k_top = 1 really prunes
    graph, edges = ds.train_graph, ds.kg.full_edges()
    # fill the lazy caches so their arrays are compared too
    for op in (graph.user_mean, graph.user_edges.source_sum, graph.item_edges.source_sum,
               edges.mean_operator):
        op.transposed, op.empty_rows
    edges.head_sum, edges.tail_sum, edges.relation_sum
    before = fingerprint(ds)  # split, KG, its CSR edges, the train graph and their operators
    cfg = ExperimentConfig(embed_dim=8, n_intents=2, n_heads=2, agg_depth=1, k_top=1,
                           batch_size=64, epochs=2, seed=7).validate()
    training.fit(cfg, ds)
    assert fingerprint(ds) == before


def test_propagation_operators_are_cached_per_structure():
    ds = _dataset40()
    graph, edges = ds.train_graph, ds.kg.full_edges()
    for owner, name in [(graph, "user_mean"), (graph, "user_edges"),
                        (graph, "item_edges"), (edges, "mean_operator")]:
        assert getattr(owner, name) is getattr(owner, name)
    # a new split gets a new graph, and so operators of its own
    fresh = ds.with_split(ds.split).train_graph
    assert fresh is not graph
    assert fresh.user_mean is not graph.user_mean
    assert fresh.user_edges.source_sum is not graph.user_edges.source_sum
    assert (fresh.user_mean != graph.user_mean).nnz == 0


def test_propagation_operators_leave_the_structure_unchanged():
    ds = _dataset40()
    graph, edges = ds.train_graph, ds.kg.full_edges()
    arrays = [ds.kg.triples, edges.offsets, edges.rel, edges.tail, edges.head, graph.pairs,
              graph.u_offsets, graph.u_items, graph.i_offsets, graph.i_users]
    before = [a.copy() for a in arrays]
    operators = [graph.user_mean, edges.mean_operator, edges.head_sum, edges.tail_sum,
                 edges.relation_sum]
    for direction in (graph.user_edges, graph.item_edges):
        operators += [direction.source_sum, direction.target_sum]
    rng = np.random.default_rng(0)
    for op in operators:
        out = ad.spmm(op, rng.normal(size=(op.shape[1], 3)), np.zeros((op.shape[0], 3)))
        assert np.isfinite(out.values).all()
        for part in (op.data, op.indices, op.indptr):
            assert not any(np.shares_memory(part, a) for a in arrays)
    for a, b in zip(arrays, before):
        np.testing.assert_array_equal(a, b)


def _bincount_scatter(index, rows, n):
    """The flat-bincount scatter the one-hot operators replace: row e onto row index[e]."""
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def _kg_edge_cases():
    """Full and sampled KG edges: repeated tails and relations, heads 1, 4 and
    5 without slots, a KG with no slots at all, and the generated KG."""
    kg = data.KnowledgeGraph(np.array([[0, 0, 3], [0, 1, 3], [0, 1, 2], [2, 0, 3], [3, 1, 3],
                                       [3, 0, 0], [3, 2, 0], [3, 1, 2]]),
                             n_entities=6, n_relations=4)
    rng = np.random.default_rng(2)
    view = denoise.sample_topk(kg, rng.normal(size=(6, 3)), rng.normal(size=(4, 3)), 1, rng)
    empty = data.KnowledgeGraph(np.zeros((0, 3), dtype=np.int64), n_entities=4, n_relations=2)
    generated = _dataset40().kg
    view40 = denoise.sample_topk(generated, rng.normal(size=(generated.n_entities, 3)),
                                 rng.normal(size=(generated.n_relations, 3)), 1, rng)
    return [kg.full_edges(), view.edges, empty.full_edges(), generated.full_edges(), view40.edges]


def _spread_rows(rng, n, d):
    """Rows over many magnitudes, with a signed zero, so any change in
    summation order shows in the bits."""
    rows = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-12, 12, size=(n, 1))
    if n:
        rows[0, 0] = -0.0
    return rows


def test_cached_scatters_equal_the_bincount_oracle():
    rng = np.random.default_rng(0)
    for edges in _kg_edge_cases():
        rows = _spread_rows(rng, edges.n_edges, 5)
        for op, index, n in ((edges.tail_sum, edges.tail, edges.offsets.size - 1),
                             (edges.relation_sum, edges.rel, edges.n_relations)):
            assert op.shape == (n, edges.n_edges)
            assert (op @ rows).tobytes() == _bincount_scatter(index, rows, n).tobytes()
    graph = _dataset40().train_graph
    for direction, n_targets in ((graph.user_edges, graph.n_items),
                                 (graph.item_edges, graph.n_users)):
        rows = _spread_rows(rng, graph.n_interactions, 5)
        assert (direction.target_sum @ rows).tobytes() == \
            _bincount_scatter(direction.target, rows, n_targets).tobytes()


def test_cached_transposes_equal_the_fresh_transpose_product():
    rng = np.random.default_rng(1)
    graph = _dataset40().train_graph
    operators = [graph.user_mean, graph.user_edges.source_sum, graph.item_edges.source_sum]
    operators += [edges.mean_operator for edges in _kg_edge_cases()]
    for op in operators:
        g = _spread_rows(rng, op.shape[0], 4)
        assert op.transposed is op.transposed
        assert (op.transposed @ g).tobytes() == (op.T @ g).tobytes()
        np.testing.assert_array_equal(op.empty_rows, np.flatnonzero(np.diff(op.indptr) == 0))


@pytest.mark.parametrize("n", [0, 1, 2000])
def test_kg_edges_are_sorted_copies_of_the_triple_columns(n):
    rng = np.random.default_rng(n)
    raw = np.column_stack([rng.integers(0, 50, n), rng.integers(0, 7, n), rng.integers(0, 50, n)])
    kg = data.KnowledgeGraph(raw, n_entities=50, n_relations=7)
    edges = kg.full_edges()
    order = np.lexsort((raw[:, 2], raw[:, 1], raw[:, 0]))
    want = np.unique(raw[order], axis=0) if n else raw.reshape(0, 3)
    for column, got in enumerate((edges.head, edges.rel, edges.tail)):
        np.testing.assert_array_equal(got, want[:, column])
        assert got.flags.c_contiguous and not np.shares_memory(got, kg.triples)
    np.testing.assert_array_equal(edges.offsets, data.csr_offsets(want[:, 0], 50))


def test_kg_declared_entities_enforced():
    with pytest.raises(DataFormatError, match="overflow"):
        data.KnowledgeGraph(np.array([[9, 0, 1]]), n_entities=5)


def test_kg_declared_relations_enforced():
    # a relation id past the declared count once grew n_relations silently
    with pytest.raises(DataFormatError, match="relation ID overflow: triples use 6 relations, "
                                              "declared 2"):
        data.KnowledgeGraph([[0, 5, 1]], n_entities=3, n_relations=2)
    assert data.KnowledgeGraph([[0, 1, 1]], n_entities=3, n_relations=2).n_relations == 2
    assert data.KnowledgeGraph([[0, 5, 1]], n_entities=3).n_relations == 6


def test_interaction_graph_rejects_rows_that_are_not_pairs():
    # three ids per row were once regrouped into pairs (0, 1), (2, 3), (4, 5)
    for rows in ([[0, 1, 2], [3, 4, 5]], [0, 1], np.zeros((2, 2, 2), dtype=np.int64)):
        with pytest.raises(DataFormatError, match="interaction pairs.*2 ids"):
            data.InteractionGraph(6, 6, rows)


def test_interaction_graph_rejects_float_ids():
    # [[0.5, 1.0]] was once truncated to the pair (0, 1)
    with pytest.raises(DataFormatError, match="interaction pairs.*integer.*float64"):
        data.InteractionGraph(2, 2, [[0.5, 1.0]])


def test_interaction_graph_rejects_bool_ids():
    with pytest.raises(DataFormatError, match="interaction pairs.*integer.*bool"):
        data.InteractionGraph(2, 2, np.array([[True, False]]))


def test_knowledge_graph_rejects_rows_that_are_not_triples():
    for rows in ([[0, 1]], [[0, 1, 2, 3]], [0, 1, 2]):
        with pytest.raises(DataFormatError, match="knowledge-graph triples.*3 ids"):
            data.KnowledgeGraph(rows)


def test_knowledge_graph_rejects_float_and_bool_ids():
    for rows, dtype in (([[0.0, 1.0, 2.0]], "float64"), (np.ones((1, 3), dtype=bool), "bool")):
        with pytest.raises(DataFormatError, match=f"knowledge-graph triples.*integer.*{dtype}"):
            data.KnowledgeGraph(rows)


def test_graphs_accept_an_empty_input_of_any_dtype():
    for empty in ([], np.zeros((0, 2)), np.zeros(0, dtype=bool), np.zeros((0, 3), dtype=object)):
        assert data.InteractionGraph(2, 3, empty).n_interactions == 0
        assert data.KnowledgeGraph(empty, n_entities=4).n_triples == 0


def test_interaction_graph_has_matches_pairs(raw40):
    positives = raw40.interactions().positives
    graph = data.InteractionGraph(40, 30, positives)
    observed = set(map(tuple, positives.tolist()))
    for u in range(40):
        for i in range(30):
            assert graph.has(u, i) is ((u, i) in observed)


@pytest.mark.parametrize("user", [-1, -2, 2, 3])
def test_interaction_graph_rejects_user_outside_graph(user):
    # user -1 once read the CSR block of the last user backwards (degree -3)
    # and user 2 raised a raw IndexError
    graph = data.InteractionGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    for call in (lambda: graph.user_degree(user), lambda: graph.items_of(user),
                 lambda: graph.has(user, 0)):
        with pytest.raises(DomainError, match=rf"user {user} is not in \[0, 2\)"):
            call()
    assert [graph.user_degree(u) for u in (0, 1)] == [2, 1]
    assert graph.has(1, 2) and not graph.has(1, 0)


@pytest.mark.parametrize("item", [-1, 3, 2.5, True, np.float64(1.0)])
def test_interaction_graph_rejects_item_outside_graph(item):
    # has(0, -1), has(0, 3) and has(1, 2.5) once answered False
    graph = data.InteractionGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(DomainError, match=r"item .* is not (in \[0, 3\)|an integer)"):
        graph.has(0, item)


@pytest.mark.parametrize("user", [0.5, True, np.float64(0.0), "0"])
def test_interaction_graph_rejects_user_that_is_not_an_integer(user):
    # user_degree(0.5) once raised a raw IndexError, items_of(True) a raw TypeError
    graph = data.InteractionGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    for call in (lambda: graph.user_degree(user), lambda: graph.items_of(user),
                 lambda: graph.has(user, 0)):
        with pytest.raises(DomainError, match=r"user .* is not an integer"):
            call()
    assert graph.has(np.int64(1), np.int32(2)) and graph.user_degree(np.int64(0)) == 2


def test_interaction_edges_cover_each_pair_once_per_direction():
    graph = data.InteractionGraph(4, 5, [(0, 0), (0, 2), (1, 2), (1, 4), (3, 1), (3, 0), (3, 4)])
    for edges, n_src, n_tgt, flip in ((graph.user_edges, 4, 5, False),
                                      (graph.item_edges, 5, 4, True)):
        users, items = (edges.target, edges.source) if flip else (edges.source, edges.target)
        assert sorted(map(list, zip(users.tolist(), items.tolist()))) == graph.pairs.tolist()
        np.testing.assert_array_equal(np.repeat(np.arange(n_src), np.diff(edges.offsets)),
                                      edges.source)
        # the one-hot operators put edge e on the rows of its source and target
        for op, index, n in ((edges.source_sum, edges.source, n_src),
                             (edges.target_sum, edges.target, n_tgt)):
            dense = np.zeros((n, graph.n_interactions))
            dense[index, np.arange(graph.n_interactions)] = 1.0
            np.testing.assert_array_equal(op.toarray(), dense)
            assert op.has_sorted_indices


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


@pytest.mark.parametrize("user, count, named", [
    (-1, 1, "user -1"), (2, 1, "user 2"), (5, 1, "user 5"), (0, -1, "count -1"),
])
def test_negative_sample_domain_named(fingerprint, user, count, named):
    # an unchecked -1 slices an empty CSR row and samples from every item
    graph = data.InteractionGraph(2, 4, [(0, 0), (1, 3)])
    before = fingerprint(graph)
    with pytest.raises(DomainError, match=named):
        data.negative_sample(graph, user, count, seed=0)
    assert fingerprint(graph) == before


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



def test_split_rejects_nan_ratio():
    # a NaN ratio once passed the check and failed the split with a
    # "negative count" DomainError
    inter = _interactions_with(1, 8, [(0, i) for i in range(5)])
    for ratios in ((0.5, float("nan"), 0.5), (float("nan"),) * 3):
        with pytest.raises(ConfigError, match="ratios.*nan"):
            data.make_split(inter, ratios, seed=0)


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
    # more relations than items could write a relation ID that load_kg rejects
    with pytest.raises(ConfigError, match="n_relations"):
        data.generate_synthetic(3, 2, 3, 50, seed=0)


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

#!/usr/bin/env python3
# From files to a training-ready bundle: planted synthetic data, the two
# on-disk formats, splitting, negative sampling, noise injection, and a
# sampled knowledge view.

import tempfile
from pathlib import Path

import numpy as np

from kgtn import data, denoise

# Planted structure: users and items carry hidden groups; same-group
# interactions happen with probability 0.9 (density 0.5), others 0.1, and
# each item is linked in the KG to its group's tag entity.
raw = data.generate_synthetic(
    n_users=40, n_items=30, n_entities=50, n_relations=3, density=0.5, seed=7
)
print("positives:", raw.interactions().positives.shape[0], "triples:", raw.triples.shape[0])

# The generator emits the same two tab-separated formats the loaders read.
tmp = tempfile.TemporaryDirectory()  # removed when the script exits
workdir = Path(tmp.name)
ratings, kg_path = data.write_dataset(raw, workdir)
print("wrote", ratings.name, "and", kg_path.name)
print("first rating line:", ratings.read_text().splitlines()[0])
print("first triple line:", kg_path.read_text().splitlines()[0])

inter = data.load_interactions(ratings)
kg = data.load_kg(kg_path, min_entities=inter.n_items)
print(f"loaded {inter.n_users} users / {inter.n_items} items / {kg.n_entities} entities")

# Per-user stratified split; eval/test negatives are frozen and balanced.
ds = data.build_dataset(inter, kg, ratios=(0.6, 0.2, 0.2), seed=7)
print("train/eval/test rows:", ds.split.train.shape[0], ds.split.eval.shape[0], ds.split.test.shape[0])
ev = ds.split.eval
u0 = int(ev[0, 0])
rows = ev[ev[:, 0] == u0]
print(f"user {u0} eval balance: {(rows[:, 2] == 1).sum()} pos / {(rows[:, 2] == 0).sum()} neg")

# Uniform negative sampling from the non-interacted pool, deterministic
# under a seed.
negs = data.negative_sample(ds.train_graph, u0, 5, seed=1)
print("sampled negatives for that user:", negs)

# Adversarial noise: fake training positives, eval/test untouched.
digest = ds.split.eval_test_digest()
noisy = data.inject_noise(ds, ratio=0.10, seed=3)
print("train grew from", ds.split.train.shape[0], "to", noisy.split.train.shape[0])
print("eval/test digest unchanged:", noisy.split.eval_test_digest() == digest)

# Knowledge sampling returns a view of the kept slots and never writes the
# KG: at most k_top slots per head survive, the triples stay as loaded.
before = kg.triples.tobytes()
rng = np.random.default_rng(0)
view = denoise.sample_topk(kg, rng.normal(size=(kg.n_entities, 8)),
                           rng.normal(size=(kg.n_relations, 8)), k_top=1, rng=rng)
print("view keeps", view.edges.n_edges, "of", kg.n_triples, "slots")
print("KG unchanged:", kg.triples.tobytes() == before)

#!/usr/bin/env python3
# The two experiment harnesses: the four-variant ablation (full model,
# without knowledge sampling, without contrastive learning, without intent
# machinery) and the training-noise robustness protocol.

import tempfile
from pathlib import Path

from kgtn import experiments
from kgtn.config import ExperimentConfig
from kgtn.data import synthetic_dataset

ds = synthetic_dataset(40, 30, 50, 3, density=0.5, seed=7)
cfg = ExperimentConfig(epochs=15, seed=7, lr=3e-3, batch_size=64,
                       recall_ks=(5, 10)).validate()

# Every variant trains under the identical seed and split; the variants
# differ only in configuration (alpha, top-k cut, intent count).
for variant in experiments.ABLATION_VARIANTS:
    vcfg = experiments.variant_config(cfg, variant)
    print(f"{variant:12s} alpha={vcfg.alpha} k_top={vcfg.k_top} K={vcfg.n_intents}")

report = experiments.run_ablation(cfg, ds)
print()
print(report.render_table())

# Noise protocol: contaminate the training positives at each ratio while
# eval/test stay frozen; report the relative metric drop vs the clean run.
noise = experiments.noise_robustness(cfg, ds, ratios=(0.0, 0.05, 0.10, 0.15, 0.20))
print()
print(noise.render_table())

out = Path(tempfile.mkdtemp())
written = experiments.plot_series(noise, out, "noise_demo")
print()
print("plot series written:", *(p.name for p in written))

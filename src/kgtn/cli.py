"""Command-line entry point: train / evaluate / ablate / noise-test / gen-synth / grad-check.

Each command accepts only the flags its code reads. The four run commands
(train, evaluate, ablate, noise-test) take the run flags (`--config`,
`--data-dir`, `--out`); the three that train also take the training flags,
and the three that print a metric report take `--emit-plot-data`. evaluate
requires `--config`: the run's `config.ini` alone names the split, the
noise draw and the model that its checkpoint is scored on. A run command
writes its fully resolved configuration next to its outputs, so any
artifact can be reproduced from the run directory alone, and all
randomness flows through the single seeded generator named in that config.
Its data carry the run's injected noise, except in noise-test, which
starts from the clean data and tests the config's `noise_ratio` if it is
above 0, else every protocol ratio. gen-synth and grad-check read no
config and write no `config.ini`: grad-check takes `--seed` only,
gen-synth `--seed`, `--out` and its generator flags.

Every command first sets each loaded OpenBLAS to one thread and prints the
libraries and their thread counts as its first line: kgtn's GEMMs are
small slabs, and the InfoNCE and recall workers already use every core.
A BLAS that is not OpenBLAS is left alone, and the line says so.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import blas, data, experiments, gradcheck, training
from .config import ExperimentConfig, parse_config, write_config
from .errors import ConfigError, KgtnError

# Every flag by option string. A flag whose dest names a config field
# overrides that key, so this table is the only list of overrides. Such a
# flag has no argparse type: its text is parsed as config text is.
_FLAGS = {
    "--config": dict(metavar="PATH", help="INI config file"),
    "--data-dir": dict(help="directory with ratings_final.txt / kg_final.txt "
                            "(falls back to $KGTN_DATA_DIR)"),
    "--out": dict(metavar="DIR", help="output directory (default runs/<command>)"),
    "--seed": dict(),
    "--noise-ratio": dict(help="fraction of fake training positives to inject"),
    "--intents": dict(dest="n_intents", help="intent prototype count"),
    "--depth": dict(help="graph transformer depth"),
    "--heads": dict(dest="n_heads", help="attention head count"),
    "--share-transformer-weights": dict(action="store_const", const=True, default=None),
    "--alpha": dict(help="contrastive loss weight"),
    "--tau": dict(help="contrastive temperature"),
    "--k-top": dict(help="KG slots kept per head ('none' keeps all)"),
    "--lr": dict(),
    "--l2": dict(help="L2 regularization weight"),
    "--epochs": dict(),
    "--batch-size": dict(),
    "--infonce-standard": dict(action="store_const", const=True, default=None),
    "--emit-plot-data": dict(action="store_true", help="also write x/y CSV series for plotting"),
    "--checkpoint": dict(required=True, metavar="PATH"),
    "--users": dict(type=int, default=40),
    "--items": dict(type=int, default=30),
    "--extra-entities": dict(type=int, default=20,
                             help="non-item entities appended after the item prefix"),
    "--relations": dict(type=int, default=3),
    "--density": dict(type=float, default=0.5),
    "--groups": dict(type=int, default=4),
}
_RUN_FLAGS = ("--config", "--data-dir", "--out")
_TRAINING_FLAGS = ("--seed", "--noise-ratio", "--intents", "--depth", "--heads",
                   "--share-transformer-weights", "--alpha", "--tau", "--k-top", "--lr", "--l2",
                   "--epochs", "--batch-size", "--infonce-standard")

_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)}


def _resolve(args, command):
    # Every parsed flag named after a config field overrides the file; the
    # data directory is resolved below, so its flag value is kept verbatim.
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and k != "data_dir"}
    cfg = parse_config(args.config, overrides)
    data_dir = args.data_dir or cfg.data_dir or os.environ.get("KGTN_DATA_DIR", "")
    cfg.data_dir = data_dir
    cfg.validate()
    out = Path(args.out) if args.out else Path("runs") / command
    out.mkdir(parents=True, exist_ok=True)
    write_config(cfg, out / "config.ini")
    return cfg, out


def _seed(args):
    """`--seed` of a command without a config, parsed and checked as a config's seed is."""
    return parse_config(None, {"seed": args.seed}).seed


def _load(cfg, noisy=True):
    """The run's dataset; unless `noisy` is off, its training positives
    carry the run's injected noise, drawn as `train` draws it."""
    if not cfg.data_dir:
        raise ConfigError("no data directory: pass --data-dir, set it in the config, "
                          "or export KGTN_DATA_DIR")
    dataset = data.load_dataset(cfg.data_dir, cfg.split_ratios, cfg.seed)
    if noisy and cfg.noise_ratio > 0:
        dataset = data.inject_noise(dataset, cfg.noise_ratio, seed=cfg.seed + 1)
    return dataset


def _report(args, out, report, csv_name, stem):
    print(report.render_table())
    (out / csv_name).write_text(report.to_csv(), encoding="utf-8")
    if args.emit_plot_data:
        experiments.plot_series(report, out, stem)
    return 0


def _cmd_train(args):
    cfg, out = _resolve(args, "train")
    result = training.fit(cfg, _load(cfg))
    training.save_checkpoint(out / "checkpoint.bin", result.params.copy_values())
    training.write_metric_log(out / "metrics.csv", result.log)
    if result.log:
        last = result.log[-1]
        print(f"trained {len(result.log)} epochs; best epoch {result.best_epoch}; "
              f"final eval auc {last['eval_auc']:.4f}")
    else:
        print("trained 0 epochs; wrote initialization checkpoint")
    print(f"artifacts in {out}")
    return 0


def _cmd_evaluate(args):
    if args.config is None:
        raise ConfigError("evaluate needs the run's config: pass --config <run>/config.ini")
    cfg, out = _resolve(args, "evaluate")
    dataset = _load(cfg)
    blob = training.load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(cfg.seed)
    params = training.ModelParameters.initialize(
        dataset.n_users, dataset.n_entities, dataset.n_relations, cfg, rng
    )
    params.load_values(blob)
    row = experiments.evaluate_model(params, dataset, cfg, label="checkpoint")
    report = experiments.MetricReport(rows=[row]).validate()
    return _report(args, out, report, "report.csv", "evaluate")


def _cmd_ablate(args):
    cfg, out = _resolve(args, "ablate")
    report = experiments.run_ablation(cfg, _load(cfg))
    return _report(args, out, report, "ablation.csv", "ablation")


def _cmd_noise_test(args):
    cfg, out = _resolve(args, "noise-test")
    ratios = (0.0, cfg.noise_ratio) if cfg.noise_ratio > 0 else experiments.NOISE_RATIOS
    report = experiments.noise_robustness(cfg, _load(cfg, noisy=False), ratios=ratios)
    return _report(args, out, report, "noise.csv", "noise")


def _cmd_gen_synth(args):
    raw = data.generate_synthetic(
        n_users=args.users,
        n_items=args.items,
        n_entities=args.items + args.extra_entities,
        n_relations=args.relations,
        density=args.density,
        seed=_seed(args),
        n_groups=args.groups,
    )
    ratings, kg_path = data.write_dataset(raw, args.out or Path("runs") / "gen-synth")
    print(f"wrote {ratings} ({raw.pairs.shape[0]} rows) and {kg_path} ({raw.triples.shape[0]} triples)")
    return 0


def _cmd_grad_check(args):
    result = gradcheck.full_model_check(seed=_seed(args))
    for name in sorted(result.per_param):
        print(f"  {name:<28} max rel err {result.per_param[name]:.3e}")
    print(f"checked {result.entries_checked} parameter entries; "
          f"max relative error {result.max_rel_err:.3e} (worst: {result.worst_param})")
    if not result.ok:
        print("gradient check FAILED (tolerance 1e-4)", file=sys.stderr)
        return 1
    print("gradient check passed (tolerance 1e-4)")
    return 0


# name: (handler, help, accepted flags)
_COMMANDS = {
    "train": (_cmd_train, "train a model, write checkpoint + metric log",
              _RUN_FLAGS + _TRAINING_FLAGS),
    "evaluate": (_cmd_evaluate, "evaluate a checkpoint on the test split",
                 _RUN_FLAGS + ("--checkpoint", "--emit-plot-data")),
    "ablate": (_cmd_ablate, "train and compare the four ablation variants",
               _RUN_FLAGS + _TRAINING_FLAGS + ("--emit-plot-data",)),
    "noise-test": (_cmd_noise_test, "training-noise robustness protocol",
                   _RUN_FLAGS + _TRAINING_FLAGS + ("--emit-plot-data",)),
    "gen-synth": (_cmd_gen_synth, "write a planted synthetic dataset",
                  ("--seed", "--out", "--users", "--items", "--extra-entities", "--relations",
                   "--density", "--groups")),
    "grad-check": (_cmd_grad_check, "finite-difference check on a toy instance", ("--seed",)),
}


def _blas_line(counts):
    """The first output line: each OpenBLAS library and its thread count."""
    if not counts:
        return "blas: no OpenBLAS loaded; its threads are left as they are"
    return "blas: " + ", ".join(
        f"{lib} {n} thread{'' if n == 1 else 's'}" for lib, n in sorted(counts.items()))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgtn",
        description="Knowledge-enhanced multi-intent recommender: training and evaluation workflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    print(_blas_line(blas.set_threads(1)), flush=True)
    try:
        return args.func(args)
    except (KgtnError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

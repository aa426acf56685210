"""Command-line entry point: train / evaluate / ablate / noise-test / gen-synth / grad-check.

Every run writes its fully resolved configuration next to its outputs, so
any artifact can be reproduced from the run directory alone. All
randomness flows through the single seeded generator named in that config.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data, denoise, experiments, gradcheck, training
from .config import ExperimentConfig, parse_config, write_config
from .errors import ConfigError, KgtnError


def _add_common_flags(p):
    p.add_argument("--config", metavar="PATH", help="INI config file")
    p.add_argument("--data-dir", help="directory with ratings_final.txt / kg_final.txt "
                                      "(falls back to $KGTN_DATA_DIR)")
    p.add_argument("--out", metavar="DIR", help="output directory (default runs/<command>)")
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float, help="contrastive loss weight")
    p.add_argument("--tau", type=float, help="contrastive temperature")
    p.add_argument("--k-top", dest="k_top", help="KG slots kept per head ('none' keeps all)")
    p.add_argument("--intents", dest="n_intents", type=int, help="intent prototype count")
    p.add_argument("--depth", type=int, help="graph transformer depth")
    p.add_argument("--heads", dest="n_heads", type=int, help="attention head count")
    p.add_argument("--lr", type=float)
    p.add_argument("--l2", type=float, help="L2 regularization weight")
    p.add_argument("--epochs", type=int)
    p.add_argument("--noise-ratio", dest="noise_ratio", type=float,
                   help="fraction of fake training positives to inject")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--share-transformer-weights", dest="share_transformer_weights",
                   action="store_const", const=True, default=None)
    p.add_argument("--infonce-standard", dest="infonce_standard",
                   action="store_const", const=True, default=None)
    p.add_argument("--emit-plot-data", action="store_true",
                   help="also write x/y CSV series for plotting")


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


def _load(cfg):
    if not cfg.data_dir:
        raise ConfigError("no data directory: pass --data-dir, set it in the config, "
                          "or export KGTN_DATA_DIR")
    return data.load_dataset(cfg.data_dir, cfg.split_ratios, cfg.seed)


def _cmd_train(args):
    cfg, out = _resolve(args, "train")
    dataset = _load(cfg)
    if cfg.noise_ratio > 0:
        dataset = data.inject_noise(dataset, cfg.noise_ratio, seed=cfg.seed + 1)
    result = training.fit(cfg, dataset)
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
    print(report.render_table())
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    if args.emit_plot_data:
        experiments.plot_series(report, out, "evaluate")
    return 0


def _cmd_ablate(args):
    cfg, out = _resolve(args, "ablate")
    dataset = _load(cfg)
    report = experiments.run_ablation(cfg, dataset)
    print(report.render_table())
    (out / "ablation.csv").write_text(report.to_csv(), encoding="utf-8")
    if args.emit_plot_data:
        experiments.plot_series(report, out, "ablation")
    return 0


def _cmd_noise_test(args):
    cfg, out = _resolve(args, "noise-test")
    dataset = _load(cfg)
    ratios = experiments.NOISE_RATIOS if args.noise_ratio is None else (0.0, cfg.noise_ratio)
    report = experiments.noise_robustness(cfg, dataset, ratios=ratios)
    print(report.render_table())
    (out / "noise.csv").write_text(report.to_csv(), encoding="utf-8")
    if args.emit_plot_data:
        experiments.plot_series(report, out, "noise")
    return 0


def _cmd_gen_synth(args):
    cfg, out = _resolve(args, "gen-synth")
    raw = data.generate_synthetic(
        n_users=args.users,
        n_items=args.items,
        n_entities=args.items + args.extra_entities,
        n_relations=args.relations,
        density=args.density,
        seed=cfg.seed,
        n_groups=args.groups,
    )
    ratings, kg_path = data.write_dataset(raw, out)
    print(f"wrote {ratings} ({raw.pairs.shape[0]} rows) and {kg_path} ({raw.triples.shape[0]} triples)")
    return 0


def _cmd_grad_check(args):
    cfg, out = _resolve(args, "grad-check")
    result = gradcheck.full_model_check(seed=cfg.seed)
    for name in sorted(result.per_param):
        print(f"  {name:<28} max rel err {result.per_param[name]:.3e}")
    print(f"checked {result.entries_checked} parameter entries; "
          f"max relative error {result.max_rel_err:.3e} (worst: {result.worst_param})")
    if not result.ok:
        print("gradient check FAILED (tolerance 1e-4)", file=sys.stderr)
        return 1
    print("gradient check passed (tolerance 1e-4)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgtn",
        description="Knowledge-enhanced multi-intent recommender: training and evaluation workflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model, write checkpoint + metric log")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the test split")
    _add_common_flags(p)
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("ablate", help="train and compare the four ablation variants")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("noise-test", help="training-noise robustness protocol")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_noise_test)

    p = sub.add_parser("gen-synth", help="write a planted synthetic dataset")
    _add_common_flags(p)
    p.add_argument("--users", type=int, default=40)
    p.add_argument("--items", type=int, default=30)
    p.add_argument("--extra-entities", type=int, default=20,
                   help="non-item entities appended after the item prefix")
    p.add_argument("--relations", type=int, default=3)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--groups", type=int, default=4)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("grad-check", help="finite-difference check on a toy instance")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KgtnError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

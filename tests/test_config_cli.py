"""Config parsing/validation and the command-line workflows."""
import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgtn import blas, cli, data, experiments, training
from kgtn.config import ExperimentConfig, parse_config, to_ini, write_config
from kgtn.errors import ConfigError


# ---------------------------------------------------------------------------
# config


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("", encoding="utf-8")
    cfg = parse_config(path)
    assert cfg == ExperimentConfig().validate()


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[train]\nalpha = 0.5\n", encoding="utf-8")
    cfg = parse_config(path, {"alpha": 0.01})
    assert cfg.alpha == 0.01


def test_head_divisibility_rejected():
    with pytest.raises(ConfigError, match="n_heads"):
        parse_config(None, {"n_heads": 5, "embed_dim": 64})


def test_unknown_key_rejected_by_name(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[model]\nmystery_knob = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(path)
    with pytest.raises(ConfigError, match="mystery_knob"):
        parse_config(None, {"mystery_knob": 1})


@pytest.mark.parametrize("other", ["", "[model]\ndepth = 2\n"])
def test_default_section_keys_apply(tmp_path, other):
    path = tmp_path / "c.ini"
    path.write_text("[DEFAULT]\nseed = 7\n" + other, encoding="utf-8")
    assert parse_config(path).seed == 7
    path.write_text("[DEFAULT]\nseed = 7\nmystery = 1\n" + other, encoding="utf-8")
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(path)


def test_section_value_wins_over_default_section(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[DEFAULT]\nseed = 7\n[train]\nseed = 8\n", encoding="utf-8")
    assert parse_config(path).seed == 8


def test_threads_key_rejected_by_name(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[train]\nthreads = 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="threads"):
        parse_config(path)
    assert "threads" not in to_ini(ExperimentConfig())


def test_sample_knowledge_key_rejected_by_name(tmp_path):
    # `sample_knowledge = false` did what `k_top = none` does
    path = tmp_path / "c.ini"
    path.write_text("[model]\nsample_knowledge = false\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="sample_knowledge"):
        parse_config(path)
    assert "sample_knowledge" not in to_ini(ExperimentConfig())


@pytest.mark.parametrize("kw, key", [
    (dict(epochs=2.5), "epochs"),
    (dict(batch_size=16.0), "batch_size"),
    (dict(k_top=1.5), "k_top"),
    (dict(depth=True), "depth"),
    (dict(seed="3"), "seed"),
    (dict(k_top=np.True_), "k_top"),
    (dict(recall_ks=(10, 20.0)), "recall_ks"),
    (dict(recall_ks=(False, 5)), "recall_ks"),
])
def test_non_integer_in_integer_field_rejected_by_name(kw, key):
    # epochs=2.5 and batch_size=16.0 once passed and failed in fit with a raw
    # TypeError; k_top=1.5 kept 2 slots per head; depth=True trained as depth 1
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**kw).validate()


@pytest.mark.parametrize("kw, key", [
    (dict(recall_ks=10), "recall_ks"),
    (dict(recall_ks="10 20"), "recall_ks"),
    (dict(recall_ks=()), "recall_ks"),
    (dict(tau="0.5"), "tau"),
    (dict(lr=None), "lr"),
    (dict(alpha="x"), "alpha"),
    (dict(lr=10 ** 400), "lr"),
    (dict(tau=True), "tau"),
    (dict(noise_ratio=np.False_), "noise_ratio"),
    (dict(data_dir=3), "data_dir"),
    (dict(share_transformer_weights="no"), "share_transformer_weights"),
    (dict(infonce_standard=1), "infonce_standard"),
])
def test_mistyped_value_rejected_by_name(kw, key):
    # recall_ks=10, tau="0.5", lr=None and alpha="x" once ended in a raw
    # TypeError, lr=10**400 in an OverflowError and data_dir=3 in an
    # AttributeError; tau=True trained with tau 1 and
    # share_transformer_weights="no" with shared weights; recall_ks=() wrote
    # a config.ini that parse_config rejects
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig(**kw).validate()


def test_numpy_integers_pass_integer_fields():
    cfg = ExperimentConfig(epochs=np.int64(2), k_top=np.int32(3), depth=np.uint8(2),
                           recall_ks=(np.int64(5), 10)).validate()
    assert cfg.epochs == 2 and cfg.k_top == 3
    # any real number that is no bool passes a float field; a list of ks passes
    cfg = ExperimentConfig(tau=1, lr=np.float32(0.5), alpha=np.int64(0), recall_ks=[5, 10])
    assert cfg.validate().lr == 0.5
    assert ExperimentConfig(k_top=None).validate().k_top is None


def test_config_round_trip(tmp_path):
    cfg = parse_config(None, {
        "alpha": 0.25, "k_top": "none", "recall_ks": "5 15",
        "share_transformer_weights": True, "lr": 0.0003,
    })
    path = tmp_path / "rt.ini"
    write_config(cfg, path)
    again = parse_config(path)
    assert again == cfg


def test_k_top_none_parses(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[model]\nk_top = none\n", encoding="utf-8")
    assert parse_config(path).k_top is None


def test_invalid_values_rejected():
    for bad in ({"tau": 0.0}, {"lr": -1.0}, {"noise_ratio": 0.9},
                {"batch_size": 1}, {"n_intents": 0}):
        with pytest.raises(ConfigError):
            parse_config(None, bad)


def test_negative_seed_rejected_by_name():
    with pytest.raises(ConfigError, match="seed"):
        parse_config(None, {"seed": -1})


@pytest.mark.parametrize("key", ["tau", "alpha", "l2", "lr", "train_ratio", "noise_ratio"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config(None, {key: value})


def test_percent_signs_are_literal(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[data]\ndata_dir = /runs/%(home)s/100%\n", encoding="utf-8")
    assert parse_config(path).data_dir == "/runs/%(home)s/100%"
    cfg = parse_config(None, {"data_dir": "/x/100%d"})
    write_config(cfg, path)
    assert parse_config(path) == cfg


@pytest.mark.parametrize("data_dir", ["sp/D ", " sp/D", "sp/D\n", "\tsp/D"])
def test_data_dir_edge_whitespace_rejected_by_name(data_dir):
    # configparser strips a value's edges on reading, so such a directory
    # could not come back from the config.ini a run writes
    with pytest.raises(ConfigError, match="data_dir"):
        ExperimentConfig(data_dir=data_dir).validate()
    # an override is taken verbatim, not stripped into another directory
    with pytest.raises(ConfigError, match="data_dir"):
        parse_config(None, {"data_dir": data_dir})


def test_padded_values_still_parse(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[data]\ndata_dir =   sp/D  \n[train]\nseed =  3 \n", encoding="utf-8")
    cfg = parse_config(path, {"epochs": " 4", "lr": "0.01 ", "k_top": " none "})
    assert (cfg.data_dir, cfg.seed, cfg.epochs, cfg.lr, cfg.k_top) == ("sp/D", 3, 4, 0.01, None)


@pytest.mark.parametrize("data_dir", ["sp/D x", "sp/a\nb"])
def test_data_dir_inner_whitespace_round_trips(tmp_path, data_dir):
    cfg = ExperimentConfig(data_dir=data_dir).validate()
    path = tmp_path / "c.ini"
    write_config(cfg, path)
    assert parse_config(path) == cfg


def test_non_utf8_config_rejected(tmp_path):
    path = tmp_path / "c.ini"
    path.write_bytes(b"[train]\nseed = 1\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(path)


def test_to_ini_is_sectioned():
    text = to_ini(ExperimentConfig())
    assert "[model]" in text and "[train]" in text and "[data]" in text


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def synth_dir(tmp_path):
    raw = data.generate_synthetic(12, 16, 22, 2, density=0.5, seed=5)
    data.write_dataset(raw, tmp_path / "data")
    return tmp_path / "data"


def _fast_flags(tmp_path, synth_dir, out):
    cfg = tmp_path / "fast.ini"
    cfg.write_text(
        "[model]\nembed_dim = 8\nn_intents = 2\nn_heads = 2\nk_top = 2\n"
        "[train]\nepochs = 2\nbatch_size = 64\nseed = 5\n"
        "[eval]\nrecall_ks = 2 5\n",
        encoding="utf-8",
    )
    return ["--config", str(cfg), "--data-dir", str(synth_dir), "--out", str(out)]


def test_gen_synth_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        assert cli.main(["gen-synth", "--seed", "7", "--out", str(out)]) == 0
    for name in ("ratings_final.txt", "kg_final.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert sorted(p.name for p in out1.iterdir()) == ["kg_final.txt", "ratings_final.txt"]


@pytest.mark.parametrize("groups", ["0", "-2"])
def test_gen_synth_rejects_fewer_than_one_group(tmp_path, capsys, groups):
    # a group count below 1 used to be clamped to 1 and written as such
    out = tmp_path / "s"
    assert cli.main(["gen-synth", "--groups", groups, "--out", str(out)]) == 2
    assert "n_groups" in capsys.readouterr().err
    assert not (out / "ratings_final.txt").exists()
    with pytest.raises(ConfigError, match="n_groups"):
        data.generate_synthetic(10, 8, 12, 2, n_groups=int(groups))


def test_train_writes_artifacts(tmp_path, synth_dir):
    out = tmp_path / "run"
    assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, out)]) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "config.ini").exists()
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss_bpr,loss_cl,loss_reg,eval_auc,eval_f1"
    assert len(lines) == 3


def test_infonce_standard_flag_reaches_config_ini(tmp_path, synth_dir):
    flags = _fast_flags(tmp_path, synth_dir, tmp_path / "run")
    assert cli.main(["train", *flags, "--epochs", "0"]) == 0
    assert parse_config(tmp_path / "run" / "config.ini").infonce_standard is False
    flags = _fast_flags(tmp_path, synth_dir, tmp_path / "std")
    assert cli.main(["train", *flags, "--epochs", "0", "--infonce-standard"]) == 0
    assert parse_config(tmp_path / "std" / "config.ini").infonce_standard is True


def test_train_zero_epochs_equals_initialization(tmp_path, synth_dir):
    out = tmp_path / "run0"
    flags = _fast_flags(tmp_path, synth_dir, out)
    assert cli.main(["train", *flags, "--epochs", "0"]) == 0
    blob = training.load_checkpoint(out / "checkpoint.bin")
    cfg = parse_config(out / "config.ini")
    ds = data.load_dataset(synth_dir, cfg.split_ratios, cfg.seed)
    fresh = training.ModelParameters.initialize(
        ds.n_users, ds.n_entities, ds.n_relations, cfg, np.random.default_rng(cfg.seed)
    )
    assert list(blob) == list(fresh.copy_values())
    for name, values in fresh.copy_values().items():
        np.testing.assert_array_equal(blob[name], values)


def test_train_determinism_bitwise(tmp_path, synth_dir):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, out)]) == 0
        outs.append(out)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "checkpoint.bin").read_bytes() == (outs[1] / "checkpoint.bin").read_bytes()


def test_evaluate_loads_checkpoint(tmp_path, synth_dir, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, out)]) == 0
    out2 = tmp_path / "eval"
    assert cli.main([
        "evaluate", *_fast_flags(tmp_path, synth_dir, out2),
        "--checkpoint", str(out / "checkpoint.bin"),
    ]) == 0
    assert (out2 / "report.csv").exists()
    assert "checkpoint" in capsys.readouterr().out


@pytest.mark.parametrize("trained, evaluated", [
    ([], {"n_heads": 4}),
    ([], {"n_heads": 1}),
    ([], {"depth": 2}),
    (["--depth", "2"], {"depth": 1}),
])
def test_evaluate_with_another_architecture_exits_2(tmp_path, synth_dir, capsys,
                                                     trained, evaluated):
    out = tmp_path / "run"
    assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, out), "--epochs", "0",
                     *trained]) == 0
    other = tmp_path / "other.ini"
    write_config(parse_config(out / "config.ini", evaluated), other)
    code = cli.main([
        "evaluate", "--config", str(other), "--out", str(tmp_path / "e"),
        "--checkpoint", str(out / "checkpoint.bin"),
    ])
    assert code == 2
    assert "parameter 'transformer.l" in capsys.readouterr().err


def test_evaluate_corrupt_checkpoint_nonzero_exit(tmp_path, synth_dir, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage!" * 4)
    code = cli.main([
        "evaluate", *_fast_flags(tmp_path, synth_dir, tmp_path / "e"),
        "--checkpoint", str(bad),
    ])
    assert code != 0
    assert "magic" in capsys.readouterr().err


def test_evaluate_truncated_checkpoint_exits_2(tmp_path, synth_dir, capsys):
    ckpt = tmp_path / "cut.bin"
    training.save_checkpoint(ckpt, {"w": np.ones((2, 2))})
    ckpt.write_bytes(ckpt.read_bytes()[:10])
    code = cli.main([
        "evaluate", *_fast_flags(tmp_path, synth_dir, tmp_path / "e"),
        "--checkpoint", str(ckpt),
    ])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_missing_data_dir_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("KGTN_DATA_DIR", raising=False)
    code = cli.main(["train", "--out", str(tmp_path / "x"), "--epochs", "1"])
    assert code != 0
    assert "data directory" in capsys.readouterr().err


def test_env_var_data_dir_fallback(tmp_path, synth_dir, monkeypatch):
    monkeypatch.setenv("KGTN_DATA_DIR", str(synth_dir))
    out = tmp_path / "envrun"
    cfgfile = tmp_path / "fast.ini"
    cfgfile.write_text(
        "[model]\nembed_dim = 8\nn_intents = 2\nn_heads = 2\n"
        "[train]\nepochs = 1\nbatch_size = 64\n",
        encoding="utf-8",
    )
    assert cli.main(["train", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("case", ["seed", "interpolation", "utf8", "ratings_overflow",
                                  "kg_overflow", "ratings_utf8", "kg_sparse_ids"])
def test_train_rejects_bad_input_with_exit_2(tmp_path, synth_dir, capsys, case):
    flags = _fast_flags(tmp_path, synth_dir, tmp_path / "run")
    bad_ini = tmp_path / "bad.ini"
    if case == "seed":
        flags += ["--seed", "-1"]
    elif case == "interpolation":
        bad_ini.write_text("[train]\nepochs = %(x)s\n", encoding="utf-8")
        flags[1] = str(bad_ini)
    elif case == "utf8":
        bad_ini.write_bytes(b"[train]\nepochs = 1 # \xff\n")
        flags[1] = str(bad_ini)
    else:
        name, line = {
            "ratings_overflow": ("ratings_final.txt", b"0\t18446744073709551616\t1\n"),
            "kg_overflow": ("kg_final.txt", b"0\t0\t9223372036854775808\n"),
            "ratings_utf8": ("ratings_final.txt", b"0\t1\xc3\t1\n"),
            "kg_sparse_ids": ("kg_final.txt", b"0\t0\t1000000000000\n"),
        }[case]
        bad_data = tmp_path / "bad_data"
        bad_data.mkdir()
        for part in ("ratings_final.txt", "kg_final.txt"):
            (bad_data / part).write_bytes((synth_dir / part).read_bytes())
        with open(bad_data / name, "ab") as fh:
            fh.write(line)
        flags[3] = str(bad_data)
    assert cli.main(["train", *flags]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config_is_dir", "data_dir_is_file", "checkpoint_is_dir"])
def test_unreadable_path_exits_2(tmp_path, synth_dir, capsys, case):
    flags = _fast_flags(tmp_path, synth_dir, tmp_path / "run")
    command = "train"
    if case == "config_is_dir":
        flags[1] = str(tmp_path)
    elif case == "data_dir_is_file":
        flags[3] = str(synth_dir / "ratings_final.txt")
    else:
        command = "evaluate"
        flags += ["--checkpoint", str(tmp_path)]
    assert cli.main([command, *flags]) == 2
    assert "error:" in capsys.readouterr().err


def _subparsers():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_RUN_FLAGS = {"--config", "--data-dir", "--out"}
_TRAINING_FLAGS = {"--seed", "--noise-ratio", "--intents", "--depth", "--heads",
                   "--share-transformer-weights", "--alpha", "--tau", "--k-top", "--lr", "--l2",
                   "--epochs", "--batch-size", "--infonce-standard"}
_ACCEPTED = {
    "train": _RUN_FLAGS | _TRAINING_FLAGS,
    "evaluate": _RUN_FLAGS | {"--checkpoint", "--emit-plot-data"},
    "ablate": _RUN_FLAGS | _TRAINING_FLAGS | {"--emit-plot-data"},
    "noise-test": _RUN_FLAGS | _TRAINING_FLAGS | {"--emit-plot-data"},
    "gen-synth": {"--seed", "--out", "--users", "--items", "--extra-entities", "--relations",
                  "--density", "--groups"},
    "grad-check": {"--seed"},
}


def test_each_command_accepts_only_the_flags_it_reads():
    # every command once took all 18 common flags: `grad-check --depth 3`
    # passed and wrote a config.ini claiming depth 3. evaluate once took
    # the run's seed, noise and architecture flags too, and scored a
    # checkpoint on another split or model: a --seed 7 run read test auc
    # 0.5876 from its own config.ini and 0.5168 under --seed 8
    accepted = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                for name, p in _subparsers().items()}
    assert accepted == _ACCEPTED
    assert [len(accepted[name]) for name in _ACCEPTED] == [17, 5, 18, 18, 8, 1]
    assert sum(map(len, accepted.values())) == 67


def test_evaluate_without_config_exits_2(tmp_path, synth_dir, capsys):
    # without --config evaluate once rebuilt the split and model from the
    # defaults (seed 42) and exited 0
    run = tmp_path / "run"
    assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, run), "--epochs", "0"]) == 0
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--data-dir", str(synth_dir), "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--config <run>/config.ini" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, what", [
    ("--seed", "abc", "seed: expected an integer, got 'abc'"),
    ("--epochs", "2.5", "epochs: expected an integer, got '2.5'"),
    ("--lr", "fast", "lr: expected a number, got 'fast'"),
], ids=["seed", "epochs", "lr"])
def test_config_flag_text_is_parsed_as_config_text(tmp_path, capsys, flag, value, what):
    # argparse's own types once rejected these with a usage message; the
    # config parser is now the one place that knows a field's type
    assert cli.main(["train", "--out", str(tmp_path / "run"), flag, value]) == 2
    assert capsys.readouterr().err == f"error: {what}\n"


@pytest.mark.parametrize("command", ["gen-synth", "grad-check"])
def test_negative_seed_without_config_exits_2(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# A non-default value for each run or training flag that names a config field.
_FLAG_VALUES = {
    "data_dir": ("somewhere/ data", "somewhere/ data"),
    "seed": ("3", 3),
    "alpha": ("0.3", 0.3),
    "tau": ("0.7", 0.7),
    "k_top": ("none", None),
    "n_intents": ("5", 5),
    "depth": ("2", 2),
    "n_heads": ("2", 2),
    "lr": ("0.003", 0.003),
    "l2": ("0.0001", 0.0001),
    "epochs": ("7", 7),
    "noise_ratio": ("0.2", 0.2),
    "batch_size": ("99", 99),
    "share_transformer_weights": (None, True),
    "infonce_standard": (None, True),
}


def test_every_config_flag_reaches_config_ini(tmp_path):
    fields = set(vars(ExperimentConfig()))
    actions = {a.dest: a for a in _subparsers()["train"]._actions if a.dest in fields}
    assert set(actions) == set(_FLAG_VALUES)
    argv = ["train", "--out", str(tmp_path / "run")]
    for dest, (text, _) in _FLAG_VALUES.items():
        argv += [actions[dest].option_strings[0]] + ([] if text is None else [text])
    cli._resolve(cli.build_parser().parse_args(argv), "train")
    cfg = parse_config(tmp_path / "run" / "config.ini")
    for dest, (_, want) in _FLAG_VALUES.items():
        assert getattr(cfg, dest) == want, dest
        assert want != getattr(ExperimentConfig(), dest), dest


def test_train_with_percent_in_data_dir(tmp_path, synth_dir):
    data_dir = tmp_path / "100%d"
    data_dir.mkdir()
    for name in ("ratings_final.txt", "kg_final.txt"):
        (data_dir / name).write_bytes((synth_dir / name).read_bytes())
    out = tmp_path / "run"
    flags = _fast_flags(tmp_path, synth_dir, out)
    flags[3] = str(data_dir)
    assert cli.main(["train", *flags, "--epochs", "1"]) == 0
    assert parse_config(out / "config.ini").data_dir == str(data_dir)
    assert cli.main(["train", *flags, "--data-dir", str(tmp_path / "missing%d")]) == 2


def test_train_rejects_data_dir_with_trailing_space(tmp_path, synth_dir, capsys):
    data_dir = tmp_path / "sp" / "D "
    data_dir.mkdir(parents=True)
    for name in ("ratings_final.txt", "kg_final.txt"):
        (data_dir / name).write_bytes((synth_dir / name).read_bytes())
    flags = _fast_flags(tmp_path, synth_dir, tmp_path / "run")
    flags[3] = str(data_dir)
    assert cli.main(["train", *flags, "--epochs", "1"]) == 2
    assert "data_dir" in capsys.readouterr().err


def test_train_pins_openblas_to_one_thread_and_says_so(tmp_path, synth_dir):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = []
    for name, pinned in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "kgtn.cli", "train",
                               *_fast_flags(tmp_path, synth_dir, out)],
                              env={**env, **pinned}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append((proc.stdout.splitlines()[0],
                     (out / "metrics.csv").read_bytes(), (out / "checkpoint.bin").read_bytes()))
    first = runs[0][0]
    loaded = blas.threads()   # the same libraries as this process's
    if loaded:
        assert first == "blas: " + ", ".join(f"{lib} 1 thread" for lib in sorted(loaded))
    else:
        assert "no OpenBLAS" in first
    assert runs[0] == runs[1]


# Loads a copy of an OpenBLAS from a path with a space, deletes the file
# when asked, then prints what `kgtn.blas` reads and sets; runs in a fresh
# process, so the copy never joins the libraries of the test process.
_SPACED_BLAS = """
import ctypes, os, shutil, sys
from kgtn import blas
ctypes.CDLL(shutil.copy(sys.argv[1], sys.argv[2]))
if sys.argv[3] == "delete":
    os.remove(sys.argv[2])
print(blas.threads())
print(blas.set_threads(1))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
@pytest.mark.parametrize("file", ["kept", "delete"])
def test_blas_reads_a_library_whose_path_has_a_space(tmp_path, file):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = sorted({line[line.index("/"):].rstrip("\n") for line in fh
                            if "openblas" in line and "/" in line})
    if not libraries:
        pytest.skip("no OpenBLAS loaded")
    spaced = tmp_path / "sp ace"
    spaced.mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SPACED_BLAS, libraries[0],
                           str(spaced / "libscipy_openblas_copy.so"), file],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    read, pinned = (ast.literal_eval(line) for line in proc.stdout.splitlines())
    assert "libscipy_openblas_copy.so" in read
    assert pinned["libscipy_openblas_copy.so"] == 1


def test_grad_check_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["grad-check"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "passed" in out
    assert list(tmp_path.iterdir()) == []  # no config.ini, no runs/ directory


def test_noise_test_single_ratio(tmp_path, synth_dir):
    out = tmp_path / "noise"
    flags = _fast_flags(tmp_path, synth_dir, out)
    assert cli.main(["noise-test", *flags, "--noise-ratio", "0.1",
                     "--epochs", "1", "--emit-plot-data"]) == 0
    assert (out / "noise.csv").exists()
    assert (out / "noise_noise_drop.csv").exists()


@pytest.mark.parametrize("ini, flags, want", [
    ("", ["--noise-ratio", "0.1"], (0.0, 0.1)),
    ("[data]\nnoise_ratio = 0.1\n", [], (0.0, 0.1)),
    ("[data]\nnoise_ratio = 0.1\n", ["--noise-ratio", "0"], experiments.NOISE_RATIOS),
    ("", [], experiments.NOISE_RATIOS),
], ids=["flag", "config", "flag_0_over_config", "default"])
def test_noise_test_ratios_come_from_the_resolved_config(tmp_path, synth_dir, monkeypatch,
                                                         ini, flags, want):
    # noise-test once read its ratios from the raw flag, so re-running
    # `noise-test --noise-ratio 0.1` from its config.ini ran all five ratios
    seen = []

    def capture(cfg, dataset, ratios):
        seen.append(ratios)
        raise ConfigError("captured")

    monkeypatch.setattr(experiments, "noise_robustness", capture)
    path = tmp_path / "c.ini"
    path.write_text(ini, encoding="utf-8")
    assert cli.main(["noise-test", "--config", str(path), "--data-dir", str(synth_dir),
                     "--out", str(tmp_path / "n"), *flags]) == 2
    assert seen == [want]


@pytest.mark.parametrize("command, flags, outputs", [
    ("train", [], ["metrics.csv", "checkpoint.bin"]),
    ("evaluate", [], ["report.csv"]),
    ("ablate", ["--epochs", "1"], ["ablation.csv"]),
    ("noise-test", ["--epochs", "1", "--noise-ratio", "0.1"], ["noise.csv"]),
], ids=["train", "evaluate", "ablate", "noise-test"])
def test_a_run_directory_reproduces_its_run(tmp_path, synth_dir, command, flags, outputs):
    first, again = tmp_path / "first", tmp_path / "again"
    checkpoint = []
    if command == "evaluate":
        run = tmp_path / "run"
        assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, run)]) == 0
        checkpoint = ["--checkpoint", str(run / "checkpoint.bin")]
    assert cli.main([command, *_fast_flags(tmp_path, synth_dir, first), *flags,
                     *checkpoint]) == 0
    assert cli.main([command, "--config", str(first / "config.ini"),
                     "--data-dir", str(synth_dir), "--out", str(again), *checkpoint]) == 0
    for name in ["config.ini", *outputs]:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_ablate_command(tmp_path, synth_dir):
    out = tmp_path / "abl"
    assert cli.main(["ablate", *_fast_flags(tmp_path, synth_dir, out), "--epochs", "1"]) == 0
    text = (out / "ablation.csv").read_text()
    assert "wo_intents" in text


def test_evaluate_sees_the_noise_the_run_trained_with(tmp_path, synth_dir):
    # evaluate once scored a model trained with --noise-ratio 0.3 on the
    # clean train graph: test auc 0.8333 instead of 0.6944
    run = tmp_path / "run"
    assert cli.main(["train", *_fast_flags(tmp_path, synth_dir, run), "--noise-ratio", "0.3"]) == 0
    out = tmp_path / "eval"
    assert cli.main(["evaluate", "--config", str(run / "config.ini"), "--out", str(out),
                     "--checkpoint", str(run / "checkpoint.bin")]) == 0
    cfg = parse_config(run / "config.ini")
    clean = data.load_dataset(synth_dir, cfg.split_ratios, cfg.seed)
    noisy = data.inject_noise(clean, 0.3, seed=cfg.seed + 1)
    params = training.ModelParameters.initialize(
        noisy.n_users, noisy.n_entities, noisy.n_relations, cfg, np.random.default_rng(cfg.seed))
    params.load_values(training.load_checkpoint(run / "checkpoint.bin"))
    want = experiments.evaluate_model(params, noisy, cfg, label="checkpoint")
    assert float((out / "report.csv").read_text().splitlines()[1].split(",")[1]) == want.auc
    assert want.auc != experiments.evaluate_model(params, clean, cfg).auc


@pytest.mark.parametrize("command, target, noisy", [
    ("train", (training, "fit"), True),
    ("ablate", (experiments, "run_ablation"), True),
    ("noise-test", (experiments, "noise_robustness"), False),
])
def test_each_command_trains_on_the_runs_noise(tmp_path, synth_dir, monkeypatch,
                                               command, target, noisy):
    # noise-test reads --noise-ratio as the ratio under test: its protocol
    # injects the noise itself, so it starts from the clean data
    seen = []

    def capture(cfg, dataset, **kwargs):
        seen.append(dataset.split.train)
        raise ConfigError("captured")

    monkeypatch.setattr(*target, capture)
    flags = _fast_flags(tmp_path, synth_dir, tmp_path / "run")
    assert cli.main([command, *flags, "--noise-ratio", "0.2"]) == 2
    clean = data.load_dataset(synth_dir, (0.6, 0.2, 0.2), 5)
    want = data.inject_noise(clean, 0.2, seed=6) if noisy else clean
    np.testing.assert_array_equal(seen[0], want.split.train)

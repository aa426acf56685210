"""Runs one kgtn benchmark workload, checks its outputs and reports metrics.

Imported by run.py once it has pinned the BLAS thread count and put the
checkout's `src` on the import path. kgtn is driven only through public
functions; the metric -> layer -> workload map is in README.md.

An untraced run (trace 0) sets up, runs a short reference check, then
repeats its unit of work until the time is up, with the further set-ups
spread between evaluations:

- toy-overfit and lastfm-train: a fresh `training.fit`, then the
  evaluations after it (`training.representations` + `experiments.ctr_eval`).
- lastfm-eval: `experiments.evaluate_model` with seeded initial parameters.

The only wrappers it installs are a step clock (around `Adam.zero_grad`
and `Adam.step`, or `training.representations` on lastfm-eval) and the
output checks. A traced run (trace 1) runs the same unit untraced and then
traced, and reports per-layer numbers from the traced pass.
"""
from __future__ import annotations

import ctypes
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from kgtn import autodiff as ad
from kgtn import data, denoise, experiments, intents, metrics, training
from kgtn.errors import ContractError

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TOY_EPOCHS = 10            # one toy unit: a fresh 10-epoch fit, about 120 steps
LASTFM_EPOCHS = 2          # one lastfm-train unit: a fresh two-epoch fit, 18 steps
SETUP_REPEATS = {"toy-overfit": 21, "lastfm-train": 3, "lastfm-eval": 3}
EVALS_PER_FIT = {"toy-overfit": 10, "lastfm-train": 5}
TRACED_EVALS = 3           # lastfm-eval evaluations of each kind in a traced run
TAIL_SAMPLES = 10          # a p90 needs this many samples beyond it
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-8      # summation-order changes move these values far less
LOG_KEYS = ("loss_bpr", "loss_cl", "loss_reg", "eval_auc", "eval_f1")

# Autodiff ops the model records; any other op is reported as "other".
MODEL_OPS = ("add", "sub", "mul", "div", "matmul", "transpose", "gather_rows",
             "segment_sum_rows", "segment_softmax", "concat", "sum_all", "mean_all",
             "rowsum", "scale_rows", "softmax", "exp", "log", "sqrt", "softplus")
# Spans timed per unit of work (inclusive time); those with wrapped children
# also report self time.
STEP_LAYERS = ("intents.kg_aggregate", "intents.transformer_layer", "intents.intent_mix",
               "denoise.contrastive_loss", "denoise.sample_topk", "denoise.light_aggregate",
               "training.adam_step", "training.global_state", "training.predict",
               "training.representations", "training.build_bpr_triples",
               "training.training_step_loss", "experiments.recall_at_k",
               "experiments.ctr_eval", "metrics.auc", "metrics.f1")
SELF_LAYERS = ("intents.kg_aggregate", "intents.transformer_layer", "intents.intent_mix",
               "denoise.contrastive_loss", "denoise.sample_topk", "denoise.light_aggregate",
               "training.global_state", "training.training_step_loss",
               "training.representations", "experiments.ctr_eval")
SETUP_LAYERS = ("data.generate", "data.build_dataset", "data.make_split")


# ---------------------------------------------------------------------------
# inputs


def generate(name, seed):
    if name == "toy-overfit":
        return workloads.toy(seed, TOY_EPOCHS)
    return workloads.lastfm(seed, LASTFM_EPOCHS)


def initial_params(ds, cfg):
    """The parameters `fit` starts from: initialized from the config seed."""
    return training.ModelParameters.initialize(
        ds.n_users, ds.n_entities, ds.n_relations, cfg, np.random.default_rng(cfg.seed))


def set_up(name, seed, gen=generate):
    """Data generation, `build_dataset` and parameter initialization, timed."""
    start = time.perf_counter()
    w = gen(name, seed)
    ds = w.build(seed)
    params = initial_params(ds, w.cfg)
    return w, ds, params, time.perf_counter() - start


def eval_pairs(name, ds):
    """Labelled pairs a training workload is evaluated on after each fit."""
    if name == "toy-overfit":
        return experiments.balanced_pairs(ds, split="train", seed=123)
    return ds.split.eval


def fingerprint(ds):
    """Digest of the eval/test split and of the KG triples and adjacency."""
    e = ds.kg.full_edges()
    h = hashlib.sha256()
    for arr in (ds.kg.triples, e.offsets, e.rel, e.tail):
        h.update(np.ascontiguousarray(arr).tobytes())
    return ds.split.eval_test_digest(), h.hexdigest()


def params_digest(params):
    h = hashlib.sha256()
    for name, p in params.named():
        h.update(name.encode())
        h.update(p.values.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# measurement state


@dataclass
class Measure:
    """Timings, counts and check outcomes gathered over one run."""

    setup_s: list = field(default_factory=list)
    steps_ms: list = field(default_factory=list)
    epochs_s: list = field(default_factory=list)
    evals_s: list = field(default_factory=list)
    units_s: list = field(default_factory=list)
    samples: int = 0
    auc: float = math.nan
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)    # name -> [passed, failed]
    views: list = field(default_factory=list)     # (kept, slots, signal kept, signal)
    first: dict = field(default_factory=dict)     # determinism reference per key

    def check(self, name, ok):
        self.checks.setdefault(name, [0, 0])[0 if ok else 1] += 1
        return ok

    def same_as_first(self, name, value):
        return self.check(name, self.first.setdefault(name, value) == value)

    @property
    def correct(self):
        return all(bad == 0 for _, bad in self.checks.values())


def keeps_budget(view, kg, k_top):
    """True when every head keeps exactly min(k_top, degree) slots."""
    edges = kg.full_edges()
    kept = np.bincount(edges.head[view.kept], minlength=kg.n_entities)
    want = edges.counts if k_top is None else np.minimum(edges.counts, k_top)
    return bool(np.array_equal(kept, want))


def log_key(log):
    """Bitwise identity of a fit log (repr keeps every float digit, nan included)."""
    return repr([[row[k] for k in ("epoch",) + LOG_KEYS] for row in log])


def ctr_evaluation(params, ds, cfg, pairs):
    start = time.perf_counter()
    zu, zi = training.representations(params, ds, cfg)
    auc, f1 = experiments.ctr_eval(zu, zi, pairs)
    return time.perf_counter() - start, experiments.MetricRow("ctr", auc, f1)


def valid(row):
    try:
        experiments.MetricReport(rows=[row]).validate()
    except ContractError:
        return False
    return True


# ---------------------------------------------------------------------------
# units of work


def train_unit(m, w, ds, pairs, n_evals, install=None, between=None):
    """A fresh fit and the evaluations after it; returns (output key, wall s).

    `between()` runs after each evaluation, outside its timing.
    """
    before = fingerprint(ds)
    starts, ends = [], []
    patches = tracing.Patches()

    def on_view(view):
        m.check("keeps min(k_top, degree) per head", keeps_budget(view, ds.kg, w.cfg.k_top))
        m.views.append((int(view.kept.sum()), view.kept.size,
                        int((view.kept & w.signal).sum()), int(w.signal.sum())))

    patches.wrap(training.Adam, "zero_grad", lambda f: tracing.timed(f, starts))
    patches.wrap(training.Adam, "step", lambda f: tracing.timed(f, ends))
    patches.wrap(denoise, "sample_topk", lambda f: tracing.observed(f, on_view))
    if install is not None:
        install(patches)
    start = time.perf_counter()
    rows, key = [], None
    try:
        result = training.fit(w.cfg, ds)
        fit_s = time.perf_counter() - start
        for _ in range(n_evals):
            eval_s, row = ctr_evaluation(result.params, ds, w.cfg, pairs)
            m.evals_s.append(eval_s)
            rows.append(row)
            if between is not None:
                paused = time.perf_counter()
                between()
                start += time.perf_counter() - paused
    except Exception:
        traceback.print_exc()
        result = None
    finally:
        unit_s = time.perf_counter() - start
        removed = not patches.restore()

    # Steps that completed are measured even when a later one raised.
    m.steps_ms.extend((end - s) * 1e3 for (s, _), (_, end) in zip(starts, ends))
    ok = m.check("fit and evaluation raise nothing", result is not None)
    ok &= m.check("wrappers removed", removed)
    if result is not None:
        key = log_key(result.log) + params_digest(result.params)
        losses = [row[k] for row in result.log for k in ("loss_bpr", "loss_cl", "loss_reg")]
        ok &= m.check("losses finite", all(math.isfinite(x) for x in losses))
        ok &= m.check("eval/test digest and KG unchanged by fit", fingerprint(ds) == before)
        ok &= m.same_as_first("fit output identical across units", key)
        m.epochs_s.append(fit_s / len(result.log))
        m.samples += trainable_positives(ds) * len(result.log)
        m.auc = rows[-1].auc
    good_rows = [m.check("MetricReport.validate()", valid(row)) for row in rows]
    good_rows = [g and m.same_as_first("evaluation identical across repeats", repr(row))
                 for g, row in zip(good_rows, rows)]
    # A step that raised fails alone; a failed output check fails every step
    # of the fit. Evaluations that could not run count as failed.
    if result is None:
        failed_steps = max(1, len(starts) - len(ends))
    else:
        failed_steps = 0 if ok else len(starts)
    m.attempted += len(starts) + n_evals
    m.failed += failed_steps + n_evals - sum(good_rows)
    m.units_s.append(unit_s)
    return key, unit_s


def trainable_positives(ds):
    """BPR triples per epoch: train positives of users who miss some item."""
    graph = ds.train_graph
    degree = np.diff(graph.u_offsets)
    return int((degree[ds.split.train[:, 0]] < graph.n_items).sum())


def eval_unit(m, name, w, ds, params, install=None, between=None):
    """One `evaluate_model` pass on the test split; returns (output key, wall s).

    `between()` runs after the pass, outside its timing.
    """
    before = fingerprint(ds)
    forward = []
    patches = tracing.Patches()
    patches.wrap(training, "representations", lambda f: tracing.timed(f, forward))
    if install is not None:
        install(patches)
    start = time.perf_counter()
    try:
        row = experiments.evaluate_model(params, ds, w.cfg, label=name)
    except Exception:
        traceback.print_exc()
        row = None
    finally:
        unit_s = time.perf_counter() - start
        removed = not patches.restore()

    ok = m.check("evaluation raises nothing", row is not None)
    ok &= m.check("wrappers removed", removed)
    key = None
    if row is not None:
        key = repr(row)
        ok &= m.check("MetricReport.validate()", valid(row))
        ok &= m.check("eval/test digest and KG unchanged by evaluation", fingerprint(ds) == before)
        ok &= m.same_as_first("evaluation identical across repeats", key)
        m.steps_ms.extend((end - s) * 1e3 for s, end in forward)
        m.evals_s.append(unit_s)
        m.epochs_s.append(unit_s)
        m.auc = row.auc
    m.attempted += 1
    m.failed += 0 if ok else 1
    m.units_s.append(unit_s)
    if between is not None:
        between()
    return key, unit_s


def run_unit(m, name, w, ds, params, pairs, install=None, between=None):
    if name == "lastfm-eval":
        return eval_unit(m, name, w, ds, params, install, between)
    return train_unit(m, w, ds, pairs, EVALS_PER_FIT[name], install, between)


# ---------------------------------------------------------------------------
# reference check


def reference_outputs(name):
    """Outputs of a short run at REFERENCE_SEED, compared with reference.json.

    The training workloads compare their fit log over two epochs, lastfm-eval
    its evaluation row; the lastfm checks run at a tenth of the counts.
    """
    if name == "toy-overfit":
        w = workloads.toy(REFERENCE_SEED, 2)
    else:
        w = workloads.lastfm(REFERENCE_SEED, 0 if name == "lastfm-eval" else 2, scale=0.1)
    ds = w.build(REFERENCE_SEED)
    if name == "lastfm-eval":
        row = experiments.evaluate_model(initial_params(ds, w.cfg), ds, w.cfg)
        return [row.auc, row.f1] + [row.recall[k] for k in sorted(row.recall)]
    log = training.fit(w.cfg, ds).log
    return [float(row[k]) for row in log for k in LOG_KEYS]


def matches_reference(name, got):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        want = json.load(fh)[name]
    want = [math.nan if x is None else x for x in want]
    return len(got) == len(want) and all(
        (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
        for a, b in zip(got, want))


def write_reference():
    out = {}
    for name in workloads.WHY:
        out[name] = [None if math.isnan(x) else x for x in reference_outputs(name)]
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# tracing


def public_ops():
    return [n for n, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and not n.startswith("_") and n not in ("constant", "parameter")]


def install_trace(patches, tracer, name):
    """Span wrappers around the public entry points of every kgtn module."""
    counts = tracer.counts

    def next_step(*_):
        tracer.step += 1

    def on_backward(tape, *_):
        counts["autodiff.tape_nodes"] += len(tape)
        for op, n in tape.op_counts().items():
            counts[f"autodiff.nodes.{op if op in MODEL_OPS else 'other'}"] += n

    def negatives(triples):
        counts["data.negatives"] += len(triples)

    def has_call(_):
        counts["data.has_calls"] += 1

    def span(owner, attr, stem, before=None, after=None):
        patches.wrap(owner, attr, lambda f: tracer.span(stem, f, before, after))

    for op in public_ops():
        span(ad, op, f"autodiff.{op}")
    span(ad.Tape, "backward", "autodiff.backward", on_backward)
    for attr in ("kg_aggregate", "transformer_layer", "intent_mix"):
        span(intents, attr, f"intents.{attr}")
    for attr in ("sample_topk", "light_aggregate", "contrastive_loss"):
        span(denoise, attr, f"denoise.{attr}")
    for attr in ("global_state", "predict", "representations", "training_step_loss", "fit"):
        span(training, attr, f"training.{attr}")
    span(training.Adam, "zero_grad", "training.zero_grad",
         None if name == "lastfm-eval" else next_step)
    span(training.Adam, "step", "training.adam_step")
    span(training, "build_bpr_triples", "training.build_bpr_triples", after=negatives)
    patches.wrap(data.InteractionGraph, "has", lambda f: tracing.observed(f, has_call))
    for attr in ("recall_at_k", "ctr_eval"):
        span(experiments, attr, f"experiments.{attr}")
    span(experiments, "evaluate_model", "experiments.evaluate_model",
         next_step if name == "lastfm-eval" else None)
    for attr in ("auc", "f1"):
        span(metrics, attr, f"metrics.{attr}")


def install_setup_trace(patches, tracer):
    span = lambda owner, attr, stem: patches.wrap(owner, attr, lambda f: tracer.span(stem, f))
    span(data, "build_dataset", "data.build_dataset")
    span(data, "make_split", "data.make_split")
    return tracer.span("data.generate", generate)


def layer_metrics(tracer, m, units):
    """Per-layer numbers from the traced pass, per unit of work."""
    inclusive, own = tracer.times_ms()
    counts = tracer.counts
    out = {}
    other_ms = sum(v for k, v in own.items() if k.startswith("autodiff.")
                   and k[len("autodiff."):] not in MODEL_OPS and k != "autodiff.backward")
    for op in MODEL_OPS + ("other",):
        out[f"autodiff.nodes.{op}"] = (counts[f"autodiff.nodes.{op}"] / units, "count")
        out[f"autodiff.fwd_ms.{op}"] = ((other_ms if op == "other" else own[f"autodiff.{op}"])
                                        / units, "ms")
    out["autodiff.tape_nodes"] = (counts["autodiff.tape_nodes"] / units, "count")
    out["autodiff.backward_ms"] = (inclusive["autodiff.backward"] / units, "ms")
    for stem in STEP_LAYERS:
        out[f"{stem}_ms"] = (inclusive[stem] / units, "ms")
    for stem in SELF_LAYERS:
        out[f"{stem}_self_ms"] = (own[stem] / units, "ms")
    for stem in SETUP_LAYERS:
        out[f"{stem}_ms"] = (inclusive[stem], "ms")
    kept, slots, sig_kept, sig = (sum(v) for v in zip(*m.views)) if m.views else (0, 0, 0, 0)
    out["denoise.kept_fraction"] = (kept / slots if slots else 1.0, "ratio")
    out["denoise.signal_recall"] = (sig_kept / sig if sig else 1.0, "ratio")
    negatives = counts["data.negatives"]
    out["data.neg_attempts_per_sample"] = (counts["data.has_calls"] / negatives
                                           if negatives else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# runs


def quantile(values, q):
    """The q-quantile, or None unless TAIL_SAMPLES samples lie beyond it."""
    if len(values) * (1.0 - q) < TAIL_SAMPLES:
        return None
    return float(np.quantile(values, q))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds):
    """Untraced run: the end-to-end metrics."""
    m = Measure()
    w, ds, params, setup_s = set_up(name, seed)

    def timed_set_up(ds, params, seconds):
        m.setup_s.append(seconds)
        m.same_as_first("set-up identical across repeats",
                        fingerprint(ds) + (params_digest(params),))

    timed_set_up(ds, params, setup_s)
    m.check("reference outputs match reference.json",
            matches_reference(name, reference_outputs(name)))
    pairs = None if name == "lastfm-eval" else eval_pairs(name, ds)
    def more_set_up():
        if len(m.setup_s) < SETUP_REPEATS[name]:
            timed_set_up(*set_up(name, seed)[1:])

    # The machine's speed drifts over seconds, so the repeated set-ups are
    # spread over the run, one after each evaluation. They do not count
    # towards the time given; a unit starts only if it should end within it.
    start = time.perf_counter()
    while True:
        run_unit(m, name, w, ds, params, pairs, between=more_set_up)
        measured = time.perf_counter() - start - sum(m.setup_s[1:])
        if measured + statistics.fmean(m.units_s) > seconds:
            break
    while len(m.setup_s) < SETUP_REPEATS[name]:
        more_set_up()
    return m, end_to_end(name, m)


def end_to_end(name, m):
    """Every metric the run measured; those with no sample are left out."""
    out = {"setup_s": (statistics.median(m.setup_s), "s")}
    if m.steps_ms:
        out["step_ms_p50"] = (statistics.median(m.steps_ms), "ms")
        out["step_ms_p90"] = (quantile(m.steps_ms, 0.9), "ms")
    if m.epochs_s and name != "lastfm-eval":
        out["train_samples_per_s"] = (m.samples / (sum(m.steps_ms) / 1e3), "1/s")
        out["epoch_s"] = (statistics.median(m.epochs_s), "s")
    elif m.epochs_s:
        out["epoch_s"] = (statistics.fmean(m.epochs_s), "s")
    if m.evals_s:
        out["eval_s_p50"] = (statistics.median(m.evals_s), "s")
        out["eval_s_p90"] = (quantile(m.evals_s, 0.9), "s")
    out["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if not math.isnan(m.auc):
        out["auc"] = (m.auc, "ratio")
    out["error_rate"] = (m.failed / m.attempted, "ratio")
    return out


def traced(name, seed):
    """Traced run: the same unit untraced, then traced; per-layer metrics."""
    m = Measure()
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    gen = install_setup_trace(patches, tracer)
    w, ds, params, _ = set_up(name, seed, gen)
    m.check("wrappers removed", not patches.restore())
    pairs = None if name == "lastfm-eval" else eval_pairs(name, ds)
    install = lambda p: install_trace(p, tracer, name)
    # Untraced and traced units alternate. The overhead compares median step
    # times (evaluation times on lastfm-eval) of the two.
    plain, with_trace = [], []
    for _ in range(TRACED_EVALS if name == "lastfm-eval" else 1):
        for done, how in ((plain, None), (with_trace, install)):
            n = len(m.steps_ms)
            key, unit_s = run_unit(m, name, w, ds, params, pairs, how)
            done.append((key, [unit_s] if name == "lastfm-eval" else m.steps_ms[n:]))
    keys = [[key for key, _ in done] for done in (plain, with_trace)]
    m.check("traced and untraced outputs bitwise equal", None not in keys[0] and keys[0] == keys[1])
    untraced_t, traced_t = ([t for _, ts in done for t in ts] for done in (plain, with_trace))
    out = layer_metrics(tracer, m, max(1, len(traced_t)))
    if traced_t and untraced_t:
        overhead = statistics.median(traced_t) / statistics.median(untraced_t) - 1.0
        out["trace.overhead_pct"] = (100.0 * overhead, "%")
    (HERE / "out").mkdir(exist_ok=True)
    tracer.write(HERE / "out" / f"{name}.spans.jsonl")
    return m, out


# ---------------------------------------------------------------------------
# report


def blas_threads():
    """Thread count of every OpenBLAS this process has loaded."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def report(name, seed, seconds, trace):
    m, values = traced(name, seed) if trace else measure(name, seed, seconds)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]

    print(f"workload {name} seed {seed} trace {int(trace)}: {workloads.WHY[name]}")
    print("env " + json.dumps(environment(), sort_keys=True))
    samples = {"step_ms": len(m.steps_ms), "eval_s": len(m.evals_s),
               "epoch_s": len(m.epochs_s), "setup_s": len(m.setup_s)}
    for metric, (value, unit) in values.items():
        n = next((v for k, v in samples.items() if metric.startswith(k)), None)
        note = f"  (n={n})" if n is not None and not trace else ""
        shown = "n/a: fewer than %d samples beyond p90" % TAIL_SAMPLES if value is None \
            else f"{value:.6g} {unit}"
        print(f"  {metric:<40} {shown}{note}")
    for check, (good, bad) in m.checks.items():
        print(f"  check {check}: {'ok' if bad == 0 else 'FAILED'} ({good} passed, {bad} failed)")

    result = {}
    for entry in spec:
        if entry["name"] not in values:
            # Only a run whose every unit failed lacks a metric.
            print(f"  {entry['name']}: not measured, no unit of work succeeded")
            continue
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit} != {entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    return {"correct": m.correct and len(result) == len(spec), "attempted": m.attempted,
            "failed": m.failed, "metrics": result}

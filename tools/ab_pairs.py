"""Alternating A/B pairs of the benchmark in two checkouts.

    python3 tools/ab_pairs.py --parent ../kgtn-parent --change . \
        --workload toy-overfit --pairs 10 --seeds 1,13

`--workload` takes one workload name, a comma-separated list of them, or
`all` for every workload in the change's BENCHMARK.json; the workloads run
one after another, each with its own pairs and its own summary table.

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` once in
each checkout, every run in a fresh process from the root of its checkout
and with the benchmark's own run length.
Pair k takes seed `seeds[k % len(seeds)]`; the parent goes first in even
pairs and the change in odd ones, so a drift of the machine's speed over
the session falls on both sides alike.

For every end-to-end metric named in the change's BENCHMARK.json, it
prints each side's median and quartiles and how many pairs the change
wins (strictly better in the metric's direction; ties count for neither
side). A gain holds when the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's interquartile range.

Each metric also gets one verdict against its relative `bound`:
- `worse beyond bound`: the change's median is worse than the parent's by
  more than `bound` times the parent's median;
- `unresolved`: the parent's interquartile range is wider than `bound`
  times its median, and not every change run beats every parent run;
- `within bound`: otherwise.

It also prints each side's failed share, the failed operations summed over
its runs divided by the attempted ones, and each side's `env` lines (core
count, BLAS and its thread count, versions), one per distinct line among
its runs: a timing compares the two sides only on the same environment.
The exit status is nonzero when, on any workload, a run is not `correct`,
the change's failed share is larger than the parent's, or the two sides'
env lines differ.

`--record DIR` appends the change's summary of each workload to
`DIR/BENCH_<workload>.json`, a JSON object whose `entries` list grows by
one entry per call: the change's commit and the parent's, the date, the
change's env lines, the pairs and seeds, and for every end-to-end metric
each side's median, quartiles, per-run values and modes (the runs split
where two neighbouring sorted values differ by more than a tenth of the
median; each mode is its low, its high and its count).
"""
from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# Sorted per-run values split into modes where neighbours differ by more
# than this share of their median.
MODE_GAP = 0.1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list of them, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="1,13", help="comma-separated workload seeds")
    parser.add_argument("--record", type=Path, metavar="DIR",
                        help="append the change's summaries to DIR/BENCH_<workload>.json")
    args = parser.parse_args(argv)
    args.seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.pairs < 1 or not args.seeds:
        parser.error("need at least one pair and one seed")
    if args.record is not None and not args.record.is_dir():
        parser.error(f"--record: {args.record} is not a directory")
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"--{side}: no perfbench/run.py under {getattr(args, side)}")
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as fh:
        args.benchmark = json.load(fh)
    known = [w["name"] for w in args.benchmark["workloads"]]
    asked = [w.strip() for w in args.workload.split(",") if w.strip()]
    args.workloads = known if asked == ["all"] else asked
    unknown = [w for w in args.workloads if w not in known]
    if unknown or not args.workloads:
        parser.error(f"--workload: {', '.join(unknown) or 'none given'}; "
                     f"BENCHMARK.json names {', '.join(known)}")
    return args


def run_once(root, workload, seed):
    """One benchmark run: the result JSON of its last stdout line, with the
    rest of its `env ` line (the environment JSON, as text) under `env`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["env"] = next((line[len("env "):] for line in lines if line.startswith("env ")),
                         None)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, better, runs, bound=None):
    """One table row: the medians, quartiles, wins, whether a gain holds and,
    given the metric's relative `bound`, the regression verdict."""
    pairs = [(p["metrics"].get(metric), c["metrics"].get(metric)) for p, c in runs]
    pairs = [(p["value"], c["value"]) for p, c in pairs if p and c
             and p["value"] is not None and c["value"] is not None]
    if not pairs:
        return f"  {metric:<14} not measured on both sides"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    (p1, pm, p3), (c1, cm, c3) = (quartiles([pair[k] for pair in pairs]) for k in (0, 1))
    holds = wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1
    change = f"{100.0 * (cm / pm - 1.0):+.1f}%" if pm else "n/a"
    row = (f"  {metric:<14} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
           f"[{c1:.6g}, {c3:.6g}]  {change}  wins {wins}/{len(pairs)} losses {losses}"
           f"  gain {'holds' if holds else 'not shown'}")
    if bound is None:
        return row
    beats_every_parent_run = all(sign * (p - c) > 0 for p, _ in pairs for _, c in pairs)
    if sign * (cm - pm) > bound * abs(pm):
        verdict = "worse beyond bound"
    elif p3 - p1 > bound * abs(pm) and not beats_every_parent_run:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return f"{row}  {verdict}"


def failed_shares(runs):
    """Each side's summed failed over summed attempted operations, parent
    first; a side that attempted nothing reads 0."""
    shares = []
    for k in range(len(SIDES)):
        attempted = sum(pair[k]["attempted"] for pair in runs)
        shares.append(sum(pair[k]["failed"] for pair in runs) / attempted if attempted else 0.0)
    return tuple(shares)


def environments(runs):
    """Each side's distinct env lines, sorted, parent first."""
    return tuple(sorted({str(pair[k].get("env")) for pair in runs}) for k in range(len(SIDES)))


def exit_status(runs):
    """1 when a run is not correct, the change fails a larger share or the
    sides ran in different environments, else 0."""
    parent_share, change_share = failed_shares(runs)
    parent_env, change_env = environments(runs)
    correct = all(p["correct"] and c["correct"] for p, c in runs)
    return 0 if correct and change_share <= parent_share and parent_env == change_env else 1


def run_pairs(args, workload):
    """The alternating (parent, change) result pairs of one workload."""
    runs = []
    for k in range(args.pairs):
        seed = args.seeds[k % len(args.seeds)]
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        result = {side: run_once(getattr(args, side), workload, seed) for side in order}
        runs.append((result["parent"], result["change"]))
        for side in SIDES:
            r = result[side]
            shown = " ".join(f"{name}={m['value']:.6g}" for name, m in r["metrics"].items()
                             if m["value"] is not None)
            print(f"{workload} pair {k} seed {seed} {side:<6} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {shown}", flush=True)
    return runs


def report(workload, runs, end_to_end, seeds):
    """Print one workload's summary table; returns its exit status."""
    print(f"{workload}: {len(runs)} pairs, seeds {seeds}, median [quartiles] per side")
    for entry in end_to_end:
        print(summarize(entry["name"], entry["better"], runs, entry["bound"]))
    print("  failed share   " + "  ".join(
        f"{side} {share:.6g}" for side, share in zip(SIDES, failed_shares(runs))))
    for side, envs in zip(SIDES, environments(runs)):
        for env in envs:
            print(f"  env {side:<6} {env}")
    return exit_status(runs)


def commit_of(root):
    """The checkout's HEAD commit, or None outside a git work tree."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def modes(values):
    """[low, high, count] of each group of the sorted values, split where two
    neighbours differ by more than MODE_GAP times the median."""
    values = sorted(values)
    gap = MODE_GAP * abs(statistics.median(values))
    groups = [[values[0]]]
    for previous, value in zip(values, values[1:]):
        if value - previous > gap:
            groups.append([])
        groups[-1].append(value)
    return [[g[0], g[-1], len(g)] for g in groups]


def side_summary(runs, k, end_to_end):
    """Unit, median, quartiles, per-run values and modes of every end-to-end
    metric that side k measured, each number to 6 significant digits."""
    out = {}
    for entry in end_to_end:
        measured = [pair[k]["metrics"].get(entry["name"]) for pair in runs]
        measured = [m for m in measured if m and m["value"] is not None]
        if not measured:
            continue
        values = [m["value"] for m in measured]
        q1, q2, q3 = (_digits(v) for v in quartiles(values))
        out[entry["name"]] = {
            "unit": measured[0]["unit"], "median": q2, "q1": q1, "q3": q3,
            "runs": [_digits(v) for v in values],
            "modes": [[_digits(lo), _digits(hi), n] for lo, hi, n in modes(values)],
        }
    return out


def _digits(value):
    return float(f"{value:.6g}")


def record(args, workload, runs):
    """Append the change's summary of `workload` to its BENCH file."""
    path = args.record / f"BENCH_{workload}.json"
    doc = (json.loads(path.read_text(encoding="utf-8")) if path.is_file()
           else {"workload": workload, "entries": []})
    parent, change = range(len(SIDES))
    doc["entries"].append({
        "commit": commit_of(args.change),
        "parent": commit_of(args.parent),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        "env": [json.loads(env) if env != "None" else None
                for env in environments(runs)[change]],
        "pairs": len(runs),
        "seeds": args.seeds,
        "metrics": side_summary(runs, change, args.benchmark["end_to_end"]),
        "parent_metrics": side_summary(runs, parent, args.benchmark["end_to_end"]),
    })
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None):
    args = parse_args(argv)
    status = 0
    for workload in args.workloads:
        runs = run_pairs(args, workload)
        status = max(status, report(workload, runs, args.benchmark["end_to_end"], args.seeds))
        if args.record is not None:
            record(args, workload, runs)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""kgtn benchmark: one command for every workload, or one workload per call.

    python3 perfbench/run.py                      # every workload, fresh process each
    python3 perfbench/run.py --workload lastfm-train --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout. It imports kgtn from the checkout's
`src` and never from anywhere else, so without `src/kgtn` it exits with
status 2 and prints no result. Human-readable lines come first; the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). `--write-reference` regenerates
`reference.json` from the current code.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread, at or below any core count: set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy-overfit", "lastfm-train", "lastfm-eval")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in a fresh process, so peak RSS and leaked state stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "kgtn" / "__init__.py").is_file():
        print(f"no kgtn sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all" and not args.write_reference:
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    if args.write_reference:
        bench.write_reference()
        return 0
    result = bench.report(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

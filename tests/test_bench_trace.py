"""The benchmark (`perfbench/`) runs against this checkout's `src`.

- The traced benchmark (`perfbench/run.py --trace 1`) can wrap what it
  names. `perfbench/bench.py` wraps kgtn's public entry points by name; a
  kgtn change that deletes or renames one of them breaks every traced run
  with a `KeyError`. One test installs and removes the wrappers of each
  workload without running any workload.
- Every workload's short reference run still reproduces the outputs stored
  in `perfbench/reference.json`, which the benchmark checks before it
  measures anything.

Each runs in a fresh interpreter that imports the benchmark against this
checkout's `src`.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SCRIPT = """
import sys
import bench
import tracing

for name in sys.argv[1:]:
    patches = tracing.Patches()
    bench.install_trace(patches, tracing.Tracer(), name)
    assert not patches.restore(), (name, "wrappers not removed")
patches = tracing.Patches()
bench.install_setup_trace(patches, tracing.Tracer())
assert not patches.restore(), ("set-up", "wrappers not removed")
"""


_REFERENCE = """
import sys
import bench

for name in sys.argv[1:]:
    got = bench.reference_outputs(name)
    assert bench.matches_reference(name, got), (name, got)
"""


def _run_with_every_workload(script):
    """Run `script` in a fresh interpreter, with the workload names of
    BENCHMARK.json as its arguments."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert len(names) == 3
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run([sys.executable, "-c", script, *names], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_traced_benchmark_wraps_and_restores_every_name():
    _run_with_every_workload(_SCRIPT)


def test_every_workload_reproduces_its_stored_reference_outputs():
    _run_with_every_workload(_REFERENCE)

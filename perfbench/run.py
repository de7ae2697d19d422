"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wire-cached --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced, per-layer split instead.  Metric names and
units are declared in ``BENCHMARK.json``; a run that produces a metric
not declared there, or misses one, stops with an error.

Besides the result line, each run writes its machine stamp (with the
share of CPU time the host stole during the run) and raw samples to ``.perfbench/results/<workload>-seed<seed>-trace<t>.json``
under the repository root.  The run exits 1 when the correctness gate
finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("wire-cached", "wire-fresh", "wire-plan")


def machine_stamp() -> dict:
    import numpy

    try:
        import networkx

        networkx_version = networkx.__version__
    except ImportError:
        networkx_version = None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = None  # not a git checkout
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx_version,
        "git_head": head,
        "loadavg_1m": os.getloadavg()[0],
        "time": time.time(),
    }


def _metrics_block(produced: dict, trace: bool) -> dict:
    """The result's ``metrics`` object; the measured names and units must
    be exactly the ones ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    measured = {name: unit for name, (_value, unit) in produced.items()}
    if measured != declared:
        diff = sorted(set(measured.items()) ^ set(declared.items()))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {diff}")
    return {
        # a failed request has no latency; it is reported as beyond measure
        name: {"value": value if math.isfinite(value) else 1e12, "unit": unit}
        for name, (value, unit) in produced.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--tiny", action="store_true", help="self-test scale: small inputs, same checks"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT}: no program sources under src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import serving, workloads
    from perfbench.measure import cpu_ticks, steal_share

    state = ROOT / ".perfbench"
    workdir = state / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir / "tmp")  # the server's metrics spool lands here
    try:
        stamp = machine_stamp()
        ticks_before = cpu_ticks()
        run = serving.run_traced if args.trace else serving.run_untraced
        scale = workloads.TINY if args.tiny else workloads.FULL
        result = run(args.workload, args.seed, args.seconds, scale, workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["steal_share"] = steal_share(ticks_before, cpu_ticks())

    metrics = _metrics_block(result["metrics"], bool(args.trace))
    correct = not result["problems"]
    record = {
        "args": vars(args),
        "stamp": stamp,
        "correct": correct,
        "problems": result["problems"],
        "metrics": metrics,
        "raw": result["raw"],
    }
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, default=str))
    for problem in result["problems"]:
        print(f"correctness: {problem}", file=sys.stderr)
    print(f"stamp: {json.dumps(stamp)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

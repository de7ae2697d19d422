"""Tiny-scale self-test of the benchmark: every workload, both modes, all checks.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs ``run.py --tiny`` for each workload with tracing off and on, and
requires: exit code 0, ``correct`` true, no failed operation, exactly the
metrics ``BENCHMARK.json`` declares, and the per-layer split to show each
workload stressing the layer it was chosen for.  Last, it runs the
benchmark in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files, where it must fail without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN
        + ["--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def _layer_checks(workload: str, m: dict) -> list[str]:
    """What the traced split must show on each workload."""
    v = {name: entry["value"] for name, entry in m.items()}
    planner = v["planner.plan_ms"] + v["planner.compile_ms"] + v["plan_cache.hit_share"]
    checks = [
        ("attribution >= 90% of the round trip", v["attributed_share"] >= 0.9),
        ("every engine from the pool", v["pool.engine_hit_share"] == 1.0),
    ]
    if workload == "wire-cached":
        checks.append(("no releases", v["mechanism.releases"] == 0))
        checks.append(("duplicates coalesced", v["async.coalesced_share"] > 0))
        checks.append(
            (
                "net + async carry most of the round trip",
                v["wire.pre_service_ms"] + v["wire.post_service_ms"] > v["wire.round_trip_ms"] / 2,
            )
        )
    if workload == "wire-fresh":
        checks.append(("one release per request", v["mechanism.releases"] == 1))
        checks.append(
            ("release is most of handle", v["mechanism.release_ms"] > v["service.handle_ms"] / 2)
        )
    if workload == "wire-plan":
        checks.append(("planner measured", v["planner.plan_ms"] > 0))
        checks.append(("plan cache hits", v["plan_cache.hit_share"] > 0))
        checks.append(("ledger charges beside reads", 0 < v["ledger.charges"] < v["ledger.reads"]))
    else:
        checks.append(("planner idle", planner == 0))
    return [name for name, ok in checks if not ok]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            before = len(failures)
            proc = _run(ROOT, workload, trace)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            if set(result["metrics"]) != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json")
            elif trace:
                failures += [f"{label}: {c}" for c in _layer_checks(workload, result["metrics"])]
            print(f"{'ok' if len(failures) == before else 'FAIL'} {label}", flush=True)

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "wire-cached", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("a directory without the program's sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest passed" if not failures else f"selftest: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

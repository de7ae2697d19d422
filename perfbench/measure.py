"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import json
import math
import re
import statistics
import time

import numpy as np


#: Fewest trials for which :func:`robust_trial` takes a quartile.
QUARTILE_TRIALS = 8


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of raw samples.

    Infinite entries (failed requests, which miss every latency limit)
    sort last; a percentile that lands on one is reported as infinite.
    """
    data = np.sort(np.asarray(values, dtype=np.float64))
    if data.size == 0:
        return math.nan
    if np.isinf(data).any():
        rank = q / 100 * (data.size - 1)
        if np.isinf(data[math.ceil(rank)]):
            return math.inf
    return float(np.percentile(data, q))


def robust_trial(values, better: str) -> float:
    """One figure from a run's per-trial values: the quartile on the
    better side (the lower quartile of a time, the upper of a rate) when
    the run has at least ``QUARTILE_TRIALS`` trials, else the median.

    Interference from the host (stolen CPU, a neighbour's I/O) only ever
    makes a trial slower, and it multiplies a trial's tail latency and
    divides its throughput, so the quieter trials estimate the program.
    A quartile rather than the best trial keeps one lucky trial from
    setting the figure and holds until three quarters of the trials are
    hit.  With fewer trials the quartile sits next to the extreme trial,
    and the median is steadier.
    """
    if len(values) < QUARTILE_TRIALS:
        return statistics.median(values)
    lower, _, upper = statistics.quantiles(values, n=4)
    return lower if better == "lower" else upper


_PROBE_BODY = {"queries": [{"kind": "range", "lo": i, "hi": i + 7} for i in range(64)]}
_PROBE_ARRAY = np.arange(4000, dtype=np.float64)


def speed_probe_ms() -> float:
    """Milliseconds a fixed CPU-bound kernel takes on the calling thread's
    CPU: JSON round trips, dict updates and numpy reductions, the kinds of
    work a request does.  It runs no code of the program, so it tracks how
    fast the machine runs, not the program."""
    started = time.perf_counter()
    for _ in range(60):
        json.loads(json.dumps(_PROBE_BODY))
        counts: dict = {}
        for i in range(300):
            counts[i % 37] = counts.get(i % 37, 0) + i
        np.cumsum(_PROBE_ARRAY).sum()
    return (time.perf_counter() - started) * 1e3


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks from ``/proc/stat``; steal is time the
    host ran something else while this machine's CPUs were runnable."""
    with open("/proc/stat", encoding="ascii") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen between two :func:`cpu_ticks` readings."""
    steal, total = (a - b for a, b in zip(after, before))
    return steal / total if total else 0.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_prometheus(text: str) -> dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of a scrape."""
    out = {}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match:
            out[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return out


def span_self_times(node: dict, out: list) -> None:
    """Append ``(name, self ms)`` for every span of a ``meta.trace`` tree;
    self time is the span's duration minus what its children cover."""
    children = node.get("children", ())
    covered = sum(child["elapsed_ms"] for child in children)
    out.append((node["name"], node["elapsed_ms"] - covered))
    for child in children:
        span_self_times(child, out)


def span_totals(node: dict, name: str) -> tuple[float, int]:
    """Summed duration (ms) and count of the spans called ``name``."""
    total, count = (node["elapsed_ms"], 1) if node["name"] == name else (0.0, 0)
    for child in node.get("children", ()):
        t, c = span_totals(child, name)
        total, count = total + t, count + c
    return total, count

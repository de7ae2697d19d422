"""Seeded inputs of the three serving workloads.

Everything the program under test sees is generated here from the
workload seed: the registered dataset, the warm-up requests and the timed
request streams.  The true answers behind ``answer_mse`` are computed from
the same data with numpy, never by the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import Database, Domain, Policy

EPSILON = 0.5
#: Every named session opens with room for two releases; no workload
#: plans more than one per session, so no request is ever refused.
BUDGET = 1.0
THETA = 2  #: distance-threshold policy: ranges dispatch to ordered-hierarchical
RANGES_PER_REQUEST = 64
PLAN_RANGES = 16
PLAN_COUNTS = 8


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``TINY`` only backs the self-test."""

    size: int  #: |T|, the ordered domain
    tuples: int
    cached_sessions: int
    plan_shapes: int
    fresh_checked: int  #: wire-fresh requests replayed in process by the gate


FULL = Scale(size=2000, tuples=20_000, cached_sessions=16, plan_shapes=8, fresh_checked=12)
TINY = Scale(size=200, tuples=2_000, cached_sessions=2, plan_shapes=2, fresh_checked=2)


@dataclass(frozen=True)
class Profile:
    """Per-workload constants.

    ``rate`` is the open-loop arrival rate in due times per second, a
    fixed share of the closed-loop goodput measured on the commit that
    introduced the benchmark (2-core x86 VM, client and worker on one core
    each: ~350 req/s cached, ~15 fresh, ~180 plan; wire-cached sends a
    quarter of its due times twice): about half on wire-fresh, a third
    on wire-cached (duplicates included) and wire-plan.  At half, a few
    percent of CPU stolen by the host left a backlog that tripled a
    trial's p90; a third leaves the queue room to drain.  ``limit_ms`` is the
    latency limit a closed-loop response must meet to count as goodput.
    ``trials`` is how many open/closed trials an untraced run is cut
    into; wire-fresh keeps fewer, longer trials so that each holds enough
    of its slow requests for a percentile.
    """

    name: str
    rate: float
    limit_ms: float
    trials: int


PROFILES = {
    "wire-cached": Profile("wire-cached", rate=95.0, limit_ms=50.0, trials=10),
    "wire-fresh": Profile("wire-fresh", rate=7.0, limit_ms=500.0, trials=4),
    "wire-plan": Profile("wire-plan", rate=60.0, limit_ms=100.0, trials=10),
}


def domain(scale: Scale) -> Domain:
    return Domain.integers("v", scale.size)


def policy(scale: Scale) -> Policy:
    return Policy.distance_threshold(domain(scale), THETA)


def dataset_indices(seed: int, scale: Scale) -> np.ndarray:
    """A skewed dataset: a few seeded clusters over a uniform floor."""
    rng = np.random.default_rng([seed, 0])
    n_cluster = int(scale.tuples * 0.7)
    centers = rng.integers(0, scale.size, size=5)
    picks = centers[rng.integers(0, centers.size, size=n_cluster)]
    clustered = np.rint(picks + rng.normal(0, scale.size / 40, size=n_cluster))
    uniform = rng.integers(0, scale.size, size=scale.tuples - n_cluster)
    values = np.concatenate([clustered, uniform]).astype(np.int64)
    return np.clip(values, 0, scale.size - 1)


def database(seed: int, scale: Scale) -> Database:
    return Database.from_indices(domain(scale), dataset_indices(seed, scale))


def true_answers(request: dict, prefix: np.ndarray) -> np.ndarray:
    """Exact answers of a request's queries from the histogram prefix sums."""
    queries = request["queries"]
    if isinstance(queries, dict):  # range_batch
        los, his = np.asarray(queries["los"]), np.asarray(queries["his"])
        return prefix[his + 1] - prefix[los]
    out = []
    for q in queries:
        if q["kind"] == "range":
            out.append(prefix[q["hi"] + 1] - prefix[q["lo"]])
        else:  # contiguous count support
            out.append(prefix[q["support"][-1] + 1] - prefix[q["support"][0]])
    return np.asarray(out, dtype=np.float64)


def prefix_sums(seed: int, scale: Scale) -> np.ndarray:
    hist = np.bincount(dataset_indices(seed, scale), minlength=scale.size)
    return np.concatenate([[0], np.cumsum(hist)]).astype(np.float64)


class Requests:
    """Request factory for one workload run.

    Each phase draws from its own seeded stream, so the requests of a
    phase do not depend on how many requests another phase consumed.
    Session names carry the phase tag, so sessions never leak between
    phases.
    """

    def __init__(self, workload: str, seed: int, scale: Scale):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.base = {
            "policy": policy(scale).to_spec(),
            "epsilon": EPSILON,
            "dataset": {"name": "data"},
            "budget": BUDGET,
        }
        shape_rng = self._rng("shapes")
        self.plan_shapes = [self._plan_queries(shape_rng) for _ in range(scale.plan_shapes)]

    def _rng(self, *tags) -> np.random.Generator:
        words = [self.seed] + [int.from_bytes(t.encode()[:8], "little") for t in tags]
        return np.random.default_rng(np.random.SeedSequence(words))

    def _seed(self, rng) -> int:
        return int(rng.integers(0, 2**31 - 1))

    def _range_batch(self, rng) -> dict:
        lo = rng.integers(0, self.scale.size, RANGES_PER_REQUEST)
        hi = rng.integers(0, self.scale.size, RANGES_PER_REQUEST)
        return {
            "kind": "range_batch",
            "los": np.minimum(lo, hi).tolist(),
            "his": np.maximum(lo, hi).tolist(),
        }

    def _plan_queries(self, rng) -> list:
        size = self.scale.size
        queries = []
        for _ in range(PLAN_RANGES):
            lo, hi = sorted(int(v) for v in rng.integers(0, size, 2))
            queries.append({"kind": "range", "lo": lo, "hi": hi})
        for _ in range(PLAN_COUNTS):
            width = int(rng.integers(5, 40))
            start = int(rng.integers(0, size - width))
            queries.append({"kind": "count", "support": list(range(start, start + width))})
        return queries

    # -- warm-up ------------------------------------------------------------------
    def warmup(self) -> list[dict]:
        """Requests sent, in order, before anything is timed.

        wire-cached: one release per session, so every timed request is
        free post-processing.  wire-plan: every pool shape compiled with
        and without a held release, so pool shapes hit the plan cache.
        wire-fresh: a few throwaway sessions to warm the release path.
        """
        rng = self._rng("warmup")
        if self.workload == "wire-cached":
            return [
                {**self.base, "session": f"c{k}", "seed": self._seed(rng),
                 "queries": self._range_batch(rng)}
                for k in range(self.scale.cached_sessions)
            ]
        if self.workload == "wire-fresh":
            return [
                {**self.base, "session": f"warm-{k}", "seed": self._seed(rng),
                 "queries": self._range_batch(rng)}
                for k in range(3)
            ]
        out = []
        for k, shape in enumerate(self.plan_shapes):
            for _ in range(2):
                out.append(self._plan_request(f"warm-{k}", shape, rng))
        return out

    # -- timed streams --------------------------------------------------------------
    def stream(self, phase: str, count: int) -> list[dict]:
        rng = self._rng("stream", phase)
        return [self._request(phase, i, rng) for i in range(count)]

    def _plan_request(self, session: str, queries: list, rng) -> dict:
        return {
            **self.base,
            "op": "plan",
            "session": session,
            "seed": self._seed(rng),
            "queries": queries,
            "plan_budget": {"total": EPSILON},
        }

    def _request(self, phase: str, i: int, rng) -> dict:
        if self.workload == "wire-cached":
            session = f"c{int(rng.integers(0, self.scale.cached_sessions))}"
            return {**self.base, "session": session, "seed": self._seed(rng),
                    "queries": self._range_batch(rng)}
        if self.workload == "wire-fresh":
            return {**self.base, "session": f"{phase}-{i}", "seed": self._seed(rng),
                    "queries": self._range_batch(rng)}
        # wire-plan: sessions rotate in blocks of 8 that each serve 4
        # requests spaced 8 apart, so one request in four opens a session
        # (a ledger charge) and the other three reuse its release (reads)
        block, slot = divmod(i, 32)
        session = f"{phase}-p{block * 8 + slot % 8}"
        if rng.random() < 0.5:
            queries = self.plan_shapes[int(rng.integers(0, len(self.plan_shapes)))]
        else:
            queries = self._plan_queries(rng)
        return self._plan_request(session, queries, rng)


def open_schedule(workload: str, rate: float, seconds: float) -> list[tuple[float, int]]:
    """``(due offset s, request index)`` pairs of an open-loop phase.

    On wire-cached every fourth due time sends its request twice, once per
    connection, so in-flight coalescing has work to do.
    """
    out = []
    for i in range(max(1, int(rate * seconds))):
        due = i / rate
        out.append((due, i))
        if workload == "wire-cached" and i % 4 == 3:
            out.append((due, i))
    return out

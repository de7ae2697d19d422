"""The serving workloads: one ``MultiprocHTTPServer`` worker over HTTP.

Untraced run (end-to-end metrics): set the deployment up several times
(``setup_s`` is the median), warm it, then trials of an open-loop phase
at the workload's fixed rate (latency from each request's due time) and
a closed-loop phase over both connections (goodput).  Traced run (per-layer
metrics): an untraced and a traced open-loop phase on a deployment built
with the measuring subclasses, a ``/metrics`` scrape around the traced
phase, and an in-process replay of the traced phase through
``AsyncBlowfishService`` that separates the network layer from the async
tier.  Both runs end with the correctness gate.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import statistics
import time
from collections import defaultdict
from functools import partial

import numpy as np

from repro.api import AsyncBlowfishService, SQLiteLedgerStore
from repro.net import BlowfishClient, MultiprocHTTPServer

from . import loadgen, workloads
from .hooks import build_service
from .measure import (
    cpu_ticks,
    parse_prometheus,
    peak_rss_mb,
    percentile,
    robust_trial,
    span_self_times,
    span_totals,
    speed_probe_ms,
    steal_share,
)

SETUP_REPEATS = 7
#: Free (non-charging) wire responses the gate replays in process per run.
CHECK_SAMPLE = 400
#: An untraced run alternates open- and closed-loop phases in the
#: workload's ``trials`` and reduces each metric's per-trial values with
#: ``measure.robust_trial``: the host steals CPU in episodes of 10-20 s,
#: a few percent of stolen time multiplies a trial's p90 and divides its
#: goodput, and the better-side quartile of many short trials spread
#: across the run moves only when three quarters of the run is hit.
#: Each trial's open loop takes ``OPEN_SHARE`` of its time, the closed
#: loop the rest.
OPEN_SHARE = 0.7

#: Span name (a prefix when it ends in ".") -> the layer its self time
#: belongs to.  ``session.plan`` wraps the plan-cache lookup and compile,
#: so it is the planner's.
_LAYERS = (
    ("service.", "service.decode_ms"),
    ("session.plan", "planner.plan_ms"),
    ("session.", "session.self_ms"),
    ("planner.", "planner.plan_ms"),
    ("executor.", "executor.self_ms"),
    ("mechanism.", "mechanism.release_ms"),
)


def _layer_of(span_name: str) -> str | None:
    for prefix, layer in _LAYERS:
        if span_name == prefix or (prefix.endswith(".") and span_name.startswith(prefix)):
            return layer
    return None


def _pin(pid: int, cpus: set) -> None:
    """Set the CPU affinity of every thread of ``pid``, including threads
    that already exist (a thread inherits its creator's affinity)."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended after the listing


class Deployment:
    """One ``MultiprocHTTPServer`` worker process for a workload run.

    With two or more CPUs, every thread of the worker is pinned to the
    last one and every thread of this (client) process to the first while
    the deployment runs.  Left to the scheduler, the two processes shared
    cores at random, and the run-to-run spread of the wire-cached
    open-loop p90 was 0.4 of its median instead of 0.05.
    """

    def __init__(self, workdir, seed: int, scale, probe: bool):
        self.workdir = workdir
        self.seed = seed
        self.scale = scale
        self.probe = probe
        self.server = None
        self.address = None
        self.ledger_path = None
        self.exit_codes: list = []
        self._cpus = sorted(os.sched_getaffinity(0))

    def start(self, tag: str) -> float:
        """Start a fresh deployment (new ledger file); returns seconds to
        ready: fork, dataset registration, pool warm-up and ledger open."""
        self.stop()
        self.ledger_path = str(self.workdir / f"ledger-{tag}.sqlite")
        factory = partial(build_service, self.ledger_path, self.seed, self.scale, self.probe)
        started = time.monotonic()
        server = MultiprocHTTPServer(factory, workers=1)
        self.address = server.start()
        elapsed = time.monotonic() - started
        self.server = server
        if len(self._cpus) >= 2:
            (worker,) = multiprocessing.active_children()
            _pin(worker.pid, {self._cpus[-1]})
            _pin(os.getpid(), {self._cpus[0]})
        return elapsed

    def speed_probe_ms(self) -> float:
        """``measure.speed_probe_ms`` on the worker's CPU, run from this
        process while the worker is idle between phases."""
        _pin(os.getpid(), {self._cpus[-1]})
        try:
            return speed_probe_ms()
        finally:
            _pin(os.getpid(), {self._cpus[0]})

    def worker_rss_mb(self) -> float:
        (worker,) = multiprocessing.active_children()
        return peak_rss_mb(worker.pid)

    def scrape(self) -> dict[str, float]:
        with BlowfishClient(*self.address, retries=0) as client:
            return parse_prometheus(client.metrics_text())

    def stop(self) -> None:
        if self.server is not None:
            self.exit_codes.extend(self.server.stop())
            self.server = None
            _pin(os.getpid(), set(self._cpus))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def _warm(address, requests: list[dict]) -> list[dict]:
    with BlowfishClient(*address, timeout=loadgen.TIMEOUT_S, retries=0) as client:
        responses = [client.handle(r) for r in requests]
    bad = [r for r in responses if not r.get("ok")]
    if bad:
        raise RuntimeError(f"warm-up request failed: {bad[0]}")
    return responses


def _latencies_from_due(samples) -> list[float]:
    return [(s.received - s.due) * 1e3 if s.ok else float("inf") for s in samples]


# -- correctness gate ----------------------------------------------------------------


def _spaced(items: list, count: int) -> list:
    """At most ``count`` items, evenly spaced."""
    return items[:: max(1, len(items) // count)][:count]


def _gate(workload, seed, scale, workdir, warm, warm_responses, served, ledger_path):
    """Check the wire against the program itself, in process.

    * wire answers are bitwise equal to what an in-process
      ``BlowfishService.handle`` returns for the same request, replayed
      after the same warm-up: every charging request (each session's
      charging request first, as the server ran it) and an evenly spaced
      sample of ``CHECK_SAMPLE`` free ones; wire-fresh, whose requests
      each open an independent session, replays a fixed sample;
    * the server's SQLite ledger equals the reference ledger key for key
      (wire-fresh: on the replayed sessions), every total is within the
      budget, and the epsilon the responses report spent adds up to the
      ledger's total (answer ops: fresh releases x epsilon).

    Returns a list of mismatch descriptions (empty when correct).
    """
    problems = []
    reference = build_service(str(workdir / "reference.sqlite"), seed, scale, probe=False)
    for request, wire in zip(warm, warm_responses):
        if reference.handle(json.loads(json.dumps(request)))["answers"] != wire["answers"]:
            problems.append(f"warm-up answers differ for session {request['session']}")

    if workload == "wire-fresh":
        checked = _spaced(served, scale.fresh_checked)
    else:
        spent = [rs for rs in served if rs[1].response["meta"]["epsilon_spent"] > 0]
        free = [rs for rs in served if rs[1].response["meta"]["epsilon_spent"] == 0]
        first_seen = {}
        for request, _ in served:
            first_seen.setdefault(request["session"], len(first_seen))
        # one session's requests replay back to back, so the reference's
        # session LRU cannot evict a session between its charge and reuse
        checked = sorted(
            spent + _spaced(free, CHECK_SAMPLE),
            key=lambda rs: (
                first_seen[rs[0]["session"]],
                rs[1].response["meta"]["session_total"],
                rs[1].response["meta"]["epsilon_spent"] == 0,
            ),
        )
    replayed = {}
    for request, sample in checked:
        key = id(request)  # coalesced duplicates share one request object
        if key not in replayed:
            replayed[key] = reference.handle(json.loads(json.dumps(request)))
        if replayed[key].get("answers") != sample.response["answers"]:
            problems.append(f"wire answers differ from in-process for {request['session']}")

    served_ledger = SQLiteLedgerStore(ledger_path)
    try:
        wire_book = {k: served_ledger.entries(k) for k in served_ledger.keys()}
    finally:
        served_ledger.close()
    ref_book = {k: reference.ledger_store.entries(k) for k in reference.ledger_store.keys()}
    over = [k for k, e in wire_book.items() if sum(x.epsilon for x in e) > workloads.BUDGET + 1e-9]
    if over:
        problems.append(f"{len(over)} ledger totals exceed the budget")
    if workload == "wire-fresh":
        if any(ref_book[k] != wire_book.get(k) for k in ref_book):
            problems.append("server ledger differs from the reference on replayed sessions")
    elif ref_book != wire_book:
        problems.append("server ledger differs from the reference ledger")

    responses = list(warm_responses)
    seen = set()
    for request, sample in served:
        if id(request) not in seen:  # a coalesced pair executed once
            seen.add(id(request))
            responses.append(sample.response)
    spent = sum(r["meta"]["epsilon_spent"] for r in responses)
    booked = sum(x.epsilon for e in wire_book.values() for x in e)
    if abs(spent - booked) > 1e-9:
        problems.append(f"responses report {spent} epsilon spent, the ledger holds {booked}")
    if workload != "wire-plan":
        for r in responses:
            misses = sum(v == "miss" for v in r["meta"]["release_cache"].values())
            if abs(r["meta"]["epsilon_spent"] - misses * workloads.EPSILON) > 1e-12:
                problems.append("an answer charged other than fresh releases x epsilon")
                break
    return problems


def _served(requests, samples):
    return [(requests[s.index], s) for s in samples if s.ok]


def _answer_mse(seed, scale, served) -> float:
    prefix = workloads.prefix_sums(seed, scale)
    errors = [
        (np.asarray(s.response["answers"], dtype=np.float64) - workloads.true_answers(r, prefix))
        ** 2
        for r, s in served
    ]
    return float(np.concatenate(errors).mean())


# -- untraced run: end-to-end metrics ------------------------------------------------


def run_untraced(workload, seed, seconds, scale, workdir) -> dict:
    profile = workloads.PROFILES[workload]
    factory = workloads.Requests(workload, seed, scale)
    warm = factory.warmup()
    open_seconds = seconds * OPEN_SHARE / profile.trials
    closed_seconds = seconds * (1 - OPEN_SHARE) / profile.trials
    schedule = workloads.open_schedule(workload, profile.rate, open_seconds)
    # room for over twice the closed-loop goodput the rates were set from
    closed_count = int(closed_seconds * profile.rate * 6) + 8
    trial_requests = [
        (factory.stream(f"open{k}", schedule[-1][1] + 1), factory.stream(f"closed{k}", closed_count))
        for k in range(profile.trials)
    ]

    trials, steals, probes = [], [], []
    with Deployment(workdir, seed, scale, probe=False) as deployment:
        setups = [deployment.start(str(k)) for k in range(SETUP_REPEATS)]
        warm_responses = _warm(deployment.address, warm)
        for open_requests, closed_requests in trial_requests:
            probes.append(deployment.speed_probe_ms())
            ticks = cpu_ticks()
            open_samples = loadgen.open_loop(deployment.address, open_requests, schedule)
            closed_samples, closed_elapsed = loadgen.closed_loop(
                deployment.address, closed_requests, closed_seconds
            )
            trials.append((open_samples, closed_samples, closed_elapsed))
            steals.append(steal_share(ticks, cpu_ticks()))
        rss_mb = deployment.worker_rss_mb()
        ledger_path = deployment.ledger_path
    served = []
    for (open_requests, closed_requests), (open_samples, closed_samples, _) in zip(
        trial_requests, trials
    ):
        served += _served(open_requests, open_samples) + _served(closed_requests, closed_samples)
    problems = _gate(workload, seed, scale, workdir, warm, warm_responses, served, ledger_path)
    if any(code != 0 for code in deployment.exit_codes):
        problems.append(f"server exit codes {deployment.exit_codes}")

    samples = [s for open_, closed, _ in trials for s in open_ + closed]
    latencies = [_latencies_from_due(open_) for open_, _, _ in trials]
    goodputs = [
        sum(s.ok and (s.received - s.sent) * 1e3 <= profile.limit_ms for s in closed) / elapsed
        for _, closed, elapsed in trials
    ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "p50_ms": (robust_trial([percentile(t, 50) for t in latencies], "lower"), "ms"),
        "p90_ms": (robust_trial([percentile(t, 90) for t in latencies], "lower"), "ms"),
        "goodput_rps": (robust_trial(goodputs, "higher"), "req/s"),
        "ok_share": (sum(s.ok for s in samples) / len(samples), "ratio"),
        "answer_mse": (_answer_mse(seed, scale, served), "count2"),
        "server_rss_mb": (rss_mb, "MB"),
    }
    raw = {
        "setup_s": setups,
        "open_latency_ms": latencies,
        "open_lag_ms": [[(s.sent - s.due) * 1e3 for s in open_] for open_, _, _ in trials],
        "closed_latency_ms": [[(s.received - s.sent) * 1e3 for s in c] for _, c, _ in trials],
        "closed_ok": [[s.ok for s in closed] for _, closed, _ in trials],
        "closed_elapsed_s": [elapsed for _, _, elapsed in trials],
        "goodput_rps": goodputs,
        "trial_steal_share": steals,
        "trial_speed_probe_ms": probes,
        "open_rate": profile.rate,
        "limit_ms": profile.limit_ms,
    }
    return {
        "problems": problems,
        "attempted": len(samples),
        "failed": len(samples) - sum(s.ok for s in samples),
        "metrics": metrics,
        "raw": raw,
    }


# -- traced run: per-layer metrics ---------------------------------------------------


def _json_replay_ms(bodies, responses) -> tuple[float, float]:
    """Mean ms per request of the server's JSON work, replayed here on the
    recorded bodies: decode of the request, encode of the response."""
    decode, encode = [], []
    for _ in range(3):
        started = time.perf_counter()
        for body in bodies:
            json.loads(body)
        decode.append((time.perf_counter() - started) / len(bodies))
        started = time.perf_counter()
        for response in responses:
            json.dumps(response).encode()
        encode.append((time.perf_counter() - started) / len(responses))
    return statistics.median(decode) * 1e3, statistics.median(encode) * 1e3


def _in_process(seed, scale, workdir, warm, requests, schedule):
    """Replay the traced phase in process through ``AsyncBlowfishService``
    on the same due times, on the one core the worker had.  Returns
    per-request ``(async.handle seconds, service.handle seconds)`` for the
    requests that succeeded."""
    cpus = sorted(os.sched_getaffinity(0))
    _pin(os.getpid(), {cpus[-1]})
    try:
        return _replay(seed, scale, workdir, warm, requests, schedule)
    finally:
        _pin(os.getpid(), set(cpus))


def _replay(seed, scale, workdir, warm, requests, schedule):
    service = build_service(str(workdir / "inprocess.sqlite"), seed, scale, probe=True)
    for request in warm:
        service.handle(json.loads(json.dumps(request)))
    copies = [json.loads(json.dumps(r)) for r in requests]

    async def replay():
        async with AsyncBlowfishService(service) as tier:
            loop = asyncio.get_running_loop()
            start = loop.time() + 0.05

            async def one(offset, index):
                await asyncio.sleep(max(0.0, start + offset - loop.time()))
                request = dict(copies[index])
                started = time.monotonic()
                response = await tier.handle(request)
                return time.monotonic() - started, response

            return await asyncio.gather(*(one(o, i) for o, i in schedule))

    out = []
    for elapsed, response in asyncio.run(replay()):
        if response.get("ok"):
            pb = response["meta"]["perfbench"]
            out.append((elapsed, pb["end"] - pb["start"]))
    return out


def _delta(before, after, name) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def run_traced(workload, seed, seconds, scale, workdir) -> dict:
    profile = workloads.PROFILES[workload]
    factory = workloads.Requests(workload, seed, scale)
    warm = factory.warmup()
    schedule = workloads.open_schedule(workload, profile.rate, seconds / 3)
    plain = factory.stream("plain", schedule[-1][1] + 1)
    traced = [{**r, "trace": True} for r in factory.stream("traced", schedule[-1][1] + 1)]

    with Deployment(workdir, seed, scale, probe=True) as deployment:
        deployment.start("traced")
        warm_responses = _warm(deployment.address, warm)
        plain_samples = loadgen.open_loop(deployment.address, plain, schedule)
        before = deployment.scrape()
        traced_samples = loadgen.open_loop(deployment.address, traced, schedule)
        after = deployment.scrape()
        ledger_path = deployment.ledger_path
    served = _served(plain, plain_samples) + _served(traced, traced_samples)
    problems = _gate(workload, seed, scale, workdir, warm, warm_responses, served, ledger_path)
    if any(code != 0 for code in deployment.exit_codes):
        problems.append(f"server exit codes {deployment.exit_codes}")
    local = _in_process(seed, scale, workdir, warm, traced, schedule)

    # per request, along the round trip: client send -> service.handle
    # start (net + async queue), the handle's span tree split by layer,
    # handle end -> client receive
    ok = [s for s in traced_samples if s.ok]
    n = len(ok)
    sums = defaultdict(float)
    for s in ok:
        meta = s.response["meta"]
        pb, tree = meta["perfbench"], meta["trace"]
        sums["round_trip"] += (s.received - s.sent) * 1e3
        sums["pre"] += (pb["start"] - s.sent) * 1e3
        sums["post"] += (s.received - pb["end"]) * 1e3
        sums["handle"] += (pb["end"] - pb["start"]) * 1e3
        selfs = []
        span_self_times(tree, selfs)
        for name, ms in selfs:
            sums[_layer_of(name) or "unnamed_spans"] += ms
        for kind, span, elapsed in pb["ledger"]:
            sums[_layer_of(span) or "unnamed_spans"] -= elapsed * 1e3
            sums[f"ledger.{kind}_ms"] += elapsed * 1e3
            sums[f"ledger.{kind}s"] += 1
        sums["planner.compile_ms"] += span_totals(tree, "planner.compile")[0]
        sums["mechanism.releases"] += span_totals(tree, "mechanism.release")[1]
        cache = meta.get("release_cache", {})
        sums["release_hits"] += sum(v == "hit" for v in cache.values())
        sums["release_lookups"] += len(cache)
        sums["engine_hits"] += meta.get("engine_cache") == "hit"
        sums["plan_hits"] += meta.get("plan_cache") == "hit"
    named = ("pre", "post", "ledger.charge_ms", "ledger.read_ms") + tuple(
        {layer for _, layer in _LAYERS}
    )
    attributed = sum(sums[k] for k in named)
    mean = defaultdict(float, {k: v / n for k, v in sums.items()})
    local_async = statistics.fmean(a for a, _ in local) * 1e3
    local_service = statistics.fmean(h for _, h in local) * 1e3
    decode_ms, encode_ms = _json_replay_ms(
        [json.dumps(plain[s.index]).encode() for s in plain_samples],
        [s.response for s in plain_samples if s.ok],
    )
    batches = _delta(before, after, "repro_async_batch_size_count")
    received = _delta(before, after, 'repro_async_requests_total{outcome="received"}')
    lags = [(s.sent - s.due) * 1e3 for s in plain_samples + traced_samples]

    metrics = {
        "wire.round_trip_ms": (mean["round_trip"], "ms"),
        "net.overhead_ms": (mean["round_trip"] - local_async, "ms"),
        "net.json_decode_ms": (decode_ms, "ms"),
        "net.json_encode_ms": (encode_ms, "ms"),
        "wire.pre_service_ms": (mean["pre"], "ms"),
        "wire.post_service_ms": (mean["post"], "ms"),
        "async.overhead_ms": (local_async - local_service, "ms"),
        "async.batch_size_mean": (
            _delta(before, after, "repro_async_batch_size_sum") / batches if batches else 0.0,
            "count",
        ),
        "async.coalesced_share": (
            _delta(before, after, 'repro_async_requests_total{outcome="coalesced"}') / received
            if received
            else 0.0,
            "ratio",
        ),
        "service.handle_ms": (mean["handle"], "ms"),
        "service.decode_ms": (mean["service.decode_ms"], "ms"),
        "session.self_ms": (mean["session.self_ms"], "ms"),
        "ledger.charge_ms": (mean["ledger.charge_ms"], "ms"),
        "ledger.charges": (mean["ledger.charges"], "1/req"),
        "ledger.read_ms": (mean["ledger.read_ms"], "ms"),
        "ledger.reads": (mean["ledger.reads"], "1/req"),
        "ledger.retries": (
            _delta(before, after, 'repro_ledger_charge_retries_total{backend="sqlite"}'),
            "count",
        ),
        "pool.engine_hit_share": (mean["engine_hits"], "ratio"),
        "planner.plan_ms": (mean["planner.plan_ms"], "ms"),
        "planner.compile_ms": (mean["planner.compile_ms"], "ms"),
        "plan_cache.hit_share": (mean["plan_hits"], "ratio"),
        "executor.self_ms": (mean["executor.self_ms"], "ms"),
        "mechanism.release_ms": (mean["mechanism.release_ms"], "ms"),
        "mechanism.releases": (mean["mechanism.releases"], "1/req"),
        "release_cache.hit_share": (
            sums["release_hits"] / sums["release_lookups"] if sums["release_lookups"] else 0.0,
            "ratio",
        ),
        "obs.trace_overhead_ms": (
            percentile(_latencies_from_due(traced_samples), 50)
            - percentile(_latencies_from_due(plain_samples), 50),
            "ms",
        ),
        "loadgen.lag_p99_ms": (percentile(lags, 99), "ms"),
        "unattributed_ms": ((sums["round_trip"] - attributed) / n, "ms"),
        "attributed_share": (attributed / sums["round_trip"], "ratio"),
    }
    attempted = len(plain_samples) + len(traced_samples)
    failed = attempted - sum(s.ok for s in plain_samples + traced_samples)
    raw = {
        "plain_latency_ms": _latencies_from_due(plain_samples),
        "traced_latency_ms": _latencies_from_due(traced_samples),
        "lag_ms": lags,
        "in_process_async_ms": [a * 1e3 for a, _ in local],
        "in_process_service_ms": [h * 1e3 for _, h in local],
        "scrape_before": before,
        "scrape_after": after,
    }
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "raw": raw,
    }

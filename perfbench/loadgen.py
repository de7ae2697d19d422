"""Load generation: one process, two threads, two keep-alive connections.

Both loops build nothing inside the timed window and run with this
process's garbage collector off: requests arrive here already built,
and each thread owns one ``BlowfishClient(retries=0)``, so
a reset or a 429 is recorded as a failure instead of being retried (a
retried unseeded answer would be a second charge).  All timestamps are
``time.monotonic()``, the clock the server-side probe stamps with.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.net import BlowfishClient, BlowfishHTTPError

#: Client threads; the box has two cores and the server needs its share.
CONNECTIONS = 2
#: Socket timeout; far above every workload's latency limit.
TIMEOUT_S = 30.0


@dataclass
class Sample:
    index: int  #: position in the phase's request list
    due: float | None  #: open loop: when the request was due
    sent: float
    received: float
    status: int | None
    response: dict | None

    @property
    def ok(self) -> bool:
        return self.status == 200 and bool(self.response and self.response.get("ok"))


def _send(client: BlowfishClient, request: dict, index: int, due) -> Sample:
    sent = time.monotonic()
    try:
        response = client.handle(request)
        status = client.last_status
    except BlowfishHTTPError:
        response, status = None, None
    return Sample(index, due, sent, time.monotonic(), status, response)


@contextmanager
def _no_gc():
    """Keep this process's own garbage collection out of a timed phase: a
    full collection over the requests and samples it holds paused both
    client threads for ~70 ms, which would count as the program's
    latency.  Collection resumes between phases."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _run_threads(address, body) -> None:
    errors = []

    def main():
        try:
            with BlowfishClient(*address, timeout=TIMEOUT_S, retries=0) as client:
                body(client)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=main) for _ in range(CONNECTIONS)]
    with _no_gc():
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def open_loop(address, requests: list[dict], schedule) -> list[Sample]:
    """Send ``requests[index]`` at each ``(due offset, index)`` of ``schedule``.

    The next due item goes to whichever connection is free; when both are
    busy it waits, and that wait counts in its latency (timed from due).
    """
    cursor = iter(schedule)
    lock = threading.Lock()
    samples: list[Sample] = []
    start = time.monotonic() + 0.05

    def body(client):
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            offset, index = item
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sample = _send(client, requests[index], index, due)
            with lock:
                samples.append(sample)

    _run_threads(address, body)
    return samples


def closed_loop(address, requests: list[dict], seconds: float) -> tuple[list[Sample], float]:
    """Each connection sends its next request when the last one returns,
    until ``seconds`` pass or the request list runs out.  Returns the
    samples and the phase's wall time."""
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    samples: list[Sample] = []
    start = time.monotonic()
    deadline = start + seconds

    def body(client):
        while time.monotonic() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sample = _send(client, requests[index], index, None)
            with lock:
                samples.append(sample)

    _run_threads(address, body)
    return samples, time.monotonic() - start

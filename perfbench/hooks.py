"""The benchmark's service factory and its measuring subclasses.

The program is measured from outside: the only hooks are subclasses of
its public classes, installed by the benchmark's own service factory in
traced runs.  ``ServiceProbe.handle`` stamps CLOCK_MONOTONIC at entry and
exit (``time.monotonic`` reads the same clock in every process, so the
client can set the stamps against its own send and receive times), and
``LedgerProbe`` times every public ledger call, noting the span that was
active when the call was made so its time can be taken out of that
span's layer.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.api import BlowfishService, SQLiteLedgerStore

from . import workloads


class LedgerProbe(SQLiteLedgerStore):
    """A shared SQLite ledger that times its charges and reads.

    Calls are recorded per thread between :meth:`begin` and :meth:`end`
    (one request's ``handle``), as ``(kind, active span name, seconds)``.
    """

    def __init__(self, path: str, **kwargs):
        super().__init__(path, **kwargs)
        self._calls = threading.local()

    def begin(self) -> None:
        self._calls.records = []

    def end(self) -> list:
        records, self._calls.records = self._calls.records, None
        return records

    def _record(self, kind: str, started: float) -> None:
        elapsed = time.monotonic() - started
        records = getattr(self._calls, "records", None)
        if records is not None:
            span = obs.tracer().current()
            records.append((kind, span.name if span is not None else "", elapsed))

    def charge(self, key, epsilon, **kwargs):
        started = time.monotonic()
        try:
            return super().charge(key, epsilon, **kwargs)
        finally:
            self._record("charge", started)

    def total(self, key):
        started = time.monotonic()
        try:
            return super().total(key)
        finally:
            self._record("read", started)

    def entries(self, key):
        started = time.monotonic()
        try:
            return super().entries(key)
        finally:
            self._record("read", started)


class ServiceProbe(BlowfishService):
    """``handle`` stamps entry/exit and collects the ledger calls it made
    (its ledger store must be a :class:`LedgerProbe`).

    Only requests that opt into tracing (``"trace": true``) carry the
    stamps back, under ``meta.perfbench``; every other response is
    exactly what the plain service returns.
    """

    def handle(self, request):
        self.ledger_store.begin()
        started = time.monotonic()
        try:
            response = super().handle(request)
        finally:
            finished = time.monotonic()
            records = self.ledger_store.end()
        if isinstance(request, dict) and request.get("trace") is True:
            response.setdefault("meta", {})["perfbench"] = {
                "start": started,
                "end": finished,
                "ledger": records,
            }
        return response


def build_service(ledger_path: str, seed: int, scale, probe: bool) -> BlowfishService:
    """The deployment under test: one service over a shared SQLite ledger,
    the seeded dataset registered, the engine pool warmed."""
    ledger = (LedgerProbe if probe else SQLiteLedgerStore)(ledger_path)
    service = (ServiceProbe if probe else BlowfishService)(ledger_store=ledger)
    service.register_dataset("data", workloads.database(seed, scale))
    service.pool.get(workloads.policy(scale), workloads.EPSILON)
    return service

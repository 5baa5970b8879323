"""Deterministic fault injection for the serving fleet.

The fault suites used to force failures from the *outside* — grab a
shard handle and ``process.kill()`` it at roughly the right moment.
That can exercise the crash path, but not the hang path (there is no
way to wedge a worker from outside without racing it), and the timing
is only as deterministic as the test's polling.

A :class:`FaultPlan` moves the failure *inside* the worker: it ships
to every shard worker as part of the picklable
:class:`~repro.core.config.SearchConfig` (a test/bench knob — it is
excluded from the config's result fingerprint, so planned faults
never perturb stored-artifact keys), and each worker
consults it before serving a request. A fault fires on an exact
``(shard, worker incarnation, Nth request)`` coordinate, so "the
replacement worker after the first respawn hangs on its second
request" is a one-line spec instead of a race.

Supported kinds:

* ``"hang"`` — stop replying forever (optionally ignoring SIGTERM to
  force the watchdog's SIGKILL escalation rung).
* ``"crash"`` — die without a reply (``os._exit``), exercising the
  broken-pipe respawn path.
* ``"slow"`` — sleep ``delay`` seconds, then serve normally.
* ``"corrupt"`` — send a malformed reply instead of a real one.

Used by ``tests/core/test_health.py``, ``tests/core/test_serving_faults.py``
and the stalled-shard leg of ``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

from repro.utils.validation import require

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultSpec", "execute_fault"]

FAULT_KINDS = ("hang", "crash", "slow", "corrupt")

#: A deliberately malformed reply (a list, not the ``(status, payload)``
#: tuple of the worker protocol) — what a "corrupt" fault sends.
CORRUPT_REPLY = ["corrupt-reply", "injected"]


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault at an exact serving coordinate.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        at_request: 0-based index among the search requests served by
            the matching worker incarnation (``search``/``search_fp``
            only; stats and shutdown probes don't advance it).
        shard: Shard index the fault applies to; ``None`` matches any
            shard.
        incarnation: Worker incarnation (the shard's crash respawns at
            spawn time) the fault applies to. Defaults to 0 — the original
            worker — so a respawned replacement does not re-trigger
            the same fault and wedge the shard into its fallback.
            ``None`` matches every incarnation.
        delay: Sleep length for ``"slow"`` faults (real seconds).
        ignore_sigterm: For ``"hang"``: install ``SIG_IGN`` for
            SIGTERM first, so only the frontend's SIGKILL escalation
            rung can clear the worker.
    """

    kind: str
    at_request: int = 0
    shard: int | None = None
    incarnation: int | None = 0
    delay: float = 0.0
    ignore_sigterm: bool = False

    def __post_init__(self) -> None:
        require(
            self.kind in FAULT_KINDS,
            f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}",
        )
        require(
            self.at_request >= 0,
            f"at_request must be >= 0, got {self.at_request}",
        )
        require(self.delay >= 0.0, f"delay must be >= 0, got {self.delay}")

    def matches(self, shard: int, incarnation: int, request_index: int) -> bool:
        if self.shard is not None and self.shard != shard:
            return False
        if self.incarnation is not None and self.incarnation != incarnation:
            return False
        return self.at_request == request_index


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of planned faults, shipped inside ``SearchConfig``.

    Picklable and hashable (it rides a frozen config across a spawn
    boundary). First matching spec wins when two target the same
    coordinate.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        require(
            all(isinstance(spec, FaultSpec) for spec in self.faults),
            "FaultPlan.faults must contain only FaultSpec entries",
        )

    def fault_for(
        self, shard: int, incarnation: int, request_index: int
    ) -> FaultSpec | None:
        for spec in self.faults:
            if spec.matches(shard, incarnation, request_index):
                return spec
        return None


def execute_fault(spec: FaultSpec, conn) -> bool:
    """Run one fault inside a worker. Returns True if the request
    should still be served normally afterwards (only ``"slow"``).

    ``"crash"`` never returns (``os._exit`` — no atexit, no flush:
    indistinguishable from a SIGKILL'd worker on the frontend side).
    ``"hang"`` never returns either: the worker spins in ``sleep``
    until the frontend's watchdog escalates it away. ``"corrupt"``
    sends its malformed reply itself and returns False so the caller
    skips the real one.
    """
    if spec.kind == "slow":
        time.sleep(spec.delay)
        return True
    if spec.kind == "crash":
        os._exit(17)
    if spec.kind == "hang":
        if spec.ignore_sigterm:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
        while True:
            time.sleep(3600.0)
    if spec.kind == "corrupt":
        try:
            conn.send(list(CORRUPT_REPLY))
        except (BrokenPipeError, OSError):
            pass
        return False
    raise AssertionError(f"unhandled fault kind {spec.kind!r}")

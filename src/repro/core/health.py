"""Liveness: stall budgets, heartbeat beacons, hang kill-escalation.

The serving stack's crash policy (bounded cold respawn + resend, then
inline fallback) only ever triggered on a *dead* worker — a broken
pipe. A worker that is alive but wedged (deadlocked pool, livelocked
GA, stuck fsync) used to stall its dispatcher thread forever: the
frontend's request round-trip blocked in ``conn.recv()`` with no
deadline, so one hung shard cost every request queued behind it.

This module is the liveness layer the shard pool under
:class:`~repro.core.frontend.SloServing` runs on:

* :class:`LivenessPolicy` — the knobs: a per-request **stall budget**
  (how long a worker may go silent before it is classified *hung*),
  the watchdog's poll granularity, the worker-side beacon throttle,
  the SIGTERM→SIGKILL escalation grace, and a spawn grace that keeps
  cold worker start (interpreter boot + imports) from tripping the
  budget before the worker has ever spoken.
* :func:`wait_for_reply` — the poll-with-deadline loop that replaces
  the blocking ``recv()``. Heartbeat **beacons** emitted by the worker
  between GA generations and level-2 sub-problem solves extend the
  budget, so legitimately long searches live while true wedges are
  detected within one beacon interval of the budget.
* :func:`stop_process` — the escalation ladder: graceful join →
  SIGTERM → SIGKILL + final join, so a SIGTERM-ignoring worker can
  never leak past a reap.
* :class:`BeaconEmitter` — the worker-side half of the heartbeat
  protocol: a throttled, failure-silent progress callback wired
  through :class:`~repro.core.ga.level1.Level1Search`'s ``progress``
  seam.

Everything here takes an injectable ``clock``, so every hang path is
testable deterministically with no real multi-second waits (see
``tests/core/test_health.py``); the deterministic fault *injection*
that exercises these paths lives in :mod:`repro.core.faults`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.utils.validation import require, require_positive

__all__ = [
    "BEACON",
    "BeaconEmitter",
    "LivenessPolicy",
    "WorkerHung",
    "stop_process",
    "wait_for_reply",
]

#: Message kind of a worker heartbeat: ``(BEACON, phase, count)``.
#: Beacons are consumed by the frontend's watchdog loop and never
#: surface as a request reply.
BEACON = "beacon"


class WorkerHung(RuntimeError):
    """A worker exceeded its stall budget without progress.

    Raised by :func:`wait_for_reply` to the frontend's round-trip,
    which kills the worker (escalating SIGTERM → SIGKILL), counts the
    hang, and routes the in-flight request through the same
    respawn/backoff/inline-fallback policy a crash takes — callers of
    ``submit()`` never see this exception, only a bounded stall.
    """


@dataclass(frozen=True)
class LivenessPolicy:
    """Liveness knobs of a serving frontend (picklable, ships to workers).

    Attributes:
        stall_budget: Seconds a worker may go without a reply *or* a
            beacon before its current request is classified hung and
            the worker is kill-escalated. ``None`` disables the
            watchdog entirely (the pre-liveness blocking behaviour).
        poll_interval: The watchdog's poll granularity (real seconds).
            Bounds how long past the (possibly fake-clock) budget a
            hang can go undetected.
        beacon_interval: Worker-side minimum gap between heartbeat
            beacons (real seconds) — a throttle, not a schedule; the
            worker beacons at GA-generation and sub-problem-solve
            boundaries, at most this often.
        beacons: Whether workers emit beacons at all. Off, a long
            search survives only as long as ``stall_budget``.
        term_grace: Seconds each rung of the stop ladder waits —
            graceful join, then SIGTERM + join — before escalating to
            SIGKILL. Also bounds :meth:`close` on a hung fleet.
        spawn_grace: Budget substitute for a worker incarnation that
            has never sent anything (cold interpreter boot + imports
            emit no beacons). Effective first-reply budget is
            ``max(stall_budget, spawn_grace)``; ``None`` applies the
            plain stall budget from the first request on.
    """

    stall_budget: float | None = 300.0
    poll_interval: float = 0.05
    beacon_interval: float = 0.25
    beacons: bool = True
    term_grace: float = 5.0
    spawn_grace: float | None = 300.0

    def __post_init__(self) -> None:
        if self.stall_budget is not None:
            require_positive(self.stall_budget, "stall_budget")
        require_positive(self.poll_interval, "poll_interval")
        require(
            self.beacon_interval >= 0.0,
            f"beacon_interval must be >= 0, got {self.beacon_interval}",
        )
        require(
            self.term_grace >= 0.0,
            f"term_grace must be >= 0, got {self.term_grace}",
        )
        if self.spawn_grace is not None:
            require_positive(self.spawn_grace, "spawn_grace")

    def first_reply_budget(self) -> float | None:
        """The stall budget applied before a worker has ever spoken.

        Cold start (interpreter boot, imports, registry build) emits
        no beacons, so a fresh incarnation gets the larger of the
        stall budget and the spawn grace for its first message.
        """
        if self.stall_budget is None:
            return None
        if self.spawn_grace is None:
            return self.stall_budget
        return max(self.stall_budget, self.spawn_grace)


def wait_for_reply(
    conn,
    policy: LivenessPolicy,
    clock: Callable[[], float],
    initial_budget: float | None,
    on_beacon: Callable[[tuple], None] | None = None,
):
    """Await one non-beacon message with a poll-with-deadline watchdog.

    The replacement for the frontends' blocking ``conn.recv()``:
    polls in ``policy.poll_interval`` slices, consumes heartbeat
    beacons (each one refreshes the deadline to
    ``clock() + policy.stall_budget`` — progress buys time), and
    returns the first real message. When the deadline passes with no
    message at all, raises :class:`WorkerHung`.

    ``initial_budget`` is the budget until the *first* message of this
    wait (callers pass :meth:`LivenessPolicy.first_reply_budget` for a
    fresh worker incarnation, the plain stall budget otherwise);
    ``None`` waits forever. The deadline lives on ``clock`` — inject a
    fake clock and the watchdog fires without any real waiting beyond
    one poll slice.

    Pipe-level failures (``EOFError``/``OSError``) propagate to the
    caller's crash path untouched: a dead worker is a crash, not a
    hang.
    """
    deadline = clock() + initial_budget if initial_budget is not None else None
    while True:
        if conn.poll(policy.poll_interval):
            message = conn.recv()
            if (
                isinstance(message, tuple)
                and message
                and message[0] == BEACON
            ):
                if on_beacon is not None:
                    on_beacon(message)
                if policy.stall_budget is not None:
                    deadline = clock() + policy.stall_budget
                continue
            return message
        if deadline is not None and clock() >= deadline:
            raise WorkerHung(
                f"worker silent past its stall budget "
                f"({initial_budget if policy.stall_budget is None else policy.stall_budget}s "
                "without a reply or beacon)"
            )


def stop_process(process, term_grace: float, graceful: bool = True) -> bool:
    """Stop a worker process, escalating until it is actually gone.

    The ladder: an optional graceful join window (skip it for a worker
    already classified hung — it will not exit on its own), then
    SIGTERM + join, then SIGKILL + an *unbounded* final join (SIGKILL
    cannot be ignored; the join only collects the corpse, so it cannot
    hang). Returns True when the SIGKILL rung was needed — the caller
    counts that escalation in its stats.
    """
    if process is None:
        return False
    if graceful:
        process.join(timeout=term_grace)
    if process.is_alive():
        process.terminate()
        process.join(timeout=term_grace)
    if process.is_alive():
        process.kill()
        process.join()
        return True
    return False


class BeaconEmitter:
    """Worker-side heartbeat: throttled progress beacons over the pipe.

    Plugged into the ``progress`` seam of
    :class:`~repro.core.ga.level1.Level1Search` (via the session and
    registry layers), so a shard worker beacons between level-1 GA
    generations and after each level-2 sub-problem solve. Throttled to
    at most one beacon per ``interval`` (real seconds) so a fast search
    doesn't flood the pipe, and failure-silent: once the frontend side
    of the pipe is gone (the watchdog killed us mid-send, or the
    frontend closed), beaconing stops instead of poisoning the search
    with pipe errors.

    Observation only — a beacon never consumes search RNG or alters
    any result.
    """

    __slots__ = ("_conn", "_interval", "_now", "_last", "_dead", "sent")

    def __init__(
        self,
        conn,
        interval: float,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        self._conn = conn
        self._interval = interval
        self._now = now
        self._last: float | None = None
        self._dead = False
        #: Beacons actually written to the pipe (post-throttle).
        self.sent = 0

    def __call__(self, phase: str, count: int) -> None:
        if self._dead:
            return
        now = self._now()
        if self._last is not None and now - self._last < self._interval:
            return
        self._last = now
        try:
            self._conn.send((BEACON, phase, count))
            self.sent += 1
        except (BrokenPipeError, OSError):
            self._dead = True

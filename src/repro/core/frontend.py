"""The multi-process serving frontend: shards, admission, deadlines.

:class:`SloServing` spawns a fixed fleet of N shard worker processes,
each hosting one :class:`~repro.core.serving.MultiModelSession` rebuilt
from the same shipped :class:`~repro.core.config.SearchConfig`. Tenants
are placed by content-fingerprint hash modulo N (sticky, so a tenant's
warm caches live on exactly one shard, whose dispatcher alone holds
that tenant's queue) and searches on different shards run truly
concurrently — which the in-process registry, serializing every search
on one core, cannot do. This module holds the client half of the shard
protocol; the worker half, ``_shard_worker``, lives in
:mod:`repro.core.serving` beside the registry it hosts, so a spawned
worker never imports this module (or asyncio).

Over its shards it runs the traffic discipline of the multi-DNN
serving setting — heterogeneous workloads with per-model SLOs
contending for shared accelerators (the multi-DNN survey's framing),
where a frontend must *refuse* work it cannot finish in time and
*order* the work it accepts by urgency:

* **Admission control** — per-tenant queues are bounded
  (``queue_depth``) and the whole frontend carries a global in-flight
  budget (``max_inflight``). A request beyond either bound is shed at
  :meth:`~SloServing.submit` with a typed
  :class:`AdmissionRejected` subclass (:class:`TenantQueueFull` /
  :class:`ServerSaturated`) instead of growing an unbounded backlog.
* **Deadline-aware scheduling** — requests carry an optional relative
  ``deadline`` (seconds). Each shard's dispatcher picks
  **earliest-deadline-first** across its own tenant queues
  (:func:`dispatch_key` is the total order: deadline, then arrival
  sequence; no-deadline requests sort last, FIFO among themselves),
  and a request whose deadline passes before dispatch resolves
  immediately with :class:`DeadlineExceeded` — the search is never
  run. ``TrafficPolicy(scheduling="fifo")`` keeps per-shard arrival
  order instead.
* **Awaitable submission** — :meth:`~SloServing.submit` returns a
  :class:`concurrent.futures.Future`;
  :meth:`~SloServing.search_async` is the asyncio spelling
  (``await``-able, so an async gateway can multiplex thousands of
  requests over one frontend).

Whatever the discipline decides, every *dispatched* search is served
through the shard protocol — including the interned-graph handshake (a
workload's graph is pickled to a shard at most once per worker
incarnation, and never pickled back: a shard replies with the decision
in the store's codec, re-homed here onto the caller's graph and the
request's topology, as is a result of the inline fallback), the
liveness watchdog and the bounded crash-respawn / inline-fallback
policy — and is **bit-identical** to a fresh
:class:`~repro.core.mapper.Mars` run with the same configuration and
seed (property-tested in ``tests/core/test_frontend.py`` and
``tests/core/test_shard_pool.py`` under concurrency and shard kills).

>>> from repro.core.frontend import SloServing
>>> from repro.dnn import build_model
>>> from repro.system import f1_16xlarge
>>> with SloServing(f1_16xlarge(), shards=2) as frontend:
...     future = frontend.submit(
...         build_model("tiny_cnn"), seed=0, deadline=0.5
...     )
...     result = future.result()  # doctest: +SKIP
"""

from __future__ import annotations

import asyncio
import atexit
import math
import multiprocessing
# Imported for its side effect: ``multiprocessing.util`` registers the
# atexit hook that joins non-daemonic children. It must be registered
# BEFORE this module's own atexit hook (atexit is LIFO), or abandoned
# shard workers would be joined before anything asks them to exit.
import multiprocessing.util  # noqa: F401
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable

from repro.core.config import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_QUEUE_DEPTH,
    SearchConfig,
)
from repro.core.health import (
    LivenessPolicy,
    WorkerHung,
    stop_process,
    wait_for_reply,
)
from repro.core.serving import (
    MultiModelSession,
    ServingStats,
    _shard_worker,
    _tenant_key,
)
from repro.core.session import MarsResult, decode_result, encode_result
from repro.dnn.graph import ComputationGraph
from repro.system.topology import SystemTopology
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_positive

__all__ = [
    "AdmissionRejected",
    "DeadlineExceeded",
    "ServerSaturated",
    "SloServing",
    "SloServingStats",
    "TenantQueueFull",
    "TrafficPolicy",
    "dispatch_key",
]


class AdmissionRejected(RuntimeError):
    """Base of the admission-control rejections.

    Raised synchronously by :meth:`SloServing.submit` when accepting
    the request would breach a queue bound — the request is *shed*, no
    future is created, and the caller decides whether to retry,
    degrade, or surface the overload. Catch this base to handle both
    shedding causes uniformly.
    """


class TenantQueueFull(AdmissionRejected):
    """The request's tenant already has ``queue_depth`` requests queued."""


class ServerSaturated(AdmissionRejected):
    """The frontend's global in-flight budget (``max_inflight``) is spent."""


class DeadlineExceeded(TimeoutError):
    """The request's deadline passed before its search was dispatched.

    Delivered through the request's future — never raised by
    :meth:`SloServing.submit` itself (a dead-on-arrival deadline still
    returns a future, already resolved with this exception, so every
    admitted request is handled through exactly one channel).
    """


def dispatch_key(deadline: float | None, seq: int) -> tuple[float, int]:
    """The EDF total order: ``(deadline, arrival seq)``.

    A pure function — given the same (deadline, sequence) pairs, the
    dispatch order is identical on every run, machine and shard count
    (property-tested). No-deadline requests sort after every deadlined
    one (``+inf``) and FIFO among themselves; ties on deadline break by
    arrival order, so the order is always total.
    """
    return (deadline if deadline is not None else math.inf, seq)


@dataclass(frozen=True)
class TrafficPolicy:
    """Admission and scheduling knobs of a :class:`SloServing`.

    Attributes:
        scheduling: ``"edf"`` (earliest-deadline-first across tenant
            queues, the default) or ``"fifo"`` (per-shard arrival
            order). Deadline *expiry* and admission bounds apply in
            both modes; only the dispatch order differs.
        queue_depth: Per-tenant bound on queued (not yet dispatched)
            requests; the next submit for that tenant sheds with
            :class:`TenantQueueFull`.
        max_inflight: Global bound on requests queued + running across
            the frontend; beyond it submits shed with
            :class:`ServerSaturated`. ``None`` disables the budget.
    """

    scheduling: str = "edf"
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    max_inflight: int | None = DEFAULT_MAX_INFLIGHT

    def __post_init__(self) -> None:
        require(
            self.scheduling in ("edf", "fifo"),
            f"scheduling must be 'edf' or 'fifo', got {self.scheduling!r}",
        )
        require_positive(self.queue_depth, "queue_depth")
        if self.max_inflight is not None:
            require_positive(self.max_inflight, "max_inflight")


#: How long an idle dispatcher parks before it looks at its queues
#: again (seconds). Nothing notifies a dispatcher when a queued
#: request's deadline passes, so expiry is noticed within this period.
_PARK_SECONDS = 0.05


class _Request:
    """One queued search: payload, deadline, and its caller-held future."""

    __slots__ = (
        "seq",
        "graph",
        "seed",
        "topology",
        "objective",
        "deadline",
        "future",
    )

    def __init__(
        self,
        seq: int,
        graph: ComputationGraph,
        seed: int,
        topology: SystemTopology | None,
        objective: str | None,
        deadline: float | None,
        future: "Future[MarsResult]",
    ) -> None:
        self.seq = seq
        self.graph = graph
        self.seed = seed
        self.topology = topology
        self.objective = objective
        #: Absolute deadline on the frontend's clock (None = none).
        self.deadline = deadline
        self.future = future


#: Every status a live worker may legally answer with.
_VALID_STATUSES = frozenset({"ok", "error", "stats", "unknown_fp", "bye"})


def _well_formed(response) -> bool:
    """Whether a worker reply honors the ``(status, payload)`` protocol.

    Anything else — wrong container, wrong arity, unknown status — is
    protocol desync: the stream can no longer be trusted to frame
    messages, so the round-trip treats the worker like a crash (kill,
    respawn, resend) instead of guessing.
    """
    return (
        isinstance(response, tuple)
        and len(response) == 2
        and response[0] in _VALID_STATUSES
    )


class _ShardHandle:
    """Frontend-side state of one shard: process, pipe, dispatcher."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "thread",
        "respawns",
        "interned",
        "graph_ships",
        "fp_sends",
        "swallowed",
        "last_backoff",
        "hangs",
        "escalations",
        "corrupt",
        "beacons",
        "unacked",
        "fresh",
        "waiting_since",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.thread: threading.Thread | None = None
        #: Crash-triggered cold respawns (bounded by the frontend's
        #: respawn limit; beyond it the shard serves inline).
        self.respawns = 0
        #: Graph fingerprints the *current* worker process has interned
        #: — emptied whenever the worker is reaped, because a cold
        #: replacement knows none of them.
        self.interned: set[str] = set()
        #: Full-graph payloads shipped to this shard (once per workload
        #: per worker incarnation — the handshake's whole point).
        self.graph_ships = 0
        #: Fingerprint-only requests shipped (the pickles saved).
        self.fp_sends = 0
        #: Exceptions absorbed on this shard's teardown/respawn paths.
        #: Each was previously a silent ``pass`` — deliberately not
        #: propagated (the caller still gets a result through a respawn
        #: or the inline fallback), but a broken environment must be
        #: *visible*, so every swallow counts here and surfaces in
        #: ``stats()``.
        self.swallowed = 0
        #: The most recent crash-respawn backoff delay applied before
        #: replacing this shard's worker (seconds; 0.0 until the first
        #: crash respawn).
        self.last_backoff = 0.0
        #: Workers of this shard classified hung (silent past the stall
        #: budget) and killed by the watchdog.
        self.hangs = 0
        #: Reaps that needed the SIGKILL rung — the worker survived
        #: both the graceful join and SIGTERM.
        self.escalations = 0
        #: Malformed replies received (protocol desync); each one costs
        #: the worker its life and the request a respawn + resend.
        self.corrupt = 0
        #: Heartbeat beacons consumed from this shard's workers.
        self.beacons = 0
        #: Graceful shutdowns the worker never acked with ``"bye"``.
        self.unacked = 0
        #: True until the current worker incarnation sends anything —
        #: its first reply gets the (larger) spawn-grace budget.
        self.fresh = True
        #: Health-clock timestamp since which the dispatcher has been
        #: waiting on this worker (None when not waiting) — the
        #: observability hook tests poll to synchronize with an
        #: in-flight request.
        self.waiting_since = None

    @property
    def alive(self) -> bool:
        return self.process is not None


#: Frontends not yet closed — *strong* references, deliberately: shard
#: workers are non-daemonic (they must be able to parent the tenant
#: sessions' sub-problem pools), and a non-daemonic child that never
#: hears shutdown would make multiprocessing's atexit join hang the
#: interpreter. A :class:`SloServing` therefore stays pinned here until
#: its ``close()`` (a weak reference would let an abandoned frontend be
#: collected silently, leaving its workers running and the exit
#: hanging). The hook below closes whatever is left at exit; it is
#: registered after the ``multiprocessing.util`` import above, and
#: atexit is LIFO, so it runs before multiprocessing joins its children.
_LIVE_FRONTENDS: "set[SloServing]" = set()


def _close_live_frontends() -> None:  # pragma: no cover - interpreter exit
    for frontend in list(_LIVE_FRONTENDS):
        frontend.close()


atexit.register(_close_live_frontends)


@dataclass(frozen=True)
class SloServingStats:
    """Traffic counters of a :class:`SloServing` frontend.

    The lifecycle identity — every submit is accounted for exactly
    once —

    ``submitted == completed + failed + shed + expired + cancelled
    + queued + running``

    holds at every instant (counters move under one lock), and after a
    drain (``close()`` or quiescence) the in-flight terms are zero.
    Liveness events don't add terms: a request whose worker was
    hang-killed stays ``running`` while the watchdog escalates and the
    respawned worker (or inline fallback) re-serves it, then resolves
    into ``completed``/``failed`` like any other — ``hangs``/
    ``kill_escalations`` count *workers*, not requests
    (property-tested in ``tests/core/test_health.py``).
    """

    #: The dispatch discipline in force (``"edf"`` or ``"fifo"``).
    scheduling: str
    #: The number of serving shards (fixed for the frontend's life).
    shards: int
    #: Every ``submit()`` call, including shed and dead-on-arrival ones.
    submitted: int
    #: Requests refused at admission (:class:`AdmissionRejected`).
    shed: int
    #: Requests resolved with :class:`DeadlineExceeded` before dispatch.
    expired: int
    #: Requests resolved with a search result.
    completed: int
    #: Requests resolved with a worker-raised exception.
    failed: int
    #: Requests whose future was cancelled while still queued.
    cancelled: int
    #: Requests currently queued, and currently running on a shard.
    queued: int
    running: int
    #: Crash-triggered worker respawns across shards.
    respawns: int
    #: Full-graph payloads / fingerprint-only requests shipped per
    #: shard (the interned-graph handshake's ledger).
    graph_ships: tuple[int, ...]
    fp_sends: tuple[int, ...]
    #: Shard registries' own counters (None for a shard whose worker
    #: is crash-retired). Empty unless the snapshot was taken with
    #: ``stats(worker_stats=True)``; a crashed shard's counters restart
    #: from zero with its replacement process.
    per_shard: tuple[ServingStats | None, ...] = ()
    #: The inline fallback registry's counters, if it ever engaged.
    fallback: ServingStats | None = None
    #: Exceptions absorbed per shard on teardown/respawn paths
    #: (formerly invisible ``pass`` sites).
    swallowed_errors: tuple[int, ...] = ()
    #: Most recent crash-respawn backoff delay per shard (seconds; 0.0
    #: for a shard that never crash-respawned).
    respawn_backoff: tuple[float, ...] = ()
    #: Workers classified hung (silent past the stall budget) and
    #: killed by the watchdog, per shard. A hang-killed request is
    #: re-served by the respawned worker (or the inline fallback), so
    #: it still resolves into ``completed``/``failed`` — hangs never
    #: add a term to the reconciliation identity.
    hangs: tuple[int, ...] = ()
    #: Worker reaps that needed the SIGKILL escalation rung, per shard.
    kill_escalations: tuple[int, ...] = ()
    #: Malformed worker replies (protocol desync), per shard.
    corrupt_replies: tuple[int, ...] = ()
    #: Heartbeat beacons consumed per shard.
    beacons: tuple[int, ...] = ()
    #: Graceful shutdowns the worker never acked with ``"bye"``,
    #: per shard.
    unacked_shutdowns: tuple[int, ...] = ()

    @property
    def in_flight(self) -> int:
        return self.queued + self.running

    @cached_property
    def merged(self) -> ServingStats:
        """Every reporting registry folded into one ``ServingStats``.

        The shard registries of :attr:`per_shard` plus the inline
        :attr:`fallback`, tenant labels ``@n``-deduplicated across
        them; all zeros when none reported. Computed once per
        (immutable) snapshot.
        """
        parts = (*self.per_shard, self.fallback)
        return reduce(
            ServingStats.merge,
            (part for part in parts if part is not None),
            ServingStats(),
        )

    @property
    def resolved(self) -> int:
        """Requests whose future has been resolved, any way at all."""
        return self.completed + self.failed + self.expired + self.cancelled

    @property
    def shed_rate(self) -> float:
        """Sheds + expiries as a fraction of everything submitted."""
        if not self.submitted:
            return 0.0
        return (self.shed + self.expired) / self.submitted


class SloServing:
    """An async, SLO-aware sharded serving frontend.

    Spawns shard worker processes, each hosting one
    :class:`~repro.core.serving.MultiModelSession` rebuilt from
    ``config``, and runs the traffic layer over them: bounded
    per-tenant queues, a global in-flight budget, deadline-aware (EDF)
    or FIFO dispatch, and pre-dispatch deadline expiry. See the module
    docstring for the discipline.

    Crash policy: a worker that dies, hangs or desyncs mid-request is
    replaced by a cold respawn and the request is re-sent — at most
    :attr:`SHARD_RESPAWN_LIMIT` times per shard, after which that
    shard's traffic is served *inline* by a frontend-local fallback
    registry, built lazily from the same config. Either path returns
    identical results, re-homed onto the caller's graph and the
    request's topology.

    Args:
        topology: Default system for every tenant.
        shards: The number of shard workers, all spawned at
            construction; the fleet is fixed for the frontend's life.
        config: The :class:`~repro.core.config.SearchConfig` every
            shard worker rebuilds its registry from (default:
            ``SearchConfig()``). ``config.capacity`` bounds live
            tenants *per shard*.
        policy: The :class:`TrafficPolicy` (admission bounds and
            scheduling discipline).
        clock: Monotonic time source for deadlines — and for the hang
            watchdog's stall deadlines (injectable for deterministic
            tests). Deadlines passed to :meth:`submit` are *relative
            seconds* on this clock.
        liveness: The :class:`~repro.core.health.LivenessPolicy`
            governing the hang watchdog, heartbeat beacons and the
            SIGTERM→SIGKILL escalation ladder (defaults apply one).

    Lifecycle: :meth:`close` stops admission (further submits raise
    :class:`RuntimeError`), lets every queued request resolve — by
    completing, or by expiring if its deadline passes first — then
    shuts workers down. :meth:`suspend` / :meth:`resume` gate dispatch
    without touching admission (an operator drain/pause knob; also how
    the tests freeze a queue to inspect scheduling order).
    """

    DEFAULT_SHARDS = 2

    #: Crash-triggered cold respawns per shard before its traffic
    #: degrades to the inline fallback registry.
    SHARD_RESPAWN_LIMIT = 2

    #: First crash-respawn backoff delay (seconds); doubles per respawn
    #: of the same shard, capped below.
    RESPAWN_BACKOFF_BASE = 0.05

    #: Upper bound on any single crash-respawn backoff delay (seconds).
    RESPAWN_BACKOFF_CAP = 2.0

    def __init__(
        self,
        topology: SystemTopology,
        shards: int = DEFAULT_SHARDS,
        config: SearchConfig | None = None,
        policy: TrafficPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        liveness: LivenessPolicy | None = None,
    ) -> None:
        require_positive(shards, "shards")
        self.topology = topology
        #: The number of shard workers, fixed for the frontend's life.
        self.shards = shards
        #: The config every shard worker rebuilds its registry from.
        self.config = config if config is not None else SearchConfig()
        self.policy = policy if policy is not None else TrafficPolicy()
        #: The liveness policy of this frontend — stall budget, beacon
        #: protocol and kill-escalation graces (see
        #: :class:`repro.core.health.LivenessPolicy`). Disable the
        #: watchdog with ``LivenessPolicy(stall_budget=None)``.
        self.liveness = liveness if liveness is not None else LivenessPolicy()
        # The deadline clock doubles as the watchdog's health clock:
        # one injected fake clock drives both deadline expiry and hang
        # detection in tests, and in production both are monotonic
        # seconds anyway. The real poll cadence stays poll_interval.
        self._clock = clock
        # Injectable for tests: the crash-respawn backoff's sleep. Only
        # the dispatcher thread of the crashed shard sleeps — other
        # shards keep serving.
        self._sleep = time.sleep
        # Spawn on every platform: crash respawns start a worker from a
        # dispatcher *thread* while other threads run, and a forked
        # child inheriting a lock held at fork time could hang.
        self._ctx = multiprocessing.get_context("spawn")
        self._fallback: MultiModelSession | None = None
        self._fallback_lock = threading.Lock()
        self._handles = [_ShardHandle(index) for index in range(shards)]
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        #: Per shard, its tenants' pending requests by tenant key. An
        #: entry is dropped once its queue empties, so a long-lived
        #: frontend serving many distinct tenants neither grows memory
        #: nor pays a per-dispatch scan over every tenant it ever saw.
        self._queues: list[dict[tuple, deque[_Request]]] = [
            {} for _ in range(shards)
        ]
        self._controls: list[deque] = [deque() for _ in range(shards)]
        self._seq = 0
        self._queued = 0
        self._running = 0
        self._submitted = 0
        self._shed = 0
        self._expired = 0
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._closed = False
        self._dispatch_enabled = threading.Event()
        self._dispatch_enabled.set()
        try:
            for handle in self._handles:
                self._spawn_worker(handle)
            for handle in self._handles:
                handle.thread = threading.Thread(
                    target=self._dispatch_loop,
                    args=(handle,),
                    name=f"slo-shard-{handle.index}-dispatch",
                    daemon=True,
                )
                handle.thread.start()
        except BaseException:
            # A partial spawn must not orphan the non-daemonic workers
            # already started — they would block interpreter exit in
            # multiprocessing's child join.
            with self._work:
                self._closed = True
                self._work.notify_all()
            for handle in self._handles:
                if handle.thread is not None:
                    handle.thread.join()
                elif handle.process is not None:
                    self._shutdown_worker(handle)
            raise
        _LIVE_FRONTENDS.add(self)

    def _require_open(self) -> None:
        """Raise a clean :class:`RuntimeError` once the frontend is
        closed — routing on a closed frontend is a lifecycle bug in the
        caller, not an invalid argument."""
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} is closed; it no longer accepts "
                "requests"
            )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def shard_of(
        self,
        graph: ComputationGraph,
        topology: SystemTopology | None = None,
        objective: str | None = None,
    ) -> int:
        """The shard serving this tenant — sticky by construction.

        A ``"shard-placement"`` hash of the tenant key's content
        fingerprints (and the cost-model token) through
        :func:`~repro.utils.rng.stable_seed`, taken modulo
        :attr:`shards`, so placement is identical across frontends of
        one size, processes and interpreter runs. Results never depend
        on placement; only cache warmth does.
        """
        topology = topology if topology is not None else self.topology
        objective = (
            objective if objective is not None else self.config.objective
        )
        return self._shard_index(
            _tenant_key(graph, topology, objective, self.config.cost_model)
        )

    def _shard_index(self, key: tuple) -> int:
        return stable_seed("shard-placement", *key) % self.shards

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------

    def submit(
        self,
        graph: ComputationGraph,
        seed: int = 0,
        topology: SystemTopology | None = None,
        objective: str | None = None,
        deadline: float | None = None,
    ) -> "Future[MarsResult]":
        """Queue one search, subject to admission control.

        ``deadline`` is relative seconds on the frontend's clock; a
        request still queued when it elapses resolves with
        :class:`DeadlineExceeded` without ever dispatching (a deadline
        already in the past resolves that way immediately, and an
        infinite one never elapses). A NaN deadline raises
        :class:`ValueError` before admission: it would never elapse
        and would break the EDF order. A request
        breaching the tenant queue bound or the global in-flight
        budget raises :class:`TenantQueueFull` /
        :class:`ServerSaturated` here, synchronously — shed work never
        produces a future. Raises :class:`RuntimeError` after
        :meth:`close`.
        """
        require(
            deadline is None or not math.isnan(deadline),
            "deadline must not be NaN",
        )
        resolved_topology = topology if topology is not None else self.topology
        resolved_objective = (
            objective if objective is not None else self.config.objective
        )
        future: "Future[MarsResult]" = Future()
        now = self._clock()
        absolute = now + deadline if deadline is not None else None
        dead_on_arrival = False
        with self._work:
            self._require_open()
            self._submitted += 1
            if absolute is not None and absolute <= now:
                self._expired += 1
                dead_on_arrival = True
            else:
                policy = self.policy
                if (
                    policy.max_inflight is not None
                    and self._queued + self._running >= policy.max_inflight
                ):
                    self._shed += 1
                    raise ServerSaturated(
                        f"in-flight budget spent: {self._queued} queued + "
                        f"{self._running} running >= {policy.max_inflight}"
                    )
                key = _tenant_key(
                    graph,
                    resolved_topology,
                    resolved_objective,
                    self.config.cost_model,
                )
                # A full queue is never empty, so shedding leaves no
                # empty entry behind.
                tenant = self._queues[self._shard_index(key)].setdefault(
                    key, deque()
                )
                if len(tenant) >= policy.queue_depth:
                    self._shed += 1
                    raise TenantQueueFull(
                        f"tenant {graph.name!r} already has "
                        f"{len(tenant)} requests queued "
                        f"(queue_depth={policy.queue_depth})"
                    )
                tenant.append(
                    _Request(
                        seq=self._seq,
                        graph=graph,
                        seed=seed,
                        topology=topology,
                        objective=resolved_objective,
                        deadline=absolute,
                        future=future,
                    )
                )
                self._seq += 1
                self._queued += 1
                self._work.notify_all()
        if dead_on_arrival:
            future.set_exception(
                DeadlineExceeded(
                    f"deadline {deadline!r}s elapsed before submission"
                )
            )
        return future

    def search(
        self,
        graph: ComputationGraph,
        seed: int = 0,
        topology: SystemTopology | None = None,
        objective: str | None = None,
        deadline: float | None = None,
    ) -> MarsResult:
        """Blocking :meth:`submit` — route one search and wait for it."""
        return self.submit(
            graph,
            seed=seed,
            topology=topology,
            objective=objective,
            deadline=deadline,
        ).result()

    async def search_async(
        self,
        graph: ComputationGraph,
        seed: int = 0,
        topology: SystemTopology | None = None,
        objective: str | None = None,
        deadline: float | None = None,
    ) -> MarsResult:
        """Awaitable :meth:`submit` for asyncio gateways.

        Admission rejections raise inside the coroutine like any other
        awaited failure; :class:`DeadlineExceeded` arrives through the
        await. The coroutine holds no thread while waiting — thousands
        can multiplex over one frontend on one event loop.
        """
        return await asyncio.wrap_future(
            self.submit(
                graph,
                seed=seed,
                topology=topology,
                objective=objective,
                deadline=deadline,
            )
        )

    # ------------------------------------------------------------------
    # Operator knobs
    # ------------------------------------------------------------------

    def suspend(self) -> None:
        """Pause dispatch (admission continues; queues deepen).

        The operator drain/pause knob — and how tests freeze the queue
        to build a deterministic backlog. Deadline expiry still applies
        when dispatch resumes; :meth:`close` overrides a suspension so
        shutdown always drains.
        """
        self._dispatch_enabled.clear()

    def resume(self) -> None:
        """Resume dispatch after :meth:`suspend`."""
        self._dispatch_enabled.set()
        with self._work:
            self._work.notify_all()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _pop_request(
        self, index: int, to_expire: list[_Request], now: float
    ) -> _Request | None:
        """Pick shard ``index``'s next request; cull expired ones.

        Expired requests (deadline < now) are removed wherever they sit
        in the shard's tenant queues and collected for resolution
        outside the lock. Each tenant queue then puts up its minimum by
        :meth:`_order` (deadlines are set per request, so under EDF a
        later arrival in the same tenant can be more urgent than the
        head; under FIFO the minimum is the head), and the candidates
        compete by the same order. A queue that empties is dropped.
        """
        queues = self._queues[index]
        best: _Request | None = None
        best_key: tuple | None = None
        for key, requests in list(queues.items()):
            alive = deque()
            for request in requests:
                if request.deadline is not None and request.deadline <= now:
                    to_expire.append(request)
                    self._expired += 1
                    self._queued -= 1
                else:
                    alive.append(request)
            if not alive:
                del queues[key]
                continue
            queues[key] = alive
            head = min(alive, key=self._order)
            if best is None or self._order(head) < self._order(best):
                best, best_key = head, key
        if best is not None:
            requests = queues[best_key]
            requests.remove(best)
            if not requests:
                del queues[best_key]
            self._queued -= 1
            self._running += 1
        if to_expire:
            # Expiry changes the in-flight accounting drain() waits on.
            self._work.notify_all()
        return best

    def _order(self, request: _Request) -> tuple[float, int]:
        """The dispatch order, lowest first: :func:`dispatch_key`
        under EDF; FIFO ignores the deadline, leaving arrival order."""
        edf = self.policy.scheduling == "edf"
        return dispatch_key(request.deadline if edf else None, request.seq)

    def _dispatch_loop(self, handle: _ShardHandle) -> None:
        index = handle.index
        while True:
            to_expire: list[_Request] = []
            request: _Request | None = None
            control: Future | None = None
            finished = False
            with self._work:
                while True:
                    if self._controls[index]:
                        control = self._controls[index].popleft()
                        break
                    if self._dispatch_enabled.is_set() or self._closed:
                        request = self._pop_request(
                            index, to_expire, self._clock()
                        )
                        if request is not None or to_expire:
                            break
                    if self._closed:
                        finished = True
                        break
                    self._work.wait(timeout=_PARK_SECONDS)
            for expired in to_expire:
                # set_running_or_notify_cancel is the race-free gate: a
                # caller may cancel the future at any instant (asyncio
                # task cancellation lands here through wrap_future), and
                # a bare set_exception on a cancelled future would raise
                # InvalidStateError and kill this dispatcher thread.
                # Once the gate returns True the future is RUNNING and
                # can no longer be cancelled, so set_exception is safe.
                if expired.future.set_running_or_notify_cancel():
                    expired.future.set_exception(
                        DeadlineExceeded(
                            "deadline elapsed before dispatch "
                            f"(request #{expired.seq})"
                        )
                    )
                else:
                    with self._work:
                        # _pop_request accounted it as expired; it
                        # actually resolved by cancellation.
                        self._expired -= 1
                        self._cancelled += 1
                        self._work.notify_all()
            if control is not None:
                self._serve_control(handle, control)
                continue
            if finished:
                self._shutdown_worker(handle)
                return
            if request is not None:
                self._serve(handle, request)

    def _serve(self, handle: _ShardHandle, request: _Request) -> None:
        if not request.future.set_running_or_notify_cancel():
            with self._work:
                self._running -= 1
                self._cancelled += 1
                # Cancellation is a resolution like any other: drain()
                # waits on the in-flight counters and must wake here too.
                self._work.notify_all()
            return
        try:
            status, payload = self._roundtrip(
                handle,
                (
                    "search",
                    request.graph,
                    request.seed,
                    request.topology,
                    request.objective,
                ),
            )
        except BaseException as exc:  # frontend-side failure
            status, payload = "error", exc
        with self._work:
            self._running -= 1
            if status == "error":
                self._failed += 1
            else:
                self._completed += 1
            self._work.notify_all()
        if status == "error":
            request.future.set_exception(payload)
        else:
            request.future.set_result(payload)

    def _serve_control(self, handle: _ShardHandle, future: Future) -> None:
        """Answer a stats probe for this shard (None once its worker is
        crash-retired)."""
        if not handle.alive:
            future.set_result(None)
            return
        try:
            status, payload = self._roundtrip(handle, ("stats",))
        except BaseException as exc:
            future.set_exception(exc)
            return
        future.set_result(payload if status == "stats" else None)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self, handle: _ShardHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # NOT daemonic: a daemonic worker could never start children of
        # its own, which is exactly what a tenant session configured
        # with ``workers > 1`` does (its sub-problem process pool).
        # Orphan safety comes from the module atexit hook instead: any
        # frontend still open at interpreter exit is closed (workers
        # ack and exit) before multiprocessing's own child join runs.
        process = self._ctx.Process(
            target=_shard_worker,
            args=(
                child_conn,
                self.topology,
                self.config,
                handle.index,
                # The incarnation coordinate fault plans key on: 0 for
                # the original worker, advancing with every crash
                # respawn, so an injected fault does not re-fire in the
                # respawned worker.
                handle.respawns,
                self.liveness,
            ),
            name=f"repro-shard-{handle.index}",
        )
        try:
            process.start()
        except BaseException:
            # Failed starts happen under fd/PID pressure — the exact
            # moment leaking the pipe's two descriptors hurts most.
            parent_conn.close()
            child_conn.close()
            raise
        child_conn.close()
        handle.interned.clear()  # a cold worker has interned nothing
        handle.fresh = True  # first reply gets the spawn-grace budget
        handle.process = process
        handle.conn = parent_conn

    def _reap_worker(self, handle: _ShardHandle, graceful: bool = True) -> None:
        """Teardown of a dead or dying worker — guaranteed, not
        best-effort: the stop ladder ends in SIGKILL + join, so a
        SIGTERM-ignoring worker cannot leak past this.

        ``graceful=False`` skips the initial join window — for a worker
        already classified hung, which by definition will not exit on
        its own.
        """
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                handle.swallowed += 1
            handle.conn = None
        if handle.process is not None:
            if stop_process(
                handle.process, self.liveness.term_grace, graceful=graceful
            ):
                # Needed the SIGKILL rung: count it both as an
                # escalation and as absorbed teardown trouble.
                handle.escalations += 1
                handle.swallowed += 1
            handle.process = None
        # Whatever the old worker had interned died with it.
        handle.interned.clear()

    def _shutdown_worker(self, handle: _ShardHandle) -> None:
        """Graceful worker shutdown: ask, wait for the ack, reap.

        The ack wait runs through the same stall budget as a request
        (instead of the old fixed, result-ignored 30 s poll), so
        ``close()`` on a hung fleet is bounded. A worker that never
        acks ``"bye"`` is counted in ``unacked_shutdowns`` and reaped
        without the graceful join window — it already proved it is not
        listening.
        """
        if handle.process is None:
            return
        acked = False
        try:
            handle.conn.send(("shutdown",))
            response = self._await_reply(handle)
            acked = _well_formed(response) and response[0] == "bye"
        except WorkerHung:
            handle.hangs += 1
        except (BrokenPipeError, EOFError, OSError):
            # The worker died before (or while) acking — reaping below
            # still collects it; count the failed graceful path.
            handle.swallowed += 1
        if not acked:
            handle.unacked += 1
        self._reap_worker(handle, graceful=acked)

    def _respawn_backoff(self, handle: _ShardHandle) -> float:
        """The delay before this shard's next crash respawn (seconds).

        Bounded exponential — :attr:`RESPAWN_BACKOFF_BASE` doubling per
        respawn of the shard, capped at :attr:`RESPAWN_BACKOFF_CAP` —
        with deterministic jitter in ``[0.5, 1.0)`` of the nominal
        delay, derived from the (shard, attempt) pair through
        :func:`~repro.utils.rng.stable_seed` so shards that crash
        together don't respawn in lockstep, yet tests can predict every
        delay exactly. A deterministically-crashing worker therefore
        costs a geometrically-slowing spawn/die cycle instead of a hot
        loop, and the inline fallback engages after
        :attr:`SHARD_RESPAWN_LIMIT` respawns as before.
        """
        attempt = handle.respawns
        nominal = min(
            self.RESPAWN_BACKOFF_CAP,
            self.RESPAWN_BACKOFF_BASE * (2.0 ** attempt),
        )
        jitter = 0.5 + (
            stable_seed("respawn-jitter", handle.index, attempt) % 4096
        ) / 8192.0
        delay = nominal * jitter
        handle.last_backoff = delay
        return delay

    # ------------------------------------------------------------------
    # Request round-trip (crash policy + interned-graph handshake)
    # ------------------------------------------------------------------

    def _wire_request(self, handle: _ShardHandle, request: tuple) -> tuple:
        """The message actually sent: fingerprint-only when interned.

        The first ``"search"`` for a workload ships the full graph and
        records its fingerprint against the worker incarnation; later
        requests collapse to ``("search_fp", fp, ...)`` — the graph is
        never pickled twice for one worker. Reaping a worker clears its
        interned set, so a cold replacement is re-shipped the graph.
        """
        if request[0] != "search":
            return request
        _, graph, seed, topology, objective = request
        fp = graph.fingerprint()
        if fp in handle.interned:
            handle.fp_sends += 1
            return ("search_fp", fp, seed, topology, objective)
        handle.interned.add(fp)
        handle.graph_ships += 1
        return request

    def _await_reply(self, handle: _ShardHandle) -> tuple:
        """One watchdog-guarded reply from the shard worker.

        Poll-with-deadline on the injectable health clock instead of a
        blocking ``recv()``: heartbeat beacons are consumed here (each
        extends the deadline and counts on the handle), a fresh
        incarnation's first message gets the spawn-grace budget, and a
        worker silent past the budget raises
        :class:`~repro.core.health.WorkerHung` to the crash policy.
        ``waiting_since`` brackets the wait so tests (and operators)
        can observe an in-flight request.
        """
        policy = self.liveness
        budget = (
            policy.first_reply_budget()
            if handle.fresh
            else policy.stall_budget
        )

        def on_beacon(message: tuple) -> None:
            handle.beacons += 1
            handle.fresh = False

        handle.waiting_since = self._clock()
        try:
            response = wait_for_reply(
                handle.conn,
                policy,
                self._clock,
                budget,
                on_beacon,
            )
        finally:
            handle.waiting_since = None
        handle.fresh = False
        return response

    def _crash_respawn(self, handle: _ShardHandle) -> None:
        """Replace a reaped worker, applying backoff and the respawn
        limit. Past the limit (or on a failed spawn) the handle stays
        dead, so the caller's next loop serves inline."""
        if handle.respawns < self.SHARD_RESPAWN_LIMIT:
            delay = self._respawn_backoff(handle)
            if delay > 0:
                self._sleep(delay)
            handle.respawns += 1
            try:
                self._spawn_worker(handle)
            except Exception:
                # Respawn itself failed (resource exhaustion): leave
                # the handle dead so the next loop serves this request
                # inline, like any other dead-shard path — the caller
                # still gets its result.
                handle.swallowed += 1

    def _roundtrip(self, handle: _ShardHandle, request: tuple) -> tuple:
        """Send one request to the shard worker; apply the crash policy.

        Three failure classes, one recovery: a **broken pipe** (the
        worker died mid-request), a **hang** (the watchdog saw neither
        reply nor beacon within the stall budget — the worker is
        kill-escalated first), and a **corrupt reply** (protocol
        desync, or a search result that does not decode against the
        request's own graph and topology — the worker can no longer be
        trusted, so it is killed too). Each reaps the worker and — up
        to :attr:`SHARD_RESPAWN_LIMIT` times — replaces it cold and
        re-sends the request (results are identical, the rebuilt
        registry just starts with cold caches). Beyond the limit the
        shard serves inline through the fallback registry. A worker
        answering ``unknown_fp`` (it raced a respawn) is re-shipped
        the full graph.
        """
        while True:
            if not handle.alive:
                return self._serve_inline(request)
            try:
                handle.conn.send(self._wire_request(handle, request))
                response = self._await_reply(handle)
            except WorkerHung:
                handle.hangs += 1
                self._reap_worker(handle, graceful=False)
                self._crash_respawn(handle)
                continue
            except (BrokenPipeError, EOFError, OSError):
                self._reap_worker(handle)
                self._crash_respawn(handle)
                continue
            reply = self._trusted_reply(request, response)
            if reply is None:
                handle.corrupt += 1
                self._reap_worker(handle, graceful=False)
                self._crash_respawn(handle)
                continue
            if reply[0] == "unknown_fp":
                handle.interned.discard(reply[1])
                continue
            return reply

    def _rehome(
        self,
        payload: dict,
        graph: ComputationGraph,
        topology: SystemTopology | None,
    ) -> MarsResult:
        """Decode a result payload onto the caller's graph object and
        the request's topology — its override, else :attr:`topology`
        (:func:`~repro.core.session.decode_result`; raises when the
        payload does not decode against them)."""
        return decode_result(
            payload,
            graph,
            topology if topology is not None else self.topology,
            self.config.designs,
        )

    def _trusted_reply(self, request: tuple, response) -> tuple | None:
        """The worker's reply as the caller receives it, or ``None``
        when it is malformed or is an ``ok`` search reply that does not
        :meth:`_rehome` onto the request's graph and topology.
        """
        if not _well_formed(response):
            return None
        if response[0] != "ok" or request[0] != "search":
            return response
        _, graph, _, topology, _ = request
        try:
            result = self._rehome(response[1], graph, topology)
        except Exception:
            # Whatever fails to decode marks the reply untrustworthy,
            # as a payload that fails to decode quarantines a store entry.
            return None
        return ("ok", result)

    def _serve_inline(self, request: tuple) -> tuple:
        """Serve a request in-process after a shard exhausted respawns.

        The fallback registry is built lazily from the same config the
        workers got, so results stay bit-identical — this is the
        sharded analogue of a retired worker pool converging to the
        serial path. Its result is re-homed like a shard reply, so it
        references the caller's graph object, not the one the
        registry's tenant session was built with.
        """
        if request[0] == "stats":
            # Shard-level stats are gone with the worker; the fallback
            # registry reports separately under ``fallback``.
            return ("stats", None)
        _, graph, seed, topology, objective = request
        try:
            with self._fallback_lock:
                if self._fallback is None:
                    self._fallback = MultiModelSession(
                        self.topology, self.config
                    )
                result = self._fallback.search(
                    graph, seed=seed, topology=topology, objective=objective
                )
            return ("ok", self._rehome(encode_result(result), graph, topology))
        except Exception as exc:
            return ("error", exc)

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------

    def stats(self, worker_stats: bool = False) -> SloServingStats:
        """Traffic counters; optionally the shard registries' too.

        ``worker_stats=True`` round-trips a stats probe to every live
        shard worker (probes jump the request queues). The default
        reads only frontend-side counters — safe to call at any rate.
        """
        per_shard: tuple[ServingStats | None, ...] = ()
        if worker_stats:
            with self._work:
                self._require_open()
                probes = []
                for index in range(self.shards):
                    probe: Future = Future()
                    self._controls[index].append(probe)
                    probes.append(probe)
                self._work.notify_all()
            per_shard = tuple(probe.result() for probe in probes)
        # Read before taking the dispatch lock: an inline search holds
        # the fallback lock for its whole run.
        with self._fallback_lock:
            fallback = (
                self._fallback.stats() if self._fallback is not None else None
            )
        with self._work:
            return SloServingStats(
                scheduling=self.policy.scheduling,
                shards=self.shards,
                submitted=self._submitted,
                shed=self._shed,
                expired=self._expired,
                completed=self._completed,
                failed=self._failed,
                cancelled=self._cancelled,
                queued=self._queued,
                running=self._running,
                respawns=sum(h.respawns for h in self._handles),
                graph_ships=tuple(h.graph_ships for h in self._handles),
                fp_sends=tuple(h.fp_sends for h in self._handles),
                per_shard=per_shard,
                fallback=fallback,
                swallowed_errors=tuple(
                    h.swallowed for h in self._handles
                ),
                respawn_backoff=tuple(
                    h.last_backoff for h in self._handles
                ),
                hangs=tuple(h.hangs for h in self._handles),
                kill_escalations=tuple(
                    h.escalations for h in self._handles
                ),
                corrupt_replies=tuple(h.corrupt for h in self._handles),
                beacons=tuple(h.beacons for h in self._handles),
                unacked_shutdowns=tuple(
                    h.unacked for h in self._handles
                ),
            )

    def drain(self, timeout: float | None = None) -> bool:
        """Block until nothing is queued or running; True on success.

        Admission stays open — this is a quiescence point, not a
        shutdown. With a ``timeout`` (seconds) it gives up and returns
        False once elapsed.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._work:
            while self._queued or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work.wait(timeout=remaining)
            return True

    def close(self) -> None:
        """Stop admission, resolve every in-flight request, shut down.

        Queued requests still dispatch (or expire, if their deadline
        passes first) — no future is ever left unresolved. Overrides a
        :meth:`suspend` in force, so shutdown always drains.
        Idempotent; submits afterwards raise :class:`RuntimeError`.
        """
        with self._work:
            if self._closed:
                return
            self._closed = True
            self._dispatch_enabled.set()
            self._work.notify_all()
        for handle in self._handles:
            if handle.thread is not None:
                handle.thread.join()
        with self._fallback_lock:
            if self._fallback is not None:
                self._fallback.close()
        _LIVE_FRONTENDS.discard(self)

    def __enter__(self) -> "SloServing":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

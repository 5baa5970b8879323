"""Multi-tenant serving: warm mapping sessions behind one endpoint.

A :class:`~repro.core.session.MarsSession` keeps one workload's search
state warm. A serving deployment (the Herald / MAGMA multi-DNN setting
in PAPERS.md) answers mapping requests for *many* workloads — several
networks behind one endpoint, A/B'd variants of one network, merged
multi-DNN graphs from :func:`repro.dnn.multi.combine_graphs` — and
rebuilding a session per request would throw the warm caches away
exactly when they pay off.

This module closes that gap in two layers:

* :class:`MultiModelSession` — the in-process registry: it routes each
  request to its tenant's warm session, building sessions lazily and
  evicting least-recently-used tenants beyond a configurable
  ``capacity``. Tenants are **content-addressed**: the key is
  ``(graph.fingerprint(), topology.fingerprint(), objective,
  cost_model.token())``, so two structurally identical workloads share
  one warm tenant — and, unlike the object-identity keys this registry
  used previously, the key survives a pickle round-trip across a
  process boundary. Workloads priced by different cost models never
  share a tenant.
* ``_ShardPool`` — the worker protocol under the multi-process
  frontend, :class:`~repro.core.frontend.SloServing`: N shard worker
  processes, each hosting one ``MultiModelSession`` rebuilt from the
  same shipped :class:`~repro.core.config.SearchConfig`, plus the crash
  policy, the interned-graph handshake and the liveness watchdog that
  keep them serving.

Routing never changes results: every tenant search — in-process,
sharded, or re-run after a shard crash — is bit-identical to a fresh
:class:`~repro.core.mapper.Mars` run with the same configuration and
seed (property-tested in ``tests/core/test_serving.py`` and
``tests/core/test_shard_pool.py``).

>>> from repro.core.serving import MultiModelSession
>>> from repro.dnn import build_model
>>> from repro.system import f1_16xlarge
>>> registry = MultiModelSession(f1_16xlarge(), capacity=4)
>>> vgg, squeeze = build_model("vgg16"), build_model("squeezenet")
>>> best = {
...     g.name: registry.search(g, seed=0) for g in (vgg, squeeze)
... }  # doctest: +SKIP
"""

from __future__ import annotations

import atexit
import multiprocessing
# Imported for its side effect: ``multiprocessing.util`` registers the
# atexit hook that joins non-daemonic children. It must be registered
# BEFORE this module's own atexit hook (atexit is LIFO), or abandoned
# shard workers would be joined before anything asks them to exit.
import multiprocessing.util  # noqa: F401
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import reduce

from repro.core.config import SearchConfig
from repro.core.costmodel import CostModelSpec
from repro.core.faults import execute_fault
from repro.core.health import (
    BeaconEmitter,
    LivenessPolicy,
    WorkerHung,
    stop_process,
    wait_for_reply,
)
from repro.core.session import MarsResult, MarsSession, SessionStats
from repro.dnn.graph import ComputationGraph
from repro.system.topology import SystemTopology
from repro.utils.counters import Counters, gauge, merged_by
from repro.utils.rng import stable_seed
from repro.utils.validation import require, require_positive

__all__ = [
    "MultiModelSession",
    "ServingStats",
]


def _tenant_key(
    graph: ComputationGraph,
    topology: SystemTopology,
    objective: str,
    cost_model: CostModelSpec,
) -> tuple:
    """A tenant's content address, shared by registry routing and shard
    placement so the two cannot drift apart. Fingerprints survive
    pickling, and the cost-model token keeps sessions priced by
    different models from ever sharing a tenant."""
    return (
        graph.fingerprint(),
        topology.fingerprint(),
        objective,
        cost_model.token(),
    )


def _add_tenant_label(
    per_tenant: dict[str, SessionStats], base: str, stats: SessionStats
) -> None:
    """Insert ``stats`` under ``base``, ``@n``-suffixing on collision."""
    label, counter = base, 2
    while label in per_tenant:
        label = f"{base}@{counter}"
        counter += 1
    per_tenant[label] = stats


def _merge_tenants(
    mine: dict[str, SessionStats], theirs: dict[str, SessionStats]
) -> dict[str, SessionStats]:
    """Two registries' per-tenant counters side by side.

    A label from the other registry may itself be ``@n``-suffixed: the
    suffix is stripped first, so labels colliding across registries
    renumber from the root instead of stacking into ambiguous
    ``foo@2@2``. (Registry-local labels never strip: there a graph
    genuinely named ``foo@2`` keeps its name.)
    """
    per_tenant = dict(mine)
    for label, stats in theirs.items():
        root, _, suffix = label.rpartition("@")
        base = root if root and suffix.isdigit() else label
        _add_tenant_label(per_tenant, base, stats)
    return per_tenant


@dataclass(frozen=True)
class ServingStats(Counters):
    """Registry-level counters of a :class:`MultiModelSession`; shard
    aggregation folds two registries' with ``merge``."""

    #: Maximum number of live tenant sessions (merged registries sum
    #: it: it bounds the union of their tenants).
    capacity: int = gauge()
    #: Tenant sessions currently alive.
    tenants: int = gauge()
    #: Requests routed to an already-warm tenant session.
    hits: int = 0
    #: Requests that built a tenant session (first sight or rebuilt
    #: after eviction).
    misses: int = 0
    #: Tenant sessions closed under capacity pressure (explicit
    #: ``evict()`` calls are not counted — this gauges whether
    #: ``capacity`` is undersized).
    evictions: int = 0
    #: Searches routed through the registry so far.
    searches: int = 0
    #: Per-tenant warm-state counters, keyed by tenant label (graph
    #: name, ``:objective``-suffixed for non-default objectives and
    #: ``@n``-suffixed when distinct graph contents share a name).
    per_tenant: dict[str, SessionStats] = merged_by(_merge_tenants, dict)
    #: Cumulative counters of every tenant session this registry has
    #: retired — capacity evictions, explicit ``evict()`` calls and
    #: ``close()`` all fold the departing session's ``SessionStats``
    #: here, so hit-rate history survives the sessions themselves.
    retired: SessionStats = field(default_factory=SessionStats)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    @property
    def lifetime(self) -> SessionStats:
        """Live and retired tenant counters folded together — the
        registry's whole history, robust to eviction churn."""
        return reduce(
            SessionStats.merge, self.per_tenant.values(), self.retired
        )


@dataclass
class _Tenant:
    """A live tenant: the representative graph plus its warm session."""

    graph: ComputationGraph
    session: MarsSession


class MultiModelSession:
    """An LRU registry of warm :class:`MarsSession`s, one per tenant.

    The registry fixes everything tenants share — the system topology,
    design catalog, GA budgets, cost-model options and backend knobs
    (one :class:`~repro.core.config.SearchConfig`) — and keys tenants
    on what varies per request: the workload graph, an optional
    per-request topology override, and the objective. :meth:`search` is
    the serving entry point; :meth:`session_for` exposes the underlying
    session when a caller needs the warm evaluator or per-tenant cache
    control.

    Tenant identity is **content-addressed**: graphs and topologies are
    keyed by :meth:`~repro.dnn.graph.ComputationGraph.fingerprint` /
    :meth:`~repro.system.topology.SystemTopology.fingerprint`, not
    object identity. Structurally identical workloads therefore share
    one warm tenant (an unpickled copy of a graph routes to the same
    session as its original — the property the sharded frontend is
    built on), and the session serves them bit-identically because the
    fingerprint covers everything the search reads.

    Capacity and eviction: at most ``capacity`` sessions stay alive;
    building one beyond that closes the least-recently-*used* tenant
    (its worker pool shuts down, its warm caches are dropped). Eviction
    is invisible to results — a re-request rebuilds the tenant cold and
    searches bit-identically — it only trades memory for warm-up
    wall-clock. Departing tenants' counters fold into
    :attr:`ServingStats.retired`, so long-lived deployments keep honest
    hit-rate history across eviction churn.

    Lifecycle: after :meth:`close`, routing and mutation
    (:meth:`search`, :meth:`session_for`, :meth:`evict`) raise, while
    read-only queries (``len``, ``in``, :meth:`stats`) honestly report
    the empty, closed registry.

    Configuration: ``topology`` is every tenant's default system
    (overridable per request), and the search settings are one
    :class:`~repro.core.config.SearchConfig` or the keywords of
    :meth:`SearchConfig.from_kwargs
    <repro.core.config.SearchConfig.from_kwargs>` — not both.
    ``config.objective`` is the default objective (overridable per
    request), ``config.capacity`` bounds the live tenants, and each
    tenant session owns a ``config.budget.level1.workers``-process
    sub-problem pool for its lifetime.
    """

    def __init__(
        self,
        topology: SystemTopology,
        config: SearchConfig | None = None,
        **kwargs,
    ) -> None:
        #: The :class:`~repro.core.config.SearchConfig` every tenant
        #: session of this registry is built from.
        self.config = SearchConfig.of(config, **kwargs)
        self.topology = topology
        self.objective = self.config.objective
        self.capacity = self.config.capacity
        self._tenants: OrderedDict[tuple, _Tenant] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._searches = 0
        self._retired = SessionStats()
        self._closed = False

    @classmethod
    def from_config(
        cls, topology: SystemTopology, config: SearchConfig
    ) -> "MultiModelSession":
        """Alias of ``MultiModelSession(topology, config)``, kept
        because ``perfbench/`` replays through it."""
        return cls(topology, config)

    # ------------------------------------------------------------------
    # Tenant routing
    # ------------------------------------------------------------------

    def session_for(
        self,
        graph: ComputationGraph,
        topology: SystemTopology | None = None,
        objective: str | None = None,
    ) -> MarsSession:
        """The tenant's warm session, built on first sight.

        Refreshes the tenant's LRU recency; may evict another tenant
        when a new session pushes the registry past ``capacity``.
        """
        require(not self._closed, "serving registry is closed")
        topology = topology if topology is not None else self.topology
        objective = objective if objective is not None else self.objective
        key = _tenant_key(graph, topology, objective, self.config.cost_model)
        tenant = self._tenants.get(key)
        if tenant is not None:
            self._hits += 1
            self._tenants.move_to_end(key)
            return tenant.session
        self._misses += 1
        config = self.config
        if objective != config.objective:
            config = replace(config, objective=objective)
        session = MarsSession(graph, topology, config)
        self._tenants[key] = _Tenant(graph=graph, session=session)
        while len(self._tenants) > self.capacity:
            _, evicted = self._tenants.popitem(last=False)
            self._retire(evicted.session)
            self._evictions += 1
        return session

    def _retire(self, session: MarsSession) -> None:
        """Close a departing tenant session, folding its counters into
        the cumulative ``retired`` aggregate first."""
        self._retired = self._retired.merge(session.stats)
        session.close()

    def search(
        self,
        graph: ComputationGraph,
        seed: int = 0,
        topology: SystemTopology | None = None,
        objective: str | None = None,
        progress=None,
    ) -> MarsResult:
        """Route one search to its tenant's warm session.

        Bit-identical to a fresh :class:`~repro.core.mapper.Mars`
        search with the same configuration and seed, whether the tenant
        was warm, cold, or rebuilt after eviction. ``progress`` is the
        pure-observation liveness callback forwarded down to
        :meth:`MarsSession.search` — shard workers pass their heartbeat
        emitter here.
        """
        result = self.session_for(graph, topology, objective).search(
            seed=seed, progress=progress
        )
        self._searches += 1
        return result

    def evict(
        self,
        graph: ComputationGraph,
        topology: SystemTopology | None = None,
        objective: str | None = None,
    ) -> bool:
        """Explicitly close and drop one tenant; True if it was alive.

        Raises on a closed registry, exactly like :meth:`session_for` —
        a closed registry accepts neither routing nor tenant mutation.
        """
        require(not self._closed, "serving registry is closed")
        topology = topology if topology is not None else self.topology
        objective = objective if objective is not None else self.objective
        tenant = self._tenants.pop(
            _tenant_key(graph, topology, objective, self.config.cost_model),
            None,
        )
        if tenant is None:
            return False
        self._retire(tenant.session)
        # Deliberate evictions stay out of ``ServingStats.evictions`` —
        # that counter measures capacity *pressure*, the signal for
        # sizing ``capacity``, and caller-initiated drops are not it.
        return True

    def __contains__(self, graph: ComputationGraph) -> bool:
        """Whether ``graph`` has a live tenant under the default
        topology and objective (always False once closed — a closed
        registry holds no tenants)."""
        if self._closed:
            return False
        key = _tenant_key(
            graph, self.topology, self.objective, self.config.cost_model
        )
        return key in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    # ------------------------------------------------------------------
    # Observability and lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> ServingStats:
        """Registry counters plus per-tenant session counters."""
        per_tenant: dict[str, SessionStats] = {}
        for (_, _, objective, _), tenant in self._tenants.items():
            base = tenant.graph.name
            if objective != self.objective:
                base = f"{base}:{objective}"
            _add_tenant_label(per_tenant, base, tenant.session.stats)
        return ServingStats(
            capacity=self.capacity,
            tenants=len(self._tenants),
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            searches=self._searches,
            per_tenant=per_tenant,
            retired=self._retired,
        )

    def close(self) -> None:
        """Retire every tenant session and refuse further routing."""
        if self._closed:
            return
        self._closed = True
        for tenant in self._tenants.values():
            self._retire(tenant.session)
        self._tenants.clear()

    def __enter__(self) -> "MultiModelSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# Shard workers and the pool that drives them
# ----------------------------------------------------------------------


def _shard_worker(
    conn,
    topology: SystemTopology,
    config: SearchConfig,
    shard_index: int = 0,
    incarnation: int = 0,
    liveness: LivenessPolicy | None = None,
) -> None:
    """One shard process: a content-addressed registry behind a pipe.

    Requests arrive as tuples — ``("search", graph, seed, topology,
    objective)``, ``("search_fp", fingerprint, seed, topology,
    objective)``, ``("stats",)`` or ``("shutdown",)`` — and every
    response is a ``(status, payload)`` pair. The registry is rebuilt
    from the shipped :class:`~repro.core.config.SearchConfig`, so a
    shard is configured bit-identically to the frontend that spawned it
    (and to any replacement spawned after a crash).

    Interned-graph handshake: the first request for a workload ships
    the full graph, which the worker interns under its content
    fingerprint; every later request for the same workload ships the
    fingerprint alone (``"search_fp"``), sparing the per-request graph
    pickle. A fingerprint the worker does not know (the frontend raced
    a respawn, or the graph was LRU-evicted) answers
    ``("unknown_fp", fp)`` so the frontend re-ships the full graph
    instead of failing the request.

    The interned dict is LRU-bounded to the registry's tenant
    ``capacity`` — a worker that outlives many distinct workloads must
    not retain every graph it ever saw when the registry itself keeps
    only ``capacity`` warm sessions. Eviction only costs one re-ship on
    the workload's next request, through the same ``unknown_fp`` path
    a respawn uses.

    Liveness: with a beacon-enabled ``liveness`` policy the worker
    sends throttled ``("beacon", phase, count)`` heartbeats over this
    same pipe while a search runs (between level-1 generations and
    after level-2 sub-problem solves), so the frontend's watchdog can
    tell a long search from a wedge. ``shard_index``/``incarnation``
    identify this process to ``config.faults``: a matching
    :class:`~repro.core.faults.FaultSpec` fires deterministically
    before the Nth search request of this incarnation is served.
    """
    registry = MultiModelSession(topology, config)
    interned: OrderedDict[str, ComputationGraph] = OrderedDict()
    beacon = (
        BeaconEmitter(conn, liveness.beacon_interval)
        if liveness is not None and liveness.beacons
        else None
    )
    plan = config.faults
    served = 0
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "shutdown":
                try:
                    conn.send(("bye", None))
                except (BrokenPipeError, OSError):
                    pass
                break
            if kind == "stats":
                conn.send(("stats", registry.stats()))
                continue
            if kind == "search_fp":
                _, fp, seed, topology_override, objective = message
                graph = interned.get(fp)
                if graph is None:
                    conn.send(("unknown_fp", fp))
                    continue
                interned.move_to_end(fp)
            else:
                _, graph, seed, topology_override, objective = message
                fp = graph.fingerprint()
                interned[fp] = graph
                interned.move_to_end(fp)
                while len(interned) > registry.capacity:
                    interned.popitem(last=False)
            if plan is not None:
                spec = plan.fault_for(shard_index, incarnation, served)
                if spec is not None and not execute_fault(spec, conn):
                    # The fault produced (or suppressed) the reply
                    # itself; the request still counts as served so
                    # later fault coordinates stay stable.
                    served += 1
                    continue
            served += 1
            try:
                result = registry.search(
                    graph,
                    seed=seed,
                    topology=topology_override,
                    objective=objective,
                    progress=beacon,
                )
                conn.send(("ok", result))
            except Exception as exc:  # tenant errors travel to the caller
                conn.send(("error", exc))
    finally:
        registry.close()
        conn.close()


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
        "drained",
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
        #: True while the shard is deliberately drained by autoscaling
        #: (distinguishes a scaled-down worker from a crashed one — a
        #: drained shard respawns on demand instead of degrading to the
        #: inline fallback).
        self.drained = False
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
#: interpreter. A :class:`~repro.core.frontend.SloServing` therefore
#: stays pinned here until its ``close()`` (a weak reference would let
#: an abandoned frontend be collected silently, leaving its workers
#: running and the exit hanging). The hook below closes whatever is
#: left at exit; it is registered after the ``multiprocessing`` import
#: above, and atexit is LIFO, so it runs before multiprocessing joins
#: its children.
_LIVE_FRONTENDS: "set[_ShardPool]" = set()


def _close_live_frontends() -> None:  # pragma: no cover - interpreter exit
    for frontend in list(_LIVE_FRONTENDS):
        frontend.close()


atexit.register(_close_live_frontends)


class _ShardPool:
    """The worker-protocol layer of the multi-process frontend.

    Owns the shard worker handles and everything about talking to
    them: spawning and reaping worker processes, the crash policy
    (bounded cold respawn + resend, then inline fallback), the
    interned-graph handshake that ships each workload's full graph at
    most once per worker incarnation, and the lazily-built inline
    fallback registry. The dispatch discipline on top lives in
    :class:`repro.core.frontend.SloServing`.

    Not a public API — construct a
    :class:`~repro.core.frontend.SloServing`.
    """

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
        shards: int,
        config: SearchConfig,
        mp_context: str = "spawn",
        liveness: LivenessPolicy | None = None,
        clock=time.monotonic,
    ) -> None:
        require_positive(shards, "shards")
        #: The config every shard worker rebuilds its registry from.
        self.config = config
        self.topology = topology
        #: The liveness policy of this frontend — stall budget, beacon
        #: protocol and kill-escalation graces (see
        #: :class:`repro.core.health.LivenessPolicy`). Disable the
        #: watchdog with ``LivenessPolicy(stall_budget=None)``.
        self.liveness = liveness if liveness is not None else LivenessPolicy()
        # The watchdog's deadline clock. Injectable so hang detection
        # is testable without real multi-second waits; the real poll
        # cadence stays poll_interval regardless.
        self._health_clock = clock
        self._ctx = multiprocessing.get_context(mp_context)
        self._closed = False
        self._fallback: MultiModelSession | None = None
        self._fallback_lock = threading.Lock()
        self._handles = [_ShardHandle(index) for index in range(shards)]
        # Injectable for tests: the crash-respawn backoff's sleep. Only
        # the dispatcher thread of the crashed shard sleeps — other
        # shards keep serving.
        self._sleep = time.sleep

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
        handle.drained = False
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

        handle.waiting_since = self._health_clock()
        try:
            response = wait_for_reply(
                handle.conn,
                policy,
                self._health_clock,
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
        desync — the worker can no longer be trusted to frame
        messages, so it is killed too). Each reaps the worker and — up
        to :attr:`SHARD_RESPAWN_LIMIT` times — replaces it cold and
        re-sends the request (results are identical, the rebuilt
        registry just starts with cold caches). Beyond the limit the
        shard serves inline through the fallback registry. A worker
        answering ``unknown_fp`` (it raced a respawn) is re-shipped
        the full graph.
        """
        while True:
            if not handle.alive:
                if handle.drained:
                    # Deliberately scaled down, not crashed: bring the
                    # worker back on demand. A failed spawn falls
                    # through to the crash paths below.
                    try:
                        self._spawn_worker(handle)
                    except Exception:
                        handle.drained = False
                        return self._serve_inline(request)
                else:
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
            if not _well_formed(response):
                handle.corrupt += 1
                self._reap_worker(handle, graceful=False)
                self._crash_respawn(handle)
                continue
            if response[0] == "unknown_fp":
                handle.interned.discard(response[1])
                continue
            return response

    def _serve_inline(self, request: tuple) -> tuple:
        """Serve a request in-process after a shard exhausted respawns.

        The fallback registry is built lazily from the same config the
        workers got, so results stay bit-identical — this is the
        sharded analogue of a retired worker pool converging to the
        serial path.
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
            return ("ok", result)
        except Exception as exc:
            return ("error", exc)

    def _fallback_stats(self) -> ServingStats | None:
        with self._fallback_lock:
            if self._fallback is None:
                return None
            return self._fallback.stats()

    def _close_fallback(self) -> None:
        with self._fallback_lock:
            if self._fallback is not None:
                self._fallback.close()

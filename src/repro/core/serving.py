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
* ``_shard_worker`` — the worker half of the shard protocol: one shard
  process hosting a ``MultiModelSession`` rebuilt from the shipped
  :class:`~repro.core.config.SearchConfig`, answering requests over a
  pipe. The client half — spawning, the crash policy, the
  interned-graph handshake and the liveness watchdog — is
  :class:`~repro.core.frontend.SloServing`. A spawned worker imports
  this module to find its target, so it loads neither the frontend
  nor asyncio.

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

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import reduce

from repro.core.config import SearchConfig
from repro.core.costmodel import CostModelSpec
from repro.core.faults import execute_fault
from repro.core.health import BeaconEmitter, LivenessPolicy
from repro.core.session import MarsResult, MarsSession, SessionStats
from repro.dnn.graph import ComputationGraph
from repro.system.topology import SystemTopology
from repro.utils.counters import Counters, gauge, merged_by
from repro.utils.validation import require

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
# The shard worker (its client half is repro.core.frontend.SloServing)
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

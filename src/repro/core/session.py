"""Warm-search sessions: one evaluator, many searches.

A search learns a lot that does not depend on its seed: the
evaluator's per-layer cost cache, the level-1 sub-problem solutions,
the greedy seeding choices, the partition catalog and the profiled
design table. A server workload — one mapper process serving many
models, seeds and objectives — re-poses near-identical sub-problems
constantly, so :class:`MarsSession` keeps all of that state alive
across searches:

* one :class:`~repro.core.evaluator.MappingEvaluator` (its layer-cost
  cache and greedy-shortlist memo stay warm);
* one cross-search level-1 ``solution_cache`` (LRU-bounded) of each
  sub-problem's winning strategies and their set latency — sound
  because each sub-problem's level-2 GA draws from a content-keyed RNG
  (:func:`repro.utils.rng.stable_seed`), making its solution
  independent of which search, seed or session first posed it;
* the partition catalog and profiled design table, which depend only
  on the topology/workload;
* with ``workers > 1``, one session-lifetime worker pool for the
  level-1 batched sub-problem fan-out, instead of an executor respawn
  per search.

A session is configured by one
:class:`~repro.core.config.SearchConfig` (or that config's keywords).
:class:`~repro.core.mapper.Mars` is the same class minus the
persistent store; one mapper process serving *many* models is
:class:`repro.core.serving.MultiModelSession`, a registry of these
sessions.

Everything cached is seed-independent, so a warm session is
**bit-identical** to a fresh ``Mars`` per search (property-tested in
``tests/core/test_session.py``) — the session only changes wall-clock.

>>> from repro.core.session import MarsSession
>>> from repro.dnn import build_model
>>> from repro.system import f1_16xlarge
>>> session = MarsSession(build_model("tiny_cnn"), f1_16xlarge())
>>> sweep = [session.search(seed=s) for s in range(4)]  # doctest: +SKIP
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.profiler import WorkloadProfile
from repro.core.config import SearchConfig
from repro.core.evaluator import (
    INFEASIBLE_SECONDS,
    LayerCacheStats,
    MappingEvaluation,
    MappingEvaluator,
)
from repro.core.formulation import Mapping
from repro.core.ga.backends import ProcessPoolBackend
from repro.core.ga.engine import GAResult
from repro.core.ga.heuristics import Partition
from repro.core.ga.level1 import Level1Search
from repro.core.store import MappingStore
from repro.dnn.graph import ComputationGraph
from repro.simulator.program import ExecutionProgram
from repro.system.topology import SystemTopology
from repro.utils.cache import LruCache
from repro.utils.counters import Counters, gauge
from repro.utils.rng import make_rng
from repro.utils.serialization import mapping_from_dict, mapping_to_dict
from repro.utils.validation import require


@dataclass
class MarsResult:
    """Outcome of a MARS search."""

    mapping: Mapping
    evaluation: MappingEvaluation
    ga: GAResult

    @property
    def latency_ms(self) -> float:
        return self.evaluation.latency_ms

    @property
    def feasible(self) -> bool:
        return self.evaluation.feasible

    def describe(self) -> str:
        return self.mapping.describe()

    @property
    def convergence(self) -> list[float]:
        """Best latency (seconds) per level-1 generation."""
        return self.ga.history

    @property
    def layer_cache(self) -> LayerCacheStats | None:
        """Layer-cost cache counters of the search (``None`` when off)."""
        return self.ga.layer_cache

    @property
    def worker_layer_cache(self) -> LayerCacheStats | None:
        """Pool workers' private layer-cache counters for the search,
        shipped back with fanned-out sub-problem results (``None`` when
        nothing fanned out)."""
        return self.ga.worker_layer_cache


# ----------------------------------------------------------------------
# The result codec (the store's payload and the shard worker's reply)
# ----------------------------------------------------------------------


def encode_result(result: MarsResult) -> dict:
    """A finished search as a decision: what the store writes and what
    a shard worker sends back.

    The mapping travels as its :func:`mapping_to_dict` form — the
    fingerprint-carrying schema the serialization layer already
    verifies — so neither the graph nor the topology rides along: the
    receiver re-homes the decision onto objects it already holds
    (:func:`decode_result`). The evaluation and GA trace are opaque
    picklable payloads; the store's digest covers all three.
    """
    return {
        "mapping": mapping_to_dict(result.mapping),
        "evaluation": result.evaluation,
        "ga": result.ga,
    }


def decode_result(
    payload: dict,
    graph: ComputationGraph,
    topology: SystemTopology,
    designs: Sequence[AcceleratorDesign],
) -> MarsResult:
    """Rebuild an :func:`encode_result` payload against the receiver's
    own graph, topology and design catalog.

    :func:`mapping_from_dict` re-checks the embedded workload and
    system names and fingerprints against ``graph``/``topology``, so a
    decision searched for another workload or system never loads. Any
    mismatch, missing key or wrong type raises: the store quarantines
    the entry and misses, the serving frontend treats the reply as
    corrupt and replaces the worker.
    """
    mapping = mapping_from_dict(payload["mapping"], graph, topology, designs)
    evaluation = payload["evaluation"]
    ga = payload["ga"]
    require(
        isinstance(evaluation, MappingEvaluation),
        f"encoded evaluation has type {type(evaluation).__name__}",
    )
    require(
        isinstance(ga, GAResult),
        f"encoded GA trace has type {type(ga).__name__}",
    )
    return MarsResult(mapping=mapping, evaluation=evaluation, ga=ga)


@dataclass(frozen=True)
class SessionStats(Counters):
    """Warm-state counters of a :class:`MarsSession`."""

    #: Searches run through the session so far.
    searches: int = 0
    #: Level-1 sub-problem solutions held in the cross-search cache.
    subproblem_solutions: int = gauge()
    #: Sub-problem cache lookups served warm (session-cumulative; the
    #: same with and without a pool).
    subproblem_hits: int = 0
    #: Sub-problem cache lookups that had to solve a level-2 GA (or take
    #: the solution a pool worker solved for this generation).
    subproblem_misses: int = 0
    #: Sub-problem solutions dropped by the cache's LRU bound.
    subproblem_evictions: int = 0
    #: Greedy shortlist choices memoized on the evaluator.
    greedy_entries: int = gauge()
    #: The shared evaluator's layer-cost cache counters (session-cumulative).
    layer_cache: LayerCacheStats = field(default_factory=LayerCacheStats)
    #: Worker-pool executors spawned over the session's lifetime (0
    #: when ``workers`` <= 1; 1 for an unbroken pooled lifetime).
    pool_spawns: int = 0
    #: Pooled batches the pool broke mid-flight (each re-ran serially;
    #: unpicklable-work fallbacks are not counted).
    pool_failures: int = 0
    #: Retired pool *backends* the session replaced (bounded by
    #: :attr:`MarsSession.POOL_RESPAWN_LIMIT`).
    pool_respawns: int = 0
    #: Searches answered from the persistent artifact store — verified
    #: on-disk results, no GA run (0 without a configured store).
    store_hits: int = 0
    #: Store lookups that fell through to a fresh search (absent,
    #: corrupt, or degraded entries).
    store_misses: int = 0
    #: Fresh results published durably to the store.
    store_publishes: int = 0
    #: Store I/O failures downgraded to misses or dropped publishes
    #: (bounded retries spent, or a writer-lock timeout).
    store_errors: int = 0
    #: Corrupt store entries quarantined on read.
    store_quarantined: int = 0
    #: Finished searches whose result was infeasible (memory spill, or
    #: priced at the INFEASIBLE_SECONDS sentinel) and therefore *not*
    #: published to the persistent store — a poisoned artifact would
    #: otherwise warm-start every later deployment with a broken
    #: mapping.
    store_skipped_infeasible: int = 0
    #: Pool workers' private layer-cache counters, shipped back with
    #: fanned-out level-1 sub-problem results and merged here
    #: (session-cumulative; ``entries`` is the largest single-worker
    #: cache population observed, since worker gauges are not
    #: additive). Complements :attr:`layer_cache`, which only sees the
    #: shared in-process evaluator.
    worker_layer_cache: LayerCacheStats = field(
        default_factory=LayerCacheStats
    )
    #: Distinct level-1 sub-problems solved on pool workers via the
    #: batched fan-out (session-cumulative; 0 when serial).
    subproblems_fanned_out: int = 0


class MarsSession:
    """A long-lived MARS mapping service for one workload on one system.

    A session keeps every seed-independent piece of search state warm
    across its ``search`` calls; :class:`~repro.core.mapper.Mars` is a
    session too. Construct one directly when you want explicit control
    over cache lifetime, shared-state observability (:attr:`stats`),
    the persistent store, or the shared :attr:`evaluator` (e.g. to
    price baselines against the same warm caches).

    Configuration: pass a :class:`~repro.core.config.SearchConfig`, or
    the keywords of :meth:`SearchConfig.from_kwargs
    <repro.core.config.SearchConfig.from_kwargs>` — not both. The
    session reads its settings from :attr:`config` and nowhere else;
    ``config.budget.level1.workers`` sizes the sub-problem pool (a
    budget with level-2 ``workers`` other than 1 is refused).

    Cache lifetime and invalidation: all warm state keys on the
    session's fixed ``(graph, topology, config)`` — none of it depends
    on the search seed, so nothing ever needs invalidating while the
    configuration stands. Every public attribute is fixed at
    construction (reassigning one raises ``AttributeError``): use a new
    session, or :meth:`clear`, for a different workload, system or
    configuration. Mutating those objects in place mid-session is not
    supported.

    Resource lifetime: with ``workers > 1`` the session owns **one**
    process pool for its whole lifetime, the only pool a search uses:
    each level-1 generation solves its distinct sub-problems on it, and
    every search reuses it instead of respawning an executor per
    search. Call :meth:`close` (or use the session as a context
    manager) when done; a session with no pool closes to a no-op, and
    :meth:`search` raises after it. If the pool retires itself after
    repeated failures (see
    :class:`~repro.core.ga.backends.ProcessPoolBackend`), the session
    replaces it up to :attr:`POOL_RESPAWN_LIMIT` times before settling
    on serial solves — results are identical either way. Eviction from
    the ``config.subproblem_capacity``-bounded sub-problem cache never
    changes results either: an evicted sub-problem re-solves
    identically from its content-keyed RNG.
    """

    #: Times a session will replace a retired pool backend before
    #: giving up on parallelism for its remaining lifetime.
    POOL_RESPAWN_LIMIT = 2

    def __init__(
        self,
        graph: ComputationGraph,
        topology: SystemTopology,
        config: SearchConfig | None = None,
        **kwargs,
    ) -> None:
        config = SearchConfig.of(config, **kwargs)
        require(
            config.budget.level2.workers == 1,
            "level-2 GAs evaluate serially; budget.level2.workers must be "
            f"1, got {config.budget.level2.workers} (workers=N sizes "
            "the level-1 sub-problem pool)",
        )
        #: The :class:`~repro.core.config.SearchConfig` this session was
        #: built from — the one place its settings are read.
        self.config = config
        self.graph = graph
        self.topology = topology
        #: The one evaluator every search, baseline pricing and program
        #: emission of this session shares, priced by the cost model
        #: the config declares (rebuilt here from its picklable spec —
        #: the same path a shard worker takes on the far side of a
        #: config shipment).
        self.evaluator = MappingEvaluator(
            graph, topology, config.options, cost_model=config.cost_model
        )
        #: Cross-search level-1 sub-problem solutions (LRU-bounded).
        self.solution_cache = LruCache(config.subproblem_capacity)
        self._partitions: list[Partition] | None = None
        self._design_profile: WorkloadProfile | None = None
        # What no live cache, pool or store remembers: searches run,
        # infeasible results skipped, workers' reports and the counters
        # of replaced pools. ``stats`` adds the live views to it.
        self._history = SessionStats()
        self._closed = False
        workers = config.budget.level1.workers
        self._pool: ProcessPoolBackend | None = (
            ProcessPoolBackend(workers) if workers > 1 else None
        )
        #: The persistent artifact store (None without a config spec).
        #: Opened per session; sessions in any process configured with
        #: the same spec share the on-disk state — which is how a
        #: crash-respawned shard worker or a fresh frontend warm-starts.
        self._store: MappingStore | None = (
            MappingStore.from_spec(config.store)
            if config.store is not None
            else None
        )
        # The store key's fixed components; the seed varies per search.
        self._store_key: tuple[str, str, str] | None = (
            (
                graph.fingerprint(),
                topology.fingerprint(),
                config.result_fingerprint(),
            )
            if self._store is not None
            else None
        )
        self._sealed = True

    def __setattr__(self, name: str, value: object) -> None:
        # The warm caches key on everything public, so reassigning it
        # (a new graph, a new config) would silently search with stale
        # state; private bookkeeping stays writable.
        if not name.startswith("_") and self.__dict__.get("_sealed"):
            raise AttributeError(
                f"{type(self).__name__}.{name} is fixed at construction; "
                "build a new session instead"
            )
        super().__setattr__(name, value)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def pool(self) -> ProcessPoolBackend | None:
        """The session-owned sub-problem pool (None when serial)."""
        return self._pool

    def _search_pool(self) -> ProcessPoolBackend | None:
        """The pool to hand the next search, replacing a retired one.

        A pool backend retires itself after ``failure_limit``
        consecutive broken batches; rather than running serial forever,
        the session replaces it with a fresh backend — at most
        :attr:`POOL_RESPAWN_LIMIT` times, so a persistently broken
        environment converges to the serial path instead of thrashing.
        A healthy (or budget-exhausted) pool is returned unchanged; a
        replaced pool's counters are folded into the retired totals
        first.
        """
        pool = self._pool
        if (
            pool is None
            or not pool.retired
            or self._history.pool_respawns >= self.POOL_RESPAWN_LIMIT
        ):
            return pool
        self._count(
            pool_spawns=pool.pool_spawns,
            pool_failures=pool.pool_failures,
            pool_respawns=1,
        )
        pool.close()
        self._pool = ProcessPoolBackend(
            pool.workers, failure_limit=pool.failure_limit
        )
        return self._pool

    def search(self, seed: int = 0, progress=None) -> MarsResult:
        """Run the two-level GA, reusing every warm cache of the session.

        Bit-identical to a fresh :class:`~repro.core.mapper.Mars` search
        with the same configuration and seed — warm state only cuts
        wall-clock. With a configured store, the persistent tier is
        consulted first (a verified artifact skips the GA entirely —
        still bit-identical, because only finished results of the same
        ``(workload, system, config, seed)`` key are ever loaded, and
        every load is digest- and fingerprint-checked) and the fresh
        result is published after. A broken store never raises here:
        failures downgrade to a normal fresh search (see
        :mod:`repro.core.store`).

        ``progress`` is an optional pure-observation ``(phase, count)``
        callback forwarded to :class:`Level1Search` — shard workers
        plug liveness heartbeats into it. It must not consume search
        RNG, and it never fires on a store hit (nothing runs).
        """
        require(not self._closed, "session is closed")
        if self._store is not None:
            graph_fp, topology_fp, config_fp = self._store_key
            stored = self._store.get(
                graph_fp=graph_fp,
                topology_fp=topology_fp,
                config_fp=config_fp,
                seed=seed,
                decode=lambda payload: decode_result(
                    payload, self.graph, self.topology, self.config.designs
                ),
            )
            if stored is not None:
                self._count(searches=1)
                return stored
        search = Level1Search(
            graph=self.graph,
            topology=self.topology,
            designs=(
                list(self.config.designs)
                if self.topology.kind == "adaptive"
                else []
            ),
            evaluator=self.evaluator,
            budget=self.config.budget,
            rng=make_rng(seed),
            objective=self.config.objective,
            solution_cache=self.solution_cache,
            level1_backend=self._search_pool(),
            partitions=self._partitions,
            design_profile=self._design_profile,
            progress=progress,
        )
        mapping, evaluation, ga_result = search.run()
        self._partitions = search.partitions
        self._design_profile = search.design_profile
        self._count(
            searches=1,
            worker_layer_cache=search.worker_layer_cache,
            subproblems_fanned_out=search.subproblems_fanned_out,
        )
        result = MarsResult(
            mapping=mapping, evaluation=evaluation, ga=ga_result
        )
        if self._store is not None:
            if self._publishable(result):
                graph_fp, topology_fp, config_fp = self._store_key
                self._store.put(
                    encode_result(result),
                    graph_fp=graph_fp,
                    topology_fp=topology_fp,
                    config_fp=config_fp,
                    seed=seed,
                )
            else:
                self._count(store_skipped_infeasible=1)
        return result

    def _count(self, **counts: object) -> None:
        """Fold one event's counts into the session's history. Pool
        workers keep their caches across searches, so each report
        restates a live cache: its gauge folds by ``max``, not sum."""
        self._history = self._history.merge(SessionStats(**counts), gauge=max)

    @staticmethod
    def _publishable(result: MarsResult) -> bool:
        """Whether a finished search may enter the persistent store.

        Infeasible results — a mapping that spilled past DRAM
        (``memory_spill`` marks the evaluation invalid) or one priced
        at the :data:`~repro.core.evaluator.INFEASIBLE_SECONDS`
        sentinel because no sharding plan existed — are the best the
        GA could do on a broken landscape, not artifacts worth
        persisting: a stored sentinel would warm-start every future
        deployment of this key with a known-broken mapping. They are
        still *returned* (callers see the honest outcome, exactly as
        before); they are just never published.
        """
        evaluation = result.evaluation
        return evaluation.feasible and (
            evaluation.latency_seconds < INFEASIBLE_SECONDS
        )

    def compile_program(self, result: MarsResult) -> ExecutionProgram:
        """Replayable execution program of a search result.

        Emitted through the session's shared evaluator rather than a
        fresh one: the program is priced through the same memos as the
        search (see :attr:`EvaluatorOptions.layer_cache`) and its steps
        appended from what they priced, so a warm session emits the
        same program as a cold one without re-pricing, and no duplicate
        evaluator state is built.
        """
        return self.evaluator.compile_program(result.mapping)

    @property
    def stats(self) -> SessionStats:
        """Current warm-state counters of the session: its history plus
        the live cache, pool and store views."""
        cache, pool = self.solution_cache, self._pool
        stats = self._history.merge(
            SessionStats(
                subproblem_solutions=len(cache),
                subproblem_hits=cache.hits,
                subproblem_misses=cache.misses,
                subproblem_evictions=cache.evictions,
                greedy_entries=self.evaluator.greedy_cache_entries,
                layer_cache=self.evaluator.layer_cache_stats,
                pool_spawns=pool.pool_spawns if pool is not None else 0,
                pool_failures=pool.pool_failures if pool is not None else 0,
            )
        )
        if self._store is None:
            return stats
        store = self._store.stats()
        return stats.merge(
            SessionStats(
                store_hits=store.hits,
                store_misses=store.misses,
                store_publishes=store.publishes,
                store_errors=store.io_errors + store.lock_timeouts,
                store_quarantined=store.corruptions,
            )
        )

    @property
    def store(self) -> MappingStore | None:
        """The session's persistent artifact store (None when not
        configured) — exposed for direct inspection of quarantine
        records and degradation state."""
        return self._store

    def clear(self) -> None:
        """Drop all warm state (results stay identical; re-search pays
        cold wall-clock again). Counters on the evaluator's layer cache
        survive, being cumulative by design."""
        self.solution_cache.clear()
        self.evaluator.clear_layer_cache()
        self.evaluator.clear_greedy_cache()
        self._partitions = None
        self._design_profile = None

    def close(self) -> None:
        """Shut down the session's worker pool and mark it closed.

        Idempotent. Warm caches survive (they hold no OS resources) but
        :meth:`search` refuses to run on a closed session — a serving
        registry must never route requests to a tenant it evicted.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "MarsSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

"""Population-evaluation backends for the GA engine.

The two-level GA spends nearly all of its wall-clock inside fitness
evaluation: every generation prices a full population through the
:class:`~repro.core.evaluator.MappingEvaluator`. The engine therefore
evaluates *populations*, not individuals, and delegates the batch to an
:class:`EvaluationBackend`:

* :class:`SerialBackend` — evaluate genomes one by one in-process (the
  engine's historical behaviour, and the default);
* :class:`CachedBackend` — memoize fitness by genome (or, with a
  ``key_fn``, by decoded *phenotype*) so elites and converged duplicates
  are never re-priced; exposes hit/miss counters;
* :class:`ProcessPoolBackend` — a serial backend that also solves
  independent level-1 sub-problems on a process pool
  (:meth:`~ProcessPoolBackend.map_subproblems`), with deterministic
  result ordering and a serial fallback when the work cannot be pickled
  or the pool breaks. A :class:`~repro.core.session.MarsSession` owns
  the one instance a search uses.

All backends return results in input order and never touch the GA's
RNG, so for a fixed seed every backend produces bit-identical
``GAResult``s — they only change how fast the answer arrives.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.utils.cache import LruCache
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.ga.engine import GAConfig

#: A scalar fitness function over genomes in [0, 1]^n.
Fitness = Callable[[np.ndarray], float]

#: Maps a genome to a hashable memoization key.
KeyFn = Callable[[np.ndarray], Hashable]

#: Sentinel distinguishing "absent" from a cached falsy value.
_MISSING = object()


def genome_key(genome: np.ndarray) -> bytes:
    """Default memoization key: the genome's raw bytes."""
    return np.ascontiguousarray(genome).tobytes()


@dataclass(frozen=True)
class BackendStats:
    """Cumulative counters of one backend instance.

    ``evaluations`` counts *actual* fitness-function invocations, i.e.
    unique evaluations under caching; ``cache_hits``/``cache_misses``
    stay zero for uncached backends. ``cache_evictions`` counts entries
    dropped by a bounded memoizer (zero when unbounded).
    ``pool_spawns``/``pool_failures`` count worker-pool executors
    created and pooled batches the pool *broke* mid-flight (each re-ran
    serially); work that merely cannot be pickled also runs serially
    but is not a pool failure and is not counted. Both stay zero for
    in-process backends.
    """

    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    pool_spawns: int = 0
    pool_failures: int = 0

    def since(self, earlier: "BackendStats") -> "BackendStats":
        """Counter deltas relative to an earlier snapshot."""
        return BackendStats(
            evaluations=self.evaluations - earlier.evaluations,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            cache_evictions=self.cache_evictions - earlier.cache_evictions,
            pool_spawns=self.pool_spawns - earlier.pool_spawns,
            pool_failures=self.pool_failures - earlier.pool_failures,
        )


class EvaluationBackend(ABC):
    """Evaluates whole GA populations."""

    @abstractmethod
    def evaluate(
        self, fitness: Fitness, genomes: Sequence[np.ndarray]
    ) -> list[float]:
        """Fitness of every genome, in input order."""

    def prepare(
        self, fitness: Fitness, genomes: Sequence[np.ndarray]
    ) -> None:
        """Show ``fitness`` the whole batch before ``evaluate``.

        Fitness objects may expose ``prepare_population(genomes)`` to
        hoist per-genome work into one vectorized pass over the batch
        (e.g. the level-2 NumPy genome decode). The hook is purely a
        wall-clock lever: it pre-fills memos that the per-genome calls
        would fill anyway, so results never depend on it running.
        """
        hook = getattr(fitness, "prepare_population", None)
        if hook is not None:
            hook(genomes)

    @property
    @abstractmethod
    def stats(self) -> BackendStats:
        """Cumulative counters for this backend instance."""

    def close(self) -> None:
        """Release any resources (worker processes)."""

    def __enter__(self) -> "EvaluationBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialBackend(EvaluationBackend):
    """One-by-one in-process evaluation — the engine's classic loop."""

    def __init__(self) -> None:
        self._evaluations = 0

    def evaluate(
        self, fitness: Fitness, genomes: Sequence[np.ndarray]
    ) -> list[float]:
        self._evaluations += len(genomes)
        return [float(fitness(g)) for g in genomes]

    @property
    def stats(self) -> BackendStats:
        return BackendStats(evaluations=self._evaluations)


class CachedBackend(EvaluationBackend):
    """Memoizing wrapper around another backend.

    Keys default to the raw genome bytes; pass ``key_fn`` to memoize at
    the *phenotype* level instead (e.g. the decoded mapping of a level-1
    genome, or the per-layer strategy sub-key tuple of a level-2 one),
    which collapses the many-to-one genome→phenotype decode and is where
    the big hit rates come from. The wrapped backend only ever sees
    cache misses, deduplicated within each batch. Phenotypes that miss
    here at the whole-key level still reuse their unchanged per-layer
    sub-keys inside the evaluator's layer-cost cache.

    Entries are namespaced per fitness callable (by identity, with the
    callable pinned so its id cannot be recycled), so one cache can be
    shared across many GAs/sub-problems without key collisions between
    different fitness functions. Pass ``max_entries`` to bound each
    namespace with LRU eviction (long-running services); the default
    keeps the historical unbounded behaviour.
    """

    def __init__(
        self,
        inner: EvaluationBackend | None = None,
        key_fn: KeyFn | None = None,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None:
            require_positive(max_entries, "max_entries")
        self.inner = inner if inner is not None else SerialBackend()
        self.key_fn = key_fn if key_fn is not None else genome_key
        self.max_entries = max_entries
        self._caches: dict[int, dict[Hashable, float] | LruCache] = {}
        self._pinned: dict[int, Fitness] = {}
        self._hits = 0
        self._misses = 0

    def _cache_for(self, fitness: Fitness) -> dict[Hashable, float] | LruCache:
        namespace = id(fitness)
        if namespace not in self._pinned:
            self._pinned[namespace] = fitness  # keeps the id unique
            self._caches[namespace] = (
                LruCache(self.max_entries)
                if self.max_entries is not None
                else {}
            )
        return self._caches[namespace]

    def evaluate(
        self, fitness: Fitness, genomes: Sequence[np.ndarray]
    ) -> list[float]:
        cache = self._cache_for(fitness)
        keys = [self.key_fn(g) for g in genomes]
        # Batch values are collected locally so a bounded cache evicting
        # mid-batch can never lose a value this batch still needs.
        batch: dict[Hashable, float] = {}
        pending_keys: list[Hashable] = []
        pending_genomes: list[np.ndarray] = []
        for key, genome in zip(keys, genomes):
            if key in batch:
                continue
            value = cache.get(key, _MISSING)
            if value is not _MISSING:
                batch[key] = value
                continue
            batch[key] = _MISSING  # claimed; evaluated below
            pending_keys.append(key)
            pending_genomes.append(genome)
        if pending_genomes:
            values = self.inner.evaluate(fitness, pending_genomes)
            cache.update(zip(pending_keys, values))
            batch.update(zip(pending_keys, values))
        self._misses += len(pending_genomes)
        self._hits += len(genomes) - len(pending_genomes)
        return [batch[key] for key in keys]

    def __getstate__(self) -> None:
        # Work closing over a cache must not ship stale clones to pool
        # workers (their hits/misses would silently diverge); the pool
        # falls back to solving it in-process instead.
        raise TypeError("CachedBackend cannot be pickled")

    @property
    def cache_size(self) -> int:
        return sum(len(cache) for cache in self._caches.values())

    def clear(self) -> None:
        self._caches.clear()
        self._pinned.clear()

    @property
    def stats(self) -> BackendStats:
        evictions = sum(
            cache.evictions
            for cache in self._caches.values()
            if isinstance(cache, LruCache)
        )
        return replace(
            self.inner.stats,
            cache_hits=self._hits,
            cache_misses=self._misses,
            cache_evictions=evictions,
        )

    def close(self) -> None:
        self.inner.close()


# ----------------------------------------------------------------------
# Process-pool backend
# ----------------------------------------------------------------------

#: Worker-side memo of unpickled callables, keyed by payload bytes, so
#: repeat batches (every level-1 generation) skip the unpickle.
_WORKER_PAYLOADS: dict[bytes, Callable[..., Any]] = {}
_WORKER_PAYLOAD_LIMIT = 8


def _run_item(payload: bytes, item_blob: bytes) -> Any:
    target = _WORKER_PAYLOADS.get(payload)
    if target is None:
        if len(_WORKER_PAYLOADS) >= _WORKER_PAYLOAD_LIMIT:
            _WORKER_PAYLOADS.clear()
        target = pickle.loads(payload)
        _WORKER_PAYLOADS[payload] = target
    return target(pickle.loads(item_blob))


class ProcessPoolBackend(SerialBackend):
    """Solve independent sub-problems on a pool of worker processes.

    GA populations evaluate serially (inherited from
    :class:`SerialBackend`); the pool serves
    :meth:`map_subproblems` only. One executor serves across batches:
    each batch ships its callable once (workers memoize the unpickled
    object), so the same pool can serve many generations — and, when
    owned by a :class:`~repro.core.session.MarsSession`, many
    *searches* — without respawning. Results come back in input order,
    making a parallel run bit-identical to a serial one. When the
    callable or an item cannot be pickled, or the pool breaks
    mid-batch, the batch silently degrades to the serial path —
    correctness never depends on the pool.

    Failure policy: a broken batch retires the *executor*, not the
    backend. The next pooled batch spawns a fresh executor, so one
    transient ``BrokenProcessPool`` (an OOM-killed worker, a fork
    hiccup) costs exactly one serial batch. Only ``failure_limit``
    *consecutive* failures retire the backend for good — a genuinely
    hostile environment stops burning a respawn per batch — and any
    successful pooled batch resets the streak. ``pool_failures`` /
    ``pool_spawns`` count both in :attr:`stats`.
    """

    def __init__(self, workers: int, failure_limit: int = 3) -> None:
        require_positive(workers, "workers")
        require_positive(failure_limit, "failure_limit")
        super().__init__()
        self.workers = workers
        self.failure_limit = failure_limit
        self._executor = None
        self._spawns = 0
        self._failures = 0
        self._consecutive_failures = 0

    @property
    def retired(self) -> bool:
        """True once ``failure_limit`` consecutive batches broke the
        pool; batches stay serial for the backend's lifetime."""
        return self._consecutive_failures >= self.failure_limit

    @property
    def pool_spawns(self) -> int:
        """Executors created so far (1 for an unbroken lifetime)."""
        return self._spawns

    @property
    def pool_failures(self) -> int:
        """Pooled batches the pool broke mid-flight (re-run serially).

        Unpicklable callables/items also degrade to serial but are not
        counted — the pool itself is healthy, the work just cannot
        travel.
        """
        return self._failures

    def _record_failure(self) -> None:
        self._failures += 1
        self._consecutive_failures += 1

    def _payload_for(self, target: Callable[..., Any]) -> bytes | None:
        # No unpicklability memo: ids get recycled, and a failed pickle
        # attempt is cheap (backends themselves refuse via __getstate__
        # before any heavy state is serialized). An unpicklable callable
        # is not a pool *failure* — the pool is fine, the work just
        # cannot travel — so it never counts toward retirement.
        if self.retired:
            return None
        try:
            return pickle.dumps(target)
        except Exception:
            return None

    def _ensure_pool(self) -> bool:
        if self._executor is not None:
            return True
        from concurrent.futures import ProcessPoolExecutor

        try:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        except OSError:
            self._record_failure()
            return False
        self._spawns += 1
        return True

    def _shutdown_pool(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def map_subproblems(
        self, solver: Callable[[Any], Any], items: Sequence[Any]
    ) -> list[Any]:
        """Solve heavyweight independent sub-problems, in input order.

        The level-1 fan-out hands a generation's distinct uncached
        sub-problems here, each a whole level-2 GA. Every item is its
        own task, so a straggler sub-problem never holds finished work
        hostage, and the pool engages from two items up. A broken
        batch re-runs serially (bit-identically) and retires the
        executor, not the backend.
        """
        if self.workers == 1 or len(items) < 2:
            return [solver(item) for item in items]
        payload = self._payload_for(solver)
        if payload is None or not self._ensure_pool():
            return [solver(item) for item in items]
        try:
            # Items are pre-pickled here rather than handed to the
            # executor's feeder thread: an item that fails to pickle
            # mid-batch inside the feeder strands the pending work items
            # and deadlocks ``shutdown`` (CPython's process-pool feeder
            # never unregisters them). Serializing in the caller turns
            # that into an ordinary exception — and, like an unpicklable
            # callable, it is not a *pool* failure, so it falls back to
            # serial without burning an executor.
            blobs = [pickle.dumps(item) for item in items]
        except Exception:
            return [solver(item) for item in items]
        try:
            futures = [
                self._executor.submit(_run_item, payload, blob)
                for blob in blobs
            ]
            # submission order == input order
            results = [future.result() for future in futures]
        except Exception:
            # BrokenProcessPool, worker crashes — the batch reruns
            # serially and this executor is retired; the next pooled
            # batch respawns unless the failure streak has hit
            # ``failure_limit``.
            self._record_failure()
            self._shutdown_pool()
            return [solver(item) for item in items]
        self._consecutive_failures = 0
        return results

    def __getstate__(self) -> None:
        # Backends must never ride along when work closing over one is
        # shipped to a worker; refusing to pickle forces the safe
        # serial fallback instead of silently cloning pool state.
        raise TypeError("ProcessPoolBackend cannot be pickled")

    @property
    def using_pool(self) -> bool:
        """Whether a live worker pool is currently attached."""
        return self._executor is not None and not self.retired

    @property
    def stats(self) -> BackendStats:
        return replace(
            super().stats,
            pool_spawns=self._spawns,
            pool_failures=self._failures,
        )

    def close(self) -> None:
        self._shutdown_pool()

    def __del__(self) -> None:
        # GC safety net for callers that drop a backend (or a session
        # holding one) without closing it: release the workers without
        # blocking. Explicit close() remains the contract — this only
        # keeps abandoned pools from accumulating processes until
        # interpreter exit.
        try:
            executor = self._executor
        except AttributeError:  # partially-constructed instance
            return
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


def make_backend(
    config: "GAConfig", key_fn: KeyFn | None = None
) -> EvaluationBackend:
    """Backend implied by a :class:`GAConfig`: serial, memoized when
    ``config.cache`` is set.

    GA populations never fan out. ``workers > 1`` sizes the level-1
    sub-problem pool a :class:`~repro.core.session.MarsSession` owns,
    so a config asking for it here — with no pool to run on — is
    refused rather than silently run serial.
    """
    require(
        config.workers == 1,
        f"GA populations evaluate serially; workers={config.workers} "
        "needs a session-owned sub-problem pool (MarsSession(workers=N))",
    )
    base = SerialBackend()
    if config.cache:
        return CachedBackend(base, key_fn=key_fn)
    return base

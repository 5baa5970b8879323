"""The level-1 sub-problem pool.

:class:`ProcessPoolBackend` solves independent level-1 sub-problems on
a pool of worker processes (:meth:`~ProcessPoolBackend.map_subproblems`),
with deterministic result ordering and a serial fallback when the work
cannot be pickled or the pool breaks. A
:class:`~repro.core.session.MarsSession` owns the one instance a search
uses. GA populations never come here: the engine
(:mod:`repro.core.ga.engine`) evaluates and memoizes them in process.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Sequence
from typing import Any

from repro.utils.validation import require_positive


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


class ProcessPoolBackend:
    """Solve independent sub-problems on a pool of worker processes.

    One executor serves across batches: each batch ships its callable
    once (workers memoize the unpickled object), so the same pool can
    serve many generations — and, when owned by a
    :class:`~repro.core.session.MarsSession`, many *searches* — without
    respawning. Results come back in input order,
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
    successful pooled batch resets the streak. :attr:`pool_failures`
    and :attr:`pool_spawns` count both.
    """

    def __init__(self, workers: int, failure_limit: int = 3) -> None:
        require_positive(workers, "workers")
        require_positive(failure_limit, "failure_limit")
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
        # attempt is cheap (the pool itself refuses via __getstate__
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

    def evaluate(
        self, fitness: Callable[[Any], float], genomes: Sequence[Any]
    ) -> list[float]:
        """Serial fitness of every genome, in input order.

        Nothing in the library calls it: perfbench's tracer
        (``perfbench/tracer.py``) wraps this name for its
        ``backends.population_batches`` row, and the two go together.
        """
        return [float(fitness(g)) for g in genomes]

    def close(self) -> None:
        self._shutdown_pool()

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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

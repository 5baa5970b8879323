"""ProcessPoolBackend failure policy: bounded retire-and-respawn.

The pool solves level-1 sub-problems through ``map_subproblems``, and
the pre-existing contract stands: a broken pooled batch re-runs
serially with bit-identical values. What this module pins down is the
*lifecycle* after a failure — one transient broken batch must not
disable parallelism forever (the pool respawns on the next batch), but
``failure_limit`` consecutive failures retire the backend so a
persistently broken environment stops paying a respawn per batch.

Fault injection: :class:`KillWorker` ``os._exit``\\ s inside pool
workers only (the real shape of an OOM-killed or crashed worker, and
the same ``BrokenProcessPool`` surface a transient environment problem
shows), while behaving as the identity function on the in-process
fallback path.
"""

import os

import numpy as np
import pytest

from repro.core import MarsSession
from repro.core.ga import ProcessPoolBackend
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng


def sphere(genome: np.ndarray) -> float:
    return float(np.sum((genome - 0.5) ** 2))


def double(x: float) -> float:
    return 2.0 * x


class KillWorker:
    """Picklable callable that kills any pool worker it runs in.

    In the parent process (the serial fallback path) it is the identity
    function, so a "broken" batch still produces asserted values.
    """

    def __init__(self) -> None:
        self.parent_pid = os.getpid()

    def __call__(self, item):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return item


class Unpicklable:
    """An item that cannot travel to workers (pickling raises)."""

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")

    def __float__(self):
        return 1.0


ITEMS = [float(i) for i in range(8)]


def _bad_batch(backend):
    """A pooled batch whose workers die; falls back to serial identity."""
    return backend.map_subproblems(KillWorker(), ITEMS)


def _good_batch(backend):
    return backend.map_subproblems(double, ITEMS)


class TestTransientFailureRespawns:
    def test_broken_batch_still_returns_serial_values(self):
        with ProcessPoolBackend(workers=2) as backend:
            values = _bad_batch(backend)
        assert values == ITEMS  # identity on the fallback path

    def test_one_failure_does_not_retire_the_backend(self):
        with ProcessPoolBackend(workers=2) as backend:
            _good_batch(backend)
            assert backend.pool_spawns == 1
            _bad_batch(backend)
            assert backend.pool_failures == 1
            assert not backend.retired
            # The next pooled batch spawns a fresh executor.
            assert _good_batch(backend) == [double(i) for i in ITEMS]
            assert backend.pool_spawns == 2
            assert backend.using_pool

    def test_success_resets_the_consecutive_failure_streak(self):
        with ProcessPoolBackend(workers=2, failure_limit=2) as backend:
            _bad_batch(backend)
            _good_batch(backend)  # streak back to zero
            _bad_batch(backend)
            assert backend.pool_failures == 2
            assert not backend.retired  # never two failures in a row

    def test_ga_values_survive_a_mid_run_pool_break(self):
        """Bit-identity guarantee: fallback batches price correctly."""
        genomes = [make_rng(i).random(6) for i in range(12)]
        with ProcessPoolBackend(workers=2) as backend:
            before = backend.map_subproblems(sphere, genomes)
            _bad_batch(backend)
            after = backend.map_subproblems(sphere, genomes)
        expected = [sphere(g) for g in genomes]
        assert before == expected
        assert after == expected


class TestRetirement:
    def test_consecutive_failures_retire_the_backend(self):
        with ProcessPoolBackend(workers=2, failure_limit=2) as backend:
            _bad_batch(backend)
            _bad_batch(backend)
            assert backend.retired
            assert backend.pool_failures == 2

    def test_retired_backend_stays_serial_but_correct(self):
        with ProcessPoolBackend(workers=2, failure_limit=1) as backend:
            _bad_batch(backend)
            assert backend.retired
            spawns_at_retirement = backend.pool_spawns
            assert _good_batch(backend) == [double(i) for i in ITEMS]
            assert backend.pool_spawns == spawns_at_retirement  # no respawn
            assert not backend.using_pool

    def test_unpicklable_callable_is_not_a_pool_failure(self):
        """The serial fallback for closures predates the policy and must
        not count toward retirement — the pool itself is healthy."""
        offset = 0.5
        closure = lambda x: x + offset  # noqa: E731
        with ProcessPoolBackend(workers=2, failure_limit=1) as backend:
            assert backend.map_subproblems(closure, ITEMS) == [
                closure(x) for x in ITEMS
            ]
            assert backend.pool_failures == 0
            assert not backend.retired

    def test_unpicklable_items_are_not_a_pool_failure(self):
        """Items that cannot travel fall back serially without touching
        the executor's feeder thread (whose mid-batch pickling failures
        strand pending work and deadlock shutdown) and without burning
        a failure."""
        with ProcessPoolBackend(workers=2, failure_limit=1) as backend:
            _good_batch(backend)  # executor up
            values = backend.map_subproblems(
                float, [Unpicklable() for _ in range(8)]
            )
            assert values == [1.0] * 8
            assert backend.pool_failures == 0
            assert not backend.retired
            assert backend.using_pool  # executor survived untouched
            assert _good_batch(backend) == [double(i) for i in ITEMS]
            assert backend.pool_spawns == 1

    def test_invalid_failure_limit_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=2, failure_limit=0)


class TestCounters:
    def test_pool_counters(self):
        with ProcessPoolBackend(workers=2) as backend:
            _good_batch(backend)
            _bad_batch(backend)
        assert backend.pool_spawns == 1
        assert backend.pool_failures == 1

    def test_session_stats_carry_pool_counters(self):
        with MarsSession(
            build_model("tiny_cnn"), f1_16xlarge(), workers=2
        ) as session:
            _good_batch(session.pool)
            _bad_batch(session.pool)
            stats = session.stats
        assert stats.pool_spawns == 1
        assert stats.pool_failures == 1

"""The level-1 sub-problem pool: ordering, reuse and serial fallback."""

import numpy as np
import pytest

from repro.core.ga import ProcessPoolBackend
from repro.utils import make_rng


def sphere(genome: np.ndarray) -> float:
    """Module-level (hence picklable) fitness; minimum at 0.5**n."""
    return float(np.sum((genome - 0.5) ** 2))


def _genomes(rng, count, length=5):
    return [rng.random(length) for _ in range(count)]


class TestProcessPoolBackend:
    def test_matches_serial_and_preserves_order(self):
        genomes = _genomes(make_rng(0), 16)
        with ProcessPoolBackend(workers=2) as backend:
            values = backend.map_subproblems(sphere, genomes)
            assert backend.using_pool
        assert values == [sphere(g) for g in genomes]

    def test_workers_one_stays_serial(self):
        backend = ProcessPoolBackend(workers=1)
        values = backend.map_subproblems(sphere, _genomes(make_rng(0), 4))
        assert not backend.using_pool
        assert len(values) == 4

    def test_unpicklable_fitness_falls_back_to_serial(self):
        offset = 0.25
        closure = lambda g: float(np.sum(g)) + offset  # noqa: E731
        genomes = _genomes(make_rng(0), 6)
        with ProcessPoolBackend(workers=2) as backend:
            values = backend.map_subproblems(closure, genomes)
            assert not backend.using_pool
        assert values == [closure(g) for g in genomes]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_generic_map(self):
        with ProcessPoolBackend(workers=2) as backend:
            values = backend.map_subproblems(abs, [-3, -1, 2, -7])
            assert backend.using_pool
        assert values == [3, 1, 2, 7]

    def test_one_item_batch_solves_in_parent(self):
        """The pool engages from two items up: a lone sub-problem never
        pays for an executor spawn."""
        genome = _genomes(make_rng(0), 1)
        with ProcessPoolBackend(workers=2) as backend:
            assert backend.map_subproblems(sphere, genome) == [
                sphere(genome[0])
            ]
            assert backend._executor is None
            assert backend.pool_spawns == 0

    def test_evaluate_stays_serial(self):
        """The pool's ``evaluate`` is serial and spawns no executor."""
        genomes = _genomes(make_rng(0), 8)
        with ProcessPoolBackend(workers=2) as backend:
            # ``sphere`` pickles, so only the serial path keeps it home.
            values = backend.evaluate(sphere, genomes)
            assert backend._executor is None
            assert backend.pool_spawns == 0
        assert values == [sphere(g) for g in genomes]

    def test_pool_is_reused_across_different_callables(self):
        """Regression: switching callables must not respawn the pool."""
        genomes = _genomes(make_rng(0), 8)
        with ProcessPoolBackend(workers=2) as backend:
            backend.map_subproblems(sphere, genomes)
            executor = backend._executor
            assert executor is not None
            assert backend.map_subproblems(abs, list(range(8))) == list(
                range(8)
            )
            assert backend._executor is executor

    def test_pool_refuses_to_be_pickled(self):
        """Work closing over the pool must fall back serial.

        Regression: a picklable pool would ship stale clones of its
        state to workers instead of solving in-process.
        """
        import pickle

        with pytest.raises(TypeError):
            pickle.dumps(ProcessPoolBackend(workers=2))

"""Evaluation backends: equivalence, memoization, pool fallback."""

import numpy as np
import pytest

from repro.core.ga import (
    CachedBackend,
    GAConfig,
    GeneticAlgorithm,
    ProcessPoolBackend,
    SerialBackend,
    genome_key,
    make_backend,
)
from repro.utils import make_rng


def sphere(genome: np.ndarray) -> float:
    """Module-level (hence picklable) fitness; minimum at 0.5**n."""
    return float(np.sum((genome - 0.5) ** 2))


def _run_ga(backend=None, seed=0, **config_overrides):
    config = GAConfig(
        population_size=config_overrides.pop("population_size", 12),
        generations=config_overrides.pop("generations", 10),
        **config_overrides,
    )
    ga = GeneticAlgorithm(
        genome_length=5,
        fitness=sphere,
        config=config,
        rng=make_rng(seed),
        backend=backend,
    )
    return ga.run()


def _genomes(rng, count, length=5):
    return [rng.random(length) for _ in range(count)]


class TestSerialBackend:
    def test_values_match_direct_calls(self):
        genomes = _genomes(make_rng(0), 8)
        backend = SerialBackend()
        values = backend.evaluate(sphere, genomes)
        assert values == [sphere(g) for g in genomes]

    def test_counts_every_evaluation(self):
        backend = SerialBackend()
        backend.evaluate(sphere, _genomes(make_rng(0), 8))
        backend.evaluate(sphere, _genomes(make_rng(1), 3))
        assert backend.stats.evaluations == 11
        assert backend.stats.cache_hits == 0


class TestCachedBackend:
    def test_repeat_batch_is_all_hits(self):
        genomes = _genomes(make_rng(0), 6)
        backend = CachedBackend()
        first = backend.evaluate(sphere, genomes)
        second = backend.evaluate(sphere, genomes)
        assert first == second
        assert backend.stats.cache_misses == 6
        assert backend.stats.cache_hits == 6
        assert backend.stats.evaluations == 6

    def test_within_batch_duplicates_priced_once(self):
        genome = make_rng(0).random(5)
        backend = CachedBackend()
        values = backend.evaluate(sphere, [genome, genome.copy(), genome])
        assert values == [sphere(genome)] * 3
        assert backend.stats.evaluations == 1
        assert backend.stats.cache_hits == 2

    def test_phenotype_key_collapses_equivalent_genomes(self):
        # Key on the rounded genome: all genomes in one cell share fitness.
        backend = CachedBackend(key_fn=lambda g: tuple(np.round(g, 0)))
        coarse = lambda g: float(np.sum(np.round(g, 0)))  # noqa: E731
        a = np.full(5, 0.4)
        b = np.full(5, 0.4) + 0.05
        values = backend.evaluate(coarse, [a, b])
        assert values[0] == values[1]
        assert backend.stats.evaluations == 1

    def test_cache_hits_never_change_fitness_values(self):
        """Seeded-loop property: hit values equal recomputed values."""
        for seed in range(10):
            rng = make_rng(seed)
            backend = CachedBackend()
            pool = _genomes(rng, 5)
            for _ in range(8):
                batch = [
                    pool[int(i)]
                    for i in rng.integers(0, len(pool), size=7)
                ]
                values = backend.evaluate(sphere, batch)
                assert values == [sphere(g) for g in batch]

    def test_shared_cache_namespaces_by_fitness(self):
        """Regression: one CachedBackend shared by two fitness functions
        must never serve one function's value for the other's genome."""
        backend = CachedBackend()
        double = lambda g: float(np.sum(g)) * 2.0  # noqa: E731
        genome = np.full(4, 0.5)
        first = backend.evaluate(sphere, [genome])
        second = backend.evaluate(double, [genome])
        assert first == [sphere(genome)]
        assert second == [double(genome)]
        assert backend.stats.cache_hits == 0
        assert backend.stats.evaluations == 2

    def test_genome_key_distinguishes_different_genomes(self):
        a, b = np.zeros(4), np.ones(4)
        assert genome_key(a) != genome_key(b)
        assert genome_key(a) == genome_key(np.zeros(4))


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

    def test_populations_evaluate_serially(self):
        """GA populations never fan out: the pool's ``evaluate`` and
        ``prepare`` are the serial ones and spawn no executor."""

        class Recorder:
            def __init__(self):
                self.prepared = 0

            def prepare_population(self, genomes):
                self.prepared += len(genomes)

            def __call__(self, genome):
                return sphere(genome)

        genomes = _genomes(make_rng(0), 8)
        recorder = Recorder()
        with ProcessPoolBackend(workers=2) as backend:
            backend.prepare(recorder, genomes)
            assert recorder.prepared == len(genomes)
            # ``sphere`` pickles, so only the serial path keeps it home.
            values = backend.evaluate(sphere, genomes)
            assert backend._executor is None
            assert backend.stats.evaluations == len(genomes)
            assert backend.stats.pool_spawns == 0
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

    def test_backends_refuse_to_be_pickled(self):
        """Stateful fitness closing over a backend must fall back serial.

        Regression: a picklable backend would ship stale clones of its
        pool/cache state to workers (diverging RNG streams, lost cache
        writes) instead of evaluating in-process.
        """
        import pickle

        with pytest.raises(TypeError):
            pickle.dumps(ProcessPoolBackend(workers=2))
        with pytest.raises(TypeError):
            pickle.dumps(CachedBackend())


class TestBackendEquivalence:
    """For a fixed seed, every backend returns bit-identical GAResults."""

    def test_serial_and_cached_agree(self):
        serial = _run_ga(SerialBackend(), seed=3)
        cached = _run_ga(CachedBackend(), seed=3)
        assert cached.best_fitness == serial.best_fitness
        assert cached.history == serial.history
        assert np.array_equal(cached.best_genome, serial.best_genome)
        assert cached.generations_run == serial.generations_run

    def test_config_selected_backends_agree(self):
        baseline = _run_ga(seed=5)
        cached = _run_ga(seed=5, cache=True)
        assert cached.history == baseline.history


class TestResultCounters:
    def test_serial_counts_total_evaluations(self):
        result = _run_ga(population_size=10, generations=3, patience=10)
        assert result.evaluations == 10 * (1 + result.generations_run)
        assert result.cache_hits == 0
        assert result.cache_misses == 0

    def test_cached_counts_unique_evaluations(self):
        """Regression: under caching, ``evaluations`` = unique prices."""
        result = _run_ga(seed=0, cache=True, elite_count=3)
        total = 12 * (1 + result.generations_run)
        assert result.cache_hits + result.cache_misses == total
        assert result.evaluations == result.cache_misses
        # Elites are copied into every generation, so hits are guaranteed.
        assert result.cache_hits > 0
        assert result.evaluations < total

    def test_shared_backend_reports_per_run_deltas(self):
        backend = CachedBackend()
        first = _run_ga(backend, seed=0)
        second = _run_ga(backend, seed=0)
        total = 12 * (1 + second.generations_run)
        assert second.cache_hits + second.cache_misses == total
        # The second identical run is served almost entirely from cache.
        assert second.evaluations < first.evaluations


class TestConfigValidation:
    def test_defaults_preserve_old_behavior(self):
        config = GAConfig()
        assert config.workers == 1
        assert config.cache is False
        assert isinstance(make_backend(config), SerialBackend)

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "two", True])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            GAConfig(workers=workers)

    @pytest.mark.parametrize("cache", ["yes", 1, None])
    def test_invalid_cache_rejected(self, cache):
        with pytest.raises(ValueError):
            GAConfig(cache=cache)

    def test_make_backend_combinations(self):
        cached = make_backend(GAConfig(cache=True))
        assert isinstance(cached, CachedBackend)
        assert isinstance(cached.inner, SerialBackend)

    @pytest.mark.parametrize("cache", [False, True])
    def test_population_workers_without_a_backend_rejected(self, cache):
        """Populations never fan out: a GA asked for ``workers > 1``
        with no explicit backend refuses instead of running serial."""
        with pytest.raises(ValueError, match="workers"):
            _run_ga(seed=0, workers=2, cache=cache)
        # An explicit backend carries the evaluation; workers then only
        # describe the level-1 fan-out a session runs around the GA.
        assert _run_ga(SerialBackend(), seed=0, workers=2).history == (
            _run_ga(seed=0).history
        )

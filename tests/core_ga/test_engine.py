"""Generic GA engine: operators, convergence, determinism, memo."""

import numpy as np
import pytest

from repro.core.ga import GAConfig, GeneticAlgorithm
from repro.utils import make_rng


def _sphere(genome: np.ndarray) -> float:
    """Minimum 0 at genome = 0.5 everywhere."""
    return float(np.sum((genome - 0.5) ** 2))


def _run(seed=0, fitness=_sphere, prepare=None, **overrides):
    config = GAConfig(
        population_size=overrides.pop("population_size", 20),
        generations=overrides.pop("generations", 25),
        **overrides,
    )
    ga = GeneticAlgorithm(
        genome_length=6,
        fitness=fitness,
        config=config,
        rng=make_rng(seed),
        prepare=prepare,
    )
    return ga.run()


class _Recorder:
    """Sphere fitness on raw-bytes phenotypes: :meth:`prepare` records
    each population it is shown and :meth:`__call__` each phenotype it
    prices."""

    def __init__(self):
        self.populations = []
        self.priced = []

    def prepare(self, genomes):
        phenotypes = [g.tobytes() for g in genomes]
        self.populations.append(phenotypes)
        return phenotypes

    def __call__(self, phenotype):
        self.priced.append(phenotype)
        return _sphere(np.frombuffer(phenotype))


def _run_recorded(recorder, **overrides):
    return _run(fitness=recorder, prepare=recorder.prepare, **overrides)


class TestConfigValidation:
    def test_zero_population_rejected(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=0)

    def test_crossover_rate_out_of_range(self):
        with pytest.raises(ValueError):
            GAConfig(crossover_rate=1.5)

    def test_elite_must_be_smaller_than_population(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=4, elite_count=4)

    def test_tournament_bounded_by_population(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=4, tournament_size=10)

    def test_defaults_preserve_old_behavior(self):
        config = GAConfig()
        assert config.workers == 1
        assert config.cache is False

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "two", True])
    def test_invalid_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            GAConfig(workers=workers)

    @pytest.mark.parametrize("cache", ["yes", 1, None])
    def test_invalid_cache_rejected(self, cache):
        with pytest.raises(ValueError):
            GAConfig(cache=cache)

    @pytest.mark.parametrize("cache", [False, True])
    def test_population_workers_rejected(self, cache):
        """Populations never fan out: a GA asked for ``workers > 1``
        refuses instead of running serial."""
        with pytest.raises(ValueError, match="workers"):
            _run(workers=2, cache=cache)


class TestConvergence:
    def test_improves_over_random(self):
        result = _run()
        initial = result.history[0]
        assert result.best_fitness < initial

    def test_finds_near_optimum_on_sphere(self):
        result = _run(generations=40, population_size=30)
        assert result.best_fitness < 0.05

    def test_history_monotone_nonincreasing(self):
        result = _run()
        for earlier, later in zip(result.history, result.history[1:]):
            assert later <= earlier + 1e-12

    def test_elitism_never_loses_best(self):
        result = _run(elite_count=2)
        assert result.best_fitness == min(result.history)


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = _run(seed=7)
        b = _run(seed=7)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_genome, b.best_genome)

    def test_different_seeds_explore_differently(self):
        a = _run(seed=1)
        b = _run(seed=2)
        assert not np.array_equal(a.best_genome, b.best_genome)


class TestSeeds:
    def test_seed_genome_dominates_random_start(self):
        optimum = np.full(6, 0.5)
        ga = GeneticAlgorithm(
            genome_length=6,
            fitness=_sphere,
            config=GAConfig(population_size=10, generations=1),
            rng=make_rng(0),
            seeds=[optimum],
        )
        result = ga.run()
        assert result.best_fitness == pytest.approx(0.0, abs=1e-12)

    def test_wrong_length_seed_rejected(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(
                genome_length=6,
                fitness=_sphere,
                config=GAConfig(),
                rng=make_rng(0),
                seeds=[np.zeros(3)],
            )


class TestBudget:
    def test_early_stop_on_stagnation(self):
        result = _run(patience=2, generations=50)
        assert result.generations_run <= 50

    def test_evaluation_count(self):
        result = _run(population_size=10, generations=3, patience=10)
        # Initial population + one per generation individual.
        assert result.evaluations == 10 * (1 + result.generations_run)
        assert result.cache_hits == 0
        assert result.cache_misses == 0

    def test_genomes_stay_in_unit_box(self):
        result = _run(mutation_rate=1.0, mutation_sigma=2.0)
        assert np.all(result.best_genome >= 0.0)
        assert np.all(result.best_genome <= 1.0)


class TestMemo:
    """``GAConfig(cache=True)``: one price per unseen key per run."""

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_run_matches_uncached(self, seed):
        plain = _run(seed=seed)
        cached = _run(seed=seed, cache=True)
        assert cached.history == plain.history
        assert cached.best_fitness == plain.best_fitness
        assert np.array_equal(cached.best_genome, plain.best_genome)
        assert cached.generations_run == plain.generations_run

    def test_prepare_sees_every_population_whole(self):
        for cache in (False, True):
            recorder = _Recorder()
            result = _run_recorded(recorder, cache=cache, elite_count=3)
            assert len(recorder.populations) == 1 + result.generations_run
            assert all(len(p) == 20 for p in recorder.populations)

    def test_uncached_prices_every_genome_in_order(self):
        recorder = _Recorder()
        result = _run_recorded(recorder, elite_count=3)
        shown = [key for keys in recorder.populations for key in keys]
        assert recorder.priced == shown
        assert result.evaluations == len(shown)

    def test_memo_prices_first_occurrences_in_population_order(self):
        """Level-1 fitness is stateful, so the order of first
        occurrences is part of the contract."""
        recorder = _Recorder()
        result = _run_recorded(recorder, cache=True, elite_count=3)
        shown = [key for keys in recorder.populations for key in keys]
        first_seen = list(dict.fromkeys(shown))
        assert recorder.priced == first_seen
        assert result.evaluations == result.cache_misses == len(first_seen)
        assert result.cache_hits == len(shown) - len(first_seen)
        # Elites are copied into every generation, so hits are certain.
        assert result.cache_hits > 0

    def test_prepare_collapses_equivalent_genomes(self):
        """Genomes decoding to one phenotype are priced once."""
        keys = []

        def coarse(cell):
            keys.append(cell)
            return float(np.sum(cell))

        def cells(genomes):
            return [tuple(np.round(g, 0)) for g in genomes]

        plain = _run(fitness=lambda g: float(np.sum(np.round(g, 0))))
        cached = _run(fitness=coarse, prepare=cells, cache=True)
        assert cached.history == plain.history
        assert len(keys) == len(set(keys)) == cached.evaluations
        assert cached.evaluations <= 2**6

    def test_memo_lives_for_one_run(self):
        optimum = np.full(6, 0.5)
        recorder = _Recorder()
        ga = GeneticAlgorithm(
            genome_length=6,
            fitness=recorder,
            config=GAConfig(population_size=4, generations=1, cache=True),
            rng=make_rng(0),
            seeds=[optimum],
            prepare=recorder.prepare,
        )
        first = ga.run()
        second = ga.run()
        assert recorder.priced.count(optimum.tobytes()) == 2
        assert second.cache_misses == second.evaluations
        assert first.cache_hits + first.cache_misses == 4 * (
            1 + first.generations_run
        )

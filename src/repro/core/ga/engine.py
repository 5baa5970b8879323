"""Generic real-valued genetic algorithm (minimization).

Both GA levels of MARS (Fig. 3) share this engine: genomes are vectors
in [0, 1]^n, decoded by the level-specific code. The engine provides
tournament selection, uniform crossover, Gaussian mutation, elitism and
stagnation-based early stopping — all driven by an explicit RNG so runs
are reproducible.

Fitness is evaluated **per population**, not per individual: each
generation's genomes go to an :class:`~repro.core.ga.backends.EvaluationBackend`
(serial or memoized — see :mod:`repro.core.ga.backends`). Backends
return values in input order and never consume engine RNG, so the
search trajectory is bit-identical across backends for a fixed seed.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.ga.backends import (
    BackendStats,
    EvaluationBackend,
    KeyFn,
    make_backend,
)
from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids coupling
    from repro.core.evaluator import LayerCacheStats


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of one GA level.

    ``cache=True`` memoizes fitness so duplicate genomes (elites,
    converged populations) are priced once. In a MARS search it affects
    level 2 only: :class:`~repro.core.ga.level1.Level1Search` always
    builds its own phenotype-keyed
    :class:`~repro.core.ga.backends.CachedBackend`, so level 1 memoizes
    either way. ``workers`` on the level-1 config sizes the sub-problem
    pool a :class:`~repro.core.session.MarsSession` owns; populations
    always evaluate serially, so a GA that would have to build a
    backend from ``workers > 1`` refuses to run (see
    :func:`~repro.core.ga.backends.make_backend`). Defaults reproduce
    the historical serial engine exactly.
    """

    population_size: int = 24
    generations: int = 30
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    mutation_sigma: float = 0.25
    tournament_size: int = 3
    elite_count: int = 2
    patience: int = 10  # stop after this many stagnant generations
    workers: int = 1
    cache: bool = False

    def __post_init__(self) -> None:
        require_positive(self.population_size, "population_size")
        require_positive(self.generations, "generations")
        require(
            0.0 <= self.crossover_rate <= 1.0,
            f"crossover_rate must be in [0, 1], got {self.crossover_rate}",
        )
        require(
            0.0 <= self.mutation_rate <= 1.0,
            f"mutation_rate must be in [0, 1], got {self.mutation_rate}",
        )
        require_positive(self.mutation_sigma, "mutation_sigma")
        require(
            1 <= self.tournament_size <= self.population_size,
            "tournament_size must be in [1, population_size]",
        )
        require(
            0 <= self.elite_count < self.population_size,
            "elite_count must be in [0, population_size)",
        )
        require_positive(self.patience, "patience")
        require(
            isinstance(self.workers, int) and not isinstance(self.workers, bool),
            f"workers must be an int, got {self.workers!r}",
        )
        require_positive(self.workers, "workers")
        require(
            isinstance(self.cache, bool),
            f"cache must be a bool, got {self.cache!r}",
        )


@dataclass
class GAResult:
    """Outcome of a GA run.

    ``evaluations`` counts actual fitness invocations — with a caching
    backend that is the number of *unique* evaluations; ``cache_hits``
    and ``cache_misses`` expose the memoizer's counters (zero for
    uncached backends). ``layer_cache`` carries the evaluator's
    per-layer cost-cache counters for the run, attached by the level
    drivers (``None`` when the fitness has no evaluator or the layer
    cache is disabled). ``worker_layer_cache`` carries the *pool
    workers'* private layer-cache counters, shipped back with each
    fanned-out sub-problem result and merged by the level-1 driver
    (``None`` when nothing fanned out); the in-process ``layer_cache``
    delta and this field partition the run's pricing activity, so
    their :meth:`~repro.core.evaluator.LayerCacheStats.merge` is the
    whole-run figure.
    """

    best_genome: np.ndarray
    best_fitness: float
    history: list[float] = field(default_factory=list)
    evaluations: int = 0
    generations_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    layer_cache: "LayerCacheStats | None" = None
    worker_layer_cache: "LayerCacheStats | None" = None


class GeneticAlgorithm:
    """Minimizes ``fitness(genome)`` over [0, 1]^genome_length.

    Evaluation goes through ``backend`` when one is given, else through
    the backend implied by ``config.cache`` (serial by default), built
    with ``key_fn`` as the memoization key when caching is on;
    ``config.workers > 1`` raises :class:`ValueError` there.
    """

    def __init__(
        self,
        genome_length: int,
        fitness: Callable[[np.ndarray], float],
        config: GAConfig,
        rng: np.random.Generator,
        seeds: list[np.ndarray] | None = None,
        backend: EvaluationBackend | None = None,
        key_fn: KeyFn | None = None,
        on_generation: Callable[[int], None] | None = None,
    ):
        require_positive(genome_length, "genome_length")
        self.genome_length = genome_length
        self.fitness = fitness
        self.config = config
        self.rng = rng
        self.seeds = seeds or []
        for seed in self.seeds:
            require(
                len(seed) == genome_length,
                f"seed genome has length {len(seed)}, expected {genome_length}",
            )
        self._owns_backend = backend is None
        self.backend = (
            backend if backend is not None else make_backend(config, key_fn)
        )
        # Pure observation hook, called after each population evaluation
        # with the number of generations evaluated so far. It must never
        # consume engine RNG — liveness beacons ride it (see
        # repro.core.health) and must not perturb search trajectories.
        self.on_generation = on_generation

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _evaluate_population(self, population: Sequence[np.ndarray]) -> np.ndarray:
        genomes = [np.asarray(g) for g in population]
        # Population-level preparation (e.g. the level-2 vectorized
        # genome decode) runs before per-genome evaluation; see
        # EvaluationBackend.prepare. Purely wall-clock: the memos it
        # fills would be filled genome by genome otherwise.
        self.backend.prepare(self.fitness, genomes)
        values = self.backend.evaluate(self.fitness, genomes)
        require(
            len(values) == len(genomes),
            "population evaluation returned "
            f"{len(values)} values for {len(genomes)} genomes",
        )
        return np.asarray(values, dtype=float)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _initial_population(self) -> np.ndarray:
        pop = self.rng.random((self.config.population_size, self.genome_length))
        for i, seed in enumerate(self.seeds[: self.config.population_size]):
            pop[i] = np.clip(np.asarray(seed, dtype=float), 0.0, 1.0)
        return pop

    def _tournament(self, fitnesses: np.ndarray) -> int:
        contenders = self.rng.integers(
            0, len(fitnesses), size=self.config.tournament_size
        )
        return int(contenders[np.argmin(fitnesses[contenders])])

    def _crossover(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.rng.random() >= self.config.crossover_rate:
            return a.copy()
        mask = self.rng.random(self.genome_length) < 0.5
        child = np.where(mask, a, b)
        return child

    def _mutate(self, genome: np.ndarray) -> np.ndarray:
        mask = self.rng.random(self.genome_length) < self.config.mutation_rate
        noise = self.rng.normal(0.0, self.config.mutation_sigma, self.genome_length)
        mutated = genome + mask * noise
        return np.clip(mutated, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> GAResult:
        start = self.backend.stats
        try:
            return self._run(start)
        finally:
            if self._owns_backend:
                self.backend.close()

    def _run(self, start: BackendStats) -> GAResult:
        population = self._initial_population()
        fitnesses = self._evaluate_population(population)
        if self.on_generation is not None:
            self.on_generation(0)
        best_index = int(np.argmin(fitnesses))
        best_genome = population[best_index].copy()
        best_fitness = float(fitnesses[best_index])
        history = [best_fitness]
        stagnant = 0
        generations_run = 0

        for _ in range(self.config.generations):
            generations_run += 1
            elite_order = np.argsort(fitnesses)
            next_population = [
                population[i].copy()
                for i in elite_order[: self.config.elite_count]
            ]
            while len(next_population) < self.config.population_size:
                parent_a = population[self._tournament(fitnesses)]
                parent_b = population[self._tournament(fitnesses)]
                child = self._mutate(self._crossover(parent_a, parent_b))
                next_population.append(child)
            population = np.array(next_population)
            fitnesses = self._evaluate_population(population)
            if self.on_generation is not None:
                self.on_generation(generations_run)

            generation_best = int(np.argmin(fitnesses))
            if fitnesses[generation_best] < best_fitness - 1e-15:
                best_fitness = float(fitnesses[generation_best])
                best_genome = population[generation_best].copy()
                stagnant = 0
            else:
                stagnant += 1
            history.append(best_fitness)
            if stagnant >= self.config.patience:
                break

        spent = self.backend.stats.since(start)
        return GAResult(
            best_genome=best_genome,
            best_fitness=best_fitness,
            history=history,
            evaluations=spent.evaluations,
            generations_run=generations_run,
            cache_hits=spent.cache_hits,
            cache_misses=spent.cache_misses,
        )

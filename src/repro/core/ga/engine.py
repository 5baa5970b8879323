"""Generic real-valued genetic algorithm (minimization).

Both GA levels of MARS (Fig. 3) share this engine: genomes are vectors
in [0, 1]^n, decoded by the level-specific code. The engine provides
tournament selection, uniform crossover, Gaussian mutation, elitism and
stagnation-based early stopping — all driven by an explicit RNG so runs
are reproducible.

Fitness is evaluated **per population**: each generation the engine
hands the whole population to an optional ``prepare`` hook, which
decodes it into one hashable phenotype per genome, then prices the
phenotypes one by one in population order (without the hook, a genome
is its own phenotype). With ``config.cache`` set, prices are memoized
for one :meth:`GeneticAlgorithm.run`, keyed by the phenotype (by the
genome's raw bytes without the hook), so elites, converged duplicates
and genomes decoding alike are priced once. Neither the hook nor the
memo consumes engine RNG, so a fixed seed walks the same trajectory
with caching on or off.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.utils.validation import require, require_positive

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids coupling
    from repro.core.evaluator import LayerCacheStats


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of one GA level.

    ``cache=True`` memoizes fitness so duplicate phenotypes (elites,
    converged populations) are priced once. In a MARS search it affects
    level 2 only: :class:`~repro.core.ga.level1.Level1Search` always
    runs its engine with ``cache=True`` on decoded individuals.
    ``workers`` on the level-1 config sizes the sub-problem pool a
    :class:`~repro.core.session.MarsSession` owns; populations always
    evaluate serially, so a :class:`GeneticAlgorithm` given
    ``workers > 1`` refuses to run. Defaults reproduce the historical
    serial engine exactly.
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

    ``evaluations`` counts actual fitness invocations — with
    ``GAConfig.cache`` that is the number of *unique* phenotypes priced;
    ``cache_hits`` and ``cache_misses`` count the memo's lookups (zero
    without the memo). ``layer_cache`` carries the evaluator's
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
    """Minimizes ``fitness(phenotype)`` over [0, 1]^genome_length genomes.

    ``prepare(population)`` decodes each generation's population — a
    2-D array, one genome per row, memo hits included — into one
    hashable phenotype per genome; without it, a genome is its own
    phenotype. With ``config.cache`` set, each :meth:`run` memoizes
    prices by phenotype (by the genome's raw bytes without
    ``prepare``). ``config.workers > 1`` raises :class:`ValueError`:
    populations always evaluate in process.
    """

    def __init__(
        self,
        genome_length: int,
        fitness: Callable[[Any], float],
        config: GAConfig,
        rng: np.random.Generator,
        seeds: list[np.ndarray] | None = None,
        prepare: Callable[[np.ndarray], Sequence[Hashable]] | None = None,
        on_generation: Callable[[int], None] | None = None,
    ):
        require_positive(genome_length, "genome_length")
        require(
            config.workers == 1,
            f"GA populations evaluate serially; workers={config.workers} "
            "needs a session-owned sub-problem pool (MarsSession(workers=N))",
        )
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
        self.prepare = prepare
        # Pure observation hook, called after each population evaluation
        # with the number of generations evaluated so far. It must never
        # consume engine RNG — liveness beacons ride it (see
        # repro.core.health) and must not perturb search trajectories.
        self.on_generation = on_generation
        # Per-run state, reset by run(): the memo lives for one run.
        self._memo: dict[Hashable, float] | None = None
        self._evaluations = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def _evaluate_population(self, population: np.ndarray) -> np.ndarray:
        if self.prepare is None:
            phenotypes = list(population)
        else:
            phenotypes = self.prepare(population)
        memo = self._memo
        if memo is None:
            self._evaluations += len(phenotypes)
            return np.asarray(
                [float(self.fitness(p)) for p in phenotypes], dtype=float
            )
        # The whole population is decoded first, then priced in
        # population order: level-1 fitness is stateful (it fills the
        # session's solution cache and ticks ``progress``), so the
        # order of first occurrences is part of the contract.
        keys = phenotypes if self.prepare else [g.tobytes() for g in phenotypes]
        values = []
        for key, phenotype in zip(keys, phenotypes):
            value = memo.get(key)
            if value is None:
                value = memo[key] = float(self.fitness(phenotype))
                self._evaluations += 1
            else:
                self._cache_hits += 1
            values.append(value)
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
        self._memo = {} if self.config.cache else None
        self._evaluations = 0
        self._cache_hits = 0
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

        return GAResult(
            best_genome=best_genome,
            best_fitness=best_fitness,
            history=history,
            evaluations=self._evaluations,
            generations_run=generations_run,
            cache_hits=self._cache_hits,
            cache_misses=self._evaluations if self.config.cache else 0,
        )

"""First-level GA: accelerator sets, designs, workload allocation (Fig. 3).

The level-1 genome decodes into

1. one **partition** of the accelerators from the heuristic candidate
   catalog (edge-removal components, Section V),
2. a **design** per accelerator set (adaptive systems only; gene blocks
   initialized from profiled performance), and
3. **cut points** allocating contiguous layer ranges to the sets.

Each decoded individual spawns second-level sub-problems — memoized in
a ``solution_cache``, since different level-1 individuals frequently
share (layer-range, accelerator-set, design) triples — and its fitness
is the full-mapping latency including inter-set transfers. The cache
keeps each sub-problem's winning strategies beside the set latency its
level-2 GA priced them at, so a fitness sums those latencies with the
boundary transfers and host input
(:meth:`~repro.core.evaluator.MappingEvaluator.mapping_objective`) and
walks no set; only the search's winning mapping is walked in full.

Each sub-problem's level-2 GA draws from a private RNG derived from the
sub-problem *key* (:func:`repro.utils.rng.stable_seed`), not from a
stream shared across sub-problems. A sub-problem therefore always walks
the identical search trajectory no matter which search (or which seed)
first posed it, which is what lets the ``solution_cache`` be shared
across searches — a :class:`~repro.core.session.MarsSession` keeps one
alive across its lifetime — without breaking bit-identity with a cold
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.profiler import WorkloadProfile, profile_designs
from repro.core.evaluator import (
    LayerCacheStats,
    MappingEvaluator,
    MappingEvaluation,
)
from repro.core.formulation import (
    AcceleratorSet,
    LayerRange,
    Mapping,
    SetAssignment,
)
from repro.core.ga.backends import ProcessPoolBackend
from repro.core.ga.engine import GAConfig, GAResult, GeneticAlgorithm
from repro.core.ga.heuristics import (
    Partition,
    candidate_partitions,
    design_gene_seed,
)
from repro.core.ga.level2 import optimize_set
from repro.core.sharding import ParallelismStrategy
from repro.dnn.graph import ComputationGraph
from repro.system.topology import SystemTopology
from repro.utils.cache import LruCache
from repro.utils.rng import make_rng, stable_seed
from repro.utils.validation import require


@dataclass(frozen=True)
class SearchBudget:
    """GA budgets for both levels (frozen, like the config holding it)."""

    level1: GAConfig
    level2: GAConfig

    @staticmethod
    def fast() -> "SearchBudget":
        """Small budget for tests and quick exploration."""
        return SearchBudget(
            level1=GAConfig(
                population_size=8,
                generations=6,
                elite_count=1,
                patience=4,
            ),
            level2=GAConfig(
                population_size=10,
                generations=8,
                elite_count=1,
                patience=4,
            ),
        )

    def with_backend(self, workers: int) -> "SearchBudget":
        """This budget with a ``workers``-process level-1 sub-problem
        pool (level-2 GAs always run serial)."""
        return replace(self, level1=replace(self.level1, workers=workers))

    @staticmethod
    def paper() -> "SearchBudget":
        """Budget sized for the Table III / IV experiments."""
        return SearchBudget(
            level1=GAConfig(
                population_size=16,
                generations=20,
                elite_count=2,
                patience=8,
            ),
            level2=GAConfig(
                population_size=16,
                generations=14,
                elite_count=2,
                patience=6,
            ),
        )


@dataclass(frozen=True)
class DecodedIndividual:
    """A decoded level-1 genome, before level-2 optimization.

    The level-1 engine's phenotype: individuals compare and hash on
    :attr:`key` — the used sets, their designs' names and their layer
    ranges — so genomes that decode to one mapping share one memo
    entry.
    """

    used_sets: list[tuple[int, ...]] = field(compare=False)
    designs: list[AcceleratorDesign | None] = field(compare=False)
    ranges: list[LayerRange] = field(compare=False)
    key: tuple


#: What level 1 keeps of a sub-problem's level-2 solution: its
#: strategies by layer name, and the set latency they price at.
Solved = tuple[dict[str, ParallelismStrategy], float]


def subproblem_rng(key: tuple) -> np.random.Generator:
    """Private RNG of one level-2 sub-problem, derived from its key.

    Content-keyed (not drawn from a shared stream): the trajectory of a
    sub-problem's GA never depends on which other sub-problems ran
    first, which search posed it, the level-1 seed — or, since the
    batched fan-out, which *worker process* solves it. This is the
    property that makes ``solution_cache`` entries reusable across
    searches, seeds, sessions and pool workers with bit-identical
    results.
    """
    return make_rng(stable_seed("level2-subproblem", *key))


class SubproblemSolver:
    """Picklable level-1 sub-problem job: one level-2 GA per item.

    The batched fan-out ships one solver per generation batch (workers
    memoize the unpickled object by payload bytes, so the evaluator —
    whose ``__getstate__`` drops its caches precisely to keep those
    bytes stable — is rebuilt once per worker incarnation and its
    private layer cache warms across generations). Each item is one
    ``(key, design)`` pair; the nodes come from the shipped graph and
    the RNG from the content-keyed ``key``, so a solution is identical
    no matter which worker (or the parent, on the serial fallback
    path) produces it.

    An item's result is its solution's strategies and set latency (all
    that level 1 reads of it, as ``solution_cache`` holds them) and the
    worker-side layer-cache delta of the solve, so the parent can merge
    pool counters into its stats; on the in-process fallback path the
    delta is ``None`` — the parent evaluator's own counters already saw
    that work, and shipping a delta too would double-count it.
    """

    def __init__(self, evaluator: MappingEvaluator, config: GAConfig) -> None:
        self.evaluator = evaluator
        self.config = config
        self._remote = False

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_remote"] = True  # any unpickled copy lives in a worker
        return state

    def __call__(
        self, item: tuple[tuple, AcceleratorDesign | None]
    ) -> tuple[tuple, Solved, LayerCacheStats | None]:
        key, design = item
        start, stop, accs, _ = key
        nodes = self.evaluator.graph.nodes()[start:stop]
        before = self.evaluator.layer_cache_stats
        solution = optimize_set(
            self.evaluator,
            nodes,
            accs,
            design,
            self.config,
            subproblem_rng(key),
        )
        solved = (solution.strategies, solution.latency_seconds)
        if not self._remote:
            return key, solved, None
        delta = self.evaluator.layer_cache_stats.since(before)
        return key, solved, delta


@dataclass
class Level1Search:
    """Drives the two-level search for one workload on one system.

    ``objective`` selects what the outer GA minimizes:

    * ``"latency"`` — single-input end-to-end latency (the paper's
      objective);
    * ``"throughput"`` — the steady-state pipeline initiation interval
      when streaming many inputs (extension; favours balanced multi-set
      pipelines over one big set).

    ``solution_cache``, ``partitions`` and ``design_profile`` may be
    supplied by a long-lived owner (see
    :class:`~repro.core.session.MarsSession`) to warm-start repeated
    searches; all three hold seed-independent state, so sharing them
    never changes results — only wall-clock. ``solution_cache`` maps a
    sub-problem key to its solution's strategies and set latency
    (:data:`Solved`).

    Every generation is decoded once, pooled or not:
    :meth:`prefetch_population` is the engine's ``prepare`` hook and
    turns each genome into a :class:`DecodedIndividual`, and
    :meth:`fitness` prices one from its sub-problems' cached set
    latencies, walking no set: it equals
    ``evaluate_mapping(build_mapping(d))``'s latency (or pipeline
    interval), hex for hex. The level-1 engine always memoizes on
    decoded individuals (the genome→mapping decode is massively
    many-to-one) and evaluates serially: level-1 fitness is stateful —
    it fills ``solution_cache`` — so it stays in this process, whatever
    ``budget.level1`` says about ``cache`` and ``workers``.

    ``level1_backend`` is the **batched sub-problem fan-out** pool, the
    only parallelism a search has. Its owner (a session) hands it down
    and closes it; a search never builds or closes one, and a budget
    asking for ``level1.workers > 1`` without a pool — or for level-2
    ``workers`` other than 1 — is refused. With a pool, the distinct
    *uncached* ``(layer_range, acc_set, design)`` sub-problems across
    a generation's decoded individuals are deduplicated and that batch
    is solved in parallel — one level-2 GA per pool task. Each
    sub-problem carries its own content-keyed RNG
    (:func:`subproblem_rng`), so solutions are position- and
    worker-independent; scoring then runs in-process and takes each
    fanned-out solution where the serial path would solve it, so
    ``solution_cache``, the engine memo and the layer LRU see the same
    operations either way. Results are bit-identical to the serial
    path for a fixed seed — the fan-out only changes wall-clock.

    ``progress`` is a pure observation callback ``(phase, count)``
    invoked after each level-1 generation and once per *distinct*
    level-2 sub-problem solved (exact under the batch fan-out too: a
    prefetch and a fitness call landing on the same key tick once).
    It must not consume search RNG; the serving liveness layer plugs
    heartbeat beacons into it
    (:class:`~repro.core.health.BeaconEmitter`), which is why it exists
    as a field rather than ad-hoc instrumentation.
    """

    graph: ComputationGraph
    topology: SystemTopology
    designs: list[AcceleratorDesign]
    evaluator: MappingEvaluator
    budget: SearchBudget
    rng: np.random.Generator
    objective: str = "latency"
    # Sub-problem key -> the strategies of its level-2 solution and
    # their set latency. Any mapping with dict-shaped get/setitem works
    # here; sessions pass a bounded ``repro.utils.cache.LruCache``.
    solution_cache: dict[tuple, Solved] | LruCache = field(
        default_factory=dict
    )
    level1_backend: ProcessPoolBackend | None = None
    partitions: list[Partition] | None = None
    design_profile: WorkloadProfile | None = None
    progress: Callable[[str, int], None] | None = None

    def __post_init__(self) -> None:
        require(
            self.topology.kind == "fixed" or bool(self.designs),
            "adaptive systems need a non-empty design catalog",
        )
        require(
            self.objective in ("latency", "throughput"),
            f"objective must be 'latency' or 'throughput', got {self.objective!r}",
        )
        require(
            self.budget.level2.workers == 1,
            "level-2 GAs evaluate serially; budget.level2.workers must be "
            f"1, got {self.budget.level2.workers}",
        )
        require(
            self.budget.level1.workers == 1 or self.level1_backend is not None,
            f"budget.level1.workers={self.budget.level1.workers} needs a "
            "sub-problem pool handed in as level1_backend (MarsSession "
            "owns one)",
        )
        if self.partitions is None:
            self.partitions = candidate_partitions(self.topology)
        self.max_sets = max(len(p) for p in self.partitions)
        self._compute_positions = [
            i
            for i, node in enumerate(self.graph.nodes())
            if node.is_compute
        ]
        self._subproblems_solved = 0
        # Keys already ticked through ``_subproblems_solved`` /
        # ``progress``: exactly one tick per *distinct* sub-problem this
        # search solved, no matter whether the prefetch or a fitness
        # call got there first — or whether an LRU eviction forced a
        # re-solve of a key already counted.
        self._solved_keys: set[tuple] = set()
        #: Pool workers' private layer-cache counters, shipped back with
        #: fanned-out sub-problem results and folded here with
        #: ``merge(stats, gauge=max)``.
        self.worker_layer_cache = LayerCacheStats()
        #: Distinct sub-problems this search solved *on pool workers*
        #: (serial-fallback and in-fitness solves are not counted here).
        self.subproblems_fanned_out = 0
        # This generation's fanned-out solutions; they enter
        # ``solution_cache`` only through :meth:`solve_subproblem`.
        self._prefetched: dict[tuple, Solved] = {}

    # ------------------------------------------------------------------
    # Genome layout
    # ------------------------------------------------------------------

    @property
    def genome_length(self) -> int:
        partition_genes = len(self.partitions)
        design_genes = (
            self.max_sets * len(self.designs)
            if self.topology.kind == "adaptive"
            else 0
        )
        cut_genes = max(self.max_sets - 1, 0)
        return partition_genes + design_genes + cut_genes

    def _split_genome(
        self, genome: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = len(self.partitions)
        d = (
            self.max_sets * len(self.designs)
            if self.topology.kind == "adaptive"
            else 0
        )
        return genome[:p], genome[p : p + d], genome[p + d :]

    # ------------------------------------------------------------------
    # Decode
    # ------------------------------------------------------------------

    def decode(self, genome: np.ndarray) -> DecodedIndividual:
        partition_genes, design_genes, cut_genes = self._split_genome(genome)
        partition = self.partitions[int(np.argmax(partition_genes))]
        sets = list(partition)
        num_sets = len(sets)

        designs: list[AcceleratorDesign | None]
        if self.topology.kind == "adaptive":
            designs = []
            n_designs = len(self.designs)
            for slot in range(num_sets):
                block = design_genes[
                    slot * n_designs : (slot + 1) * n_designs
                ]
                designs.append(self.designs[int(np.argmax(block))])
        else:
            designs = [None] * num_sets

        ranges = self._cut_ranges(cut_genes, num_sets)
        used_sets, used_designs, used_ranges = [], [], []
        for acc_set, design, rng in zip(sets, designs, ranges):
            if rng is not None:
                used_sets.append(acc_set)
                used_designs.append(design)
                used_ranges.append(rng)
        return DecodedIndividual(
            used_sets=used_sets,
            designs=used_designs,
            ranges=used_ranges,
            key=(
                tuple(used_sets),
                tuple(d.name if d else "<fixed>" for d in used_designs),
                tuple((r.start, r.stop) for r in used_ranges),
            ),
        )

    def _cut_ranges(
        self, cut_genes: np.ndarray, num_sets: int
    ) -> list[LayerRange | None]:
        """Allocate contiguous node ranges to ``num_sets`` sets.

        Cut genes are fractions over the compute layers; a cut before
        compute layer ``k`` places the boundary at that layer's node
        index, so prologue layers (input/BN/activations) travel with
        their convolution.
        """
        total_nodes = len(self.graph)
        positions = self._compute_positions
        if num_sets == 1:
            return [LayerRange(0, total_nodes)]
        fractions = np.sort(cut_genes[: num_sets - 1])
        cut_nodes = []
        for fraction in fractions:
            k = int(round(fraction * len(positions)))
            k = min(max(k, 0), len(positions) - 1)
            cut_nodes.append(positions[k] if k > 0 else 0)
        boundaries = [0, *cut_nodes, total_nodes]
        ranges: list[LayerRange | None] = []
        for start, stop in zip(boundaries[:-1], boundaries[1:]):
            ranges.append(LayerRange(start, stop) if stop > start else None)
        return ranges

    # ------------------------------------------------------------------
    # Fitness
    # ------------------------------------------------------------------

    @staticmethod
    def _subproblem_key(
        layer_range: LayerRange,
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
    ) -> tuple:
        return (
            layer_range.start,
            layer_range.stop,
            accs,
            design.name if design else "<fixed>",
        )

    def _record_solved(self, key: tuple) -> None:
        """Tick the solved-sub-problem beacon, once per distinct key.

        Both the batch prefetch and an in-fitness solve route here, and
        the key set makes the count exact: a prefetch and a fitness
        call landing on the same key (an LRU eviction between them, or
        a serial-fallback overlap) produce one tick, not two.
        """
        if key in self._solved_keys:
            return
        self._solved_keys.add(key)
        self._subproblems_solved += 1
        if self.progress is not None:
            self.progress("level2-subproblem", self._subproblems_solved)

    def solve_subproblem(
        self,
        layer_range: LayerRange,
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
    ) -> Solved:
        """The strategies of the sub-problem's level-2 solution and
        their set latency, from ``solution_cache``, this generation's
        fan-out, or a solve."""
        key = self._subproblem_key(layer_range, accs, design)
        cached = self.solution_cache.get(key)
        if cached is not None:
            return cached
        solved = self._prefetched.get(key)
        if solved is None:
            nodes = self.graph.nodes()[layer_range.start : layer_range.stop]
            solution = optimize_set(
                self.evaluator,
                nodes,
                accs,
                design,
                self.budget.level2,
                subproblem_rng(key),
            )
            solved = (solution.strategies, solution.latency_seconds)
            self._record_solved(key)
        self.solution_cache[key] = solved
        return solved

    def prefetch_population(
        self, genomes: np.ndarray | list[np.ndarray]
    ) -> list[DecodedIndividual]:
        """Decode one generation's population, once per genome.

        The level-1 engine's ``prepare`` hook. With the fan-out pool,
        it also dedupes the distinct uncached
        ``(layer_range, acc_set, design)`` sub-problems across the
        decoded individuals and solves that batch in parallel; a
        fitness call that then misses ``solution_cache`` takes its
        solution from the batch instead of solving in-process, and the
        probe here is a plain membership test, so the cache counts the
        same lookups as on the serial path. The fan-out is purely a
        wall-clock lever: each solution comes from its content-keyed
        RNG, so results never depend on it running.
        """
        population = [self.decode(genome) for genome in genomes]
        pool = self.level1_backend
        if pool is None:
            return population
        self._prefetched = {}
        jobs: dict[tuple, AcceleratorDesign | None] = {}
        for decoded in population:
            for acc_set, design, layer_range in zip(
                decoded.used_sets, decoded.designs, decoded.ranges
            ):
                key = self._subproblem_key(layer_range, acc_set, design)
                if key not in jobs and key not in self.solution_cache:
                    jobs[key] = design
        if jobs:
            solver = SubproblemSolver(self.evaluator, self.budget.level2)
            for key, solved, stats in pool.map_subproblems(
                solver, list(jobs.items())
            ):
                self._prefetched[key] = solved
                self._record_solved(key)
                if stats is not None:
                    self.subproblems_fanned_out += 1
                    self.worker_layer_cache = self.worker_layer_cache.merge(
                        stats, gauge=max
                    )
        return population

    def build_mapping(self, decoded: DecodedIndividual) -> Mapping:
        return self._solved_mapping(decoded)[0]

    def _solved_mapping(
        self, decoded: DecodedIndividual
    ) -> tuple[Mapping, list[float]]:
        """The mapping of ``decoded`` and its sets' latencies, in
        assignment order, solving each sub-problem as needed."""
        assignments, latencies = [], []
        for acc_set, design, layer_range in zip(
            decoded.used_sets, decoded.designs, decoded.ranges
        ):
            strategies, latency = self.solve_subproblem(
                layer_range, acc_set, design
            )
            assignments.append(
                SetAssignment(
                    layer_range=layer_range,
                    acc_set=AcceleratorSet(acc_set),
                    design=design,
                    strategies=strategies,
                )
            )
            latencies.append(latency)
        mapping = Mapping(
            graph=self.graph, topology=self.topology, assignments=assignments
        )
        return mapping, latencies

    def fitness(self, decoded: DecodedIndividual) -> float:
        """Latency (or pipeline interval) of one decoded individual:
        its sub-problems' set latencies, boundary transfers and host
        input, priced without walking a set.

        Memoization lives in the GA engine (keyed by the individual),
        not here — direct callers always get a fresh price.
        """
        mapping, latencies = self._solved_mapping(decoded)
        return self.evaluator.mapping_objective(
            mapping, latencies, self.objective
        )

    # ------------------------------------------------------------------
    # Seeds
    # ------------------------------------------------------------------

    def seed_genomes(self) -> list[np.ndarray]:
        """Heuristic level-1 individuals.

        One seed per partition candidate, with design genes initialized
        from the profiled normalized performance (Section V) and evenly
        spread cuts. The workload profile is computed once and kept on
        ``design_profile`` so warm sessions skip re-profiling.
        """
        seeds = []
        design_seed: list[float] = []
        if self.topology.kind == "adaptive":
            if self.design_profile is None:
                self.design_profile = profile_designs(
                    self.graph, self.designs
                )
            design_seed = design_gene_seed(
                self.design_profile, [d.name for d in self.designs]
            )
        for index, partition in enumerate(self.partitions):
            genome = np.zeros(self.genome_length)
            partition_genes, design_genes, cut_genes = self._split_genome(genome)
            partition_genes[index] = 1.0
            if self.topology.kind == "adaptive":
                for slot in range(self.max_sets):
                    block = slice(
                        slot * len(self.designs),
                        (slot + 1) * len(self.designs),
                    )
                    design_genes[block] = design_seed
            count = len(partition)
            if count > 1:
                cut_genes[: count - 1] = np.linspace(
                    1.0 / count, (count - 1.0) / count, count - 1
                )
            seeds.append(genome)
        return seeds

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> tuple[Mapping, MappingEvaluation, GAResult]:
        layer_cache_before = self.evaluator.layer_cache_stats
        ga = GeneticAlgorithm(
            genome_length=self.genome_length,
            fitness=self.fitness,
            config=replace(self.budget.level1, cache=True, workers=1),
            rng=self.rng,
            seeds=self.seed_genomes(),
            prepare=self.prefetch_population,
            on_generation=(
                None
                if self.progress is None
                else lambda g: self.progress("level1-generation", g)
            ),
        )
        result = ga.run()
        decoded = self.decode(result.best_genome)
        mapping = self.build_mapping(decoded)
        evaluation = self.evaluator.evaluate_mapping(mapping)
        if self.evaluator.layer_cache_enabled:
            # Whole-search in-process delta, covering the level-2
            # sub-GAs solved here (they price through this evaluator).
            # Fanned-out sub-problem solves ship their workers' private
            # cache counters back with the pool results; that aggregate
            # lands on ``worker_layer_cache`` so the two views partition
            # the run instead of silently losing the workers' share.
            result.layer_cache = self.evaluator.layer_cache_stats.since(
                layer_cache_before
            )
            if self.subproblems_fanned_out:
                result.worker_layer_cache = self.worker_layer_cache
        return mapping, evaluation, result

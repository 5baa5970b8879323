"""Second-level GA: per-layer parallelism strategies (Fig. 3, green/blue).

Given one sub-problem — a layer set mapped to an accelerator set with a
fixed design — this level searches each layer's (ES, SS) annotation.
Following Section V, each layer owns genes that *prioritize* dimensions:
the decode picks the top-priority dims for ES and (optionally) SS,
falling back to coarser strategies when a choice is infeasible for the
layer's shape.

Genome layout per compute layer (14 genes):

====================  ======================================
``[0]``               ES dim count selector (0, 1 or 2 dims)
``[1:7]``             ES priority per canonical loop dim
``[7]``               SS enable
``[8:14]``            SS priority per canonical loop dim
====================  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerators.base import AcceleratorDesign
from repro.core.evaluator import MappingEvaluator, SetEvaluation
from repro.core.ga.engine import GAConfig, GAResult, GeneticAlgorithm
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    cached_sharding_plan,
)
from repro.core.strategy_space import longest_dims_strategy
from repro.dnn.graph import LayerNode
from repro.dnn.layers import LOOP_DIMS, LoopDim
from repro.utils.cache import LruCache

GENES_PER_LAYER = 14


@dataclass
class SetSolution:
    """Best strategies found for one (LayerSet, AccSet, design)."""

    strategies: dict[str, ParallelismStrategy]
    latency_seconds: float
    evaluation: SetEvaluation
    ga: GAResult | None = None


def decode_layer_strategy(
    genes: np.ndarray,
    node: LayerNode,
    parallelism: int,
    dtype_bytes: int = 2,
) -> ParallelismStrategy:
    """Decode one layer's 14 genes into a feasible strategy.

    Dim priorities order the candidates; the ES count is lowered until a
    feasible plan exists (every layer admits the replicated fallback).
    """
    if parallelism == 1:
        return NO_PARALLELISM
    spec = node.conv_spec()
    extents = spec.loop_extents()
    # Pure-python stable sorts: ``sorted`` over six floats beats
    # ``np.argsort`` on arrays this small, and this runs per layer per
    # decoded genome. Ordering is identical (descending value, ties by
    # canonical dim index).
    g = genes.tolist()
    es_count = min(int(g[0] * 3), 2)
    es_pri, ss_pri = g[1:7], g[8:14]
    es_order = [
        LOOP_DIMS[i]
        for i in sorted(range(6), key=lambda i: -es_pri[i])
        if extents[LOOP_DIMS[i]] >= 2
    ]
    ss_enabled = g[7] > 0.5
    ss_order = [
        LOOP_DIMS[i]
        for i in sorted(range(6), key=lambda i: -ss_pri[i])
        if extents[LOOP_DIMS[i]] >= parallelism
    ]

    for count in range(es_count, -1, -1):
        es = tuple(sorted(es_order[:count], key=LOOP_DIMS.index))
        ss = None
        if ss_enabled:
            ss = next((d for d in ss_order if d not in es), None)
        strategy = ParallelismStrategy(es=es, ss=ss)
        if cached_sharding_plan(spec, strategy, parallelism, dtype_bytes) is not None:
            return strategy
        # Retry without SS before dropping an ES dim.
        if ss is not None:
            strategy = ParallelismStrategy(es=es, ss=None)
            if cached_sharding_plan(spec, strategy, parallelism, dtype_bytes) is not None:
                return strategy
    return NO_PARALLELISM


#: Strategy motifs priced by the greedy seed: the Table III patterns
#: (spatial early / channel late) plus SS variants for the scenarios
#: where shared shards pay off (weight streaming, tight DRAM).
SHORTLIST: tuple[ParallelismStrategy, ...] = (
    ParallelismStrategy(es=(LoopDim.H, LoopDim.W)),
    ParallelismStrategy(es=(LoopDim.H,)),
    ParallelismStrategy(es=(LoopDim.W,)),
    ParallelismStrategy(es=(LoopDim.COUT,)),
    ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN)),
    ParallelismStrategy(es=(LoopDim.COUT, LoopDim.H)),
    ParallelismStrategy(es=(LoopDim.CIN, LoopDim.W)),
    ParallelismStrategy(es=(LoopDim.CIN, LoopDim.H)),
    ParallelismStrategy(es=(LoopDim.H,), ss=LoopDim.COUT),
    ParallelismStrategy(es=(LoopDim.W,), ss=LoopDim.COUT),
    ParallelismStrategy(es=(LoopDim.COUT,), ss=LoopDim.H),
    ParallelismStrategy(es=(LoopDim.COUT, LoopDim.H), ss=LoopDim.CIN),
)


def _shortlist_argmin(
    evaluator: MappingEvaluator,
    node: LayerNode,
    accs: tuple[int, ...],
    design: AcceleratorDesign | None,
) -> ParallelismStrategy:
    """The cheapest feasible shortlist strategy for one layer (ties go
    to the earlier shortlist entry)."""
    best: tuple[float, int] | None = None
    best_strategy = NO_PARALLELISM
    for index, strategy in enumerate(SHORTLIST):
        evaluation = evaluator.evaluate_set(
            [node], accs, design, {node.name: strategy}
        )
        if not evaluation.feasible:
            continue
        key = (evaluation.latency_seconds, index)
        if best is None or key < best:
            best = key
            best_strategy = strategy
    return best_strategy


def greedy_strategies(
    evaluator: MappingEvaluator,
    compute_nodes: list[LayerNode],
    accs: tuple[int, ...],
    design: AcceleratorDesign | None,
) -> dict[str, ParallelismStrategy]:
    """Per-layer argmin over the strategy shortlist, priced standalone.

    Ignores inter-layer resharding (the GA refines that), but includes
    compute, collectives, rotations and — in the streaming scenario —
    weight loads, so it lands close to the per-layer optimum.

    Choices are memoized on the evaluator per (layer, acc set, design):
    the argmin is deterministic, so overlapping sub-problems within one
    search — and every search of a warm session — skip re-pricing the
    shortlist for layers already seen.
    """
    chosen: dict[str, ParallelismStrategy] = {}
    for node in compute_nodes:
        strategy = evaluator.cached_greedy_strategy(node.name, accs, design)
        if strategy is None:
            strategy = _shortlist_argmin(evaluator, node, accs, design)
            evaluator.store_greedy_strategy(node.name, accs, design, strategy)
        chosen[node.name] = strategy
    return chosen


def _seed_genomes(
    nodes: list[LayerNode],
    parallelism: int,
    evaluator: MappingEvaluator | None = None,
    accs: tuple[int, ...] | None = None,
    design: AcceleratorDesign | None = None,
) -> list[np.ndarray]:
    """Heuristic first-generation individuals.

    Seeds encode: the per-layer greedy shortlist choice, the baseline
    longest-two-dims rule, pure spatial H/W partitioning, and channel
    partitioning — the mapping motifs of Table III.
    """
    compute = [n for n in nodes if n.is_compute]

    def genome_for(choose) -> np.ndarray:
        genome = np.zeros(len(compute) * GENES_PER_LAYER)
        for i, node in enumerate(compute):
            strategy = choose(node)
            base = i * GENES_PER_LAYER
            genome[base] = min(len(strategy.es) / 2.0 + 0.17, 0.99)
            for rank, dim in enumerate(strategy.canonical_es()):
                genome[base + 1 + LOOP_DIMS.index(dim)] = 1.0 - 0.1 * rank
            genome[base + 7] = 0.0 if strategy.ss is None else 1.0
            if strategy.ss is not None:
                genome[base + 8 + LOOP_DIMS.index(strategy.ss)] = 1.0
        return genome

    seeds = [
        genome_for(lambda n: longest_dims_strategy(n.conv_spec(), 2)),
        genome_for(
            lambda n: ParallelismStrategy(es=(LoopDim.H, LoopDim.W))
        ),
        genome_for(lambda n: longest_dims_strategy(n.conv_spec(), 1)),
        genome_for(
            lambda n: ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN))
        ),
    ]
    if evaluator is not None and accs is not None:
        greedy = greedy_strategies(evaluator, compute, accs, design)
        seeds.insert(0, genome_for(lambda n: greedy[n.name]))
    return seeds


class Level2Fitness:
    """Picklable fitness of one level-2 sub-problem.

    Decodes a genome into per-layer strategies and prices the whole set
    through the shared evaluator. Being a module-level class (not a
    closure) it pickles cleanly.

    Each genome is decoded **once**: a small per-instance memo (keyed by
    the genome's raw bytes) is shared by ``phenotype_key`` and
    ``__call__``, which a :class:`~repro.core.ga.backends.CachedBackend`
    otherwise calls back to back — historically doubling the
    ``make_sharding_plan`` work per evaluation.

    ``phenotype_key`` composes from per-layer sub-keys (one decoded
    strategy per compute layer, slot-aligned with ``compute_nodes``).
    The whole tuple is the :class:`CachedBackend` key — an exact
    phenotype repeat skips evaluation entirely — while near-duplicates
    that differ in a layer or two fall through to ``__call__``, where
    the evaluator's layer-cost cache reuses every sub-key that did not
    change. Warm restarts therefore hit at layer granularity instead of
    all-or-nothing.
    """

    #: Bound on the decode memo; comfortably above any population size
    #: so one batch's ``phenotype_key`` pass stays resident for the
    #: ``__call__`` pass that follows.
    DECODE_MEMO_CAPACITY = 1024

    #: Bound on the per-layer rank→strategy memo. Keys are tiny (a few
    #: ints) and repeat heavily under GA mutation — most children keep
    #: most layers' priority *orderings* even when gene values move.
    RANK_MEMO_CAPACITY = 8192

    def __init__(
        self,
        evaluator: MappingEvaluator,
        nodes: list[LayerNode],
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
    ) -> None:
        self.evaluator = evaluator
        self.nodes = nodes
        self.compute_nodes = [n for n in nodes if n.is_compute]
        self.accs = accs
        self.design = design
        self.dtype_bytes = evaluator.options.dtype_bytes
        self._decode_memo = LruCache(self.DECODE_MEMO_CAPACITY)
        self._rank_memo: dict[tuple, ParallelismStrategy] = {}
        self._layer_dims: list[tuple] | None = None  # built on first batch

    def __getstate__(self) -> dict:
        # The memos are derived state and stay home when the fitness is
        # pickled.
        state = dict(self.__dict__)
        state["_decode_memo"] = None
        state["_rank_memo"] = {}
        state["_layer_dims"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._decode_memo = LruCache(self.DECODE_MEMO_CAPACITY)

    @property
    def genome_length(self) -> int:
        return len(self.compute_nodes) * GENES_PER_LAYER

    @property
    def decode_hits(self) -> int:
        """Decodes skipped thanks to the per-genome memo."""
        return self._decode_memo.hits

    @property
    def decode_misses(self) -> int:
        """Actual genome decodes performed."""
        return self._decode_memo.misses

    def _decoded(self, genome: np.ndarray) -> dict[str, ParallelismStrategy]:
        raw = np.ascontiguousarray(genome).tobytes()
        strategies = self._decode_memo.get(raw)
        if strategies is None:
            strategies = self._decode(genome)
            self._decode_memo.put(raw, strategies)
        return strategies

    def _decode(self, genome: np.ndarray) -> dict[str, ParallelismStrategy]:
        parallelism = len(self.accs)
        strategies = {}
        for i, node in enumerate(self.compute_nodes):
            genes = genome[i * GENES_PER_LAYER : (i + 1) * GENES_PER_LAYER]
            strategies[node.name] = decode_layer_strategy(
                genes, node, parallelism, self.dtype_bytes
            )
        return strategies

    def decode(self, genome: np.ndarray) -> dict[str, ParallelismStrategy]:
        """Per-layer strategies of ``genome`` (memoized; returns a copy)."""
        return dict(self._decoded(genome))

    # -- vectorized population decode ----------------------------------

    def prepare_population(
        self, genomes: list[np.ndarray] | tuple[np.ndarray, ...]
    ) -> None:
        """Batch-decode a whole population into the decode memo.

        Called by the backends before per-genome evaluation (see
        :meth:`EvaluationBackend.prepare`): all strategy genes are
        decoded in one vectorized NumPy pass — the gene→count
        truncation, both priority argsorts and the SS gate run on a
        ``(population, layers, genes)`` tensor instead of per genome —
        and the per-layer feasibility fallback goes through a small
        rank-keyed memo. Bit-identical to the scalar
        :func:`decode_layer_strategy` path (property-tested); the
        subsequent ``phenotype_key``/``__call__`` calls are memo hits.
        """
        fresh_raws: list[bytes] = []
        fresh_rows: list[np.ndarray] = []
        seen: set[bytes] = set()
        for genome in genomes:
            row = np.ascontiguousarray(np.asarray(genome, dtype=float))
            raw = row.tobytes()
            if raw in seen:
                continue
            seen.add(raw)
            if self._decode_memo.get(raw) is not None:
                continue
            fresh_raws.append(raw)
            fresh_rows.append(row)
        if not fresh_rows:
            return
        for raw, strategies in zip(
            fresh_raws, self._decode_batch(np.stack(fresh_rows))
        ):
            self._decode_memo.put(raw, strategies)

    def _decode_batch(
        self, population: np.ndarray
    ) -> list[dict[str, ParallelismStrategy]]:
        """Decode a ``(genomes, genome_length)`` matrix in one pass."""
        layers = len(self.compute_nodes)
        genes = population.reshape(len(population), layers, GENES_PER_LAYER)
        # The vectorized stages mirror decode_layer_strategy exactly:
        # float truncation toward zero, stable descending argsort (ties
        # by canonical dim index), 0.5 threshold. One ``tolist`` per
        # array hands the whole batch to the Python assembly loop as
        # plain ints — per-element numpy scalar access would dominate.
        es_counts = np.minimum((genes[:, :, 0] * 3).astype(np.int64), 2).tolist()
        es_ranks = np.argsort(-genes[:, :, 1:7], axis=2, kind="stable").tolist()
        ss_enabled = (genes[:, :, 7] > 0.5).tolist()
        ss_ranks = np.argsort(-genes[:, :, 8:14], axis=2, kind="stable").tolist()

        parallelism = len(self.accs)
        names = [node.name for node in self.compute_nodes]
        memo = self._rank_memo
        decoded = []
        for g_counts, g_es, g_ss_on, g_ss in zip(
            es_counts, es_ranks, ss_enabled, ss_ranks
        ):
            strategies = {}
            for i, name in enumerate(names):
                key = (i, g_counts[i], tuple(g_es[i]), g_ss_on[i], tuple(g_ss[i]))
                strategy = memo.get(key)
                if strategy is None:
                    strategy = self._resolve_ranks(key, parallelism)
                strategies[name] = strategy
            decoded.append(strategies)
        return decoded

    def _layer_dim_info(self, index: int) -> tuple:
        """(spec, ES-eligible dim indices, SS-eligible dim indices)."""
        if self._layer_dims is None:
            parallelism = len(self.accs)
            dims = []
            for node in self.compute_nodes:
                spec = node.conv_spec()
                extents = spec.loop_extents()
                dims.append(
                    (
                        spec,
                        frozenset(
                            i
                            for i, dim in enumerate(LOOP_DIMS)
                            if extents[dim] >= 2
                        ),
                        frozenset(
                            i
                            for i, dim in enumerate(LOOP_DIMS)
                            if extents[dim] >= parallelism
                        ),
                    )
                )
            self._layer_dims = dims
        return self._layer_dims[index]

    def _resolve_ranks(
        self, key: tuple, parallelism: int
    ) -> ParallelismStrategy:
        """Feasibility fallback from precomputed priority orders.

        Identical to the tail of :func:`decode_layer_strategy`; memoized
        on the ``(layer, count, ES ranks, SS gate, SS ranks)`` key
        because mutation mostly perturbs gene *values* without changing
        the priority *order*, so evolved populations repeat keys
        heavily.
        """
        layer_index, es_count, es_ranks, ss_enabled, ss_ranks = key
        if parallelism == 1:
            return NO_PARALLELISM
        spec, es_eligible, ss_eligible = self._layer_dim_info(layer_index)
        es_order = [LOOP_DIMS[i] for i in es_ranks if i in es_eligible]
        ss_order = [LOOP_DIMS[i] for i in ss_ranks if i in ss_eligible]
        strategy = NO_PARALLELISM
        for count in range(es_count, -1, -1):
            es = tuple(sorted(es_order[:count], key=LOOP_DIMS.index))
            ss = None
            if ss_enabled:
                ss = next((d for d in ss_order if d not in es), None)
            candidate = ParallelismStrategy(es=es, ss=ss)
            if (
                cached_sharding_plan(
                    spec, candidate, parallelism, self.dtype_bytes
                )
                is not None
            ):
                strategy = candidate
                break
            if ss is not None:
                candidate = ParallelismStrategy(es=es, ss=None)
                if (
                    cached_sharding_plan(
                        spec, candidate, parallelism, self.dtype_bytes
                    )
                    is not None
                ):
                    strategy = candidate
                    break
        if len(self._rank_memo) >= self.RANK_MEMO_CAPACITY:
            self._rank_memo.clear()  # flat dict beats LRU bookkeeping here
        self._rank_memo[key] = strategy
        return strategy

    def phenotype_key(self, genome: np.ndarray) -> tuple:
        """Tuple of per-layer strategy sub-keys, one per compute layer."""
        strategies = self._decoded(genome)
        return tuple(strategies[n.name] for n in self.compute_nodes)

    def __call__(self, genome: np.ndarray) -> float:
        return self.evaluator.evaluate_set(
            self.nodes, self.accs, self.design, self._decoded(genome)
        ).latency_seconds


def optimize_set(
    evaluator: MappingEvaluator,
    nodes: list[LayerNode],
    accs: tuple[int, ...],
    design: AcceleratorDesign | None,
    config: GAConfig,
    rng: np.random.Generator,
) -> SetSolution:
    """Run the second-level GA on one sub-problem.

    The engine evaluates serially, memoizing on the decoded phenotype
    when ``config.cache`` is set (a fresh memoizer per sub-problem,
    since phenotype keys are only unique within one sub-problem).
    """
    compute_nodes = [n for n in nodes if n.is_compute]
    parallelism = len(accs)

    if not compute_nodes or parallelism == 1:
        strategies = {n.name: NO_PARALLELISM for n in compute_nodes}
        evaluation = evaluator.evaluate_set(nodes, accs, design, strategies)
        return SetSolution(strategies, evaluation.latency_seconds, evaluation)

    fitness = Level2Fitness(evaluator, nodes, accs, design)
    layer_cache_before = evaluator.layer_cache_stats
    ga = GeneticAlgorithm(
        genome_length=fitness.genome_length,
        fitness=fitness,
        config=config,
        rng=rng,
        seeds=_seed_genomes(nodes, parallelism, evaluator, accs, design),
        key_fn=fitness.phenotype_key,
    )
    result = ga.run()
    best_strategies = fitness.decode(result.best_genome)
    evaluation = evaluator.evaluate_set(nodes, accs, design, best_strategies)
    if evaluator.layer_cache_enabled:
        result.layer_cache = evaluator.layer_cache_stats.since(
            layer_cache_before
        )
    return SetSolution(
        strategies=best_strategies,
        latency_seconds=evaluation.latency_seconds,
        evaluation=evaluation,
        ga=result,
    )

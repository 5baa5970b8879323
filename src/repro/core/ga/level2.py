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
from repro.core.evaluator import (
    MappingEvaluator,
    SetEvaluation,
    StrategyCatalog,
    SubproblemCosts,
)
from repro.core.ga.engine import GAConfig, GAResult, GeneticAlgorithm
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    cached_sharding_plan,
)
from repro.core.strategy_space import longest_dims_strategy
from repro.dnn.graph import LayerNode
from repro.dnn.layers import LOOP_DIMS, ConvSpec, LoopDim

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
    spec = node.conv_spec()
    extents = spec.loop_extents()
    # Pure-python stable sorts: ``sorted`` over six floats beats
    # ``np.argsort`` on arrays this small, and this runs per layer per
    # decoded genome. Ordering is identical (descending value, ties by
    # canonical dim index).
    g = genes.tolist()
    es_pri, ss_pri = g[1:7], g[8:14]
    es_order = [
        LOOP_DIMS[i]
        for i in sorted(range(6), key=lambda i: -es_pri[i])
        if extents[LOOP_DIMS[i]] >= 2
    ]
    ss_order = [
        LOOP_DIMS[i]
        for i in sorted(range(6), key=lambda i: -ss_pri[i])
        if extents[LOOP_DIMS[i]] >= parallelism
    ]
    return _first_feasible(
        spec,
        parallelism,
        dtype_bytes,
        min(int(g[0] * 3), 2),
        es_order,
        ss_order if g[7] > 0.5 else [],
    )


def _first_feasible(
    spec: ConvSpec,
    parallelism: int,
    dtype_bytes: int,
    es_count: int,
    es_order: list[LoopDim],
    ss_order: list[LoopDim],
) -> ParallelismStrategy:
    """The decode's feasibility fallback over ES/SS dims in priority
    order (an empty ``ss_order`` means SS is off)."""
    if parallelism == 1:
        return NO_PARALLELISM
    for count in range(es_count, -1, -1):
        es = tuple(sorted(es_order[:count], key=LOOP_DIMS.index))
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


#: Dim index marking an empty slot of a decode code.
_NO_DIM = len(LOOP_DIMS)

#: Place values of a decode code's five dim slots (two ES, three SS),
#: one base-7 digit each above the ES count (see Level2Fitness._codes).
_SLOT_WEIGHTS = (_NO_DIM + 1) ** np.arange(5)


def _top_dims(
    priorities: np.ndarray, eligible: np.ndarray, slots: np.ndarray, width: int
) -> np.ndarray:
    """Per (genome, layer), the canonical indices of the ``slots``
    highest-priority eligible dims (ties by canonical index, as the
    scalar decode sorts), padded with :data:`_NO_DIM` to ``width``."""
    keys = np.where(eligible, -priorities, np.inf)
    order = np.argsort(keys, axis=2, kind="stable")[:, :, :width]
    rank = np.arange(width)
    keep = (rank < slots[:, :, None]) & (rank < eligible.sum(axis=1)[:, None])
    return np.where(keep, order, _NO_DIM)


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
    costs: SubproblemCosts, index: int
) -> ParallelismStrategy:
    """The cheapest feasible shortlist strategy for layer ``index``
    priced alone (ties go to the earlier shortlist entry)."""
    best: tuple[float, int] | None = None
    best_strategy = NO_PARALLELISM
    for rank, strategy in enumerate(SHORTLIST):
        latency = costs.layer_latency(index, strategy)
        if latency is None:
            continue
        key = (latency, rank)
        if best is None or key < best:
            best = key
            best_strategy = strategy
    return best_strategy


def greedy_strategies(costs: SubproblemCosts) -> dict[str, ParallelismStrategy]:
    """Per-layer argmin over the strategy shortlist, priced standalone.

    Ignores inter-layer resharding (the GA refines that), but includes
    compute, collectives, rotations and — in the streaming scenario —
    weight loads, so it lands close to the per-layer optimum.

    Choices are memoized on the evaluator per (layer shape's catalog,
    acc set, design): the argmin is deterministic, so repeats of one
    shape, overlapping sub-problems within one search and every search
    of a warm session skip re-pricing the shortlist for shapes already
    seen.
    """
    evaluator, accs, design = costs.evaluator, costs.accs, costs.design
    chosen: dict[str, ParallelismStrategy] = {}
    catalogs = iter(costs.catalogs)
    for index, node in enumerate(costs.nodes):
        if not node.is_compute:
            continue
        catalog = next(catalogs)
        strategy = evaluator.cached_greedy_strategy(catalog, accs, design)
        if strategy is None:
            strategy = _shortlist_argmin(costs, index)
            evaluator.store_greedy_strategy(catalog, accs, design, strategy)
        chosen[node.name] = strategy
    return chosen


def _seed_block(strategy: ParallelismStrategy) -> np.ndarray:
    """The 14 genes a heuristic seed writes for one layer's ``strategy``."""
    block = np.zeros(GENES_PER_LAYER)
    block[0] = min(len(strategy.es) / 2.0 + 0.17, 0.99)
    for rank, dim in enumerate(strategy.canonical_es()):
        block[1 + LOOP_DIMS.index(dim)] = 1.0 - 0.1 * rank
    if strategy.ss is not None:
        block[7] = 1.0
        block[8 + LOOP_DIMS.index(strategy.ss)] = 1.0
    return block


def _seed_genomes(
    nodes: list[LayerNode],
    parallelism: int,
    costs: SubproblemCosts | None = None,
) -> list[np.ndarray]:
    """Heuristic first-generation individuals.

    Seeds encode: the per-layer greedy shortlist choice, the baseline
    longest-two-dims rule, pure spatial H/W partitioning, and channel
    partitioning — the mapping motifs of Table III. Each strategy's
    gene block is built once per call and shared by every layer and
    seed that takes it.
    """
    compute = [n for n in nodes if n.is_compute]
    blocks: dict[ParallelismStrategy, np.ndarray] = {}

    def genome_for(choose) -> np.ndarray:
        row = []
        for node in compute:
            strategy = choose(node)
            block = blocks.get(strategy)
            if block is None:
                block = blocks[strategy] = _seed_block(strategy)
            row.append(block)
        return np.concatenate(row)

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
    if costs is not None:
        greedy = greedy_strategies(costs)
        seeds.insert(0, genome_for(lambda n: greedy[n.name]))
    return seeds


class Level2Fitness:
    """Fitness of one level-2 sub-problem.

    The GA engine hands each generation to :meth:`prepare_population`,
    which decodes every genome into its phenotype: a tuple of strategy
    ids, one per compute layer, slot-aligned with ``compute_nodes`` and
    interned in the evaluator's per-(layer shape, set size) strategy
    catalogs (``costs.strategies(phenotype)`` names them; :meth:`decode`
    returns them named). The engine memoizes on that tuple under
    ``GAConfig.cache`` — an exact phenotype repeat skips evaluation
    entirely — and :meth:`__call__` prices a phenotype by walking the
    sub-problem's :class:`~repro.core.evaluator.SubproblemCosts` table
    (:attr:`costs`), the same walk ``evaluate_set`` and the greedy seed
    take, kept for the whole GA run so its records, keyed by (strategy
    id, upstream state id) and shared by the layers of one shape, serve
    every genome. Near-duplicates that differ in a layer or two replay
    the record of every layer whose strategy and upstream state did not
    change and price only the rest, through the evaluator's layer-cost
    memos, so warm restarts hit at layer granularity instead of
    all-or-nothing.
    """

    def __init__(
        self,
        evaluator: MappingEvaluator,
        nodes: list[LayerNode],
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
    ) -> None:
        self.evaluator = evaluator
        self.nodes = nodes
        self.accs = accs
        self.design = design
        self.dtype_bytes = evaluator.options.dtype_bytes
        #: The sub-problem's pricing table.
        self.costs = SubproblemCosts(evaluator, nodes, accs, design)
        self.compute_nodes = self.costs.compute_nodes
        extents = np.array(
            [
                [node.conv_spec().loop_extents()[d] for d in LOOP_DIMS]
                for node in self.compute_nodes
            ],
            dtype=np.int64,
        ).reshape(len(self.compute_nodes), len(LOOP_DIMS))
        self._es_eligible = extents >= 2
        self._ss_eligible = extents >= len(accs)

    @property
    def genome_length(self) -> int:
        return len(self.compute_nodes) * GENES_PER_LAYER

    def decode(self, genome: np.ndarray) -> dict[str, ParallelismStrategy]:
        """Per-layer strategies of ``genome``, in a fresh dict."""
        return self.costs.strategies(self.prepare_population([genome])[0])

    # -- vectorized population decode ----------------------------------

    def prepare_population(
        self, genomes: np.ndarray | list[np.ndarray]
    ) -> list[tuple[int, ...]]:
        """Batch-decode a population: one strategy-id tuple per genome.

        The GA engine's ``prepare`` hook. One vectorized NumPy pass
        over a ``(population, layers, genes)`` tensor reduces every
        layer of every genome to one integer code (see :meth:`_codes`);
        each layer's column of codes then maps to strategy ids through
        the evaluator-wide code memo of the layer's catalog, keyed by
        (layer shape, set size, code). A miss runs the scalar decode's
        feasibility fallback over dim indices, its plan checks read
        from the catalog's memo keyed by (ES dims, SS dim), so no
        strategy is built or hashed for a code seen before, in this
        sub-problem or any other of the evaluator's. The strategies the
        ids name are bit-identical to the scalar
        :func:`decode_layer_strategy` (property-tested). Decode only:
        pricing happens in :meth:`__call__`.
        """
        codes = self._codes(np.asarray(genomes, dtype=float))
        if not self.compute_nodes:
            return [()] * len(codes)
        columns = []
        for catalog, column in zip(self.costs.catalogs, codes.T.tolist()):
            memo = catalog.codes
            ids = list(map(memo.get, column))
            if None in ids:
                for code in column:
                    if code not in memo:
                        memo[code] = _decoded_id(catalog, code)
                ids = list(map(memo.__getitem__, column))
            columns.append(ids)
        return list(zip(*columns))

    def _codes(self, population: np.ndarray) -> np.ndarray:
        """One integer per (genome, compute layer) fixing its strategy.

        The scalar decode depends only on the ES count, the top-2
        ES-eligible dims, the SS gate and the top-3 SS-eligible dims:
        ES takes a prefix of the eligible order and SS the first
        eligible dim not in ES, so only ``count`` ES and ``count + 1``
        SS dims matter. Slots past those (or past the eligible dims,
        or every SS slot when the gate is off) hold :data:`_NO_DIM`, so
        genomes with the same strategy inputs share a code.
        """
        layers = len(self.compute_nodes)
        genes = population.reshape(len(population), layers, GENES_PER_LAYER)
        es_count = np.minimum((genes[:, :, 0] * 3).astype(np.int64), 2)
        ss_slots = np.where(genes[:, :, 7] > 0.5, es_count + 1, 0)
        dims = np.concatenate(
            (
                _top_dims(genes[:, :, 1:7], self._es_eligible, es_count, 2),
                _top_dims(genes[:, :, 8:14], self._ss_eligible, ss_slots, 3),
            ),
            axis=2,
        )
        return (dims * _SLOT_WEIGHTS).sum(axis=2) * 3 + es_count

    def __call__(self, phenotype: tuple[int, ...]) -> float:
        return self.costs.latency(phenotype)


def _decoded_id(catalog: StrategyCatalog, code: int) -> int:
    """The strategy id decode ``code`` (see :meth:`Level2Fitness._codes`)
    resolves to in ``catalog``: :func:`_first_feasible` over canonical
    dim indices, each plan check read from the catalog's candidate
    memo."""
    code, es_count = divmod(code, 3)
    dims = []
    for _ in range(_SLOT_WEIGHTS.size):
        code, dim = divmod(code, _NO_DIM + 1)
        dims.append(dim)
    if catalog.p == 1:
        return catalog.id_of(NO_PARALLELISM)
    es_order = [d for d in dims[:2] if d != _NO_DIM]
    ss_order = [d for d in dims[2:] if d != _NO_DIM]
    for count in range(es_count, -1, -1):
        es = tuple(sorted(es_order[:count]))
        ss = next((d for d in ss_order if d not in es), None)
        strategy_id = catalog.candidate_id(es, ss)
        if strategy_id is None and ss is not None:
            # Retry without SS before dropping an ES dim.
            strategy_id = catalog.candidate_id(es, None)
        if strategy_id is not None:
            return strategy_id
    return catalog.id_of(NO_PARALLELISM)


def optimize_set(
    evaluator: MappingEvaluator,
    nodes: list[LayerNode],
    accs: tuple[int, ...],
    design: AcceleratorDesign | None,
    config: GAConfig,
    rng: np.random.Generator,
) -> SetSolution:
    """Run the second-level GA on one sub-problem.

    The engine decodes each generation once through
    :meth:`Level2Fitness.prepare_population` and evaluates serially,
    memoizing on the per-layer strategy tuple when ``config.cache`` is
    set (the memo lives for one engine run, so one sub-problem:
    phenotypes are only unique within one). The winner's
    ``evaluation`` is priced on the GA's own table, replaying the
    records its genomes left (``evaluate_set``'s layer costs, float for
    float, without re-pricing a layer); a sub-problem with no compute
    layer, or on one accelerator, runs no GA and is priced by
    ``evaluate_set``. Level 1 keeps the solution's strategies and
    ``latency_seconds`` and scores mappings from them.
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
        seeds=_seed_genomes(nodes, parallelism, fitness.costs),
        prepare=fitness.prepare_population,
    )
    result = ga.run()
    best_strategies = fitness.decode(result.best_genome)
    evaluation = fitness.costs.evaluate(best_strategies)
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

"""Latency evaluation of mappings: compute + collectives + transfers.

This is the fitness oracle of both GA levels. A set of layers mapped to
an accelerator set with chosen strategies becomes a sequence of costs:

1. *resharding* — aligning a layer's input with the sharding its
   strategy expects, priced as an intra-set redistribution;
2. *compute* — per-phase analytical cycles on the shard (fixed-design
   sets stall until the slowest member finishes, as in Section VI-C);
3. *halo exchange* — neighbour rows/columns under spatial ES with K>1;
4. *all-reduce* — partial-sum reduction when ES cuts a reduction dim;
5. *SS rotations* — (P-1) ring steps between the P phases;

plus, at mapping level, set-to-set boundary transfers and the initial
host input load. The same cost walk can emit an
:class:`~repro.simulator.program.ExecutionProgram` so the event-driven
simulator replays exactly what the analytical path priced.

Pricing itself is delegated to a pluggable
:class:`~repro.core.costmodel.CostModel`: the evaluator owns the *walk*
(which operations happen, in what order, threading sharding state),
while the model owns the *prices* (what each operation costs). The
default :class:`~repro.core.costmodel.AnalyticalCostModel` reproduces
the historical hard-coded behaviour bit-identically; see
:mod:`repro.core.costmodel` for the interface contract and
:mod:`repro.core.validation` for the simulator-replay harness that
quantifies each model's divergence.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

from repro.accelerators.base import AcceleratorDesign
from repro.core.costmodel import AnalyticalCostModel, CostModel, CostModelSpec
from repro.core.formulation import Mapping, SetAssignment
from repro.core.memory_check import SetMemoryReport
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    ShardingPlan,
    cached_sharding_plan,
)
from repro.dnn.graph import ComputationGraph, LayerNode
from repro.dnn.layers import LOOP_DIMS, ConvSpec, LoopDim
from repro.simulator.program import (
    CollectiveStep,
    ComputeStep,
    ExecutionProgram,
    HostStep,
    TransferStep,
)
from repro.system.topology import SystemTopology
from repro.utils.cache import LruCache
from repro.utils.counters import Counters, gauge
from repro.utils.validation import require, require_positive

#: Latency assigned to strategies with no feasible sharding plan. Large
#: but finite so the GA can still rank broken genomes.
INFEASIBLE_SECONDS = 1e6


@dataclass(frozen=True)
class EvaluatorOptions:
    """Knobs of the cost model.

    Attributes:
        dtype_bytes: Datum size (16-bit fixed point by default).
        include_host_input: Charge the initial image load from host
            memory to the first accelerator set.
        include_resharding: Charge intra-set redistribution between
            consecutive layers with mismatched shardings.
        include_halo: Charge neighbour halo exchanges for spatial ES.
        memory_spill: Charge a host round-trip for DRAM overflow bytes
            (and mark the evaluation invalid), instead of rejecting
            outright — keeps the GA's fitness landscape connected.
        weights_resident: When True (dedicated-inference scenario, the
            Table III setting), weights are pre-loaded and only occupy
            DRAM. When False (cloud-serving scenario, the Table IV /
            H2H setting), each inference streams every accelerator's
            weight shards from host memory — sharding then also divides
            the load traffic, which is where multi-accelerator sets
            amortize the host bandwidth.
        layer_cache: Memoize layer prices, keyed on a layer's shape,
            not its name. A compute (conv/FC) layer's upstream-free
            seconds (compute, all-reduce, rotation, halo) sit in an
            evaluator-owned bounded LRU keyed on (catalog id, strategy
            id, set key), the catalog id naming its (conv spec, set
            size) and the set key being (accelerator set, design token,
            cost-model token); its compute seconds are also memoized
            per (catalog id, strategy id, designs), so every set of one
            size and design shares them. The share of a layer's needed
            input that its producer's sharding leaves in place (the
            alignment fraction) is memoized per (input-need state id,
            upstream state id), shared by every strategy and layer
            shape of one input need, and a resharding's transfer
            seconds per (accelerator set, bytes); a non-compute layer's
            price, which depends on neither strategy nor upstream
            sharding, per (kind, output shape, set key). The options
            are part of every key by construction, being fixed for the
            evaluator that owns the memos, while the cost model — also
            fixed at construction — is part of the LRU key
            *explicitly* (its spec token), so entries can never alias
            across models even if a cache were ever shared (catalog ids
            count from 0 in first-sight order, alike in two evaluators
            of one graph). Results are
            bit-identical with the cache on or off — a hit replays the
            exact floats of the original computation — so this is
            purely a wall-clock knob. Program emission
            (``compile_program``) prices through the same memos and
            appends each layer's steps from what it priced, so a warm,
            cold or cache-off evaluator emits one program. The knob also
            switches the record memos of the set walk
            (:class:`SubproblemCosts`): off, every walk re-prices every
            layer, a level-2 winner included (on, it replays the
            records its GA's genomes left). Strategy, catalog and
            sharding-state ids are interned either way, and a catalog
            keeps its plans' bytes (input needs included) either way:
            they name or size prices, they are not prices.
        layer_cache_capacity: Maximum number of upstream-free
            compute-layer prices in the LRU before eviction.
    """

    dtype_bytes: int = 2
    include_host_input: bool = True
    include_resharding: bool = True
    include_halo: bool = True
    memory_spill: bool = True
    weights_resident: bool = True
    layer_cache: bool = True
    layer_cache_capacity: int = 65536


@dataclass(frozen=True)
class LayerCacheStats(Counters):
    """Counters of the evaluator's per-layer cost cache: the LRU of
    upstream-free compute-layer prices (see
    :attr:`EvaluatorOptions.layer_cache`).

    A lookup is a set walk pricing a (compute layer shape with a plan,
    strategy, upstream state) it holds no record of; a miss is a
    (conv spec, strategy, set) the LRU does not hold, so the layers of
    one shape miss once between them.
    ``hits``/``misses``/``evictions`` are cumulative counters;
    ``entries`` is the current cache population (a gauge).
    """

    hits: int = 0
    misses: int = 0
    entries: int = gauge()
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


@dataclass
class LayerCost:
    """Per-layer latency breakdown, for reports and pattern tests."""

    name: str
    compute_seconds: float
    resharding_seconds: float = 0.0
    allreduce_seconds: float = 0.0
    rotation_seconds: float = 0.0
    halo_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.compute_seconds
            + self.resharding_seconds
            + self.allreduce_seconds
            + self.rotation_seconds
            + self.halo_seconds
        )

    @property
    def comm_seconds(self) -> float:
        return self.total_seconds - self.compute_seconds

    def __setstate__(self, state: dict) -> None:
        # Store entries written while each layer cost carried its
        # sharding plan still hold one; drop it on load. One setattr
        # per field keeps the compact attribute storage a
        # ``__dict__.update`` would replace with a full dict (~200 B
        # more per unpickled layer cost).
        state.pop("plan", None)
        for name, value in state.items():
            setattr(self, name, value)


@dataclass
class SetEvaluation:
    """Outcome of evaluating one (LayerSet, AccSet) sub-problem."""

    latency_seconds: float
    layer_costs: list[LayerCost]
    memory: SetMemoryReport
    feasible: bool

    @property
    def compute_seconds(self) -> float:
        return sum(c.compute_seconds for c in self.layer_costs)

    @property
    def comm_seconds(self) -> float:
        return sum(c.comm_seconds for c in self.layer_costs)


@dataclass
class MappingEvaluation:
    """Whole-network latency and its decomposition."""

    latency_seconds: float
    set_evaluations: list[SetEvaluation]
    transfer_seconds: float
    host_input_seconds: float
    feasible: bool
    #: Individual boundary-transfer durations (one per crossing edge).
    transfer_breakdown: list[float] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        return self.latency_seconds * 1e3

    @property
    def pipeline_interval_seconds(self) -> float:
        """Steady-state initiation interval when streaming many inputs.

        The paper evaluates single-image latency (sets execute in
        sequence); with a stream of inputs the sets form a pipeline
        whose throughput is set by its slowest stage — either one
        accelerator set or one boundary transfer. This extension metric
        lets users trade the latency objective for throughput.
        """
        return _pipeline_interval(
            [e.latency_seconds for e in self.set_evaluations],
            self.transfer_breakdown,
            self.host_input_seconds,
        )

    @property
    def pipeline_throughput_per_second(self) -> float:
        interval = self.pipeline_interval_seconds
        return 1.0 / interval if interval > 0 else float("inf")


def _mapping_latency(
    set_latencies: list[float], transfers: list[float], host_seconds: float
) -> float:
    """A mapping's latency from its parts, in one float order: the set
    latencies summed, then the boundary transfers' sum, then the host
    input."""
    return sum(set_latencies) + sum(transfers) + host_seconds


def _pipeline_interval(
    set_latencies: list[float], transfers: list[float], host_seconds: float
) -> float:
    """A mapping's pipeline interval from its parts: its slowest stage,
    sets first, then the boundary transfers, then the host input."""
    return max([*set_latencies, *transfers, host_seconds])


def _map_output_to_input_sharding(
    sharding: dict[LoopDim, int],
) -> dict[LoopDim, int]:
    """Producer output dims -> consumer input dims (COUT feeds CIN)."""
    mapped = {}
    for dim, degree in sharding.items():
        if dim == LoopDim.COUT:
            mapped[LoopDim.CIN] = degree
        else:
            mapped[dim] = degree
    return mapped


def _alignment_fraction(
    have: dict[LoopDim, int], need: dict[LoopDim, int]
) -> float:
    """Estimated locally-available fraction of the needed input slice.

    For each dim, two block partitions of degrees (g_have, g_need)
    overlap on roughly ``min/max`` of their block sizes; aligned dims
    contribute 1. The product over dims estimates how much of its
    needed slice an accelerator already holds.
    """
    fraction = 1.0
    for dim in set(have) | set(need):
        g_have = have.get(dim, 1)
        g_need = need.get(dim, 1)
        if g_have == g_need:
            continue
        fraction *= min(g_have, g_need) / max(g_have, g_need)
    return fraction


def _input_need(
    plan: ShardingPlan, dtype_bytes: int
) -> tuple[int, float, dict[LoopDim, int]]:
    """The input bytes of ``plan``'s layer, the bytes of that input each
    accelerator needs, and its input need: the partition degree per
    input dim. A resharding moves the needed bytes the producer's
    sharding does not already leave in place (see
    :func:`_alignment_fraction`)."""
    need: dict[LoopDim, int] = {}
    inp = plan.spec.tensors()["input"]
    for dim, degree in plan.degrees.items():
        if inp.has_dim(dim):
            need[dim] = degree
    if plan.strategy.ss is not None and inp.has_dim(plan.strategy.ss):
        need[plan.strategy.ss] = plan.parallelism
    input_bytes = inp.numel * dtype_bytes
    return input_bytes, input_bytes * plan.input_fraction_needed, need


#: Interned sharding state of data that arrives aligned (the boundary
#: transfer, or a host load, delivered it in the consumer's layout).
_ALIGNED = 0

#: Interned output state of a compute layer with no feasible plan. The
#: walk records no sharding for such a layer, so its consumers look
#: past it.
_NO_PLAN = -1


class _States:
    """Sharding states interned to small ints: :data:`_ALIGNED`,
    :data:`_NO_PLAN`, or ``k >= 1`` naming the state dict ``dicts[k]``
    (a layer's output sharding, or the input need of a strategy).

    Keyed by the state's item tuple, order included, so ``dicts[k]``
    is the very dict the walk would hand over.
    """

    __slots__ = ("ids", "dicts")

    def __init__(self) -> None:
        self.ids: dict[tuple, int] = {}
        self.dicts: list[dict[LoopDim, int] | None] = [None]

    def id_of(self, state: dict[LoopDim, int] | None) -> int:
        if state is None:
            return _ALIGNED
        items = tuple(state.items())
        state_id = self.ids.get(items)
        if state_id is None:
            state_id = self.ids[items] = len(self.dicts)
            self.dicts.append(dict(items))
        return state_id


@lru_cache(maxsize=None)
def _candidate(es: tuple[int, ...], ss: int | None) -> ParallelismStrategy:
    """The decode's candidate strategy ES = ``es``, SS = ``ss``
    (canonical dim indices), one object per process for at most the
    118 strategies of Section IV's space. A catalog's own candidate
    memo starts empty with every evaluator (one search on resnet18
    misses it 1,017 times across 48 catalogs), so without this table
    each search would build, hash and compare a fresh object per
    catalog and candidate."""
    return ParallelismStrategy(
        es=tuple(LOOP_DIMS[d] for d in es),
        ss=None if ss is None else LOOP_DIMS[ss],
    )


class StrategyCatalog:
    """The strategies one layer shape ``spec`` is priced under on sets
    of one size ``p``, interned to small ints (evaluator-owned, see
    ``MappingEvaluator._catalog``). Every compute layer of that shape
    shares the catalog, and ``id``, the catalog's own small int in
    first-sight order, stands for ``(spec, p)`` in the price memos.

    Entry ``entries[id]`` of ``strategies[id]`` holds what the walk
    needs of its plan whatever the set and upstream state: ``(plan,
    output state id, weight, activation and load bytes)``; ``needs[id]``
    holds, once a walk priced a resharding into it, its input bytes,
    the bytes of that input each accelerator needs and its input-need
    state id (see :meth:`need`). The catalog also keeps the level-2
    decode's memos: strategy id per decode code and per ``(ES dims, SS
    dim)`` candidate (canonical dim indices), ``None`` where the
    candidate has no plan.
    """

    __slots__ = (
        "spec", "p", "id", "dtype_bytes", "states", "strategies", "ids",
        "entries", "needs", "codes", "candidates",
    )

    def __init__(
        self, spec: ConvSpec, p: int, catalog_id: int, dtype_bytes: int,
        states: _States,
    ):
        self.spec = spec
        self.p = p
        self.id = catalog_id
        self.dtype_bytes = dtype_bytes
        self.states = states
        self.strategies: list[ParallelismStrategy] = []
        self.ids: dict[ParallelismStrategy, int] = {}
        self.entries: list[tuple] = []
        self.needs: list[tuple | None] = []
        self.codes: dict[int, int] = {}
        self.candidates: dict[tuple, int | None] = {}

    def id_of(self, strategy: ParallelismStrategy) -> int:
        """The id of ``strategy``, interning it on first sight."""
        strategy_id = self.ids.get(strategy)
        if strategy_id is None:
            strategy_id = self._add(strategy, self._plan(strategy))
        return strategy_id

    def candidate_id(self, es: tuple[int, ...], ss: int | None) -> int | None:
        """The id of the strategy ES = ``es``, SS = ``ss`` (canonical
        dim indices, ``es`` sorted), or ``None`` when it has no plan."""
        key = (es, ss)
        if key in self.candidates:
            return self.candidates[key]
        strategy = _candidate(es, ss)
        plan = self._plan(strategy)
        strategy_id = None
        if plan is not None:
            strategy_id = self.ids.get(strategy)
            if strategy_id is None:
                strategy_id = self._add(strategy, plan)
        self.candidates[key] = strategy_id
        return strategy_id

    def need(self, strategy_id: int) -> tuple[int, float, int]:
        """(input bytes, bytes of that input each accelerator needs,
        input-need state id) of strategy ``strategy_id``, which has a
        plan; built on first use."""
        need = self.needs[strategy_id]
        if need is None:
            input_bytes, needed_per_acc, dims = _input_need(
                self.entries[strategy_id][0], self.dtype_bytes
            )
            need = self.needs[strategy_id] = (
                input_bytes, needed_per_acc, self.states.id_of(dims)
            )
        return need

    def _plan(self, strategy: ParallelismStrategy) -> ShardingPlan | None:
        return cached_sharding_plan(
            self.spec, strategy, self.p, self.dtype_bytes
        )

    def _add(
        self, strategy: ParallelismStrategy, plan: ShardingPlan | None
    ) -> int:
        strategy_id = self.ids[strategy] = len(self.strategies)
        self.strategies.append(strategy)
        self.needs.append(None)
        if plan is None:
            self.entries.append((None, _NO_PLAN, 0, 0, 0))
        else:
            self.entries.append((
                plan,
                self.states.id_of(plan.output_sharding),
                plan.weight_bytes_per_acc,
                plan.activation_bytes_per_acc,
                plan.weight_load_bytes_per_acc,
            ))
        return strategy_id


class MappingEvaluator:
    """Prices mappings on a system with a fixed workload.

    The evaluator owns the cost *walk* — which operations a mapping
    implies, in what order, threading sharding state between layers —
    and delegates every price to a pluggable
    :class:`~repro.core.costmodel.CostModel` (the default
    :class:`~repro.core.costmodel.AnalyticalCostModel` reproduces the
    historical inline pricing bit-identically).

    A set has one walk, :class:`SubproblemCosts`: ``evaluate_set`` walks
    a fresh table, and level 2 walks one table per sub-problem for all
    its genomes, its winner included. The walk runs on integer tables
    the evaluator owns:

    * sharding states (output shardings and input needs) interned as
      ints (:data:`_ALIGNED`, :data:`_NO_PLAN`, ``k >= 1`` for a state
      dict);
    * per (conv spec, set size), a catalog with a small-int id
      interning the strategies it is priced under, one entry per
      strategy id holding its plan, output-state id and bytes (and,
      once a walk needs it, its input need), plus the level-2 decode's
      code and candidate memos;
    * the output-state id of a non-compute layer per (kind, output
      shape, upstream state id);
    * per (layer names, set size), a table's layout: its layers' in-set
      inputs and shapes, catalogs resolved (see :meth:`_layout`).

    A price depends on a layer's shape, never its name, so the layers
    of a repeated block share every price, memoized at the key each
    part depends on (see :attr:`EvaluatorOptions.layer_cache`): the
    upstream-free seconds of a compute layer per (catalog id, strategy
    id, set), its compute seconds per (catalog id, strategy id,
    designs), a resharding's alignment fraction per (input-need state
    id, upstream state id), its transfer per (set, bytes) and
    non-compute prices per (kind, output shape, set). A genome that
    differs from an already-priced one in a single layer's strategy
    re-prices that layer (and any downstream layers whose upstream
    state shifted), not the whole set. A whole mapping's price is its
    sets' latencies, its boundary transfers and its host input, summed
    in one float order (:meth:`mapping_objective`), so level 1 scores a
    mapping from the latencies its level-2 solves recorded and only
    :meth:`evaluate_mapping` walks the sets again. No id leaves the
    evaluator: results, pickles and store artifacts carry strategies
    and plans.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        topology: SystemTopology,
        options: EvaluatorOptions | None = None,
        cost_model: CostModel | CostModelSpec | None = None,
    ):
        self.graph = graph
        self.topology = topology
        self.options = options or EvaluatorOptions()
        if cost_model is None:
            cost_model = AnalyticalCostModel(topology)
        elif isinstance(cost_model, CostModelSpec):
            cost_model = cost_model.build(topology)
        #: The pluggable pricing model every cost below comes from.
        self.cost_model = cost_model
        # The model's identity participates in every layer-cache key:
        # two evaluators priced by different models must never share
        # cached entries, even through a (hypothetically) shared cache.
        self._cost_token = cost_model.spec.token()
        self._nodes = graph.nodes()
        self._index = {node.name: i for i, node in enumerate(self._nodes)}
        if self.options.layer_cache:
            require_positive(
                self.options.layer_cache_capacity, "layer_cache_capacity"
            )
        # The LRU and the price memos beside it, on and off together
        # (None when off). A pool or ReLU costs the same whatever
        # sharding reaches it, so one entry per (kind, output shape,
        # set) serves every genome; compute seconds take no accelerator
        # ids, so one entry per (catalog, strategy, designs) serves
        # every set of one size and design; the share of its input a
        # resharding leaves in place is a function of the layer's input
        # need and the upstream state, its seconds of the set and the
        # bytes it moves. These entries are few and tiny, so no LRU
        # bound.
        self._layer_cache: LruCache | None = None
        self._lightweight_memo: dict[tuple, dict] | None = None
        self._compute_memo: dict[tuple, float] | None = None
        self._alignment_memo: dict[tuple[int, int], float] | None = None
        self._transfer_memo: dict[tuple, dict] | None = None
        self._new_price_memos()
        # The integer tables (see the class docstring); not prices, so
        # kept whatever the cache knob.
        self._states = _States()
        self._catalogs: dict[tuple[ConvSpec, int], StrategyCatalog] = {}
        self._moves: dict[tuple, int] = {}
        # Set layouts per (layer names, set size); see _layout.
        self._layouts: dict[tuple, tuple] = {}
        # Designs interned to small ints so per-layer key hashing never
        # re-hashes a whole AcceleratorDesign. Keyed by object equality:
        # same-named design variants (sweeps) get distinct tokens.
        self._design_tokens: dict[AcceleratorDesign, int] = {}
        # Greedy-shortlist choices memoized per (catalog, acc set, design):
        # the level-2 seeding argmin is deterministic, so warm sessions
        # and overlapping sub-problems reuse it instead of re-pricing
        # the whole SHORTLIST per layer.
        self._greedy_memo: dict[tuple, ParallelismStrategy] = {}

    def _new_price_memos(self) -> None:
        if self.options.layer_cache:
            self._layer_cache = LruCache(self.options.layer_cache_capacity)
            self._lightweight_memo = {}
            self._compute_memo = {}
            self._alignment_memo = {}
            self._transfer_memo = {}

    def __getstate__(self) -> dict:
        # No memo or interned table rides along when the evaluator is
        # pickled (process-pool fan-out ships the fitness — and thus the
        # evaluator — once per batch, and growing tables would change
        # the payload bytes every batch, defeating the workers' payload
        # memo). Workers rebuild empty ones and warm them locally.
        state = dict(self.__dict__)
        state["_layer_cache"] = None
        state["_lightweight_memo"] = None
        state["_compute_memo"] = None
        state["_alignment_memo"] = None
        state["_transfer_memo"] = None
        state["_states"] = _States()
        state["_catalogs"] = {}
        state["_moves"] = {}
        state["_layouts"] = {}
        state["_design_tokens"] = {}  # tokens only index the live cache
        state["_greedy_memo"] = {}  # keyed by the dropped tokens
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._new_price_memos()

    def _design_token(self, design: AcceleratorDesign | None) -> int:
        """Stable small-int identity of a design within this evaluator."""
        if design is None:
            return -1  # fixed topology: designs are implied by the accs
        token = self._design_tokens.get(design)
        if token is None:
            token = len(self._design_tokens)
            self._design_tokens[design] = token
        return token

    # ------------------------------------------------------------------
    # Layer-cost cache
    # ------------------------------------------------------------------

    @property
    def layer_cache_enabled(self) -> bool:
        return self._layer_cache is not None

    @property
    def layer_cache_stats(self) -> LayerCacheStats:
        """Current counters of the per-layer cost cache (zeros when off)."""
        cache = self._layer_cache
        if cache is None:
            return LayerCacheStats()
        return LayerCacheStats(
            hits=cache.hits,
            misses=cache.misses,
            entries=len(cache),
            evictions=cache.evictions,
        )

    def clear_layer_cache(self) -> None:
        """Drop every memoized price (counters survive, and so do the
        interned ids, which name prices but hold none)."""
        if self._layer_cache is not None:
            self._layer_cache.clear()
            self._lightweight_memo.clear()
            self._compute_memo.clear()
            self._alignment_memo.clear()
            self._transfer_memo.clear()

    def _catalog(self, spec: ConvSpec, p: int) -> StrategyCatalog:
        """The strategy catalog of layer shape ``spec`` on sets of ``p``
        accelerators."""
        key = (spec, p)
        catalog = self._catalogs.get(key)
        if catalog is None:
            catalog = self._catalogs[key] = StrategyCatalog(
                spec, p, len(self._catalogs), self.options.dtype_bytes,
                self._states,
            )
        return catalog

    def _layout(self, nodes: list[LayerNode], p: int) -> tuple:
        """The layout of a :class:`SubproblemCosts` table over
        ``nodes`` on sets of ``p`` accelerators: ``(nodes, compute
        layers, their catalogs, per-layer inputs, per-layer shapes)``.
        Kept per (layer names, ``p``) and reused while those names
        stand for the very same node objects, so a table over a set
        seen before resolves no catalog (hashes no ``ConvSpec``).

        A layer's inputs are ``(first in-set input, the other in-set
        inputs, phenotype slot or -1 for a non-compute layer)``. Its
        upstream is the state of its first input already walked that
        has one; an input from outside the set arrives aligned (the
        boundary transfer paid for it), so each layer keeps its earlier
        in-set inputs up to its first outside one, and a layer with
        none reads the walk's extra aligned slot. Its shape is a
        catalog id, or a non-compute layer's flat (kind, channels,
        height, width), all its price reads.
        """
        key = (tuple([node.name for node in nodes]), p)
        layout = self._layouts.get(key)
        if layout is not None and all(map(operator.is_, layout[0], nodes)):
            return layout
        compute_nodes: list[LayerNode] = []
        catalogs: list[StrategyCatalog] = []
        layers: list[tuple[int, tuple[int, ...], int]] = []
        shapes: list[int | tuple] = []
        position = {node.name: i for i, node in enumerate(nodes)}
        for i, node in enumerate(nodes):
            sources = []
            for name in node.inputs:
                j = position.get(name)
                if j is None:
                    break
                if j < i:
                    sources.append(j)
            slot = -1
            if node.is_compute:
                slot = len(catalogs)
                catalog = self._catalog(node.conv_spec(), p)
                compute_nodes.append(node)
                catalogs.append(catalog)
                shapes.append(catalog.id)
            else:
                out = node.output_shape
                shapes.append((node.kind, out.channels, out.height, out.width))
            first = sources[0] if sources else len(nodes)
            layers.append((first, tuple(sources[1:]), slot))
        layout = self._layouts[key] = (
            tuple(nodes), compute_nodes, catalogs, layers, shapes
        )
        return layout

    def _moved_state(
        self, node: LayerNode, shape: tuple, upstream: int
    ) -> int:
        """Output-state id of non-compute ``node``, of ``shape`` (its
        kind and output shape), under upstream state id ``upstream``
        (see :meth:`_propagate_state`)."""
        key = (shape, upstream)
        state = self._moves.get(key)
        if state is None:
            state = self._moves[key] = self._states.id_of(
                self._propagate_state(node, self._states.dicts[upstream])
            )
        return state

    # ------------------------------------------------------------------
    # Greedy-shortlist memo (level-2 seeding)
    # ------------------------------------------------------------------

    @property
    def greedy_cache_entries(self) -> int:
        """Memoized greedy per-layer choices held by this evaluator."""
        return len(self._greedy_memo)

    def clear_greedy_cache(self) -> None:
        """Drop all memoized greedy shortlist choices."""
        self._greedy_memo.clear()

    def cached_greedy_strategy(
        self,
        catalog: StrategyCatalog,
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
    ) -> ParallelismStrategy | None:
        """Memoized greedy shortlist choice, or ``None`` when unseen.

        The choice is a pure argmin over the level-2 strategy shortlist
        (no RNG involved), so layers of one shape (``catalog``),
        sub-problems, searches and session lifetimes share it without
        affecting results.
        """
        return self._greedy_memo.get(
            (catalog.id, accs, self._design_token(design))
        )

    def store_greedy_strategy(
        self,
        catalog: StrategyCatalog,
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
        strategy: ParallelismStrategy,
    ) -> None:
        """Record a greedy shortlist choice for later reuse."""
        self._greedy_memo[
            (catalog.id, accs, self._design_token(design))
        ] = strategy

    # ------------------------------------------------------------------
    # Per-set evaluation (the level-2 GA fitness)
    # ------------------------------------------------------------------

    def designs_for(
        self, accs: tuple[int, ...], design: AcceleratorDesign | None
    ) -> list[AcceleratorDesign]:
        """The distinct designs running in a set.

        Adaptive systems use the configured design; fixed systems use
        each member's own design and stall at the slowest (Section VI-C).
        """
        if self.topology.kind == "adaptive":
            require(design is not None, "adaptive set needs a design")
            return [design]
        unique: dict[str, AcceleratorDesign] = {}
        for acc in accs:
            fixed = self.topology.design_of(acc)
            unique[fixed.name] = fixed
        return list(unique.values())

    def evaluate_set(
        self,
        nodes: list[LayerNode],
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
        strategies: dict[str, ParallelismStrategy],
        program: ExecutionProgram | None = None,
    ) -> SetEvaluation:
        """Latency of ``nodes`` on ``accs`` under ``strategies``: one
        walk of a fresh :class:`SubproblemCosts` table.

        A compute layer missing from ``strategies`` is priced
        replicated. The set's first inputs arrive aligned (the boundary
        transfer paid for them). When ``program`` is given, equivalent
        steps are appended for event-driven replay.
        """
        return SubproblemCosts(self, nodes, accs, design).evaluate(
            strategies, program
        )

    # ------------------------------------------------------------------
    # Whole-mapping evaluation, and the level-1 GA fitness's sum
    # ------------------------------------------------------------------

    def evaluate_mapping(
        self,
        mapping: Mapping,
        program: ExecutionProgram | None = None,
    ) -> MappingEvaluation:
        """Every set of ``mapping`` walked, its host input and boundary
        transfers priced, and the parts summed as
        :meth:`mapping_objective` sums them. With a ``program``, each
        set's host input steps precede its walk's steps, and the
        boundary transfers come last."""
        set_evals = []
        host_seconds = 0.0
        for assignment in mapping.assignments:
            nodes = mapping.nodes_of(assignment)
            if self.options.include_host_input:
                host_seconds += self._charge_host_inputs(
                    nodes, assignment, program
                )
            set_evals.append(
                self.evaluate_set(
                    nodes,
                    assignment.acc_set.accs,
                    assignment.design,
                    assignment.strategies,
                    program=program,
                )
            )
        transfer_breakdown = self._boundary_transfer_breakdown(mapping, program)
        return MappingEvaluation(
            latency_seconds=_mapping_latency(
                [e.latency_seconds for e in set_evals],
                transfer_breakdown,
                host_seconds,
            ),
            set_evaluations=set_evals,
            transfer_seconds=sum(transfer_breakdown),
            host_input_seconds=host_seconds,
            feasible=all(e.feasible for e in set_evals),
            transfer_breakdown=transfer_breakdown,
        )

    def mapping_objective(
        self, mapping: Mapping, set_latencies: list[float], objective: str
    ) -> float:
        """``evaluate_mapping(mapping)``'s ``latency_seconds`` or, for
        the ``"throughput"`` objective, its
        ``pipeline_interval_seconds``, hex for hex, given its sets'
        latencies in assignment order: prices the host input and the
        boundary transfers, and walks no set (the level-1 fitness)."""
        host_seconds = 0.0
        if self.options.include_host_input:
            for assignment in mapping.assignments:
                host_seconds += self._charge_host_inputs(
                    mapping.nodes_of(assignment), assignment, None
                )
        transfer_breakdown = self._boundary_transfer_breakdown(mapping, None)
        if objective == "throughput":
            return _pipeline_interval(
                set_latencies, transfer_breakdown, host_seconds
            )
        return _mapping_latency(set_latencies, transfer_breakdown, host_seconds)

    def compile_program(self, mapping: Mapping) -> ExecutionProgram:
        """Emit the replayable step program for a mapping."""
        program = ExecutionProgram(self.topology)
        self.evaluate_mapping(mapping, program=program)
        return program

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _collective_seconds(
        self, plan: ShardingPlan, accs: tuple[int, ...]
    ) -> tuple[float, float, float, tuple[int, ...] | None]:
        """All-reduce, SS-rotation and halo seconds of ``plan`` on
        ``accs`` — with compute, the upstream-free part of a layer's
        price — and the slowest all-reduce subgroup (``None`` without
        an all-reduce), which stands for them all in a program."""
        allreduce = rotation = halo = 0.0
        slowest_group = None
        if plan.allreduce_group > 1:
            groups = self._reduction_subgroups(accs, plan.allreduce_group)
            timed = [
                (self.cost_model.allreduce_seconds(g, plan.allreduce_bytes), g)
                for g in groups
            ]
            allreduce, slowest_group = max(timed, key=lambda t: t[0])
        if plan.phases > 1:
            step = self.cost_model.ring_step_seconds(accs, plan.rotation_bytes)
            rotation = (plan.phases - 1) * step
        if self.options.include_halo and plan.halo_bytes > 0:
            halo = self.cost_model.ring_step_seconds(accs, plan.halo_bytes)
        return allreduce, rotation, halo, slowest_group

    def _lightweight_layer_cost(
        self,
        node: LayerNode,
        accs: tuple[int, ...],
        designs: list[AcceleratorDesign],
    ) -> tuple[float, int]:
        """Compute seconds and sharded activation bytes of a non-compute
        layer: functions of the layer and the set only."""
        output_numel = node.output_shape.numel
        numel = output_numel if node.kind != "inputlayer" else 0
        shard_numel = math.ceil(numel / len(accs))
        seconds = self.cost_model.elementwise_compute_seconds(
            designs, shard_numel
        )
        shard_bytes = math.ceil(output_numel / max(1, len(accs)))
        return seconds, shard_bytes * self.options.dtype_bytes

    def _propagate_state(
        self, node: LayerNode, upstream: dict[LoopDim, int] | None
    ) -> dict[LoopDim, int] | None:
        """Sharding state through non-compute layers."""
        if upstream is None:
            return None  # aligned data stays aligned through elementwise ops
        state = dict(upstream)
        if node.kind == "concat":
            # Channel concatenation interleaves producers' channel
            # shards; only spatial sharding survives.
            state.pop(LoopDim.COUT, None)
        # Clamp spatial degrees to the (possibly pooled) output extent.
        for dim, extent in (
            (LoopDim.H, node.output_shape.height),
            (LoopDim.W, node.output_shape.width),
        ):
            if dim in state and state[dim] > extent:
                state[dim] = extent
        return state

    def _reduction_subgroups(
        self, accs: tuple[int, ...], group_size: int
    ) -> list[tuple[int, ...]]:
        """Contiguous blocks of accelerators that all-reduce together."""
        if group_size >= len(accs):
            return [accs]
        return [
            tuple(accs[i : i + group_size])
            for i in range(0, len(accs), group_size)
        ]

    def _charge_host_inputs(
        self,
        nodes: list[LayerNode],
        assignment: SetAssignment,
        program: ExecutionProgram | None,
    ) -> float:
        """Initial image load from host memory for graph input layers."""
        seconds = 0.0
        for node in nodes:
            if node.kind != "inputlayer":
                continue
            nbytes = node.output_shape.nbytes(self.options.dtype_bytes)
            per_acc = nbytes / assignment.acc_set.size
            acc = assignment.acc_set.accs[0]
            seconds += self.cost_model.host_read_seconds(acc, per_acc)
            if program is not None:
                program.append(
                    HostStep(
                        acc=acc,
                        nbytes=per_acc,
                        kind="read",
                        label=f"{node.name}:host-input",
                    )
                )
        return seconds

    def _boundary_transfer_breakdown(
        self, mapping: Mapping, program: ExecutionProgram | None
    ) -> list[float]:
        """Set-to-set transfer times, one per graph edge crossing sets."""
        breakdown = []
        nodes = self.graph.nodes()
        position = self._index
        for src, dst in mapping.boundary_edges():
            src_assign = mapping.assignment_of(position[src])
            dst_assign = mapping.assignment_of(position[dst])
            total = nodes[position[src]].output_shape.nbytes(
                self.options.dtype_bytes
            )
            fraction = self._consumer_fraction(mapping, dst_assign)
            bytes_per_dst = total * fraction
            breakdown.append(
                self.cost_model.transfer_seconds(
                    src_assign.acc_set.accs,
                    dst_assign.acc_set.accs,
                    total,
                    bytes_per_dst=bytes_per_dst,
                )
            )
            if program is not None:
                program.append(
                    TransferStep(
                        src_group=src_assign.acc_set.accs,
                        dst_group=dst_assign.acc_set.accs,
                        total_bytes=total,
                        bytes_per_dst=bytes_per_dst,
                        label=f"{src}->{dst}:boundary",
                    )
                )
        return breakdown

    def _consumer_fraction(
        self, mapping: Mapping, assignment: SetAssignment
    ) -> float:
        """Input fraction each consumer accelerator needs at set entry."""
        p = assignment.acc_set.size
        for node in mapping.nodes_of(assignment):
            if not node.is_compute:
                continue
            strategy = assignment.strategy_for(node.name)
            plan = cached_sharding_plan(
                node.conv_spec(), strategy, p, self.options.dtype_bytes
            )
            if plan is not None:
                return plan.input_fraction_needed
            break
        return 1.0 / p


class SubproblemCosts:
    """The pricing walk of one (layer set, accelerator set, design).

    This is the evaluator's only set walk, and it runs on the
    evaluator's integer tables (see :class:`MappingEvaluator`). A
    *phenotype* names one strategy id per compute layer, slot-aligned
    with :attr:`compute_nodes`: :meth:`phenotype` builds one from a
    strategies dict and :meth:`strategies` reads one back. Level 2
    builds one table per sub-problem, prices every genome's phenotype
    through :meth:`latency` and the greedy shortlist through
    :meth:`layer_latency`, and its winner layer by layer through
    :meth:`evaluate`, which replays the records the genomes left;
    :meth:`MappingEvaluator.evaluate_set` walks a fresh table once
    through :meth:`evaluate`. The table holds:

    * per layer, the in-set inputs the walk consults for its upstream
      state, and its shape: a compute layer's catalog, a non-compute
      layer's kind and output shape (the evaluator's layout of the
      set, built once per node list and set size);
    * per layer shape, built on the first memoized walk, records keyed
      ``(strategy id, upstream state id)`` (strategy id -1 for a
      non-compute layer): the layer's total seconds, output-state id,
      weight, activation and weight-load bytes, its five
      :class:`LayerCost` seconds, its plan and its slowest all-reduce
      subgroup. Layers of one shape share one record memo, so a
      repeated block's record is priced once per table. A miss prices a
      compute layer from its catalog entry — the upstream-free seconds
      through the evaluator's LRU, the resharding from its input need
      and the upstream state — and a non-compute layer through the
      evaluator's non-compute memo and state moves, so reuse across
      sub-problems and warm sessions stays;
    * per byte count, the weight-stream and spill seconds.

    Float order: a layer's total is compute + resharding + all-reduce +
    rotation + halo; layer totals are summed left to right from 0, then
    the weight stream and then the spill are added; the memory report
    is integer sums and a max. The memos turn on and off with
    :attr:`EvaluatorOptions.layer_cache`; with the cache off every walk
    re-prices every layer. A walk that emits a program prices each
    layer as :meth:`evaluate` does and appends its steps from what it
    priced (see :meth:`_emit`), so programs take this one pricing path
    too.
    """

    def __init__(
        self,
        evaluator: MappingEvaluator,
        nodes: list[LayerNode],
        accs: tuple[int, ...],
        design: AcceleratorDesign | None,
    ):
        require(bool(nodes), "cannot evaluate an empty layer set")
        self.evaluator = evaluator
        self.nodes = nodes
        self.accs = accs
        self.design = design
        self._designs = evaluator.designs_for(accs, design)
        # Designs key by interned object identity, not by name, so
        # same-named variants in a sweep never share entries. Options
        # are fixed for the evaluator that owns the caches; the cost
        # model is keyed by spec token even so, so pricing identity
        # holds across a shared or migrated cache.
        self._set_key = (
            accs, evaluator._design_token(design), evaluator._cost_token
        )
        self._designs_key = tuple(
            map(evaluator._design_token, self._designs)
        )
        self._capacity = min(
            evaluator.topology.accelerator(a).dram_bytes for a in accs
        )
        self._cached = cached = evaluator.layer_cache_enabled
        self._lightweight = (
            evaluator._lightweight_memo.setdefault(self._set_key, {})
            if cached
            else None
        )
        self._transfers = (
            evaluator._transfer_memo.setdefault(accs, {}) if cached else None
        )
        self._host_memo: dict | None = {} if cached else None
        #: Per-layer record memos, one per layer shape; built by the
        #: first memoized walk.
        self._records: list[dict] | None = None
        #: The compute layers, in phenotype-slot order, and their
        #: strategy catalogs; with each layer's in-set inputs and shape,
        #: the set's layout (see ``MappingEvaluator._layout``), shared
        #: read-only with every table over these nodes on sets of this
        #: size.
        (
            _, self.compute_nodes, self.catalogs, self._layers,
            self._shapes,
        ) = evaluator._layout(nodes, len(accs))

    def phenotype(
        self, strategies: dict[str, ParallelismStrategy]
    ) -> tuple[int, ...]:
        """The strategy ids of ``strategies``, one per compute layer; a
        compute layer missing from ``strategies`` is replicated."""
        return tuple(
            catalog.id_of(strategies.get(node.name, NO_PARALLELISM))
            for node, catalog in zip(self.compute_nodes, self.catalogs)
        )

    def strategies(
        self, phenotype: tuple[int, ...]
    ) -> dict[str, ParallelismStrategy]:
        """The strategies ``phenotype`` names, by layer, in a fresh dict."""
        return {
            node.name: catalog.strategies[strategy_id]
            for node, catalog, strategy_id in zip(
                self.compute_nodes, self.catalogs, phenotype
            )
        }

    def latency(self, phenotype: tuple[int, ...]) -> float:
        """``evaluate(self.strategies(phenotype)).latency_seconds``,
        replaying the records of earlier walks."""
        if self._records is None and self._cached:
            memos: dict = {}
            self._records = [memos.setdefault(s, {}) for s in self._shapes]
        return self._walk(phenotype, self._records)[0]

    def evaluate(
        self,
        strategies: dict[str, ParallelismStrategy],
        program: ExecutionProgram | None = None,
    ) -> SetEvaluation:
        """The set under ``strategies``, layer by layer; a compute layer
        missing from ``strategies`` is priced replicated.

        Replays (and fills) the records of earlier :meth:`latency`
        walks, so level 2 prices its winner on its own table without
        re-pricing a layer; on a table that holds none, such as
        ``evaluate_set``'s fresh one, it walks through the evaluator's
        caches and keeps no records (they would never be replayed).
        With a ``program``, it walks without records, appending each
        layer's steps from its price as the walk reaches it, then the
        weight stream and the spill.
        """
        latency, fits, records, weight_bytes, peak = self._walk(
            self.phenotype(strategies),
            self._records if program is None else None,
            program,
        )
        costs = []
        feasible = fits
        for node, (_, state, _, _, _, seconds, _, _) in zip(
            self.nodes, records
        ):
            # Positional arguments: a starred call costs more here.
            compute, resharding, allreduce, rotation, halo = seconds
            costs.append(
                LayerCost(
                    node.name, compute, resharding, allreduce, rotation, halo
                )
            )
            if state == _NO_PLAN:
                feasible = False
        memory = SetMemoryReport(weight_bytes, peak, self._capacity)
        return SetEvaluation(latency, costs, memory, feasible)

    def layer_latency(
        self, index: int, strategy: ParallelismStrategy
    ) -> float | None:
        """Latency of compute layer ``index`` alone on the set under
        ``strategy``.

        ``evaluate_set([node], accs, design, {node.name: strategy})``'s
        latency, or ``None`` where that evaluation is infeasible: no
        plan, or over DRAM.
        """
        slot = self._layers[index][2]
        require(slot >= 0, f"layer {index} is not a compute layer")
        total, state, weights, activation, load, _, _, _ = self._price(
            index, self.catalogs[slot].id_of(strategy), _ALIGNED
        )
        if state == _NO_PLAN:
            return None
        latency, fits = self._set_latency([total], weights, activation, load)
        return latency if fits else None

    def _walk(
        self,
        phenotype: tuple[int, ...],
        memos: list[dict] | None,
        program: ExecutionProgram | None = None,
    ) -> tuple[float, bool, list[tuple], int, int]:
        """Latency, DRAM fit, layer records, weight and peak activation
        bytes of the set under ``phenotype``. ``memos`` are the record
        memos to replay and fill, or ``None`` to price every layer; a
        ``program`` gets each layer's steps as it is priced."""
        n = len(self.nodes)
        # Slot n is the aligned state of inputs from outside the set.
        states = [_ALIGNED] * (n + 1)
        totals = [0.0] * n
        records: list[tuple] = [()] * n
        weight_bytes = load_bytes = peak = 0
        for i, (first, rest, slot) in enumerate(self._layers):
            upstream = states[first]
            if upstream == _NO_PLAN:  # look past a layer with no plan
                upstream = _ALIGNED
                for j in rest:
                    if states[j] != _NO_PLAN:
                        upstream = states[j]
                        break
            strategy_id = phenotype[slot] if slot >= 0 else -1
            if memos is None:
                record = self._price(i, strategy_id, upstream)
                if program is not None:
                    self._emit(i, strategy_id, upstream, record, program)
            else:
                memo = memos[i]
                record = memo.get((strategy_id, upstream))
                if record is None:
                    record = memo[strategy_id, upstream] = self._price(
                        i, strategy_id, upstream
                    )
            total, state, weights, activation, load, _, _, _ = record
            states[i] = state
            totals[i] = total
            records[i] = record
            weight_bytes += weights
            load_bytes += load
            if activation > peak:
                peak = activation
        latency, fits = self._set_latency(
            totals, weight_bytes, peak, load_bytes, program
        )
        return latency, fits, records, weight_bytes, peak

    def _set_latency(
        self,
        totals: list[float],
        weight_bytes: int,
        peak_activation: int,
        load_bytes: int,
        program: ExecutionProgram | None = None,
    ) -> tuple[float, bool]:
        """Set latency from its layer totals and byte sums, and whether
        its footprint fits DRAM; appends the weight-stream and spill
        steps to ``program`` when given."""
        latency = sum(totals)
        options = self.evaluator.options
        cost_model = self.evaluator.cost_model
        if not options.weights_resident and load_bytes > 0:
            # Every member streams its shard concurrently over its own
            # host port; the set waits for the slowest.
            latency += self._slowest(cost_model.host_read_seconds, load_bytes)
            if program is not None:
                program.append(
                    HostStep(
                        acc=self.accs[0],
                        nbytes=load_bytes,
                        kind="read",
                        label="weight-stream",
                    )
                )
        overflow = weight_bytes + peak_activation - self._capacity
        fits = overflow <= 0
        if not fits and options.memory_spill:
            latency += self._slowest(
                cost_model.host_round_trip_seconds, overflow
            )
            if program is not None:
                program.append(
                    HostStep(
                        acc=self.accs[0],
                        nbytes=overflow,
                        kind="round_trip",
                        label="dram-spill",
                    )
                )
        return latency, fits

    def _slowest(self, price, nbytes: int) -> float:
        """The slowest member's host transfer, memoized per byte count."""
        memo = self._host_memo
        key = (price.__name__, nbytes)
        seconds = memo.get(key) if memo is not None else None
        if seconds is None:
            seconds = max(price(a, nbytes) for a in self.accs)
            if memo is not None:
                memo[key] = seconds
        return seconds

    def _price(self, index: int, strategy_id: int, upstream: int) -> tuple:
        """(total seconds, output-state id, weight, activation and load
        bytes, the five :class:`LayerCost` seconds, plan, slowest
        all-reduce subgroup) of one layer under ``strategy_id`` (-1 for
        a non-compute layer) and upstream state id ``upstream``.

        The prices come through the evaluator's memos, whatever the walk
        (GA genome, ``evaluate`` or program emission); a memo hit
        replays the exact floats of the original computation.
        """
        evaluator = self.evaluator
        node = self.nodes[index]
        group = None
        if strategy_id < 0:
            shape = self._shapes[index]
            compute, activation = self._lightweight_price(node, shape)
            seconds = (compute, 0.0, 0.0, 0.0, 0.0)
            plan, weights, load = None, 0, 0
            if node.kind == "inputlayer" or upstream == _ALIGNED:
                state = _ALIGNED  # aligned data stays aligned
            else:
                state = evaluator._moved_state(node, shape, upstream)
        else:
            catalog = self.catalogs[self._layers[index][2]]
            plan, state, weights, activation, load = catalog.entries[
                strategy_id
            ]
            if plan is None:
                seconds = (INFEASIBLE_SECONDS, 0.0, 0.0, 0.0, 0.0)
            else:
                compute, allreduce, rotation, halo, group = (
                    self._upstream_free(catalog.id, strategy_id, plan)
                )
                resharding = 0.0
                if (
                    upstream != _ALIGNED
                    and evaluator.options.include_resharding
                ):
                    resharding = self._resharding(
                        catalog, strategy_id, upstream
                    )
                seconds = (compute, resharding, allreduce, rotation, halo)
        # LayerCost.total_seconds, in its float order.
        compute, resharding, allreduce, rotation, halo = seconds
        total = compute + resharding + allreduce + rotation + halo
        return total, state, weights, activation, load, seconds, plan, group

    def _emit(
        self,
        index: int,
        strategy_id: int,
        upstream: int,
        record: tuple,
        program: ExecutionProgram,
    ) -> None:
        """Append the steps of layer ``index`` as :meth:`_price` priced
        it in ``record``: resharding, all-reduce, SS rotations, halo and
        compute for a compute layer with a plan, nothing for one
        without, and a non-compute layer's compute when it takes time.
        """
        node = self.nodes[index]
        accs = self.accs
        seconds, plan, group = record[5:]
        compute = seconds[0]
        if strategy_id < 0:
            if compute > 0:
                program.append(
                    ComputeStep(group=accs, seconds=compute, label=node.name)
                )
            return
        if plan is None:
            return
        options = self.evaluator.options
        if upstream != _ALIGNED and options.include_resharding:
            catalog = self.catalogs[self._layers[index][2]]
            input_bytes, missing_per_acc = self._moved_bytes(
                catalog, strategy_id, upstream
            )
            if missing_per_acc > 0:
                program.append(
                    TransferStep(
                        src_group=accs,
                        dst_group=accs,
                        total_bytes=input_bytes,
                        bytes_per_dst=missing_per_acc,
                        label=f"{node.name}:reshard",
                    )
                )
        if group is not None:
            # Subgroups reduce concurrently; the program's sequential
            # step list represents them by the slowest one.
            program.append(
                CollectiveStep(
                    kind="allreduce",
                    group=group,
                    nbytes=plan.allreduce_bytes,
                    label=f"{node.name}:allreduce",
                )
            )
        for _ in range(plan.phases - 1):
            program.append(
                CollectiveStep(
                    kind="ring_step",
                    group=accs,
                    nbytes=plan.rotation_bytes,
                    label=f"{node.name}:ss-rotation",
                )
            )
        if options.include_halo and plan.halo_bytes > 0:
            program.append(
                CollectiveStep(
                    kind="ring_step",
                    group=accs,
                    nbytes=plan.halo_bytes,
                    label=f"{node.name}:halo",
                )
            )
        label = f"{node.name}:compute"
        program.append(ComputeStep(group=accs, seconds=compute, label=label))

    def _lightweight_price(
        self, node: LayerNode, shape: tuple
    ) -> tuple[float, int]:
        """A non-compute layer's seconds and activation bytes, memoized
        per (set, ``shape``: the layer's kind and output shape)."""
        memo = self._lightweight
        priced = memo.get(shape) if memo is not None else None
        if priced is None:
            priced = self.evaluator._lightweight_layer_cost(
                node, self.accs, self._designs
            )
            if memo is not None:
                memo[shape] = priced
        return priced

    def _upstream_free(
        self, catalog_id: int, strategy_id: int, plan: ShardingPlan
    ) -> tuple[float, float, float, float, tuple[int, ...] | None]:
        """Compute, all-reduce, rotation and halo seconds of a compute
        layer's plan, and its slowest all-reduce subgroup: the
        evaluator's LRU entry per (catalog id, strategy id, set), its
        compute seconds memoized per (catalog id, strategy id,
        designs)."""
        evaluator = self.evaluator
        cache = evaluator._layer_cache
        if cache is not None:
            key = (catalog_id, strategy_id, self._set_key)
            parts = cache.get(key)
            if parts is not None:
                return parts
        memo = evaluator._compute_memo
        compute = None
        if memo is not None:
            compute_key = (catalog_id, strategy_id, self._designs_key)
            compute = memo.get(compute_key)
        if compute is None:
            compute = evaluator.cost_model.conv_compute_seconds(
                self._designs, plan
            )
            if memo is not None:
                memo[compute_key] = compute
        allreduce, rotation, halo, group = evaluator._collective_seconds(
            plan, self.accs
        )
        parts = (compute, allreduce, rotation, halo, group)
        if cache is not None:
            cache.put(key, parts)
        return parts

    def _moved_bytes(
        self, catalog: StrategyCatalog, strategy_id: int, upstream: int
    ) -> tuple[int, float]:
        """(input bytes, missing bytes per accelerator) of resharding
        upstream state id ``upstream`` into strategy ``strategy_id``'s
        input: the bytes each accelerator needs (see
        :meth:`StrategyCatalog.need`), times the share of them the
        upstream sharding does not leave in place, that alignment
        fraction memoized per (need id, upstream id)."""
        states = self.evaluator._states.dicts
        memo = self.evaluator._alignment_memo
        input_bytes, needed_per_acc, need_id = catalog.need(strategy_id)
        key = (need_id, upstream)
        fraction = memo.get(key) if memo is not None else None
        if fraction is None:
            fraction = _alignment_fraction(
                _map_output_to_input_sharding(states[upstream]),
                states[need_id],
            )
            if memo is not None:
                memo[key] = fraction
        return input_bytes, needed_per_acc * (1.0 - fraction)

    def _resharding(
        self, catalog: StrategyCatalog, strategy_id: int, upstream: int
    ) -> float:
        """Seconds to reshard upstream state id ``upstream`` into
        strategy ``strategy_id``'s input: the bytes it moves
        (:meth:`_moved_bytes`), their transfer memoized per (set,
        bytes)."""
        moved = self._moved_bytes(catalog, strategy_id, upstream)
        input_bytes, missing_per_acc = moved
        if missing_per_acc <= 0:
            return 0.0
        memo = self._transfers
        seconds = memo.get(moved) if memo is not None else None
        if seconds is None:
            seconds = self.evaluator.cost_model.transfer_seconds(
                self.accs, self.accs, input_bytes,
                bytes_per_dst=missing_per_acc,
            )
            if memo is not None:
                memo[moved] = seconds
        return seconds

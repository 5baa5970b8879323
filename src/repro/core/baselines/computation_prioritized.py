"""The paper's baseline mapper (Section VI-A).

An extension of Herald's computation-prioritized algorithm [6] with
parallelism strategies bolted on:

* **fixed two accelerator sets** — the two groups of the system
  topology ("reasonable to avoid high communication latency across
  groups");
* **half of the layers to each set** (by compute-layer count, cut on a
  layer boundary);
* **per-set design** — the candidate with the lowest total computation
  latency over the set's layers;
* **per-layer strategy** — ES along the longest two loop dimensions.

The baseline shares MARS's evaluator, so Table III compares mapping
algorithms under an identical cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerators.base import AcceleratorDesign, cached_conv_cycles
from repro.core.evaluator import (
    EvaluatorOptions,
    MappingEvaluation,
    MappingEvaluator,
)
from repro.core.formulation import (
    AcceleratorSet,
    LayerRange,
    Mapping,
    SetAssignment,
)
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    cached_sharding_plan,
)
from repro.core.strategy_space import longest_dims_strategy
from repro.dnn.graph import ComputationGraph, LayerNode
from repro.system.topology import SystemTopology
from repro.utils.validation import require


@dataclass
class BaselineResult:
    """Outcome of the computation-prioritized baseline."""

    mapping: Mapping
    evaluation: MappingEvaluation

    @property
    def latency_ms(self) -> float:
        return self.evaluation.latency_ms

    def describe(self) -> str:
        return self.mapping.describe()


def _halfway_cut(graph: ComputationGraph) -> int:
    """Node index of the cut allocating half the compute layers per set."""
    positions = [
        i for i, node in enumerate(graph.nodes()) if node.is_compute
    ]
    half = len(positions) // 2
    if half == 0 or half >= len(positions):
        return len(graph) // 2
    return positions[half]


def _best_design_for(
    nodes: list[LayerNode], designs: list[AcceleratorDesign]
) -> AcceleratorDesign:
    """The design with the lowest total compute latency on ``nodes``."""
    totals = []
    for design in designs:
        cycles = 0
        for node in nodes:
            if node.is_compute:
                cycles += cached_conv_cycles(design, node.conv_spec())
        totals.append((cycles / design.frequency_hz, design.name, design))
    return min(totals)[2]


def _feasible_longest_dims(
    node: LayerNode, parallelism: int, dtype_bytes: int
) -> ParallelismStrategy:
    """ES on the longest two dims, degrading gracefully on small layers."""
    for count in (2, 1):
        strategy = longest_dims_strategy(node.conv_spec(), count)
        if cached_sharding_plan(node.conv_spec(), strategy, parallelism, dtype_bytes):
            return strategy
    return NO_PARALLELISM


def computation_prioritized_mapping(
    graph: ComputationGraph,
    topology: SystemTopology,
    designs: list[AcceleratorDesign],
    options: EvaluatorOptions | None = None,
    evaluator: MappingEvaluator | None = None,
) -> BaselineResult:
    """Run the Section VI-A baseline and evaluate it.

    Pass ``evaluator`` (bound to the same graph/topology) to share a
    warm layer-cost cache with a MARS search on the same workload —
    Table III prices both through one evaluator.
    """
    require(
        topology.kind == "adaptive",
        "the computation-prioritized baseline configures designs and "
        "needs an adaptive system",
    )
    groups = list(topology.groups().values())
    require(
        len(groups) >= 2,
        f"baseline expects the two-group F1 topology, got {len(groups)} group(s)",
    )
    first_group, second_group = groups[0], groups[1]

    cut = _halfway_cut(graph)
    nodes = graph.nodes()
    ranges = [LayerRange(0, cut), LayerRange(cut, len(nodes))]
    acc_sets = [AcceleratorSet(tuple(first_group)), AcceleratorSet(tuple(second_group))]

    require(
        evaluator is None
        or (evaluator.graph is graph and evaluator.topology is topology),
        "the shared evaluator must be bound to this exact graph and "
        "topology (its comm model and layer-cost cache assume them)",
    )
    require(
        evaluator is None or options is None or options == evaluator.options,
        "pass either options or an evaluator (whose options then apply), "
        "not conflicting values of both",
    )
    opts = evaluator.options if evaluator is not None else (
        options or EvaluatorOptions()
    )
    assignments = []
    for layer_range, acc_set in zip(ranges, acc_sets):
        members = [nodes[i] for i in layer_range.indices()]
        design = _best_design_for(members, designs)
        strategies = {
            node.name: _feasible_longest_dims(
                node, acc_set.size, opts.dtype_bytes
            )
            for node in members
            if node.is_compute
        }
        assignments.append(
            SetAssignment(
                layer_range=layer_range,
                acc_set=acc_set,
                design=design,
                strategies=strategies,
            )
        )

    mapping = Mapping(graph=graph, topology=topology, assignments=assignments)
    if evaluator is None:
        evaluator = MappingEvaluator(graph, topology, opts)
    evaluation = evaluator.evaluate_mapping(mapping)
    return BaselineResult(mapping=mapping, evaluation=evaluation)

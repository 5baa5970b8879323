"""H2H-style mapper: heterogeneous model -> heterogeneous accelerators.

H2H [7] maps layer groups of a (possibly multi-branch) model onto fixed
heterogeneous accelerators with computation *and* communication
awareness, but — the gap MARS attacks — executes each layer on a single
accelerator, with no intra-layer parallelism.

We reproduce that behaviour with an exact dynamic program over the
paper-constrained mapping space: contiguous layer segments in
topological order, each assigned to a distinct accelerator, minimizing

``sum(segment compute on its accelerator) + sum(boundary transfers)``,

which jointly captures H2H's computation-prioritized initialization and
its communication-reduction passes. The resulting mapping is evaluated
by the same :class:`~repro.core.evaluator.MappingEvaluator` as MARS, so
the Table IV comparison isolates the mapping algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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
from repro.dnn.graph import ComputationGraph
from repro.system.topology import SystemTopology
from repro.utils.units import transfer_seconds
from repro.utils.validation import require


@dataclass
class H2HResult:
    """Outcome of the H2H-style mapping."""

    mapping: Mapping
    evaluation: MappingEvaluation

    @property
    def latency_ms(self) -> float:
        return self.evaluation.latency_ms

    def describe(self) -> str:
        return self.mapping.describe()


def _segment_candidates(graph: ComputationGraph, max_segments: int) -> list[int]:
    """Candidate cut positions: node indices of compute layers.

    Restricting cuts to compute-layer boundaries keeps prologue layers
    (BN/activation) with their convolution, as elsewhere in the repo.
    """
    return [i for i, node in enumerate(graph.nodes()) if node.is_compute]


def _accelerator_prefix(
    design: AcceleratorDesign,
    host_bw: float,
    nodes: list,
    opts: EvaluatorOptions,
) -> list[float]:
    """Prefix compute/weight-load seconds of one accelerator."""
    acc_prefix = [0.0]
    for node in nodes:
        if node.is_compute:
            seconds = (
                cached_conv_cycles(design, node.conv_spec())
                / design.frequency_hz
            )
            if not opts.weights_resident:
                weight_bytes = (
                    node.conv_spec().weight_params * opts.dtype_bytes
                )
                seconds += transfer_seconds(weight_bytes, host_bw)
        elif node.kind == "inputlayer":
            seconds = 0.0
        else:
            seconds = (
                math.ceil(node.output_shape.numel / design.num_pes)
                / design.frequency_hz
            )
        acc_prefix.append(acc_prefix[-1] + seconds)
    return acc_prefix


def h2h_mapping(
    graph: ComputationGraph,
    topology: SystemTopology,
    options: EvaluatorOptions | None = None,
    max_segments: int | None = None,
    evaluator: MappingEvaluator | None = None,
) -> H2HResult:
    """Exact DP over contiguous segmentations onto distinct accelerators.

    Pass ``evaluator`` (bound to this exact graph and topology) to
    reuse a warm layer-cost cache across repeated mappings *on the same
    system* — e.g. re-mapping several candidate segmentations, or
    pricing H2H next to a MARS search that shares the evaluator. A
    bandwidth sweep builds a new topology per level and therefore needs
    a fresh evaluator per level (enforced below).
    """
    require(
        topology.kind == "fixed",
        "the H2H mapper targets fixed heterogeneous systems",
    )
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
    nodes = graph.nodes()
    n_accs = topology.num_accelerators
    limit = min(max_segments or n_accs, n_accs)

    cuts = _segment_candidates(graph, limit)
    # Segment boundaries: 0, any compute-layer node index, len(nodes).
    boundaries = [0] + [c for c in cuts if c > 0] + [len(nodes)]
    boundaries = sorted(set(boundaries))

    # Prefix compute (and, in the streaming scenario, weight-load)
    # seconds per accelerator for O(1) segment cost.
    prefix = [
        _accelerator_prefix(
            topology.design_of(acc), topology.host_bandwidth(acc), nodes, opts
        )
        for acc in range(n_accs)
    ]

    def segment_seconds(acc: int, start: int, stop: int) -> float:
        return prefix[acc][stop] - prefix[acc][start]

    def boundary_bytes(cut: int) -> float:
        """Bytes crossing a cut: outputs of pre-cut nodes consumed after it."""
        total = 0.0
        position = {name: i for i, name in enumerate(graph.topological_order())}
        for src, dst in graph.edges():
            if position[src] < cut <= position[dst]:
                total += nodes[position[src]].output_shape.nbytes(opts.dtype_bytes)
        return total

    boundary_cache: dict[int, float] = {}

    def transfer_cost(cut: int, acc_a: int, acc_b: int) -> float:
        nbytes = boundary_cache.get(cut)
        if nbytes is None:
            nbytes = boundary_bytes(cut)
            boundary_cache[cut] = nbytes
        bandwidth = topology.effective_bandwidth(acc_a, acc_b)
        return transfer_seconds(nbytes, bandwidth) + topology.path_latency(
            acc_a, acc_b
        )

    # DP over (boundary index, last accelerator, used-accelerator mask).
    n_bounds = len(boundaries)
    INF = float("inf")

    @lru_cache(maxsize=None)
    def best(bound_index: int, last_acc: int, used_mask: int) -> float:
        if boundaries[bound_index] == len(nodes):
            return 0.0
        result = INF
        for next_index in range(bound_index + 1, n_bounds):
            for acc in range(n_accs):
                if used_mask & (1 << acc):
                    continue
                cost = segment_seconds(
                    acc, boundaries[bound_index], boundaries[next_index]
                )
                if last_acc >= 0:
                    cost += transfer_cost(
                        boundaries[bound_index], last_acc, acc
                    )
                tail = best(next_index, acc, used_mask | (1 << acc))
                result = min(result, cost + tail)
        return result

    # Reconstruct the optimal segmentation.
    segments: list[tuple[int, int, int]] = []  # (start, stop, acc)
    bound_index, last_acc, used_mask = 0, -1, 0
    while boundaries[bound_index] != len(nodes):
        target = best(bound_index, last_acc, used_mask)
        found = False
        for next_index in range(bound_index + 1, n_bounds):
            for acc in range(n_accs):
                if used_mask & (1 << acc):
                    continue
                cost = segment_seconds(
                    acc, boundaries[bound_index], boundaries[next_index]
                )
                if last_acc >= 0:
                    cost += transfer_cost(
                        boundaries[bound_index], last_acc, acc
                    )
                tail = best(next_index, acc, used_mask | (1 << acc))
                if math.isclose(cost + tail, target, rel_tol=1e-12, abs_tol=1e-15):
                    segments.append(
                        (boundaries[bound_index], boundaries[next_index], acc)
                    )
                    bound_index, last_acc = next_index, acc
                    used_mask |= 1 << acc
                    found = True
                    break
            if found:
                break
        require(found, "H2H DP reconstruction failed — inconsistent costs")

    assignments = [
        SetAssignment(
            layer_range=LayerRange(start, stop),
            acc_set=AcceleratorSet((acc,)),
            design=None,
            strategies={},  # no intra-layer parallelism: H2H's limitation
        )
        for start, stop, acc in segments
    ]
    mapping = Mapping(graph=graph, topology=topology, assignments=assignments)
    if evaluator is None:
        evaluator = MappingEvaluator(graph, topology, opts)
    evaluation = evaluator.evaluate_mapping(mapping)
    return H2HResult(mapping=mapping, evaluation=evaluation)

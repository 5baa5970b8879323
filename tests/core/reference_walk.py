"""Reference set walk: the evaluator's pricing, straight-line and its own.

:func:`reference_evaluate_set` prices a (layer set, accelerator set,
design) as ``MappingEvaluator.evaluate_set`` must, without the
:class:`~repro.core.evaluator.SubproblemCosts` machinery: layer by
layer, threading each layer's output sharding through a dict keyed by
name, with no layer cache, no non-compute memo, no per-layer records
and no byte-count memo.

It owns its per-layer pricing too. :func:`compute_layer_cost` derives
a compute layer's input need, the fraction of it the upstream sharding
already leaves in place, the all-reduce subgroups, every collective and
transfer price and the layer's steps; :func:`lightweight_layer_cost`
prices a non-compute layer and :func:`propagate_state` moves sharding
through it; :func:`set_memory_report` sums the set's DRAM footprint.
From the evaluator it reads only its public ``cost_model``,
``options``, ``topology`` and ``designs_for``, and beyond that shares
only the sharding plans, the step classes and the result types. So a
test comparing the evaluator against it checks the prices as well as
the walk — upstream resolution, record replay, float order, memory
sums, the weight stream, the spill and program emission.
"""

import math

from repro.core.evaluator import (
    INFEASIBLE_SECONDS,
    LayerCost,
    MappingEvaluator,
    SetEvaluation,
)
from repro.core.memory_check import SetMemoryReport
from repro.core.sharding import (
    NO_PARALLELISM,
    ShardingPlan,
    cached_sharding_plan,
)
from repro.dnn.layers import LoopDim
from repro.simulator.program import (
    CollectiveStep,
    ComputeStep,
    HostStep,
    TransferStep,
)


def set_memory_report(
    plans: list[ShardingPlan],
    lightweight_activation_bytes: list[int],
    capacity_bytes: int,
) -> SetMemoryReport:
    """Footprint of one accelerator executing ``plans`` in sequence.

    ``lightweight_activation_bytes`` carries the (sharded) output sizes
    of the set's non-compute layers, which contribute to the activation
    peak but hold no weights.
    """
    weight_total = 0
    for plan in plans:
        weight_total += plan.weight_bytes_per_acc
    peak_activation = 0
    for plan in plans:
        peak_activation = max(peak_activation, plan.activation_bytes_per_acc)
    for nbytes in lightweight_activation_bytes:
        peak_activation = max(peak_activation, nbytes)
    return SetMemoryReport(
        weight_bytes=weight_total,
        peak_activation_bytes=peak_activation,
        capacity_bytes=capacity_bytes,
    )


def compute_layer_cost(
    evaluator, node, accs, designs, strategy, upstream, program=None
):
    """A compute layer's five :class:`LayerCost` seconds (compute,
    resharding, all-reduce, rotation, halo) and its plan, priced with no
    memo; its steps are appended to ``program`` when given, in the
    order the layer runs them.

    ``upstream`` is the producer's output sharding, or ``None`` when
    the input arrives aligned.
    """
    options = evaluator.options
    cost_model = evaluator.cost_model
    plan = cached_sharding_plan(
        node.conv_spec(), strategy, len(accs), options.dtype_bytes
    )
    if plan is None:
        return (INFEASIBLE_SECONDS, 0.0, 0.0, 0.0, 0.0), None
    compute = cost_model.conv_compute_seconds(designs, plan)

    # Resharding moves the part of each accelerator's input slice that
    # the producer's sharding does not leave in place. Per dim, block
    # partitions of degrees g and h overlap on min(g, h) / max(g, h)
    # of a block; the producer's COUT shards are the consumer's CIN.
    resharding = 0.0
    if options.include_resharding and upstream is not None:
        inp = plan.spec.tensors()["input"]
        need = {}
        for dim, degree in plan.degrees.items():
            if inp.has_dim(dim):
                need[dim] = degree
        if plan.strategy.ss is not None and inp.has_dim(plan.strategy.ss):
            need[plan.strategy.ss] = plan.parallelism
        have = {}
        for dim, degree in upstream.items():
            have[LoopDim.CIN if dim == LoopDim.COUT else dim] = degree
        in_place = 1.0
        for dim in set(have) | set(need):
            g, h = have.get(dim, 1), need.get(dim, 1)
            if g != h:
                in_place *= min(g, h) / max(g, h)
        input_bytes = inp.numel * options.dtype_bytes
        missing = input_bytes * plan.input_fraction_needed * (1.0 - in_place)
        if missing > 0:
            resharding = cost_model.transfer_seconds(
                accs, accs, input_bytes, bytes_per_dst=missing
            )
            if program is not None:
                program.append(
                    TransferStep(
                        src_group=accs,
                        dst_group=accs,
                        total_bytes=input_bytes,
                        bytes_per_dst=missing,
                        label=f"{node.name}:reshard",
                    )
                )

    # Partial sums reduce in contiguous blocks of allreduce_group
    # accelerators, concurrently: the layer waits for the slowest block
    # (the first of equals), which stands for them all in a program.
    allreduce = 0.0
    if plan.allreduce_group > 1:
        size = plan.allreduce_group
        slowest = None
        for i in range(0, len(accs), size):
            block = accs[i : i + size]
            seconds = cost_model.allreduce_seconds(block, plan.allreduce_bytes)
            if slowest is None or seconds > allreduce:
                allreduce, slowest = seconds, block
        if program is not None:
            program.append(
                CollectiveStep(
                    kind="allreduce",
                    group=slowest,
                    nbytes=plan.allreduce_bytes,
                    label=f"{node.name}:allreduce",
                )
            )

    # SS runs phases rounds, rotating a slice around the ring between
    # consecutive ones.
    rotation = 0.0
    if plan.phases > 1:
        step = cost_model.ring_step_seconds(accs, plan.rotation_bytes)
        rotation = (plan.phases - 1) * step
        if program is not None:
            for _ in range(plan.phases - 1):
                program.append(
                    CollectiveStep(
                        kind="ring_step",
                        group=accs,
                        nbytes=plan.rotation_bytes,
                        label=f"{node.name}:ss-rotation",
                    )
                )

    halo = 0.0
    if options.include_halo and plan.halo_bytes > 0:
        halo = cost_model.ring_step_seconds(accs, plan.halo_bytes)
        if program is not None:
            program.append(
                CollectiveStep(
                    kind="ring_step",
                    group=accs,
                    nbytes=plan.halo_bytes,
                    label=f"{node.name}:halo",
                )
            )

    if program is not None:
        program.append(
            ComputeStep(
                group=accs, seconds=compute, label=f"{node.name}:compute"
            )
        )
    return (compute, resharding, allreduce, rotation, halo), plan


def lightweight_layer_cost(evaluator, node, accs, designs, program=None):
    """Seconds and sharded output bytes of a non-compute layer: its
    output split evenly over the set (an input layer computes nothing);
    a compute step is appended to ``program`` when it takes time."""
    output_numel = node.output_shape.numel
    numel = 0 if node.kind == "inputlayer" else output_numel
    seconds = evaluator.cost_model.elementwise_compute_seconds(
        designs, math.ceil(numel / len(accs))
    )
    if program is not None and seconds > 0:
        program.append(
            ComputeStep(group=accs, seconds=seconds, label=node.name)
        )
    shard_bytes = math.ceil(output_numel / len(accs))
    return seconds, shard_bytes * evaluator.options.dtype_bytes


def propagate_state(node, upstream):
    """The sharding a non-compute layer hands on, given its input's.

    Aligned data (``None``) stays aligned; a channel concat interleaves
    its producers' channel shards, so only spatial sharding survives
    it; spatial degrees clamp to the (possibly pooled) output extent.
    """
    if upstream is None:
        return None
    state = dict(upstream)
    if node.kind == "concat":
        state.pop(LoopDim.COUT, None)
    for dim, extent in (
        (LoopDim.H, node.output_shape.height),
        (LoopDim.W, node.output_shape.width),
    ):
        if dim in state and state[dim] > extent:
            state[dim] = extent
    return state


def _upstream(node, sharding_state, member_names):
    """Sharding of the node's (first) input as seen inside the set.

    ``None`` means aligned: the boundary transfer delivered the data in
    the consumer's layout, or an upstream input layer loaded it so.
    """
    for source in node.inputs:
        if source in sharding_state:
            return sharding_state[source]
        if source not in member_names:
            return None
    return None


def reference_evaluate_set(
    evaluator: MappingEvaluator,
    nodes,
    accs,
    design,
    strategies,
    program=None,
) -> SetEvaluation:
    """``evaluator.evaluate_set(nodes, accs, design, strategies,
    program)``, walked and priced without any memo."""
    if not nodes:
        raise ValueError("cannot evaluate an empty layer set")
    designs = evaluator.designs_for(accs, design)
    options = evaluator.options
    cost_model = evaluator.cost_model
    sharding_state = {}
    costs = []
    plans = []
    lightweight_bytes = []
    feasible = True
    member_names = {node.name for node in nodes}

    for node in nodes:
        upstream = _upstream(node, sharding_state, member_names)
        if node.is_compute:
            seconds, plan = compute_layer_cost(
                evaluator,
                node,
                accs,
                designs,
                strategies.get(node.name, NO_PARALLELISM),
                upstream,
                program,
            )
            if plan is None:
                feasible = False
            else:
                plans.append(plan)
                sharding_state[node.name] = plan.output_sharding
            costs.append(LayerCost(node.name, *seconds))
        else:
            seconds, shard_bytes = lightweight_layer_cost(
                evaluator, node, accs, designs, program
            )
            costs.append(LayerCost(name=node.name, compute_seconds=seconds))
            lightweight_bytes.append(shard_bytes)
            sharding_state[node.name] = (
                None  # host load is aligned
                if node.kind == "inputlayer"
                else propagate_state(node, upstream)
            )

    memory = set_memory_report(
        plans,
        lightweight_bytes,
        min(evaluator.topology.accelerator(a).dram_bytes for a in accs),
    )
    latency = sum(c.total_seconds for c in costs)
    if not options.weights_resident:
        load_bytes = sum(p.weight_load_bytes_per_acc for p in plans)
        if load_bytes > 0:
            latency += max(
                cost_model.host_read_seconds(a, load_bytes) for a in accs
            )
            if program is not None:
                program.append(
                    HostStep(
                        acc=accs[0],
                        nbytes=load_bytes,
                        kind="read",
                        label="weight-stream",
                    )
                )
    if not memory.fits:
        feasible = False
        if options.memory_spill:
            latency += max(
                cost_model.host_round_trip_seconds(a, memory.overflow_bytes)
                for a in accs
            )
            if program is not None:
                program.append(
                    HostStep(
                        acc=accs[0],
                        nbytes=memory.overflow_bytes,
                        kind="round_trip",
                        label="dram-spill",
                    )
                )
    return SetEvaluation(
        latency_seconds=latency,
        layer_costs=costs,
        memory=memory,
        feasible=feasible,
    )

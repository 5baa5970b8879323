"""Reference set walk: the evaluator's pricing walk, straight-line.

:func:`reference_evaluate_set` prices a (layer set, accelerator set,
design) as ``MappingEvaluator.evaluate_set`` must, but without the
:class:`~repro.core.evaluator.SubproblemCosts` machinery: layer by
layer, threading each layer's output sharding through a dict keyed by
name, with no layer cache, no non-compute memo, no per-layer records
and no byte-count memo. It calls the evaluator's per-layer pricers
(``_compute_layer_cost``, ``_lightweight_layer_cost``,
``_propagate_state``) directly and sums the set's DRAM footprint in
:func:`set_memory_report`, so a test comparing the table against it
checks the walk — upstream resolution, record replay, float order,
memory sums, the weight stream, the spill and program emission — not
the prices.
"""

from repro.core.evaluator import LayerCost, MappingEvaluator, SetEvaluation
from repro.core.memory_check import SetMemoryReport
from repro.core.sharding import NO_PARALLELISM, ShardingPlan
from repro.simulator.program import HostStep


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
    program)``, walked without any memo."""
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
            seconds, plan = evaluator._compute_layer_cost(
                node,
                accs,
                designs,
                strategies.get(node.name, NO_PARALLELISM),
                upstream,
                len(accs),
                program,
            )
            if plan is None:
                feasible = False
            else:
                plans.append(plan)
                sharding_state[node.name] = plan.output_sharding
            costs.append(LayerCost(node.name, *seconds, plan=plan))
        else:
            seconds, shard_bytes = evaluator._lightweight_layer_cost(
                node, accs, designs, program
            )
            costs.append(LayerCost(name=node.name, compute_seconds=seconds))
            lightweight_bytes.append(shard_bytes)
            sharding_state[node.name] = (
                None  # host load is aligned
                if node.kind == "inputlayer"
                else evaluator._propagate_state(node, upstream)
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

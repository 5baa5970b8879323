"""The latency oracle: per-set and whole-mapping evaluation."""

import pickle

import pytest

from repro.accelerators import design1_superlip, design2_systolic
from repro.core.costmodel import AnalyticalCostModel
from repro.core.evaluator import (
    INFEASIBLE_SECONDS,
    EvaluatorOptions,
    LayerCost,
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
from repro.core.validation import price_step
from repro.dnn import build_model
from repro.dnn.layers import LoopDim
from repro.system import f1_16xlarge, h2h_fixed_system
from repro.utils.units import GIB


@pytest.fixture(scope="module")
def graph():
    return build_model("tiny_cnn")


@pytest.fixture(scope="module")
def topology():
    return f1_16xlarge()


@pytest.fixture(scope="module")
def evaluator(graph, topology):
    return MappingEvaluator(graph, topology)


def _strategies_for(graph, strategy):
    """Assign ``strategy`` to every compute layer it is feasible for,
    falling back to the longest-dims rule elsewhere (e.g. 1x1 FCs)."""
    from repro.core.sharding import make_sharding_plan

    result = {}
    for node in graph.compute_nodes():
        if make_sharding_plan(node.conv_spec(), strategy, 8) is not None:
            result[node.name] = strategy
        else:
            result[node.name] = longest_dims_strategy(node.conv_spec())
    return result


def _planned(graph, result, strategies, parallelism):
    """The costs in ``result`` of the compute layers that have a sharding
    plan under ``strategies`` (replicated where omitted)."""
    nodes = {node.name: node for node in graph.compute_nodes()}
    return [
        cost
        for cost in result.layer_costs
        if cost.name in nodes
        and cached_sharding_plan(
            nodes[cost.name].conv_spec(),
            strategies.get(cost.name, NO_PARALLELISM),
            parallelism,
        )
        is not None
    ]


def _analytical_seconds(program):
    """The program's steps priced in order by the closed forms."""
    model = AnalyticalCostModel(program.topology)
    return sum(price_step(model, step) for step in program.steps)


def _single_set_mapping(graph, topology, accs=(0, 1, 2, 3), strategies=None):
    return Mapping(
        graph=graph,
        topology=topology,
        assignments=[
            SetAssignment(
                layer_range=LayerRange(0, len(graph)),
                acc_set=AcceleratorSet(accs),
                design=design1_superlip(),
                strategies=strategies or {},
            )
        ],
    )


class TestSetEvaluation:
    def test_parallelism_reduces_latency(self, graph, topology, evaluator):
        nodes = graph.nodes()
        strategy = ParallelismStrategy(es=(LoopDim.H, LoopDim.W))
        strategies = _strategies_for(graph, strategy)
        single = evaluator.evaluate_set(nodes, (0,), design1_superlip(), {})
        quad = evaluator.evaluate_set(
            nodes, (0, 1, 2, 3), design1_superlip(), strategies
        )
        assert quad.latency_seconds < single.latency_seconds

    def test_replicated_strategy_wastes_parallelism(self, graph, evaluator):
        nodes = graph.nodes()
        replicated = evaluator.evaluate_set(
            nodes, (0, 1, 2, 3), design1_superlip(), {}
        )
        single = evaluator.evaluate_set(nodes, (0,), design1_superlip(), {})
        # Replicated compute is no faster than one accelerator.
        assert replicated.compute_seconds >= 0.99 * single.compute_seconds

    def test_reduction_es_incurs_allreduce(self, graph, evaluator):
        nodes = graph.nodes()
        strategies = _strategies_for(
            graph, ParallelismStrategy(es=(LoopDim.CIN,))
        )
        result = evaluator.evaluate_set(
            nodes, (0, 1), design1_superlip(), strategies
        )
        conv_costs = _planned(graph, result, strategies, 2)
        assert any(c.allreduce_seconds > 0 for c in conv_costs)

    def test_ss_incurs_rotations(self, graph, evaluator):
        nodes = graph.nodes()
        strategy = ParallelismStrategy(es=(LoopDim.H,), ss=LoopDim.COUT)
        strategies = {
            n.name: strategy
            for n in graph.compute_nodes()
            if n.name.startswith("conv")
        }
        result = evaluator.evaluate_set(
            nodes, (0, 1), design1_superlip(), strategies
        )
        conv_costs = [
            c
            for c in _planned(graph, result, strategies, 2)
            if c.name.startswith("conv")
        ]
        assert conv_costs
        assert all(c.rotation_seconds > 0 for c in conv_costs)

    def test_infeasible_strategy_penalized(self, graph, evaluator):
        nodes = graph.nodes()
        # KH of a 3x3 kernel cannot split across 8 accelerators.
        strategies = {
            n.name: ParallelismStrategy(es=(LoopDim.KH,))
            for n in graph.compute_nodes()
        }
        result = evaluator.evaluate_set(
            nodes, tuple(range(8)), design1_superlip(), strategies
        )
        assert not result.feasible
        assert result.latency_seconds >= INFEASIBLE_SECONDS

    def test_memory_report_present(self, graph, evaluator):
        nodes = graph.nodes()
        result = evaluator.evaluate_set(
            nodes, (0, 1), design1_superlip(), {}
        )
        assert result.memory.weight_bytes > 0
        assert result.memory.fits

    def test_empty_set_rejected(self, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate_set([], (0,), design1_superlip(), {})


class TestShardingStatePropagation:
    def test_aligned_chain_has_no_resharding(self, topology):
        graph = build_model("tiny_cnn")
        evaluator = MappingEvaluator(graph, topology)
        strategies = _strategies_for(
            graph, ParallelismStrategy(es=(LoopDim.H,))
        )
        result = evaluator.evaluate_set(
            graph.nodes(), (0, 1), design1_superlip(), strategies
        )
        resharding = [
            c.resharding_seconds
            for c in _planned(graph, result, strategies, 2)
            if c.name.startswith("conv")
        ]
        # H-sharding flows through the conv chain and its elementwise
        # layers: only halo exchanges remain, no bulk redistribution.
        # (The FC after global pooling legitimately re-gathers.)
        assert all(r == 0 for r in resharding)

    def test_mismatched_chain_pays_resharding(self, topology):
        graph = build_model("tiny_cnn")
        evaluator = MappingEvaluator(graph, topology)
        convs = graph.compute_nodes()
        strategies = {}
        for i, node in enumerate(convs):
            dims = (LoopDim.H,) if i % 2 == 0 else (LoopDim.COUT,)
            strategies[node.name] = ParallelismStrategy(es=dims)
        result = evaluator.evaluate_set(
            graph.nodes(), (0, 1), design1_superlip(), strategies
        )
        assert any(
            c.resharding_seconds > 0
            for c in _planned(graph, result, strategies, 2)
        )

    def test_cout_consumer_after_h_producer_needs_gather(self, topology):
        graph = build_model("tiny_cnn")
        evaluator = MappingEvaluator(graph, topology)
        convs = graph.compute_nodes()
        strategies = {convs[0].name: ParallelismStrategy(es=(LoopDim.H,))}
        for node in convs[1:]:
            strategies[node.name] = ParallelismStrategy(es=(LoopDim.COUT,))
        result = evaluator.evaluate_set(
            graph.nodes(), (0, 1), design1_superlip(), strategies
        )
        second_conv_cost = next(
            c for c in result.layer_costs if c.name == convs[1].name
        )
        assert second_conv_cost.resharding_seconds > 0


class TestMappingEvaluation:
    def test_single_set_no_transfers(self, graph, topology, evaluator):
        mapping = _single_set_mapping(graph, topology)
        result = evaluator.evaluate_mapping(mapping)
        assert result.transfer_seconds == 0.0
        assert result.latency_seconds > 0

    def test_two_sets_pay_boundary_transfer(self, graph, topology, evaluator):
        n = len(graph)
        mapping = Mapping(
            graph=graph,
            topology=topology,
            assignments=[
                SetAssignment(
                    LayerRange(0, n // 2),
                    AcceleratorSet((0, 1)),
                    design1_superlip(),
                ),
                SetAssignment(
                    LayerRange(n // 2, n),
                    AcceleratorSet((2, 3)),
                    design2_systolic(),
                ),
            ],
        )
        result = evaluator.evaluate_mapping(mapping)
        assert result.transfer_seconds > 0

    def test_cross_group_boundary_costs_more(self, graph, topology, evaluator):
        n = len(graph)

        def mapping_with(second_set):
            return Mapping(
                graph=graph,
                topology=topology,
                assignments=[
                    SetAssignment(
                        LayerRange(0, n // 2),
                        AcceleratorSet((0, 1)),
                        design1_superlip(),
                    ),
                    SetAssignment(
                        LayerRange(n // 2, n),
                        AcceleratorSet(second_set),
                        design2_systolic(),
                    ),
                ],
            )

        intra = evaluator.evaluate_mapping(mapping_with((2, 3)))
        cross = evaluator.evaluate_mapping(mapping_with((4, 5)))
        assert cross.transfer_seconds > intra.transfer_seconds

    def test_omitted_strategy_prices_as_replicated(
        self, graph, topology, evaluator
    ):
        """A compute layer left out of ``strategies`` is replicated both
        in its set's walk and in the boundary transfer into the set."""
        nodes = graph.nodes()
        cut = [i for i, node in enumerate(nodes) if node.is_compute][2]

        def mapping_with(strategies):
            return Mapping(
                graph=graph,
                topology=topology,
                assignments=[
                    SetAssignment(
                        LayerRange(0, cut),
                        AcceleratorSet((0, 1)),
                        design1_superlip(),
                    ),
                    SetAssignment(
                        LayerRange(cut, len(nodes)),
                        AcceleratorSet((2, 3, 4, 5)),
                        design1_superlip(),
                        strategies,
                    ),
                ],
            )

        omitted = evaluator.evaluate_mapping(mapping_with({}))
        spelled = evaluator.evaluate_mapping(
            mapping_with(
                {
                    node.name: NO_PARALLELISM
                    for node in nodes[cut:]
                    if node.is_compute
                }
            )
        )
        assert omitted.transfer_breakdown == spelled.transfer_breakdown
        assert omitted.latency_seconds == spelled.latency_seconds

    def test_host_input_charged_once(self, graph, topology):
        with_input = MappingEvaluator(
            graph, topology, EvaluatorOptions(include_host_input=True)
        )
        without_input = MappingEvaluator(
            graph, topology, EvaluatorOptions(include_host_input=False)
        )
        mapping = _single_set_mapping(graph, topology)
        a = with_input.evaluate_mapping(mapping)
        b = without_input.evaluate_mapping(mapping)
        assert a.host_input_seconds > 0
        assert b.host_input_seconds == 0
        assert a.latency_seconds > b.latency_seconds

    def test_latency_ms_conversion(self, graph, topology, evaluator):
        mapping = _single_set_mapping(graph, topology)
        result = evaluator.evaluate_mapping(mapping)
        assert result.latency_ms == pytest.approx(result.latency_seconds * 1e3)


class TestFixedDesignSystems:
    def test_stall_at_slowest_member(self):
        graph = build_model("tiny_cnn")
        system = h2h_fixed_system(2.0)
        evaluator = MappingEvaluator(graph, system)
        nodes = graph.nodes()
        strategies = _strategies_for(
            graph, ParallelismStrategy(es=(LoopDim.H,))
        )
        # Pair the strongest and weakest designs: latency is bounded by
        # the weaker one.
        mixed = evaluator.evaluate_set(nodes, (0, 3), None, strategies)
        solo_each = [
            evaluator.evaluate_set(
                nodes,
                (acc,),
                None,
                {},
            ).compute_seconds
            for acc in (0, 3)
        ]
        slowest_half = max(solo_each) / 2
        assert mixed.compute_seconds >= 0.9 * slowest_half

    def test_adaptive_set_requires_design(self, graph, topology, evaluator):
        with pytest.raises(ValueError):
            evaluator.evaluate_set(graph.nodes(), (0,), None, {})


class TestProgramCompilation:
    def test_program_matches_analytical_latency(self, graph, topology, evaluator):
        strategies = {
            n.name: longest_dims_strategy(n.conv_spec())
            for n in graph.compute_nodes()
        }
        mapping = _single_set_mapping(graph, topology, strategies=strategies)
        expected = evaluator.evaluate_mapping(mapping)
        program = evaluator.compile_program(mapping)
        assert _analytical_seconds(program) == pytest.approx(
            expected.latency_seconds, rel=1e-6
        )

    def test_replay_close_to_analytical(self, graph, topology, evaluator):
        strategies = {
            n.name: longest_dims_strategy(n.conv_spec())
            for n in graph.compute_nodes()
        }
        mapping = _single_set_mapping(graph, topology, strategies=strategies)
        program = evaluator.compile_program(mapping)
        replay = program.replay()
        assert replay.total_seconds == pytest.approx(
            _analytical_seconds(program), rel=0.1
        )


class TestLayerCostPickling:
    def _costs(self, graph, evaluator):
        strategies = _strategies_for(
            graph, ParallelismStrategy(es=(LoopDim.H, LoopDim.W))
        )
        result = evaluator.evaluate_set(
            graph.nodes(), (0, 1, 2, 3), design1_superlip(), strategies
        )
        assert result.layer_costs
        return result.layer_costs

    def test_round_trip_keeps_every_field(self, graph, evaluator):
        for cost in self._costs(graph, evaluator):
            restored = pickle.loads(pickle.dumps(cost))
            assert restored == cost
            assert restored.total_seconds == cost.total_seconds

    def test_pickled_plan_is_dropped_on_load(self, graph, evaluator):
        # A layer cost pickled while it still carried its sharding plan
        # (a store entry of an earlier version) loads without it.
        plan = cached_sharding_plan(
            graph.compute_nodes()[0].conv_spec(),
            longest_dims_strategy(graph.compute_nodes()[0].conv_spec()),
            4,
        )
        assert plan is not None
        for cost in self._costs(graph, evaluator):
            legacy = LayerCost(**vars(cost))
            legacy.plan = plan
            restored = pickle.loads(pickle.dumps(legacy))
            assert not hasattr(restored, "plan")
            assert restored == cost

"""The H2H-style DP mapper: optimality, constraints, behaviour."""

import pytest

from repro.core import EvaluatorOptions
from repro.core.baselines import h2h_mapping
from repro.core.evaluator import MappingEvaluator
from repro.core.formulation import (
    AcceleratorSet,
    LayerRange,
    Mapping,
    SetAssignment,
)
from repro.dnn import build_model
from repro.system import f1_16xlarge, h2h_fixed_system


@pytest.fixture(scope="module")
def system():
    return h2h_fixed_system(2.0)


@pytest.fixture(scope="module")
def result(system):
    return h2h_mapping(build_model("tiny_resnet"), system)


class TestStructure:
    def test_all_sets_are_singletons(self, result):
        """H2H's defining limitation: no intra-layer parallelism."""
        for assignment in result.mapping.assignments:
            assert assignment.acc_set.size == 1

    def test_no_strategies_assigned(self, result):
        for assignment in result.mapping.assignments:
            assert assignment.strategies == {}

    def test_distinct_accelerators(self, result):
        used = [a.acc_set.accs[0] for a in result.mapping.assignments]
        assert len(used) == len(set(used))

    def test_contiguous_coverage(self, result):
        ranges = [a.layer_range for a in result.mapping.assignments]
        assert ranges[0].start == 0
        for prev, nxt in zip(ranges, ranges[1:]):
            assert prev.stop == nxt.start


def _best_single_accelerator_ms(graph, system):
    """The lowest latency of the whole graph on any one accelerator,
    priced by the evaluator without the DP."""
    evaluator = MappingEvaluator(graph, system)
    whole = LayerRange(0, len(graph.nodes()))
    return min(
        evaluator.evaluate_mapping(
            Mapping(
                graph=graph,
                topology=system,
                assignments=[
                    SetAssignment(
                        layer_range=whole,
                        acc_set=AcceleratorSet((acc,)),
                        design=None,
                        strategies={},
                    )
                ],
            )
        ).latency_ms
        for acc in range(system.num_accelerators)
    )


class TestOptimality:
    def test_beats_every_single_accelerator(self, system):
        """The DP must be at least as good as any 1-segment mapping;
        on tiny_cnn one segment is optimal, so it ties the best one."""
        graph = build_model("tiny_cnn")
        best = h2h_mapping(graph, system)
        single = _best_single_accelerator_ms(graph, system)
        assert best.latency_ms <= single + 1e-9
        assert len(best.mapping.assignments) == 1

    def test_splits_when_a_split_beats_every_single_accelerator(self):
        graph = build_model("casia_surf")
        system = h2h_fixed_system(10.0)
        best = h2h_mapping(graph, system)
        assert len(best.mapping.assignments) >= 2
        assert best.latency_ms < _best_single_accelerator_ms(graph, system)

    def test_deterministic(self, system):
        graph = build_model("tiny_resnet")
        a = h2h_mapping(graph, system)
        b = h2h_mapping(graph, system)
        assert a.latency_ms == b.latency_ms
        assert a.describe() == b.describe()


class TestBandwidthSensitivity:
    def test_latency_never_rises_with_bandwidth(self):
        graph = build_model("casia_surf")
        opts = EvaluatorOptions(weights_resident=False)
        latencies = [
            h2h_mapping(graph, h2h_fixed_system(bw), options=opts).latency_ms
            for bw in (1.0, 2.0, 10.0)
        ]
        assert latencies == sorted(latencies, reverse=True)

    def test_weight_streaming_dominates_at_low_bandwidth(self):
        graph = build_model("casia_surf")
        resident = h2h_mapping(
            graph,
            h2h_fixed_system(1.0),
            options=EvaluatorOptions(weights_resident=True),
        )
        streaming = h2h_mapping(
            graph,
            h2h_fixed_system(1.0),
            options=EvaluatorOptions(weights_resident=False),
        )
        assert streaming.latency_ms > 2 * resident.latency_ms


class TestErrors:
    def test_adaptive_system_rejected(self):
        with pytest.raises(ValueError, match="fixed"):
            h2h_mapping(build_model("tiny_cnn"), f1_16xlarge())


class TestHeterogeneousModels:
    @pytest.mark.parametrize("name", ["casia_surf", "facebagnet"])
    def test_multi_branch_models_map(self, name):
        result = h2h_mapping(build_model(name), h2h_fixed_system(4.0))
        assert result.latency_ms > 0
        assert result.evaluation.feasible

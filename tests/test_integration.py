"""Cross-stack integration tests: workload -> search -> replay.

These exercise the seams between packages that unit tests cannot: the
mapper driving the evaluator, the evaluator compiling programs, and the
event-driven simulator replaying what the GA optimized.
"""

import pytest

from repro.accelerators import table2_designs
from repro.core import EvaluatorOptions, MappingEvaluator
from repro.core.baselines import computation_prioritized_mapping, h2h_mapping
from repro.core.costmodel import AnalyticalCostModel
from repro.core.ga import GAConfig, SearchBudget
from repro.core.mapper import Mars
from repro.core.validation import price_step
from repro.dnn import build_model
from repro.system import f1_16xlarge, h2h_fixed_system

QUICK = SearchBudget(
    level1=GAConfig(population_size=6, generations=4, elite_count=1, patience=3),
    level2=GAConfig(population_size=8, generations=5, elite_count=1, patience=3),
)


class TestAdaptivePipeline:
    @pytest.fixture(scope="class")
    def search_result(self):
        return Mars(
            build_model("tiny_resnet"), f1_16xlarge(), budget=QUICK
        ).search(seed=0)

    def test_search_to_program_to_replay(self, search_result):
        graph = build_model("tiny_resnet")
        evaluator = MappingEvaluator(graph, f1_16xlarge())
        program = evaluator.compile_program(search_result.mapping)
        replay = program.replay()
        model = AnalyticalCostModel(program.topology)
        analytical = sum(price_step(model, step) for step in program.steps)
        assert replay.total_seconds == pytest.approx(analytical, rel=0.15)
        assert replay.total_seconds > 0

    def test_mapping_covers_every_layer(self, search_result):
        mapping = search_result.mapping
        covered = sum(len(a.layer_range) for a in mapping.assignments)
        assert covered == len(mapping.graph)

    def test_every_compute_layer_has_a_strategy(self, search_result):
        mapping = search_result.mapping
        for assignment in mapping.assignments:
            for node in mapping.nodes_of(assignment):
                if node.is_compute:
                    assert node.name in assignment.strategies

    def test_mars_not_worse_than_baseline(self, search_result):
        graph = build_model("tiny_resnet")
        baseline = computation_prioritized_mapping(
            graph, f1_16xlarge(), table2_designs()
        )
        assert search_result.latency_ms <= baseline.latency_ms * 1.001


class TestFixedPipeline:
    def test_h2h_and_mars_share_the_cost_model(self):
        """Both mappers' results re-evaluate to the same numbers under a
        fresh evaluator — no mapper-private costing."""
        graph = build_model("tiny_resnet")
        system = h2h_fixed_system(2.0)
        options = EvaluatorOptions(weights_resident=False)
        h2h = h2h_mapping(graph, system, options=options)
        fresh = MappingEvaluator(graph, system, options).evaluate_mapping(
            h2h.mapping
        )
        assert fresh.latency_seconds == pytest.approx(
            h2h.evaluation.latency_seconds
        )

    def test_mars_beats_h2h_on_fixed_system(self):
        graph = build_model("facebagnet")
        system = h2h_fixed_system(4.0)
        options = EvaluatorOptions(weights_resident=False)
        h2h = h2h_mapping(graph, system, options=options)
        mars = Mars(graph, system, budget=QUICK, options=options).search(seed=0)
        assert mars.latency_ms < h2h.latency_ms


class TestSeedStability:
    def test_different_seeds_all_feasible(self):
        graph = build_model("tiny_cnn")
        topology = f1_16xlarge()
        latencies = []
        for seed in range(3):
            result = Mars(graph, topology, budget=QUICK).search(seed=seed)
            assert result.feasible
            latencies.append(result.latency_ms)
        # Search quality may vary with seed, but not absurdly.
        assert max(latencies) < 3 * min(latencies)


class TestScenarioConsistency:
    def test_streaming_scenario_slower_everywhere(self):
        graph = build_model("tiny_cnn")
        topology = f1_16xlarge()
        resident = Mars(
            graph,
            topology,
            budget=QUICK,
            options=EvaluatorOptions(weights_resident=True),
        ).search(seed=0)
        streaming = Mars(
            graph,
            topology,
            budget=QUICK,
            options=EvaluatorOptions(weights_resident=False),
        ).search(seed=0)
        assert streaming.latency_ms >= resident.latency_ms

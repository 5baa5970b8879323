"""First-level GA and the Mars facade: end-to-end searches."""

import pytest

from repro.core.costmodel import AnalyticalCostModel
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import Level1Search, SearchBudget
from repro.core.mapper import Mars
from repro.core.validation import price_step
from repro.dnn import build_model
from repro.system import f1_16xlarge, h2h_fixed_system
from repro.utils import make_rng


@pytest.fixture(scope="module")
def graph():
    return build_model("tiny_cnn")


@pytest.fixture(scope="module")
def topology():
    return f1_16xlarge()


def _search(graph, topology, seed=0):
    from repro.accelerators import table2_designs

    evaluator = MappingEvaluator(graph, topology)
    return Level1Search(
        graph=graph,
        topology=topology,
        designs=table2_designs() if topology.kind == "adaptive" else [],
        evaluator=evaluator,
        budget=SearchBudget.fast(),
        rng=make_rng(seed),
    )


class TestGenomeLayout:
    def test_genome_length(self, graph, topology):
        search = _search(graph, topology)
        expected = (
            len(search.partitions)
            + search.max_sets * 3  # three designs
            + (search.max_sets - 1)
        )
        assert search.genome_length == expected

    def test_fixed_system_has_no_design_genes(self, graph):
        search = _search(graph, h2h_fixed_system(2.0))
        expected = len(search.partitions) + (search.max_sets - 1)
        assert search.genome_length == expected


class TestDecode:
    def test_seeds_decode_to_valid_mappings(self, graph, topology):
        search = _search(graph, topology)
        for seed in search.seed_genomes():
            decoded = search.decode(seed)
            mapping = search.build_mapping(decoded)
            assert mapping.assignments  # validation happens in Mapping

    def test_ranges_tile_the_graph(self, graph, topology):
        search = _search(graph, topology)
        for genome in search.seed_genomes():
            decoded = search.decode(genome)
            total = sum(len(r) for r in decoded.ranges)
            assert total == len(graph)

    def test_subproblem_cache_reused(self, graph, topology):
        search = _search(graph, topology)
        genome = search.seed_genomes()[0]
        search.fitness(search.decode(genome))
        cache_size = len(search.solution_cache)
        search.fitness(search.decode(genome))
        assert len(search.solution_cache) == cache_size


class TestMarsSearch:
    def test_search_returns_feasible_result(self, graph, topology):
        result = Mars(graph, topology).search(seed=0)
        assert result.feasible
        assert result.latency_ms > 0

    def test_search_is_deterministic(self, graph, topology):
        a = Mars(graph, topology).search(seed=5)
        b = Mars(graph, topology).search(seed=5)
        assert a.latency_ms == b.latency_ms
        assert a.describe() == b.describe()

    def test_search_beats_single_accelerator(self, graph, topology):
        from repro.accelerators import table2_designs
        from repro.core.evaluator import MappingEvaluator

        result = Mars(graph, topology).search(seed=0)
        evaluator = MappingEvaluator(graph, topology)
        single_best = min(
            evaluator.evaluate_set(graph.nodes(), (0,), d, {}).latency_seconds
            for d in table2_designs()
        )
        assert result.evaluation.latency_seconds < single_best

    def test_convergence_history_monotone(self, graph, topology):
        result = Mars(graph, topology).search(seed=0)
        history = result.convergence
        assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))

    def test_fixed_system_search(self, graph):
        system = h2h_fixed_system(2.0)
        result = Mars(graph, system).search(seed=0)
        assert result.feasible
        # Fixed systems carry no configured design in assignments.
        assert all(a.design is None for a in result.mapping.assignments)

    def test_describe_mentions_design_and_strategy(self, graph, topology):
        result = Mars(graph, topology).search(seed=0)
        text = result.describe()
        assert "Design" in text
        assert "ES" in text

    def test_program_compilation_roundtrip(self, graph, topology):
        mars = Mars(graph, topology)
        result = mars.search(seed=0)
        program = mars.compile_program(result)
        model = AnalyticalCostModel(topology)
        assert sum(
            price_step(model, step) for step in program.steps
        ) == pytest.approx(result.evaluation.latency_seconds, rel=1e-9)

"""Backend selection must never change search results — only wall-clock."""

from dataclasses import replace

import pytest

from repro.accelerators import design1_superlip
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import (
    GAConfig,
    ProcessPoolBackend,
    SearchBudget,
    optimize_set,
)
from repro.core.mapper import Mars
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng


@pytest.fixture(scope="module")
def graph():
    return build_model("tiny_cnn")


@pytest.fixture(scope="module")
def topology():
    return f1_16xlarge()


@pytest.fixture(scope="module")
def evaluator(graph, topology):
    return MappingEvaluator(graph, topology)


CONFIG = GAConfig(population_size=6, generations=4, elite_count=1)


class TestLevel2Equivalence:
    def _solve(self, evaluator, graph, config=CONFIG):
        return optimize_set(
            evaluator,
            graph.nodes(),
            (0, 1, 2, 3),
            design1_superlip(),
            config,
            make_rng(0),
        )

    def test_config_cache_matches_serial(self, graph, evaluator):
        serial = self._solve(evaluator, graph)
        cached = self._solve(
            evaluator, graph, config=replace(CONFIG, cache=True)
        )
        assert cached.latency_seconds == serial.latency_seconds
        assert cached.ga.history == serial.ga.history
        # The continuous genome decodes many-to-one onto strategies, so
        # phenotype memoization must save work.
        assert cached.ga.evaluations < serial.ga.evaluations
        assert cached.ga.cache_hits > 0


class TestMarsEquivalence:
    def test_cache_knob_matches_default(self, graph, topology):
        base = Mars(graph, topology).search(seed=0)
        budget = SearchBudget.fast()
        budget = replace(budget, level2=replace(budget.level2, cache=True))
        cached = Mars(graph, topology, budget=budget).search(seed=0)
        assert cached.latency_ms == base.latency_ms
        assert cached.ga.history == base.ga.history
        assert cached.describe() == base.describe()

    def test_worker_knob_matches_default(self, graph, topology):
        base = Mars(graph, topology).search(seed=1)
        parallel = Mars(graph, topology, workers=2).search(seed=1)
        assert parallel.latency_ms == base.latency_ms
        assert parallel.ga.history == base.ga.history
        assert parallel.describe() == base.describe()

    def test_level1_reports_cache_activity(self, graph, topology):
        result = Mars(graph, topology).search(seed=0)
        # Level 1 always memoizes on the decoded phenotype; a fast-budget
        # search revisits mappings constantly.
        assert result.ga.cache_hits > 0
        assert result.ga.evaluations == result.ga.cache_misses

    def test_parallel_search_keeps_solution_cache(self, graph, topology):
        """Regression: workers > 1 must not fork level-1 state into pool
        workers (losing sub-problem solutions)."""
        from repro.accelerators import table2_designs
        from repro.core.ga import Level1Search

        def run_search(workers, pool=None):
            search = Level1Search(
                graph=graph,
                topology=topology,
                designs=table2_designs(),
                evaluator=MappingEvaluator(graph, topology),
                budget=SearchBudget.fast().with_backend(workers=workers),
                rng=make_rng(0),
                level1_backend=pool,
            )
            result = search.run()
            return search, result

        serial_search, serial = run_search(1)
        with ProcessPoolBackend(workers=2) as pool:
            parallel_search, parallel = run_search(2, pool)
        assert parallel[2].history == serial[2].history
        # The sub-problem cache fills in the parent process either way.
        assert set(parallel_search.solution_cache) == set(
            serial_search.solution_cache
        )
        assert parallel_search.solution_cache
        assert parallel_search.subproblems_fanned_out > 0

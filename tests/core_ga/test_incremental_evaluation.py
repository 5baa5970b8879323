"""GA-path partial reuse: single decode, sub-keys, stats threading.

These tests cover the search-side half of the layer-cost cache work:
``Level1Search`` decodes each genome once (the engine's ``prepare``
hook returns the phenotypes it memoizes and prices),
``optimize_set``/``Level1Search``/``Mars`` surface the evaluator's
cache counters on their results, and search outcomes are bit-identical
with caching on or off.
"""

from dataclasses import replace

import pytest

from repro.accelerators import design2_systolic, table2_designs
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.ga import (
    Level1Search,
    Level2Fitness,
    SearchBudget,
    optimize_set,
)
from repro.core.mapper import Mars
from repro.core.session import MarsSession
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng

GRAPH = build_model("tiny_cnn")
TOPOLOGY = f1_16xlarge()
ACCS = (0, 1, 2, 3)


def _fitness(evaluator=None) -> Level2Fitness:
    evaluator = evaluator or MappingEvaluator(GRAPH, TOPOLOGY)
    return Level2Fitness(evaluator, GRAPH.nodes(), ACCS, design2_systolic())


class TestSingleDecode:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_search_decodes_each_level1_genome_once(
        self, monkeypatch, workers
    ):
        """One decode per genome the engine is shown, memo hits
        included, pooled or not, plus one for the best genome."""
        decode = Level1Search.decode
        decodes = 0

        def counted(self, genome):
            nonlocal decodes
            decodes += 1
            return decode(self, genome)

        monkeypatch.setattr(Level1Search, "decode", counted)
        with MarsSession(GRAPH, TOPOLOGY, workers=workers) as session:
            result = session.search(seed=0)
            fanned_out = session.stats.subproblems_fanned_out
        population = SearchBudget.fast().level1.population_size
        shown = population * (1 + result.ga.generations_run)
        assert decodes == shown + 1
        assert result.ga.cache_hits + result.ga.cache_misses == shown
        assert (fanned_out > 0) == (workers > 1)

    def test_decode_returns_defensive_copy(self):
        fitness = _fitness()
        genome = make_rng(0).random(fitness.genome_length)
        first = fitness.decode(genome)
        first.clear()  # caller mutates its copy
        second = fitness.decode(genome)
        assert len(second) == len(fitness.compute_nodes)


class TestSearchEquivalenceAndStats:
    def test_optimize_set_bit_identical_and_stats_attached(self):
        config = replace(SearchBudget.fast().level2, cache=True)
        on = optimize_set(
            MappingEvaluator(GRAPH, TOPOLOGY),
            GRAPH.nodes(),
            ACCS,
            design2_systolic(),
            config,
            make_rng(0),
        )
        off = optimize_set(
            MappingEvaluator(
                GRAPH, TOPOLOGY, EvaluatorOptions(layer_cache=False)
            ),
            GRAPH.nodes(),
            ACCS,
            design2_systolic(),
            replace(config, cache=False),
            make_rng(0),
        )
        assert on.ga.history == off.ga.history
        assert on.latency_seconds == off.latency_seconds
        assert on.ga.layer_cache is not None
        assert on.ga.layer_cache.hits > 0
        assert on.ga.layer_cache.entries > 0
        assert off.ga.layer_cache is None

    def test_mars_facade_flag_and_result_stats(self):
        base = dict(
            graph=GRAPH,
            topology=TOPOLOGY,
            designs=table2_designs(),
            budget=SearchBudget.fast(),
        )
        cached = Mars(**base).search(seed=0)
        uncached = Mars(**base, layer_cache=False).search(seed=0)
        assert cached.latency_ms == uncached.latency_ms
        assert cached.evaluation.feasible == uncached.evaluation.feasible
        assert cached.layer_cache is not None
        assert cached.layer_cache.hits > 0
        assert uncached.layer_cache is None

    def test_warm_restart_hits_at_layer_granularity(self):
        """A re-search over a warm evaluator re-prices ~nothing."""
        evaluator = MappingEvaluator(GRAPH, TOPOLOGY)
        config = replace(SearchBudget.fast().level2, cache=True)

        def run():
            return optimize_set(
                evaluator,
                GRAPH.nodes(),
                ACCS,
                design2_systolic(),
                config,
                make_rng(0),
            )

        first = run()
        second = run()
        assert second.ga.history == first.ga.history
        assert second.ga.layer_cache.misses == 0
        assert second.ga.layer_cache.hits > 0

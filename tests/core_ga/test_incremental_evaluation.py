"""GA-path partial reuse: single decode, sub-keys, stats threading.

These tests cover the search-side half of the layer-cost cache work:
``Level2Fitness`` decodes each genome once (shared by ``phenotype_key``
and ``__call__``), ``optimize_set``/``Level1Search``/``Mars`` surface
the evaluator's cache counters on their results, and search outcomes
are bit-identical with caching on or off.
"""

import pickle
from dataclasses import replace

from repro.accelerators import design2_systolic, table2_designs
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.ga import (
    GAConfig,
    GeneticAlgorithm,
    Level2Fitness,
    SearchBudget,
    optimize_set,
)
from repro.core.mapper import Mars
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
    def test_phenotype_key_then_call_decodes_once(self):
        fitness = _fitness()
        genome = make_rng(0).random(fitness.genome_length)
        fitness.phenotype_key(genome)
        fitness(genome)
        assert fitness.decode_misses == 1
        assert fitness.decode_hits == 1

    def test_memoized_engine_decodes_once_per_genome(self):
        """The engine's key_fn + fitness calls share one decode."""
        fitness = _fitness()
        shown = set()

        def key_fn(genome):
            shown.add(genome.tobytes())
            return fitness.phenotype_key(genome)

        result = GeneticAlgorithm(
            genome_length=fitness.genome_length,
            fitness=fitness,
            config=GAConfig(population_size=8, generations=4, cache=True),
            rng=make_rng(0),
            key_fn=key_fn,
        ).run()
        assert fitness.decode_misses == len(shown)
        # Every key and every price is a memo hit.
        looked_up = result.cache_hits + result.cache_misses
        assert fitness.decode_hits >= looked_up + result.evaluations

    def test_decode_returns_defensive_copy(self):
        fitness = _fitness()
        genome = make_rng(0).random(fitness.genome_length)
        first = fitness.decode(genome)
        first.clear()  # caller mutates its copy
        second = fitness.decode(genome)
        assert len(second) == len(fitness.compute_nodes)

    def test_pickling_drops_memo_and_preserves_results(self):
        fitness = _fitness()
        genome = make_rng(0).random(fitness.genome_length)
        expected = fitness(genome)
        clone = pickle.loads(pickle.dumps(fitness))
        assert clone.decode_misses == 0 and clone.decode_hits == 0
        assert clone(genome) == expected


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

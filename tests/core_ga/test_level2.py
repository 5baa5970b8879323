"""Second-level GA: genome decode and sub-problem optimization."""

import numpy as np
import pytest

from repro.accelerators import design1_superlip
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import GAConfig, GENES_PER_LAYER, decode_layer_strategy, optimize_set
from repro.core.ga.level2 import _seed_genomes
from repro.core.sharding import NO_PARALLELISM, ParallelismStrategy
from repro.core.strategy_space import longest_dims_strategy
from repro.dnn import build_model
from repro.dnn.layers import LOOP_DIMS, LoopDim
from repro.system import f1_16xlarge
from repro.utils import make_rng


@pytest.fixture(scope="module")
def graph():
    return build_model("tiny_cnn")


@pytest.fixture(scope="module")
def evaluator(graph):
    return MappingEvaluator(graph, f1_16xlarge())


def _genes(es_count=0.9, es_dims=(), ss=None):
    genes = np.zeros(GENES_PER_LAYER)
    genes[0] = es_count
    for rank, dim in enumerate(es_dims):
        genes[1 + LOOP_DIMS.index(dim)] = 1.0 - 0.1 * rank
    if ss is not None:
        genes[7] = 1.0
        genes[8 + LOOP_DIMS.index(ss)] = 1.0
    return genes


class TestDecode:
    def test_two_dim_decode(self, graph):
        node = graph.compute_nodes()[0]
        strategy = decode_layer_strategy(
            _genes(es_count=0.9, es_dims=(LoopDim.H, LoopDim.W)), node, 4
        )
        assert set(strategy.es) == {LoopDim.H, LoopDim.W}
        assert strategy.ss is None

    def test_one_dim_decode(self, graph):
        node = graph.compute_nodes()[0]
        strategy = decode_layer_strategy(
            _genes(es_count=0.5, es_dims=(LoopDim.COUT,)), node, 4
        )
        assert strategy.es == (LoopDim.COUT,)

    def test_zero_count_decodes_replicated(self, graph):
        node = graph.compute_nodes()[0]
        strategy = decode_layer_strategy(
            _genes(es_count=0.1, es_dims=(LoopDim.H,)), node, 4
        )
        assert strategy == NO_PARALLELISM

    def test_ss_decode(self, graph):
        node = graph.compute_nodes()[0]
        strategy = decode_layer_strategy(
            _genes(es_count=0.5, es_dims=(LoopDim.H,), ss=LoopDim.COUT),
            node,
            2,
        )
        assert strategy.es == (LoopDim.H,)
        assert strategy.ss == LoopDim.COUT

    def test_infeasible_dim_skipped(self, graph):
        # conv1 of tiny_cnn has Cin = 3: KH/KW priority cannot split 4 ways.
        node = graph.compute_nodes()[0]
        strategy = decode_layer_strategy(
            _genes(es_count=0.5, es_dims=(LoopDim.KH,)), node, 4
        )
        # Falls back to a feasible choice instead of crashing.
        assert strategy.es != (LoopDim.KH,)

    def test_parallelism_one_returns_replicated(self, graph):
        node = graph.compute_nodes()[0]
        strategy = decode_layer_strategy(_genes(es_count=0.9), node, 1)
        assert strategy == NO_PARALLELISM

    def test_ss_dim_requires_extent(self, graph):
        # fc output is 10x1x1: H cannot provide 4 SS shards.
        node = graph.compute_nodes()[-1]
        strategy = decode_layer_strategy(
            _genes(es_count=0.5, es_dims=(LoopDim.COUT,), ss=LoopDim.H),
            node,
            4,
        )
        assert strategy.ss != LoopDim.H

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 8 (owner decision): _seed_genomes writes "
            "min(len(es) / 2 + 0.17, 0.99) into the ES-count gene while the "
            "decode reads min(int(g * 3), 2), so a one-dim ES seed decodes "
            "to two dims; the fix moves results"
        ),
    )
    def test_seed_genomes_decode_to_the_strategies_they_encode(self):
        """resnet34 conv1 on 4 accelerators: each heuristic seed decodes
        to the strategy it encodes (the longest-one-dim seed is ES={H})."""
        conv1 = build_model("resnet34").compute_nodes()[0]
        spec = conv1.conv_spec()
        encoded = [
            longest_dims_strategy(spec, 2),
            ParallelismStrategy(es=(LoopDim.H, LoopDim.W)),
            longest_dims_strategy(spec, 1),
            ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN)),
        ]
        decoded = [
            decode_layer_strategy(seed, conv1, 4)
            for seed in _seed_genomes([conv1], 4)
        ]
        assert [(s.canonical_es(), s.ss) for s in decoded] == [
            (s.canonical_es(), s.ss) for s in encoded
        ]


class TestOptimizeSet:
    def test_beats_naive_replication(self, graph, evaluator):
        config = GAConfig(population_size=8, generations=5, elite_count=1)
        solution = optimize_set(
            evaluator,
            graph.nodes(),
            (0, 1, 2, 3),
            design1_superlip(),
            config,
            make_rng(0),
        )
        replicated = evaluator.evaluate_set(
            graph.nodes(), (0, 1, 2, 3), design1_superlip(), {}
        )
        assert solution.latency_seconds < replicated.latency_seconds

    def test_strategies_cover_all_compute_layers(self, graph, evaluator):
        config = GAConfig(population_size=6, generations=3, elite_count=1)
        solution = optimize_set(
            evaluator,
            graph.nodes(),
            (0, 1),
            design1_superlip(),
            config,
            make_rng(0),
        )
        expected = {n.name for n in graph.compute_nodes()}
        assert set(solution.strategies) == expected

    def test_single_accelerator_short_circuits(self, graph, evaluator):
        config = GAConfig(population_size=6, generations=3)
        solution = optimize_set(
            evaluator, graph.nodes(), (0,), design1_superlip(), config, make_rng(0)
        )
        assert solution.ga is None
        assert all(s == NO_PARALLELISM for s in solution.strategies.values())

    def test_deterministic_given_seed(self, graph, evaluator):
        config = GAConfig(population_size=6, generations=4, elite_count=1)
        a = optimize_set(
            evaluator, graph.nodes(), (0, 1), design1_superlip(), config, make_rng(3)
        )
        b = optimize_set(
            evaluator, graph.nodes(), (0, 1), design1_superlip(), config, make_rng(3)
        )
        assert a.latency_seconds == b.latency_seconds
        assert a.strategies == b.strategies

    def test_solution_is_feasible(self, graph, evaluator):
        config = GAConfig(population_size=8, generations=5, elite_count=1)
        solution = optimize_set(
            evaluator,
            graph.nodes(),
            (0, 1, 2, 3),
            design1_superlip(),
            config,
            make_rng(0),
        )
        assert solution.evaluation.feasible

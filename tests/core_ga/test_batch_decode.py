"""Vectorized population decode: bit-identity with the scalar path.

``Level2Fitness.prepare_population`` decodes a whole population's
strategy genes in one NumPy pass to one integer code per (genome,
layer), each resolved once per layer through the feasibility fallback.
These tests pin its contract: for any model, accelerator-set size and
population, the batch decode produces exactly the strategies of the
scalar :func:`decode_layer_strategy` reference — and search results
never depend on whether the batch pass ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import design1_superlip, design2_systolic
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import GAConfig, GENES_PER_LAYER, Level2Fitness, optimize_set
from repro.core.ga.level2 import decode_layer_strategy
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng

TOPOLOGY = f1_16xlarge()
GRAPHS = {name: build_model(name) for name in ("tiny_cnn", "squeezenet")}
EVALUATORS = {
    name: MappingEvaluator(graph, TOPOLOGY) for name, graph in GRAPHS.items()
}


def _fitness(model: str, accs: tuple[int, ...]) -> Level2Fitness:
    graph = GRAPHS[model]
    return Level2Fitness(
        EVALUATORS[model], graph.nodes(), accs, design2_systolic()
    )


def _scalar_reference(fitness: Level2Fitness, genome: np.ndarray) -> dict:
    parallelism = len(fitness.accs)
    return {
        node.name: decode_layer_strategy(
            genome[i * GENES_PER_LAYER : (i + 1) * GENES_PER_LAYER],
            node,
            parallelism,
            fitness.dtype_bytes,
        )
        for i, node in enumerate(fitness.compute_nodes)
    }


class TestBatchDecodeBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        model=st.sampled_from(sorted(GRAPHS)),
        accs=st.sampled_from([(0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5)]),
        rng_seed=st.integers(min_value=0, max_value=2**31),
        population=st.integers(min_value=1, max_value=12),
    )
    def test_matches_scalar_reference_on_random_populations(
        self, model, accs, rng_seed, population
    ):
        fitness = _fitness(model, accs)
        rng = make_rng(rng_seed)
        genomes = [
            rng.random(fitness.genome_length) for _ in range(population)
        ]
        fitness.prepare_population(genomes)
        for genome in genomes:
            assert fitness.decode(genome) == _scalar_reference(
                fitness, genome
            )

    def test_matches_scalar_on_mutated_ga_population(self):
        """The duplicate-ordering-heavy regime real generations are."""
        fitness = _fitness("squeezenet", (0, 1, 2, 3))
        rng = make_rng(7)
        base = rng.random(fitness.genome_length)
        genomes = [base]
        for _ in range(31):
            mask = rng.random(len(base)) < 0.15
            genomes.append(
                np.clip(
                    base + mask * rng.normal(0.0, 0.25, len(base)), 0.0, 1.0
                )
            )
        fitness.prepare_population(genomes)
        for genome in genomes:
            assert fitness.decode(genome) == _scalar_reference(
                fitness, genome
            )

    def test_edge_gene_values_decode_identically(self):
        """Boundary genes (0, thresholds, ties) hit the same branches."""
        fitness = _fitness("tiny_cnn", (0, 1, 2, 3))
        length = fitness.genome_length
        specials = [
            np.zeros(length),
            np.ones(length),
            np.full(length, 0.5),
            np.full(length, 1.0 / 3.0),
            np.full(length, 2.0 / 3.0),
        ]
        fitness.prepare_population(specials)
        for genome in specials:
            assert fitness.decode(genome) == _scalar_reference(
                fitness, genome
            )


class TestPreparePopulationPlumbing:
    def test_prepare_fills_decode_memo_once_per_unique_genome(self):
        fitness = _fitness("tiny_cnn", (0, 1))
        rng = make_rng(0)
        genomes = [rng.random(fitness.genome_length) for _ in range(5)]
        fitness.prepare_population(genomes + genomes)  # duplicates too
        assert fitness.decode_misses == len(genomes)
        for genome in genomes:
            fitness(genome)
        assert fitness.decode_misses == len(genomes)  # all hits after prep
        assert fitness.decode_hits >= len(genomes)

    def test_optimize_set_identical_with_batch_decode_disabled(
        self, monkeypatch
    ):
        """The batch pass is wall-clock only: disabling it changes nothing."""

        def run():
            return optimize_set(
                EVALUATORS["tiny_cnn"],
                GRAPHS["tiny_cnn"].nodes(),
                (0, 1, 2, 3),
                design1_superlip(),
                GAConfig(population_size=6, generations=4, elite_count=1),
                make_rng(0),
            )

        batched = run()
        monkeypatch.setattr(Level2Fitness, "prepare_population", None)
        scalar = run()
        assert batched.ga.history == scalar.ga.history
        assert batched.latency_seconds == scalar.latency_seconds
        assert batched.strategies == scalar.strategies

    def test_pickled_fitness_rebuilds_memos_and_decodes_identically(self):
        import pickle

        fitness = _fitness("tiny_cnn", (0, 1, 2, 3))
        rng = make_rng(4)
        genomes = [rng.random(fitness.genome_length) for _ in range(4)]
        fitness.prepare_population(genomes)
        clone = pickle.loads(pickle.dumps(fitness))
        assert clone.decode_misses == 0 and clone.decode_hits == 0
        for genome in genomes:
            assert clone(genome) == fitness(genome)

"""Vectorized population decode: bit-identity with the scalar path.

``Level2Fitness.prepare_population`` decodes a whole population's
strategy genes in one NumPy pass to one integer code per (genome,
layer), each resolved to a strategy id through the evaluator's
per-layer catalogs. These tests pin its contract: for any model,
accelerator-set size and population, the ids name exactly the
strategies of the scalar :func:`decode_layer_strategy` reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import design2_systolic
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import GENES_PER_LAYER, Level2Fitness
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


def _assert_batch_matches_scalar(
    fitness: Level2Fitness, genomes: list[np.ndarray]
) -> None:
    """The strategies the batch's phenotypes name, row by row and in
    population order, and the one-genome ``decode`` both equal the
    scalar reference; phenotypes are equal exactly where the
    strategies are, so the engine memoizes on them as on strategies."""
    references = [_scalar_reference(fitness, g) for g in genomes]
    phenotypes = fitness.prepare_population(genomes)
    named = [
        tuple(fitness.costs.strategies(phenotype).values())
        for phenotype in phenotypes
    ]
    assert named == [tuple(reference.values()) for reference in references]
    assert len(set(phenotypes)) == len(set(named))
    for genome, reference in zip(genomes, references):
        assert fitness.decode(genome) == reference


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
        _assert_batch_matches_scalar(fitness, genomes)

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
        _assert_batch_matches_scalar(fitness, genomes)

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
        _assert_batch_matches_scalar(fitness, specials)


"""Two-level genetic algorithm (Fig. 3 of the paper)."""

from repro.core.ga.backends import ProcessPoolBackend
from repro.core.ga.engine import GAConfig, GAResult, GeneticAlgorithm
from repro.core.ga.heuristics import (
    candidate_partitions,
    design_gene_seed,
    edge_removal_partitions,
)
from repro.core.ga.level1 import (
    Level1Search,
    SearchBudget,
    SubproblemSolver,
    subproblem_rng,
)
from repro.core.ga.level2 import (
    GENES_PER_LAYER,
    Level2Fitness,
    SetSolution,
    decode_layer_strategy,
    greedy_strategies,
    optimize_set,
)

__all__ = [
    "GAConfig",
    "GAResult",
    "GENES_PER_LAYER",
    "GeneticAlgorithm",
    "Level1Search",
    "Level2Fitness",
    "ProcessPoolBackend",
    "SearchBudget",
    "SetSolution",
    "SubproblemSolver",
    "subproblem_rng",
    "candidate_partitions",
    "decode_layer_strategy",
    "design_gene_seed",
    "edge_removal_partitions",
    "greedy_strategies",
    "optimize_set",
]

"""A1: ablating the Section V heuristics.

Compares the full MARS search against a variant whose level-1 GA starts
from random genomes (no profiled-design initialization, no partition
seeds) under the same evaluation budget — quantifying what the
heuristics buy.
"""

import numpy as np

from repro.accelerators import table2_designs
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import Level1Search
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng
from repro.utils.tables import format_table

from _report import emit, quick_budget, subproblem_pool


def _search(graph, topology, seeded: bool, seed: int):
    budget = quick_budget()
    with subproblem_pool(budget) as pool:
        search = Level1Search(
            graph=graph,
            topology=topology,
            designs=table2_designs(),
            evaluator=MappingEvaluator(graph, topology),
            budget=budget,
            rng=make_rng(seed),
            level1_backend=pool,
        )
        if not seeded:
            search.seed_genomes = lambda: []  # ablate the heuristic seeds
        return search.run()


def bench_seeded_search(benchmark):
    graph = build_model("vgg16")
    topology = f1_16xlarge()
    _, evaluation, _ = benchmark.pedantic(
        _search, args=(graph, topology, True, 0), rounds=1, iterations=1
    )
    assert evaluation.feasible


def bench_unseeded_search(benchmark):
    graph = build_model("vgg16")
    topology = f1_16xlarge()
    _, evaluation, _ = benchmark.pedantic(
        _search, args=(graph, topology, False, 0), rounds=1, iterations=1
    )
    assert evaluation.feasible


def bench_heuristics_report(benchmark):
    def build():
        graph = build_model("vgg16")
        topology = f1_16xlarge()
        rows = []
        for label, seeded in (("with heuristics", True), ("random init", False)):
            latencies = []
            for seed in range(3):
                _, evaluation, _ = _search(graph, topology, seeded, seed)
                latencies.append(evaluation.latency_ms)
            rows.append(
                [
                    label,
                    f"{np.mean(latencies):.2f}",
                    f"{np.min(latencies):.2f}",
                    f"{np.max(latencies):.2f}",
                ]
            )
        return format_table(
            ["Initialization", "Mean /ms", "Best /ms", "Worst /ms"],
            rows,
            title="A1: VGG16 search quality, 3 seeds, identical GA budget",
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_heuristics", text)
    assert "with heuristics" in text

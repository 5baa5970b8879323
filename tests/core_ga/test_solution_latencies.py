"""Oracles for the latencies level 1 scores from, against fresh walks.

A level-2 solve prices its winner on its GA's own table, and level 1
keeps that latency beside the winner's strategies and scores an
individual from those latencies, its boundary transfers and its host
input, walking no set. Two properties keep that sound:

* ``optimize_set``'s evaluation equals a fresh evaluator's
  ``evaluate_set`` of its strategies, layer cost by layer cost, with the
  layer cache on and off;
* every individual a fast-budget search scores has the fitness that
  ``evaluate_mapping(build_mapping(d))`` gives it on a fresh evaluator —
  its latency, or its pipeline interval under the throughput
  objective — hex for hex, and that evaluation's parts combine in the
  one float order (set latencies, then the transfers, then the host
  input; the slowest stage for the interval).
"""

from dataclasses import replace

import pytest

from repro.accelerators import (
    design1_superlip,
    design2_systolic,
    table2_designs,
)
from repro.core.evaluator import (
    EvaluatorOptions,
    MappingEvaluator,
    SubproblemCosts,
)
from repro.core.ga import GAConfig, Level1Search, SearchBudget, optimize_set
from repro.dnn import build_model
from repro.dnn.builder import GraphBuilder
from repro.system import f1_16xlarge, h2h_fixed_system
from repro.utils import make_rng
from tests.core.test_reference_walk import _assert_evaluations_identical


def _host_bound_graph():
    """1x1 convolutions over a large image: loading the input from host
    memory takes longer than any set's compute, so the host stage is
    the pipeline's slowest."""
    b = GraphBuilder("host_bound")
    x = b.input(3, 224, 224)
    x = b.relu(b.conv(x, 4, 1, name="squeeze"))
    b.conv(x, 4, 1, name="mix")
    return b.build()


GRAPHS = {
    "tiny_resnet": build_model("tiny_resnet"),
    "host_bound": _host_bound_graph(),
}
SYSTEMS = {
    "f1_16xlarge": f1_16xlarge(),
    "h2h_fixed_system": h2h_fixed_system(1.0),
}


@pytest.mark.parametrize("objective", ["latency", "throughput"])
@pytest.mark.parametrize("weights_resident", [True, False])
@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("model", sorted(GRAPHS))
def test_fitness_is_evaluate_mapping_of_every_scored_individual(
    monkeypatch, model, system, weights_resident, objective
):
    graph, topology = GRAPHS[model], SYSTEMS[system]
    options = EvaluatorOptions(weights_resident=weights_resident)
    search = Level1Search(
        graph=graph,
        topology=topology,
        designs=table2_designs() if topology.kind == "adaptive" else [],
        evaluator=MappingEvaluator(graph, topology, options),
        budget=SearchBudget.fast(),
        rng=make_rng(0),
        objective=objective,
    )
    scored = []
    fitness = Level1Search.fitness

    def spied(self, decoded):
        value = fitness(self, decoded)
        scored.append((decoded, value))
        return value

    monkeypatch.setattr(Level1Search, "fitness", spied)
    search.run()
    fresh = MappingEvaluator(graph, topology, options)
    multi_set = host_bound = 0
    for decoded, value in scored:
        evaluation = fresh.evaluate_mapping(search.build_mapping(decoded))
        expected = (
            evaluation.pipeline_interval_seconds
            if objective == "throughput"
            else evaluation.latency_seconds
        )
        assert value.hex() == expected.hex()
        sets = [e.latency_seconds for e in evaluation.set_evaluations]
        transfers = evaluation.transfer_breakdown
        host = evaluation.host_input_seconds
        assert evaluation.latency_seconds.hex() == (
            sum(sets) + sum(transfers) + host
        ).hex()
        assert evaluation.pipeline_interval_seconds == max(
            [*sets, *transfers, host]
        )
        multi_set += len(sets) > 1
        host_bound += host > max(sets + transfers)
    assert multi_set  # boundary transfers were priced
    if model == "host_bound":
        assert host_bound  # the host stage set some interval


@pytest.mark.parametrize("weights_resident", [True, False])
@pytest.mark.parametrize("layer_cache", [True, False])
@pytest.mark.parametrize(
    "model, span, accs, design",
    [
        ("resnet34", slice(40, 90), (0, 1), design1_superlip()),
        ("squeezenet", slice(None), (0, 1, 2, 3), design2_systolic()),
        ("alexnet", slice(None), (4,), design1_superlip()),
    ],
)
def test_optimize_set_evaluation_is_a_fresh_evaluate_set(
    model, span, accs, design, layer_cache, weights_resident
):
    """The winner priced on its GA's table (replaying the genomes'
    records) or, on one accelerator, by ``evaluate_set``, equals a
    fresh cache-off evaluator's walk of its strategies; its latency is
    the GA's best fitness."""
    graph = build_model(model)
    nodes = graph.nodes()[span]
    options = EvaluatorOptions(
        weights_resident=weights_resident, layer_cache=layer_cache
    )
    solution = optimize_set(
        MappingEvaluator(graph, f1_16xlarge(), options),
        nodes,
        accs,
        design,
        replace(SearchBudget.fast().level2, cache=True),
        make_rng(0),
    )
    fresh = MappingEvaluator(
        graph, f1_16xlarge(), replace(options, layer_cache=False)
    )
    expected = fresh.evaluate_set(nodes, accs, design, solution.strategies)
    _assert_evaluations_identical(solution.evaluation, expected)
    assert solution.latency_seconds.hex() == expected.latency_seconds.hex()
    if solution.ga is not None:
        assert solution.ga.best_fitness.hex() == expected.latency_seconds.hex()


def test_winner_is_priced_from_its_tables_records(monkeypatch):
    """A solve prices its winner by replaying its table's records: no
    layer-cache lookup, where a fresh table's walk of the same
    strategies looks up every compute layer with a plan."""
    evaluate = SubproblemCosts.evaluate
    lookups = []

    def spied(self, strategies, program=None):
        before = self.evaluator.layer_cache_stats
        evaluation = evaluate(self, strategies, program)
        lookups.append(self.evaluator.layer_cache_stats.since(before).lookups)
        return evaluation

    monkeypatch.setattr(SubproblemCosts, "evaluate", spied)
    graph = build_model("resnet34")
    nodes = graph.nodes()[40:90]
    evaluator = MappingEvaluator(graph, f1_16xlarge())
    config = GAConfig(population_size=6, generations=2, cache=True)
    solution = optimize_set(
        evaluator, nodes, (0, 1), design1_superlip(), config, make_rng(0)
    )
    again = evaluator.evaluate_set(
        nodes, (0, 1), design1_superlip(), solution.strategies
    )
    assert lookups[0] == 0 < lookups[1]
    _assert_evaluations_identical(solution.evaluation, again)

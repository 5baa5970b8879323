"""The evaluator's one pricing walk against the straight-line reference.

``MappingEvaluator.evaluate_set`` is one walk of a fresh
:class:`~repro.core.evaluator.SubproblemCosts` table. Whatever the
table memoizes, its whole :class:`~repro.core.evaluator.SetEvaluation`
(latency, every :class:`~repro.core.evaluator.LayerCost` field, the
memory report, feasibility) and, with a program, its emitted steps must
equal those of :func:`tests.core.reference_walk.reference_evaluate_set`,
which walks the same layers with no memo at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import design1_superlip, design2_systolic
from repro.core.evaluator import (
    EvaluatorOptions,
    MappingEvaluator,
    SubproblemCosts,
)
from repro.simulator.program import ExecutionProgram
from repro.system import f1_16xlarge
from tests.core.reference_walk import reference_evaluate_set
from tests.core.test_layer_cache import TABLE_GRAPHS, _random_strategies


def _assert_evaluations_identical(got, expected):
    assert got.latency_seconds.hex() == expected.latency_seconds.hex()
    assert got.memory == expected.memory
    assert got.feasible == expected.feasible
    assert len(got.layer_costs) == len(expected.layer_costs)
    for a, b in zip(got.layer_costs, expected.layer_costs):
        assert a.name == b.name
        for seconds in (
            "compute_seconds",
            "resharding_seconds",
            "allreduce_seconds",
            "rotation_seconds",
            "halo_seconds",
        ):
            assert getattr(a, seconds).hex() == getattr(b, seconds).hex()


@settings(max_examples=40, deadline=None)
@given(
    graph_index=st.integers(0, len(TABLE_GRAPHS) - 1),
    strategy_seed=st.integers(0, 10_000),
    accs=st.sampled_from([(0,), (0, 1), (0, 1, 2, 3), (4, 5)]),
    weights_resident=st.booleans(),
    layer_cache=st.booleans(),
    tiny_dram=st.booleans(),
    start=st.integers(0, 1_000),
    length=st.integers(1, 1_000),
)
def test_evaluate_set_matches_the_reference_walk(
    graph_index, strategy_seed, accs, weights_resident, layer_cache,
    tiny_dram, start, length,
):
    """Cold and warm, through a fresh table per call and through one
    table replaying its records, with and without a program; the
    16 KiB topology makes every set spill."""
    graph = TABLE_GRAPHS[graph_index]
    topology = (
        f1_16xlarge(dram_bytes=16 * 1024) if tiny_dram else f1_16xlarge()
    )
    design = design1_superlip() if tiny_dram else design2_systolic()
    options = EvaluatorOptions(
        weights_resident=weights_resident, layer_cache=layer_cache
    )
    reference = MappingEvaluator(graph, topology, options)
    evaluator = MappingEvaluator(graph, topology, options)
    all_nodes = graph.nodes()
    start %= len(all_nodes)
    nodes = all_nodes[start : start + length]
    dicts = [
        _random_strategies(graph, strategy_seed, omit=0.25),
        _random_strategies(graph, strategy_seed + 1),
    ]
    table = SubproblemCosts(evaluator, nodes, accs, design)
    for strategies in dicts + dicts:
        expected = reference_evaluate_set(
            reference, nodes, accs, design, strategies
        )
        _assert_evaluations_identical(
            evaluator.evaluate_set(nodes, accs, design, strategies), expected
        )
        _assert_evaluations_identical(table.evaluate(strategies), expected)
        assert table.latency(table.phenotype(strategies)).hex() == (
            expected.latency_seconds.hex()
        )

    for strategies in dicts:
        expected_program = ExecutionProgram(topology)
        expected = reference_evaluate_set(
            reference, nodes, accs, design, strategies, expected_program
        )
        program = ExecutionProgram(topology)
        got = evaluator.evaluate_set(
            nodes, accs, design, strategies, program=program
        )
        _assert_evaluations_identical(got, expected)
        assert program.steps == expected_program.steps

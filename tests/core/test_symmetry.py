"""Symmetry oracle: relabelling accelerators by a topology automorphism
leaves every price bit-identical.

``f1_16xlarge`` is two groups of four fully-linked accelerators with
host-staged links between the groups, so the group swap
σ(a) = (a + 4) mod 8 is an automorphism. On a sorted set inside one
group, σ keeps the order, so subgroup blocks and ring order correspond.
Pricing a set or a whole mapping under σ must then give the same
floats, hex for hex: an asymmetric bug in the all-pairs tables, the set
bottleneck memos or the subgroup order shows up as a difference. The
two sides are priced by separate evaluators, so a memo keyed without
the accelerator ids cannot make them agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import design1_superlip, design2_systolic
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.formulation import (
    AcceleratorSet,
    LayerRange,
    Mapping,
    SetAssignment,
)
from repro.dnn import build_model
from repro.system import f1_16xlarge
from tests.core.test_layer_cache import _random_strategies
from tests.core.test_reference_walk import _assert_evaluations_identical

TOPOLOGY = f1_16xlarge()
GRAPHS = [build_model(m) for m in ("resnet34", "squeezenet", "mobilenet_v1")]
DESIGNS = (design1_superlip(), design2_systolic())


def sigma(accs: tuple[int, ...]) -> tuple[int, ...]:
    """The group swap on a sorted set inside one group."""
    return tuple((a + 4) % 8 for a in accs)


@st.composite
def group_sets(draw, count: int) -> list[tuple[int, ...]]:
    """``count`` disjoint sorted sets, each inside one group."""
    free = {0: [0, 1, 2, 3], 1: [4, 5, 6, 7]}
    sets = []
    for _ in range(count):
        group = draw(st.sampled_from([g for g in free if free[g]]))
        members = draw(
            st.lists(st.sampled_from(free[group]), min_size=1, unique=True)
        )
        for acc in members:
            free[group].remove(acc)
        sets.append(tuple(sorted(members)))
    return sets


def _pair(graph, weights_resident: bool):
    """Two evaluators of ``graph``, one per side of σ."""
    options = EvaluatorOptions(weights_resident=weights_resident)
    return (
        MappingEvaluator(graph, TOPOLOGY, options),
        MappingEvaluator(graph, TOPOLOGY, options),
    )


@settings(max_examples=40, deadline=None)
@given(
    graph_index=st.integers(0, len(GRAPHS) - 1),
    sets=group_sets(1),
    design_index=st.integers(0, 1),
    weights_resident=st.booleans(),
    strategy_seed=st.integers(0, 10_000),
    start=st.integers(0, 1_000),
    length=st.integers(1, 40),
)
def test_group_swap_leaves_evaluate_set_identical(
    graph_index, sets, design_index, weights_resident, strategy_seed,
    start, length,
):
    graph = GRAPHS[graph_index]
    nodes = graph.nodes()
    start %= len(nodes)
    nodes = nodes[start : start + length]
    (accs,) = sets
    design = DESIGNS[design_index]
    strategies = _random_strategies(graph, strategy_seed, omit=0.25)
    here, there = _pair(graph, weights_resident)
    _assert_evaluations_identical(
        there.evaluate_set(nodes, sigma(accs), design, strategies),
        here.evaluate_set(nodes, accs, design, strategies),
    )


@settings(max_examples=12, deadline=None)
@given(
    graph_index=st.integers(0, len(GRAPHS) - 1),
    sets=group_sets(2),
    designs=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    weights_resident=st.booleans(),
    strategy_seed=st.integers(0, 10_000),
    cut=st.integers(1, 1_000),
)
def test_group_swap_leaves_mapping_latency_identical(
    graph_index, sets, designs, weights_resident, strategy_seed, cut,
):
    """Two sets, in one group or one in each, with the boundary
    transfers between them and the host input load."""
    graph = GRAPHS[graph_index]
    cut = 1 + cut % (len(graph) - 1)
    strategies = _random_strategies(graph, strategy_seed)

    def mapping(relabel) -> Mapping:
        ranges = (LayerRange(0, cut), LayerRange(cut, len(graph)))
        return Mapping(
            graph=graph,
            topology=TOPOLOGY,
            assignments=[
                SetAssignment(
                    layer_range=layer_range,
                    acc_set=AcceleratorSet(relabel(accs)),
                    design=DESIGNS[design],
                    strategies=strategies,
                )
                for layer_range, accs, design in zip(ranges, sets, designs)
            ],
        )

    here, there = _pair(graph, weights_resident)
    expected = here.evaluate_mapping(mapping(lambda accs: accs))
    got = there.evaluate_mapping(mapping(sigma))
    assert got.latency_seconds.hex() == expected.latency_seconds.hex()
    assert got.host_input_seconds.hex() == expected.host_input_seconds.hex()
    assert [t.hex() for t in got.transfer_breakdown] == [
        t.hex() for t in expected.transfer_breakdown
    ]
    for a, b in zip(got.set_evaluations, expected.set_evaluations):
        _assert_evaluations_identical(a, b)

"""Property-based invariants of the analytical cost model's
communication forms and of the event-driven network."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.costmodel import AnalyticalCostModel
from repro.simulator import CollectiveEngine, EventQueue, Network
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
MODEL = AnalyticalCostModel(TOPOLOGY)

_group = st.sampled_from(
    [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 4, 5), tuple(range(8))]
)
_nbytes = st.integers(0, 64_000_000)


@given(group=_group, nbytes=_nbytes)
def test_collective_costs_nonnegative(group, nbytes):
    assert MODEL.allreduce_seconds(group, nbytes) >= 0
    assert MODEL.allgather_seconds(group, nbytes) >= 0
    assert MODEL.ring_step_seconds(group, nbytes) >= 0


@given(group=_group, nbytes=st.integers(1, 32_000_000))
def test_allreduce_dominates_allgather(group, nbytes):
    """All-reduce = reduce-scatter + all-gather, so it costs at least an
    all-gather."""
    assert MODEL.allreduce_seconds(group, nbytes) >= MODEL.allgather_seconds(
        group, nbytes
    )


@given(group=_group, a=_nbytes, b=_nbytes)
def test_monotone_in_message_size(group, a, b):
    small, large = sorted((a, b))
    assert MODEL.allreduce_seconds(group, small) <= MODEL.allreduce_seconds(
        group, large
    )


@given(nbytes=st.integers(1, 32_000_000))
def test_cross_group_never_cheaper(nbytes):
    intra = MODEL.allreduce_seconds((0, 1, 2, 3), nbytes)
    cross = MODEL.allreduce_seconds((0, 1, 4, 5), nbytes)
    assert cross >= intra


@settings(max_examples=20, deadline=None)
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(0, 7), st.integers(1, 4_000_000)
        ),
        min_size=1,
        max_size=12,
    )
)
def test_network_conserves_bytes(transfers):
    """Every byte sent is recorded exactly once, on exactly one route."""
    network = Network(TOPOLOGY, EventQueue())
    expected = 0
    for src, dst, nbytes in transfers:
        if src == dst:
            continue
        network.transfer_end_time(0.0, src, dst, nbytes)
        expected += nbytes
    assert network.total_bytes_moved() == expected
    routes = network.bytes_by_route()
    assert routes["direct"] + routes["host"] == expected


@settings(max_examples=20, deadline=None)
@given(
    group=st.sampled_from([(0, 1), (0, 1, 2, 3)]),
    nbytes=st.integers(1, 8_000_000),
)
def test_event_sim_never_beats_analytical_floor(group, nbytes):
    """The event-driven time includes everything the closed form counts,
    so it can only match or exceed it (by contention)."""
    engine = CollectiveEngine(Network(TOPOLOGY, EventQueue()))
    predicted = MODEL.allreduce_seconds(group, nbytes)
    simulated = engine.allreduce(group, nbytes)
    assert simulated >= predicted * 0.999


@settings(max_examples=20, deadline=None)
@given(
    start=st.floats(0, 10, allow_nan=False),
    nbytes=st.integers(0, 8_000_000),
)
def test_transfers_never_finish_before_start(start, nbytes):
    network = Network(TOPOLOGY, EventQueue())
    end = network.transfer_end_time(start, 0, 1, nbytes)
    assert end >= start

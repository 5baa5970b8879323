"""Cross-validation: event-driven collectives vs the analytical cost
model.

Every search prices through :class:`AnalyticalCostModel`'s closed
forms; these tests bound their gap to the event-driven implementation
on uncontended networks (where the formulas should be near-exact).
"""

import pytest

from repro.core.costmodel import AnalyticalCostModel
from repro.simulator import CollectiveEngine, EventQueue, Network
from repro.system import f1_16xlarge

MB = 1_000_000


@pytest.fixture()
def setup():
    topology = f1_16xlarge()
    network = Network(topology, EventQueue())
    return AnalyticalCostModel(topology), CollectiveEngine(network)


INTRA = (0, 1, 2, 3)
PAIR = (0, 1)
CROSS = (0, 1, 4, 5)


class TestAllReduceAgreement:
    @pytest.mark.parametrize("group", [PAIR, INTRA])
    @pytest.mark.parametrize("nbytes", [64_000, MB, 16 * MB])
    def test_intra_group_matches_within_5pct(self, setup, group, nbytes):
        analytical, engine = setup
        predicted = analytical.allreduce_seconds(group, nbytes)
        simulated = engine.allreduce(group, nbytes)
        assert simulated == pytest.approx(predicted, rel=0.05)

    def test_cross_group_analytical_is_not_higher_than_simulated(self, setup):
        # With host staging the event sim serializes host ports, so the
        # closed form is an optimistic but close bound.
        analytical, engine = setup
        predicted = analytical.allreduce_seconds(CROSS, MB)
        simulated = engine.allreduce(CROSS, MB)
        assert simulated >= 0.9 * predicted


class TestAllGatherAgreement:
    @pytest.mark.parametrize("nbytes", [64_000, 4 * MB])
    def test_intra_group(self, setup, nbytes):
        analytical, engine = setup
        predicted = analytical.allgather_seconds(INTRA, nbytes)
        simulated = engine.allgather(INTRA, nbytes)
        assert simulated == pytest.approx(predicted, rel=0.05)


class TestRingStepAgreement:
    def test_single_rotation(self, setup):
        analytical, engine = setup
        predicted = analytical.ring_step_seconds(INTRA, 2 * MB)
        simulated = engine.ring_step(INTRA, 2 * MB)
        assert simulated == pytest.approx(predicted, rel=0.05)


class TestP2PAgreement:
    def test_direct(self, setup):
        analytical, engine = setup
        assert engine.p2p(0, 1, 8 * MB) == pytest.approx(
            analytical.p2p_seconds(0, 1, 8 * MB), rel=0.01
        )

    def test_host_staged(self, setup):
        analytical, engine = setup
        assert engine.p2p(0, 4, 2 * MB) == pytest.approx(
            analytical.p2p_seconds(0, 4, 2 * MB), rel=0.01
        )


class TestSetToSetAgreement:
    def test_parallel_pairs(self, setup):
        analytical, engine = setup
        predicted = analytical.transfer_seconds((0, 1), (2, 3), 4 * MB)
        simulated = engine.set_to_set((0, 1), (2, 3), 4 * MB)
        assert simulated == pytest.approx(predicted, rel=0.05)

    def test_cross_group(self, setup):
        analytical, engine = setup
        predicted = analytical.transfer_seconds((0,), (4,), 2 * MB)
        simulated = engine.set_to_set((0,), (4,), 2 * MB)
        assert simulated == pytest.approx(predicted, rel=0.05)


class TestDegenerates:
    def test_empty_collectives_cost_nothing(self, setup):
        _, engine = setup
        assert engine.allreduce((0,), MB) == 0.0
        assert engine.allgather(INTRA, 0) == 0.0
        assert engine.ring_step((3,), MB) == 0.0
        assert engine.p2p(2, 2, MB) == 0.0

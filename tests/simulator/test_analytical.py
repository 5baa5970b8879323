"""The analytical cost model's closed forms: formulas, asymmetry,
degenerate cases."""

import pytest

from repro.core.costmodel import AnalyticalCostModel
from repro.system import f1_16xlarge
from repro.utils.units import gbps, transfer_seconds


@pytest.fixture(scope="module")
def model():
    return AnalyticalCostModel(f1_16xlarge())


MB = 1_000_000
INTRA = (0, 1, 2, 3)
CROSS = (0, 1, 4, 5)


class TestAllReduce:
    def test_ring_formula_intra_group(self, model):
        nbytes = 8 * MB
        p = 4
        wire = 2 * (p - 1) / p * transfer_seconds(nbytes, gbps(8))
        lat = 2 * (p - 1) * 2e-6
        assert model.allreduce_seconds(INTRA, nbytes) == pytest.approx(wire + lat)

    def test_cross_group_pays_host_bandwidth(self, model):
        intra = model.allreduce_seconds(INTRA, MB)
        cross = model.allreduce_seconds(CROSS, MB)
        assert cross > 3 * intra

    def test_single_member_is_free(self, model):
        assert model.allreduce_seconds((2,), MB) == 0.0

    def test_zero_bytes_is_free(self, model):
        assert model.allreduce_seconds(INTRA, 0) == 0.0

    def test_more_members_cost_more_wire_time(self, model):
        two = model.allreduce_seconds((0, 1), MB)
        four = model.allreduce_seconds(INTRA, MB)
        # 2(P-1)/P grows with P: 1.0 -> 1.5 units of S/B.
        assert four > two


class TestAllGatherReduceScatter:
    def test_allgather_is_half_of_allreduce_wire(self, model):
        ag = model.allgather_seconds(INTRA, 8 * MB)
        ar = model.allreduce_seconds(INTRA, 8 * MB)
        assert ar == pytest.approx(2 * ag, rel=1e-6)

    def test_reduce_scatter_equals_allgather(self, model):
        assert model.reduce_scatter_seconds(INTRA, MB) == pytest.approx(
            model.allgather_seconds(INTRA, MB)
        )


class TestRingStep:
    def test_one_rotation(self, model):
        shard = 2 * MB
        expected = transfer_seconds(shard, gbps(8)) + 2e-6
        assert model.ring_step_seconds(INTRA, shard) == pytest.approx(expected)

    def test_single_member_free(self, model):
        assert model.ring_step_seconds((0,), MB) == 0.0


class TestP2P:
    def test_intra_group(self, model):
        assert model.p2p_seconds(0, 1, 8 * MB) == pytest.approx(
            transfer_seconds(8 * MB, gbps(8)) + 2e-6
        )

    def test_cross_group_via_host(self, model):
        # Store-and-forward: effective 1 Gbps over the 2 Gbps host links.
        assert model.p2p_seconds(0, 4, 2 * MB) == pytest.approx(
            transfer_seconds(2 * MB, gbps(1)) + 2 * 10e-6
        )

    def test_self_is_free(self, model):
        assert model.p2p_seconds(3, 3, MB) == 0.0


class TestSetToSet:
    def test_same_singleton_is_free(self, model):
        assert model.transfer_seconds((0,), (0,), MB) == 0.0

    def test_cross_group_transfer(self, model):
        t = model.transfer_seconds((0, 1), (4, 5), 4 * MB)
        # 2 MB per destination over the 1 Gbps effective host path.
        assert t == pytest.approx(transfer_seconds(2 * MB, gbps(1)) + 2e-5, rel=0.01)

    def test_fan_out_replication_costs_more(self, model):
        even = model.transfer_seconds((0,), (1, 2), 2 * MB)
        replicated = model.transfer_seconds(
            (0,), (1, 2), 2 * MB, bytes_per_dst=2 * MB
        )
        assert replicated > even

    def test_zero_bytes_free(self, model):
        assert model.transfer_seconds((0,), (4,), 0) == 0.0

    def test_empty_group_rejected(self, model):
        with pytest.raises(ValueError):
            model.transfer_seconds((), (0,), MB)


class TestHostTraffic:
    def test_round_trip_is_two_transfers(self, model):
        one_way = transfer_seconds(MB, gbps(2)) + 10e-6
        assert model.host_round_trip_seconds(0, MB) == pytest.approx(2 * one_way)

    def test_read(self, model):
        assert model.host_read_seconds(0, MB) == pytest.approx(
            transfer_seconds(MB, gbps(2)) + 10e-6
        )

    def test_zero_free(self, model):
        assert model.host_round_trip_seconds(0, 0) == 0.0
        assert model.host_read_seconds(0, 0) == 0.0

"""Execution programs: step validation, and replay against the
analytical price of their steps."""

import pytest

from repro.core.costmodel import AnalyticalCostModel
from repro.core.validation import price_step
from repro.simulator import (
    CollectiveStep,
    ComputeStep,
    ExecutionProgram,
    HostStep,
    TransferStep,
)
from repro.system import f1_16xlarge

MB = 1_000_000


@pytest.fixture()
def program():
    return ExecutionProgram(f1_16xlarge())


def analytical_seconds(program):
    """The program's steps priced in order by the closed forms."""
    model = AnalyticalCostModel(program.topology)
    return sum(price_step(model, step) for step in program.steps)


class TestStepValidation:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            ComputeStep(group=(0,), seconds=-1.0)

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            ComputeStep(group=(), seconds=1.0)

    def test_unknown_collective_rejected(self):
        with pytest.raises(ValueError):
            CollectiveStep(kind="alltoall", group=(0, 1), nbytes=MB)

    def test_unknown_host_kind_rejected(self):
        with pytest.raises(ValueError):
            HostStep(acc=0, nbytes=MB, kind="write-only")

    def test_negative_transfer_rejected(self):
        with pytest.raises(ValueError):
            TransferStep(src_group=(0,), dst_group=(1,), total_bytes=-5)


class TestAnalyticalPricing:
    def test_compute_only(self, program):
        program.append(ComputeStep(group=(0, 1), seconds=0.25))
        program.append(ComputeStep(group=(0, 1), seconds=0.5))
        assert analytical_seconds(program) == pytest.approx(0.75)

    def test_mixed_program(self, program):
        program.extend(
            [
                HostStep(acc=0, nbytes=MB, kind="read"),
                ComputeStep(group=(0, 1, 2, 3), seconds=0.01),
                CollectiveStep(kind="allreduce", group=(0, 1, 2, 3), nbytes=MB),
                TransferStep(src_group=(0, 1), dst_group=(4, 5), total_bytes=MB),
                ComputeStep(group=(4, 5), seconds=0.02),
            ]
        )
        total = analytical_seconds(program)
        assert total > 0.03  # at least the compute time
        assert len(program) == 5

    def test_every_collective_kind_priced(self, program):
        for kind in ("allreduce", "allgather", "reduce_scatter", "ring_step"):
            program.append(CollectiveStep(kind=kind, group=(0, 1), nbytes=MB))
        assert analytical_seconds(program) > 0


class TestReplayAgreement:
    def test_replay_matches_analytical_on_sequential_program(self, program):
        program.extend(
            [
                ComputeStep(group=(0, 1, 2, 3), seconds=0.005),
                CollectiveStep(kind="allreduce", group=(0, 1, 2, 3), nbytes=4 * MB),
                CollectiveStep(kind="ring_step", group=(0, 1, 2, 3), nbytes=MB),
                TransferStep(src_group=(0, 1, 2, 3), dst_group=(4, 5, 6, 7), total_bytes=2 * MB),
                ComputeStep(group=(4, 5, 6, 7), seconds=0.004),
            ]
        )
        replay = program.replay()
        predicted = analytical_seconds(program)
        assert replay.total_seconds == pytest.approx(predicted, rel=0.05)

    def test_step_end_times_monotone(self, program):
        program.extend(
            [
                ComputeStep(group=(0,), seconds=0.01),
                HostStep(acc=0, nbytes=MB, kind="round_trip"),
                ComputeStep(group=(0,), seconds=0.01),
            ]
        )
        replay = program.replay()
        assert replay.step_end_times == sorted(replay.step_end_times)
        assert len(replay.step_end_times) == 3

    def test_replay_records_traffic(self, program):
        program.append(
            TransferStep(src_group=(0,), dst_group=(4,), total_bytes=2 * MB)
        )
        replay = program.replay()
        assert replay.bytes_by_route["host"] == pytest.approx(2 * MB)

"""Execution programs: the bridge between mapping decisions and time.

The evaluator compiles a mapped DNN into a linear *program* of compute
steps, intra-set collectives, set-to-set transfers and host traffic —
the same structure ASTRA-Sim consumes as a workload trace.
:meth:`ExecutionProgram.replay` executes it event-driven on the
serialized network resources, for validation and reported traces. The
search never prices a program: its steps are appended from what the
evaluator's cost model priced, and
:func:`repro.core.validation.price_step` re-prices a step with that
model when a replay is checked against it.

Steps execute sequentially (layer-by-layer inference, as in the paper);
within a step all listed accelerators work concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulator.collectives import CollectiveEngine
from repro.simulator.events import EventQueue
from repro.simulator.network import Network
from repro.system.topology import SystemTopology
from repro.utils.validation import require


@dataclass(frozen=True)
class ComputeStep:
    """All accelerators in ``group`` compute for ``seconds`` in parallel."""

    group: tuple[int, ...]
    seconds: float
    label: str = ""

    def __post_init__(self) -> None:
        require(bool(self.group), "compute step needs accelerators")
        require(self.seconds >= 0, f"negative compute time {self.seconds}")


@dataclass(frozen=True)
class CollectiveStep:
    """An intra-set collective (``allreduce``/``allgather``/``ring_step``)."""

    kind: str
    group: tuple[int, ...]
    nbytes: float
    label: str = ""

    _KINDS = ("allreduce", "allgather", "reduce_scatter", "ring_step")

    def __post_init__(self) -> None:
        require(
            self.kind in self._KINDS,
            f"unknown collective {self.kind!r}; expected one of {self._KINDS}",
        )
        require(bool(self.group), "collective needs a group")
        require(self.nbytes >= 0, f"negative collective size {self.nbytes}")


@dataclass(frozen=True)
class TransferStep:
    """Set-to-set tensor movement between consecutive layer sets."""

    src_group: tuple[int, ...]
    dst_group: tuple[int, ...]
    total_bytes: float
    bytes_per_dst: float | None = None
    label: str = ""

    def __post_init__(self) -> None:
        require(bool(self.src_group) and bool(self.dst_group), "empty group")
        require(self.total_bytes >= 0, "negative transfer size")


@dataclass(frozen=True)
class HostStep:
    """Host-memory traffic from one accelerator (input load or spill)."""

    acc: int
    nbytes: float
    kind: str = "read"  # "read" or "round_trip"
    label: str = ""

    def __post_init__(self) -> None:
        require(
            self.kind in ("read", "round_trip"),
            f"unknown host traffic kind {self.kind!r}",
        )
        require(self.nbytes >= 0, "negative host traffic")


Step = ComputeStep | CollectiveStep | TransferStep | HostStep


@dataclass
class ReplayResult:
    """Outcome of an event-driven replay."""

    total_seconds: float
    step_end_times: list[float]
    network: Network

    @property
    def bytes_by_route(self) -> dict[str, float]:
        return self.network.bytes_by_route()


@dataclass
class ExecutionProgram:
    """An ordered list of steps and their event-driven replay."""

    topology: SystemTopology
    steps: list[Step] = field(default_factory=list)

    def append(self, step: Step) -> None:
        self.steps.append(step)

    def extend(self, steps: list[Step]) -> None:
        self.steps.extend(steps)

    def __len__(self) -> int:
        return len(self.steps)

    def replay(self) -> ReplayResult:
        events = EventQueue()
        network = Network(self.topology, events)
        engine = CollectiveEngine(network)
        now = 0.0
        ends = []
        for step in self.steps:
            now = self._replay_step(step, engine, network, now)
            ends.append(now)
        return ReplayResult(now, ends, network)

    def _replay_step(
        self,
        step: Step,
        engine: CollectiveEngine,
        network: Network,
        now: float,
    ) -> float:
        if isinstance(step, ComputeStep):
            return now + step.seconds
        if isinstance(step, CollectiveStep):
            if step.kind == "allreduce":
                return engine.allreduce(step.group, step.nbytes, now)
            if step.kind == "allgather":
                return engine.allgather(step.group, step.nbytes, now)
            if step.kind == "reduce_scatter":
                return engine.reduce_scatter(step.group, step.nbytes, now)
            return engine.ring_step(step.group, step.nbytes, now)
        if isinstance(step, TransferStep):
            return engine.set_to_set(
                step.src_group,
                step.dst_group,
                step.total_bytes,
                now,
                step.bytes_per_dst,
            )
        if step.kind == "read":
            return network.host_read_end_time(now, step.acc, step.nbytes)
        end = network.host_write_end_time(now, step.acc, step.nbytes)
        return network.host_read_end_time(end, step.acc, step.nbytes)

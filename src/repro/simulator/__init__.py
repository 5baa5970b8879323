"""ASTRA-Sim-style event-driven replay for multi-accelerator systems.

The evaluator compiles a mapping into a program of steps
(:mod:`repro.simulator.program`); this package replays it on
serialized link and host-port resources, for validation and traces.
It prices nothing analytically: the closed forms live in
:class:`~repro.core.costmodel.AnalyticalCostModel`, and
:func:`repro.core.validation.price_step` prices a program's steps with
them, so the replay shares no pricing code with the model it checks.
"""

from repro.simulator.collectives import CollectiveEngine
from repro.simulator.events import EventQueue
from repro.simulator.network import Network, TransferRecord
from repro.simulator.program import (
    CollectiveStep,
    ComputeStep,
    ExecutionProgram,
    HostStep,
    ReplayResult,
    TransferStep,
)
from repro.simulator.trace import (
    chrome_trace_json,
    render_gantt,
    step_intervals,
    to_chrome_trace,
)

__all__ = [
    "CollectiveEngine",
    "CollectiveStep",
    "ComputeStep",
    "EventQueue",
    "ExecutionProgram",
    "HostStep",
    "Network",
    "ReplayResult",
    "TransferRecord",
    "TransferStep",
    "chrome_trace_json",
    "render_gantt",
    "step_intervals",
    "to_chrome_trace",
]

"""E4: the Fig. 1 system — asymmetric communication, quantified.

Regenerates the architectural claim behind Fig. 1: accelerators inside
a group communicate fast and directly; cross-group traffic stages
through the host and is several times slower. Benchmarks the collective
primitives on both paths.
"""

from repro.core.costmodel import AnalyticalCostModel
from repro.simulator import CollectiveEngine, EventQueue, Network
from repro.system import f1_16xlarge
from repro.utils.tables import format_table

from _report import emit

MB = 1_000_000


def bench_intra_group_allreduce(benchmark):
    model = AnalyticalCostModel(f1_16xlarge())
    seconds = benchmark(model.allreduce_seconds, (0, 1, 2, 3), 4 * MB)
    assert seconds > 0


def bench_cross_group_allreduce(benchmark):
    model = AnalyticalCostModel(f1_16xlarge())
    seconds = benchmark(model.allreduce_seconds, (0, 1, 4, 5), 4 * MB)
    assert seconds > 0


def bench_event_driven_allreduce(benchmark):
    """Event-driven ring all-reduce (4 members, 4 MB) on fresh networks."""
    topology = f1_16xlarge()

    def run():
        engine = CollectiveEngine(Network(topology, EventQueue()))
        return engine.allreduce((0, 1, 2, 3), 4 * MB)

    seconds = benchmark(run)
    assert seconds > 0


def bench_fig1_report(benchmark):
    def build():
        topology = f1_16xlarge()
        model = AnalyticalCostModel(topology)
        rows = []
        for label, group in (
            ("intra-group (0,1,2,3)", (0, 1, 2, 3)),
            ("cross-group (0,1,4,5)", (0, 1, 4, 5)),
            ("whole system (0..7)", tuple(range(8))),
        ):
            rows.append(
                [
                    label,
                    f"{model.allreduce_seconds(group, 4 * MB) * 1e3:.2f}",
                    f"{model.allgather_seconds(group, 4 * MB) * 1e3:.2f}",
                    f"{model.ring_step_seconds(group, MB) * 1e3:.2f}",
                ]
            )
        table = format_table(
            ["Accelerator set", "All-reduce /ms", "All-gather /ms", "SS step /ms"],
            rows,
            title="Fig. 1 asymmetry: 4 MB collectives on the F1 system",
        )
        return topology.ascii_diagram() + "\n\n" + table

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("fig1_topology", text)
    assert "group1" in text

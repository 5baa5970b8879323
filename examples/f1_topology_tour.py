#!/usr/bin/env python3
"""Fig. 1 tour: the asymmetric F1 multi-accelerator system.

Renders the topology, quantifies the intra-group vs cross-group
communication asymmetry that motivates MARS's accelerator-set
heuristic, and replays an all-reduce on the event-driven simulator to
show where the bytes actually flow.

Usage::

    python examples/f1_topology_tour.py
"""

from __future__ import annotations

from repro.core.costmodel import AnalyticalCostModel
from repro.core.ga import candidate_partitions
from repro.simulator import CollectiveEngine, EventQueue, Network
from repro.system import f1_16xlarge
from repro.utils import format_table, seconds_to_human

MB = 1_000_000


def main() -> None:
    topology = f1_16xlarge()
    print(topology.ascii_diagram())

    # The asymmetry of Fig. 1, quantified on 4 MB collectives.
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
                seconds_to_human(model.allreduce_seconds(group, 4 * MB)),
                seconds_to_human(model.ring_step_seconds(group, MB)),
            ]
        )
    print()
    print(
        format_table(
            ["Accelerator set", "4MB all-reduce", "1MB SS rotation"],
            rows,
            title="Communication asymmetry",
        )
    )

    # The event-driven view: route accounting for a cross-group all-reduce.
    network = Network(topology, EventQueue())
    engine = CollectiveEngine(network)
    end = engine.allreduce((0, 1, 4, 5), 4 * MB)
    routes = network.bytes_by_route()
    print("\nEvent-driven replay of the cross-group all-reduce:")
    print(f"  completion time : {seconds_to_human(end)}")
    print(f"  bytes via links : {routes['direct'] / MB:.1f} MB")
    print(f"  bytes via host  : {routes['host'] / MB:.1f} MB")

    # The AccSet candidates MARS derives from this topology (Section V).
    print("\nAccSet partition candidates (edge-removal + subdivisions):")
    for partition in candidate_partitions(topology):
        shape = " + ".join(str(len(s)) for s in partition)
        print(f"  [{shape}]  {partition}")


if __name__ == "__main__":
    main()

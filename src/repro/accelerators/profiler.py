"""Profiling accelerator designs over a workload before the search.

Section V of the paper: *"MARS profiles the performance of accelerator
designs on the layers of the DNN workload according to analytical models
before the search. The gene value of these designs at the first
generation is initialized according to the normalized performance."*

:func:`profile_designs` produces exactly that table; it also backs the
Table II benchmark report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerators.base import AcceleratorDesign, cached_conv_cycles
from repro.dnn.graph import ComputationGraph, LayerNode


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer cycle counts and utilization across all designs."""

    layer_name: str
    cycles: dict[str, int]
    utilization: dict[str, float]

    def best_design(self) -> str:
        return min(self.cycles, key=lambda name: self.cycles[name])


@dataclass(frozen=True)
class WorkloadProfile:
    """A workload profiled against a design catalog."""

    workload_name: str
    layers: list[LayerProfile]
    total_cycles: dict[str, int]

    def normalized_scores(self) -> dict[str, float]:
        """Per-design scores in (0, 1], higher = faster on this workload.

        The score is the ratio of the fastest design's total cycles to
        each design's total cycles, which is the normalized-performance
        initialization the first-level GA uses.
        """
        fastest = min(self.total_cycles.values())
        return {
            name: fastest / cycles for name, cycles in self.total_cycles.items()
        }

    def wins_per_design(self) -> dict[str, int]:
        """How many layers each design wins outright."""
        wins = {name: 0 for name in self.total_cycles}
        for layer in self.layers:
            wins[layer.best_design()] += 1
        return wins


def profile_layer(
    node: LayerNode, designs: list[AcceleratorDesign]
) -> LayerProfile:
    """Cycle counts for one compute layer on every design."""
    spec = node.conv_spec()
    cycles = {d.name: cached_conv_cycles(d, spec) for d in designs}
    utilization = {d.name: d.utilization(spec) for d in designs}
    return LayerProfile(node.name, cycles, utilization)


def profile_designs(
    graph: ComputationGraph, designs: list[AcceleratorDesign]
) -> WorkloadProfile:
    """Profile every compute layer of ``graph`` on every design."""
    if not designs:
        raise ValueError("design catalog is empty")
    layers = [profile_layer(node, designs) for node in graph.compute_nodes()]
    if not layers:
        raise ValueError(f"workload {graph.name!r} has no compute layers")
    totals = {design.name: 0 for design in designs}
    for layer in layers:
        for name, cycles in layer.cycles.items():
            totals[name] += cycles
    return WorkloadProfile(graph.name, layers, totals)

"""Experiment E1: Table II — the accelerator design catalog.

Regenerates the design table (frequency, PEs, design parameters) and
extends it with the profiling evidence behind Section VI-B: per-workload
total cycles, normalized scores and per-layer win counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accelerators import (
    WorkloadProfile,
    profile_designs,
    table2_designs,
)
from repro.accelerators.superlip import SuperLIPDesign
from repro.accelerators.systolic import SystolicDesign
from repro.accelerators.winograd import WinogradDesign
from repro.dnn import build_model
from repro.dnn.models import TABLE3_MODELS
from repro.utils.tables import format_table


def _design_parameters(design) -> str:
    if isinstance(design, SuperLIPDesign):
        return f"Tm, Tn, Tr, Tc : {design.tm}, {design.tn}, {design.tr}, {design.tc}"
    if isinstance(design, SystolicDesign):
        return f"row, col, vec : {design.rows}, {design.cols}, {design.vec}"
    if isinstance(design, WinogradDesign):
        return f"n, Pn, Pm : {design.tile}, {design.pn}, {design.pm}"
    return "-"


@dataclass
class Table2Result:
    """The design table plus profiling evidence."""

    design_rows: list[list[str]]
    profiles: dict[str, WorkloadProfile]

    def to_text(self) -> str:
        sections = [
            format_table(
                ["Design", "Freq (MHz)", "#PEs", "Design parameters"],
                self.design_rows,
                title="Table II: available accelerator designs",
            )
        ]
        for model_name, profile in self.profiles.items():
            rows = []
            scores = profile.normalized_scores()
            wins = profile.wins_per_design()
            for design_name, cycles in profile.total_cycles.items():
                rows.append(
                    [
                        design_name,
                        f"{cycles:,}",
                        f"{scores[design_name]:.3f}",
                        str(wins[design_name]),
                    ]
                )
            sections.append(
                format_table(
                    ["Design", "Total cycles", "Norm. score", "Layer wins"],
                    rows,
                    title=f"Profile on {model_name}",
                )
            )
        return "\n\n".join(sections)


def run_table2(models: tuple[str, ...] = TABLE3_MODELS) -> Table2Result:
    """Build the Table II report over ``models``."""
    designs = table2_designs()
    design_rows = [
        [
            design.name,
            f"{design.frequency_hz / 1e6:.0f}",
            str(design.num_pes),
            _design_parameters(design),
        ]
        for design in designs
    ]
    profiles = {
        name: profile_designs(build_model(name), designs)
        for name in models
    }
    return Table2Result(design_rows=design_rows, profiles=profiles)

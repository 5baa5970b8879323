"""Experiment E3: Table IV — MARS vs H2H across five bandwidth levels.

Heterogeneous multi-modal models on the fixed heterogeneous catalog in
the cloud-serving (weight-streaming) scenario; see DESIGN.md for why
that scenario matches H2H's cost structure and the paper's
bandwidth-sensitive H2H latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import h2h_mapping
from repro.core.evaluator import EvaluatorOptions
from repro.core.ga import SearchBudget
from repro.core.mapper import Mars
from repro.dnn import build_model
from repro.dnn.models import TABLE4_MODELS
from repro.system import H2H_BANDWIDTH_LEVELS, h2h_fixed_system
from repro.utils.tables import format_table


@dataclass
class Table4Cell:
    h2h_ms: float
    mars_ms: float

    @property
    def reduction_pct(self) -> float:
        return (self.h2h_ms - self.mars_ms) / self.h2h_ms * 100.0


@dataclass
class Table4Result:
    #: cells[bandwidth_label][model_name]
    cells: dict[str, dict[str, Table4Cell]] = field(default_factory=dict)

    def mean_reduction_pct(self) -> float:
        values = [
            cell.reduction_pct
            for by_model in self.cells.values()
            for cell in by_model.values()
        ]
        return sum(values) / len(values)

    def to_text(self) -> str:
        models = list(next(iter(self.cells.values())))
        headers = ["Bandwidth"]
        for model in models:
            headers += [f"{model} H2H", f"{model} MARS"]
        rows = []
        for label, by_model in self.cells.items():
            row = [label]
            for model in models:
                cell = by_model[model]
                row += [
                    f"{cell.h2h_ms:.1f}",
                    f"{cell.mars_ms:.1f} (-{cell.reduction_pct:.1f}%)",
                ]
            rows.append(row)
        table = format_table(
            headers, rows, title="Table IV: comparison of latency (ms) with H2H"
        )
        return table + (
            f"\nMean latency reduction vs H2H: {self.mean_reduction_pct():.1f}%"
        )


def run_table4(
    models: tuple[str, ...] = TABLE4_MODELS,
    bandwidth_levels: dict[str, float] | None = None,
    budget: SearchBudget | None = None,
    seed: int = 0,
    layer_cache: bool = True,
) -> Table4Result:
    """Reproduce Table IV (or a subset)."""
    levels = bandwidth_levels or H2H_BANDWIDTH_LEVELS
    budget = budget or SearchBudget.fast()
    options = EvaluatorOptions(
        weights_resident=False, layer_cache=layer_cache
    )

    result = Table4Result()
    graphs = {name: build_model(name) for name in models}
    for label, bandwidth in levels.items():
        system = h2h_fixed_system(bandwidth)
        result.cells[label] = {}
        for name in models:
            h2h = h2h_mapping(graphs[name], system, options=options)
            # The context manager closes the session (its worker pool,
            # when the budget sets workers > 1) before the next
            # (bandwidth, model) cell builds a fresh one.
            with Mars(
                graphs[name], system, budget=budget, options=options
            ) as mapper:
                mars = mapper.search(seed=seed)
            result.cells[label][name] = Table4Cell(
                h2h_ms=h2h.latency_ms, mars_ms=mars.latency_ms
            )
    return result

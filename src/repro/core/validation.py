"""Cross-validation of cost models against the event-driven simulator.

A :class:`~repro.core.costmodel.CostModel` prices every step of a
mapping with closed forms (:func:`price_step` is the only analytical
step pricer); the event simulator
(:meth:`~repro.simulator.program.ExecutionProgram.replay`) executes the
same steps on serialized network resources and shares no pricing code
with the model, so wherever a collective's flows contend for a link
the two disagree. This module measures that gap per *step pattern* —
the workload classes the evaluator labels its program steps with
(``compute``, ``allreduce``, ``ss-rotation``, ``halo``, ``reshard``,
``boundary``, ``host-input``, ``weight-stream``, ``dram-spill``) — and
rolls the comparison up into the divergence report behind
``python -m repro.experiments --validate`` and the committed
``BENCH_costmodel.json``.

The report is both a validation artifact and a calibration input:
:meth:`~repro.core.costmodel.ContentionDeratedCostModel.from_divergence`
turns its per-pattern ratios into a fitted contention-aware model.

Invariants the report is gated on:

* **Contention-free steps reconcile exactly.** Steps the simulator
  executes without any resource sharing — compute, and the serialized
  host-link traffic — must replay at exactly the analytical price;
  divergence there would mean the model and the simulator disagree
  about physics, not about contention.
* **Infeasible mappings are never counted.** A search that ends at the
  :data:`~repro.core.evaluator.INFEASIBLE_SECONDS` sentinel or with a
  memory-spill-invalidated evaluation is excluded from the statistics
  (and tallied under ``skipped_infeasible``), exactly as the session
  layer refuses to publish such results to the persistent store — a
  sentinel would drown every real divergence in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costmodel import AnalyticalCostModel, CostModel, CostModelSpec
from repro.core.evaluator import INFEASIBLE_SECONDS
from repro.simulator.program import (
    CollectiveStep,
    ComputeStep,
    ExecutionProgram,
    HostStep,
    Step,
    TransferStep,
)
from repro.system.topology import SystemTopology
from repro.utils.validation import require

__all__ = [
    "CONTENTION_FREE_PATTERNS",
    "PatternDivergence",
    "ProgramDivergence",
    "compare_program",
    "divergence_report",
    "price_step",
    "step_pattern",
    "validate_model",
]

#: Step patterns the event simulator executes without resource sharing.
#: Program steps run sequentially (layer-by-layer inference), so a
#: compute step or a single host-link read never contends with anything
#: — its simulated duration must equal the analytical price bit-for-bit.
CONTENTION_FREE_PATTERNS = (
    "compute",
    "host-input",
    "weight-stream",
    "dram-spill",
)


def step_pattern(step: Step) -> str:
    """The workload class of a program step, from its evaluator label.

    The evaluator labels steps ``{layer}:{pattern}`` (plus the bare
    ``weight-stream``/``dram-spill`` host labels and plain layer names
    on lightweight compute steps); the pattern is the suffix.
    """
    label = step.label
    if ":" in label:
        return label.rsplit(":", 1)[1]
    if label in ("weight-stream", "dram-spill"):
        return label
    if isinstance(step, ComputeStep):
        return "compute"
    return "other"


def price_step(model: CostModel, step: Step) -> float:
    """The cost model's analytical price of one program step.

    Compute steps were priced by the model at compile time (their
    ``seconds`` field *is* the model's output); every other step class
    maps onto the matching :class:`~repro.core.costmodel.CostModel`
    operation. All-gather and reduce-scatter are not part of that
    interface (the evaluator never emits them): they take the idle-
    network closed forms of the model, or of an
    :class:`~repro.core.costmodel.AnalyticalCostModel` on the same
    topology when the model has none, so a hand-built program still
    validates.
    """
    if isinstance(step, ComputeStep):
        return step.seconds
    if isinstance(step, CollectiveStep):
        if step.kind == "allreduce":
            return model.allreduce_seconds(step.group, step.nbytes)
        if step.kind == "ring_step":
            return model.ring_step_seconds(step.group, step.nbytes)
        if not isinstance(model, AnalyticalCostModel):
            model = AnalyticalCostModel(model.topology)
        if step.kind == "allgather":
            return model.allgather_seconds(step.group, step.nbytes)
        return model.reduce_scatter_seconds(step.group, step.nbytes)
    if isinstance(step, TransferStep):
        return model.transfer_seconds(
            step.src_group, step.dst_group, step.total_bytes, step.bytes_per_dst
        )
    if isinstance(step, HostStep):
        if step.kind == "read":
            return model.host_read_seconds(step.acc, step.nbytes)
        return model.host_round_trip_seconds(step.acc, step.nbytes)
    raise TypeError(f"unknown step type {type(step).__name__}")


@dataclass
class PatternDivergence:
    """Analytical-vs-simulated totals of one step pattern."""

    steps: int = 0
    analytical_seconds: float = 0.0
    simulated_seconds: float = 0.0

    def add(self, analytical: float, simulated: float) -> None:
        self.steps += 1
        self.analytical_seconds += analytical
        self.simulated_seconds += simulated

    @property
    def ratio(self) -> float:
        """Simulated over analytical (1.0 when both are zero)."""
        if self.analytical_seconds == 0.0:
            return 1.0 if self.simulated_seconds == 0.0 else float("inf")
        return self.simulated_seconds / self.analytical_seconds

    @property
    def relative_divergence(self) -> float:
        """``|simulated - analytical|`` relative to the larger of the two."""
        gap = abs(self.simulated_seconds - self.analytical_seconds)
        scale = max(self.simulated_seconds, self.analytical_seconds)
        return gap / scale if scale > 0.0 else 0.0

    def merge(self, other: "PatternDivergence") -> None:
        self.steps += other.steps
        self.analytical_seconds += other.analytical_seconds
        self.simulated_seconds += other.simulated_seconds

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "analytical_seconds": self.analytical_seconds,
            "simulated_seconds": self.simulated_seconds,
            "ratio": self.ratio,
            "relative_divergence": self.relative_divergence,
        }


@dataclass
class ProgramDivergence:
    """Per-pattern divergence of one replayed execution program."""

    patterns: dict[str, PatternDivergence] = field(default_factory=dict)
    worst_steps: list[dict] = field(default_factory=list)

    @property
    def analytical_seconds(self) -> float:
        return sum(p.analytical_seconds for p in self.patterns.values())

    @property
    def simulated_seconds(self) -> float:
        return sum(p.simulated_seconds for p in self.patterns.values())

    @property
    def relative_divergence(self) -> float:
        gap = abs(self.simulated_seconds - self.analytical_seconds)
        scale = max(self.simulated_seconds, self.analytical_seconds)
        return gap / scale if scale > 0.0 else 0.0

    def contention_free_divergence(self) -> float:
        """The worst relative divergence across contention-free patterns.

        These steps share no simulated resources, so any gap here is a
        model/simulator physics mismatch — CI gates this at (near)
        zero.
        """
        return max(
            (
                self.patterns[p].relative_divergence
                for p in CONTENTION_FREE_PATTERNS
                if p in self.patterns
            ),
            default=0.0,
        )

    def to_dict(self) -> dict:
        return {
            "analytical_seconds": self.analytical_seconds,
            "simulated_seconds": self.simulated_seconds,
            "relative_divergence": self.relative_divergence,
            "contention_free_divergence": self.contention_free_divergence(),
            "patterns": {
                name: stats.to_dict()
                for name, stats in sorted(self.patterns.items())
            },
            "worst_steps": self.worst_steps,
        }


def compare_program(
    program: ExecutionProgram,
    model: CostModel | None = None,
    worst: int = 5,
) -> ProgramDivergence:
    """Replay a program and compare each step against its model price.

    One replay prices every step event-driven (simulated durations are
    consecutive differences of the replay's ``step_end_times``); the
    cost model prices the same steps with its closed forms. Steps
    aggregate by :func:`step_pattern`, and the ``worst`` largest
    absolute gaps are kept individually so a report names the offending
    layer/collective, not just the class.
    """
    if model is None:
        model = AnalyticalCostModel(program.topology)
    replay = program.replay()
    result = ProgramDivergence()
    gaps: list[tuple[float, dict]] = []
    previous_end = 0.0
    for step, end in zip(program.steps, replay.step_end_times):
        simulated = end - previous_end
        previous_end = end
        analytical = price_step(model, step)
        pattern = step_pattern(step)
        result.patterns.setdefault(pattern, PatternDivergence()).add(
            analytical, simulated
        )
        gap = abs(simulated - analytical)
        if gap > 0.0:
            gaps.append(
                (
                    gap,
                    {
                        "label": step.label,
                        "pattern": pattern,
                        "analytical_seconds": analytical,
                        "simulated_seconds": simulated,
                    },
                )
            )
    gaps.sort(key=lambda item: (-item[0], item[1]["label"]))
    result.worst_steps = [entry for _, entry in gaps[:worst]]
    return result


def validate_model(
    name: str,
    topology: SystemTopology | None = None,
    seed: int = 0,
    budget=None,
    cost_model: CostModelSpec | None = None,
    worst: int = 5,
) -> dict:
    """Search one zoo model, replay the winning mapping, compare.

    Returns the per-model record of the divergence report. Infeasible
    search outcomes (the sentinel latency, or a memory-spill-
    invalidated evaluation) are *skipped*: the record carries
    ``"skipped": True`` and contributes nothing to divergence
    statistics, mirroring the session layer's refusal to publish such
    results to the persistent store.
    """
    from repro.core.mapper import Mars
    from repro.dnn import build_model
    from repro.system import f1_16xlarge

    if topology is None:
        topology = f1_16xlarge()
    graph = build_model(name)
    kwargs = {}
    if budget is not None:
        kwargs["budget"] = budget
    if cost_model is not None:
        kwargs["cost_model"] = cost_model
    with Mars(graph, topology, **kwargs) as mars:
        result = mars.search(seed=seed)
        infeasible = (not result.feasible) or (
            result.evaluation.latency_seconds >= INFEASIBLE_SECONDS
        )
        if infeasible:
            return {
                "model": name,
                "seed": seed,
                "skipped": True,
                "feasible": False,
            }
        program = mars.compile_program(result)
    comparison = compare_program(
        program, model=mars.config.cost_model.build(topology), worst=worst
    )
    record = {
        "model": name,
        "seed": seed,
        "skipped": False,
        "feasible": True,
        "steps": len(program),
        "search_latency_seconds": result.evaluation.latency_seconds,
    }
    record.update(comparison.to_dict())
    return record


def divergence_report(
    models,
    topology: SystemTopology | None = None,
    seeds=(0,),
    budget=None,
    cost_model: CostModelSpec | None = None,
    worst: int = 5,
) -> dict:
    """The full analytical-vs-simulator divergence report.

    One record per (model, seed) plus pattern statistics aggregated
    across every feasible replay — the payload committed as
    ``BENCH_costmodel.json`` and consumed by
    :meth:`~repro.core.costmodel.ContentionDeratedCostModel
    .from_divergence` for calibration.
    """
    require(bool(models), "divergence report needs at least one model")
    spec = cost_model if cost_model is not None else CostModelSpec()
    records = []
    aggregate = ProgramDivergence()
    skipped = 0
    for name in models:
        for seed in seeds:
            record = validate_model(
                name,
                topology=topology,
                seed=seed,
                budget=budget,
                cost_model=cost_model,
                worst=worst,
            )
            records.append(record)
            if record["skipped"]:
                skipped += 1
                continue
            for pattern, stats in record["patterns"].items():
                aggregate.patterns.setdefault(
                    pattern, PatternDivergence()
                ).merge(
                    PatternDivergence(
                        stats["steps"],
                        stats["analytical_seconds"],
                        stats["simulated_seconds"],
                    )
                )
    summary = aggregate.to_dict()
    return {
        "cost_model": {
            "kind": spec.kind,
            "params": spec.param_dict(),
            "token": spec.token(),
        },
        "models": records,
        "patterns": summary["patterns"],
        "analytical_seconds": summary["analytical_seconds"],
        "simulated_seconds": summary["simulated_seconds"],
        "relative_divergence": summary["relative_divergence"],
        "contention_free_divergence": summary["contention_free_divergence"],
        "skipped_infeasible": skipped,
    }


def format_report(report: dict) -> str:
    """Human-readable rendering of a divergence report."""
    lines = [
        "cost-model validation: analytical vs event simulator",
        f"  cost model: {report['cost_model']['kind']}"
        + (
            f" {report['cost_model']['params']}"
            if report["cost_model"]["params"]
            else ""
        ),
        f"  replays: {sum(1 for r in report['models'] if not r['skipped'])}"
        f" ({report['skipped_infeasible']} infeasible skipped)",
        f"  total analytical: {report['analytical_seconds']:.6e} s, "
        f"simulated: {report['simulated_seconds']:.6e} s "
        f"(divergence {report['relative_divergence'] * 100:.2f}%)",
        f"  contention-free divergence: "
        f"{report['contention_free_divergence']:.3e}",
        "  per pattern:",
    ]
    for name, stats in report["patterns"].items():
        lines.append(
            f"    {name:<14} steps={stats['steps']:<5} "
            f"analytical={stats['analytical_seconds']:.6e} "
            f"simulated={stats['simulated_seconds']:.6e} "
            f"ratio={stats['ratio']:.4f}"
        )
    return "\n".join(lines)

"""Experiment E2: Table III — baseline vs MARS on the five CNNs.

For each model: the workload statistics, the Section VI-A baseline
latency, the MARS latency, the reduction, and the mapping MARS found
(Table III's right-hand column).

All models route through one multi-tenant
:class:`~repro.core.serving.MultiModelSession` registry (one warm
session per model; per-model results are bit-identical to fresh
single-model runs) — or, with ``shards=N``, through a
:class:`~repro.core.frontend.SloServing` frontend whose N worker
processes search different models concurrently, still bit-identically.
``combined=True`` appends the Herald-style multi-DNN row: every
requested model merged into one graph via
:func:`repro.dnn.multi.combine_graphs` and mapped as a single tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.accelerators import table2_designs
from repro.core.baselines import computation_prioritized_mapping
from repro.core.config import SearchConfig
from repro.core.evaluator import EvaluatorOptions
from repro.core.ga import SearchBudget
from repro.core.mapper import MarsResult
from repro.core.serving import MultiModelSession, ServingStats
from repro.core.store import StoreSpec
from repro.dnn import build_model
from repro.dnn.models import TABLE3_MODELS
from repro.dnn.multi import combine_graphs
from repro.system import f1_16xlarge
from repro.system.topology import SystemTopology
from repro.utils.tables import format_table

if TYPE_CHECKING:
    from repro.core.frontend import SloServingStats


@dataclass
class Table3Row:
    """One model's comparison row."""

    model: str
    num_convs: int
    params_m: float
    flops_g: float
    baseline_ms: float
    mars_ms: float
    mapping_found: str

    @property
    def reduction_pct(self) -> float:
        return (self.baseline_ms - self.mars_ms) / self.baseline_ms * 100.0


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)
    mars_results: dict[str, MarsResult] = field(default_factory=dict)
    #: Counters of the serving layer the rows ran through — the
    #: in-process registry's stats, or the sharded frontend's traffic
    #: and shard-registry counters when ``shards`` was requested.
    serving: ServingStats | SloServingStats | None = None

    @property
    def mean_reduction_pct(self) -> float:
        return sum(r.reduction_pct for r in self.rows) / len(self.rows)

    def to_text(self) -> str:
        table_rows = [
            [
                row.model,
                str(row.num_convs),
                f"{row.params_m:.1f}M",
                f"{row.flops_g:.2f}G",
                f"{row.baseline_ms:.3f}",
                f"{row.mars_ms:.3f}",
                f"-{row.reduction_pct:.1f}%",
            ]
            for row in self.rows
        ]
        header = format_table(
            [
                "Model",
                "#Convs",
                "#Params",
                "FLOPs",
                "Baseline /ms",
                "MARS /ms",
                "Reduction",
            ],
            table_rows,
            title="Table III: latency comparison between baseline and MARS",
        )
        mappings = "\n\n".join(
            f"Mapping found by MARS for {row.model}:\n{row.mapping_found}"
            for row in self.rows
        )
        footer = f"\nMean latency reduction: {self.mean_reduction_pct:.1f}%"
        return header + footer + "\n\n" + mappings


def run_table3(
    models: tuple[str, ...] = TABLE3_MODELS,
    topology: SystemTopology | None = None,
    budget: SearchBudget | None = None,
    options: EvaluatorOptions | None = None,
    seed: int = 0,
    seeds: tuple[int, ...] | None = None,
    session_capacity: int | None = None,
    combined: bool = False,
    shards: int | None = None,
    deadline: float | None = None,
    store: StoreSpec | None = None,
) -> Table3Result:
    """Reproduce Table III (or a subset of its rows).

    ``seeds`` sweeps several GA seeds per model through that model's
    warm session (cross-search caches make the extra seeds cheap) and
    keeps each model's best mapping; the default ``(seed,)`` is the
    paper's single-seed run. Per-seed results are bit-identical to
    fresh single-seed searches.

    All per-model sessions live in one
    :class:`~repro.core.serving.MultiModelSession` registry.
    ``session_capacity`` bounds how many stay warm at once (default:
    every requested row) — a smaller capacity evicts and rebuilds
    tenants without changing any number in the table. ``combined``
    (needs >= 2 models) appends a Herald-style row mapping all models
    merged into one graph as a single extra tenant. ``shards`` routes
    every search through a :class:`~repro.core.frontend.SloServing`
    frontend instead — models on different shards search concurrently
    on multi-core machines, and every number in the table stays
    bit-identical to the single-process run. The frontend's tenant
    queues are sized to the whole sweep, which is submitted up front,
    so admission never sheds a row. ``deadline`` (requires ``shards``)
    attaches a per-request deadline (seconds) to every search —
    scheduling changes *when* searches run, never what they find, so
    the table is identical under any frontend (a search expired by a
    too-tight deadline raises instead of silently dropping a row).
    ``store`` attaches a persistent artifact store
    (:class:`~repro.core.store.StoreSpec`): finished mappings are
    written durably and later runs with the same spec answer repeat
    (model, seed) requests from disk — verified, bit-identical, no GA.
    """
    topology = topology or f1_16xlarge()
    budget = budget or SearchBudget.fast()
    options = options or EvaluatorOptions()
    designs = table2_designs()
    seeds = seeds if seeds is not None else (seed,)

    graphs = [build_model(name) for name in models]
    if combined:
        if len(graphs) < 2:
            raise ValueError("combined needs at least two models")
        graphs.append(combine_graphs(graphs[: len(models)]))

    result = Table3Result()
    capacity = (
        session_capacity if session_capacity is not None else len(graphs)
    )
    config = SearchConfig.from_kwargs(
        designs=designs,
        budget=budget,
        options=options,
        capacity=capacity,
        store=store,
    )
    if deadline is not None and shards is None:
        raise ValueError("deadline requires shards")
    if shards is not None:
        # The frontend (asyncio, multiprocessing) loads only to serve.
        from repro.core.frontend import SloServing, TrafficPolicy

        # The whole sweep is submitted up front, so admission is sized
        # to it: any one tenant queue can hold the entire sweep (a model
        # listed twice is one tenant), and there is no in-flight budget.
        policy = TrafficPolicy(
            queue_depth=len(graphs) * len(seeds), max_inflight=None
        )
        server = SloServing(
            topology, shards=shards, config=config, policy=policy
        )
    else:
        server = MultiModelSession(topology, config)
    with server:
        if shards is not None:
            # Submit the whole sweep up front: searches placed on
            # different shards overlap while this process prices the
            # baselines.
            futures = {
                (graph.name, s): server.submit(
                    graph, seed=s, deadline=deadline
                )
                for graph in graphs
                for s in seeds
            }
            sweep_of = lambda graph: [  # noqa: E731 - tiny local dispatch
                futures[(graph.name, s)].result() for s in seeds
            ]
        else:
            sweep_of = lambda graph: [  # noqa: E731
                server.search(graph, seed=s) for s in seeds
            ]
        for graph in graphs:
            stats = graph.stats()
            baseline = computation_prioritized_mapping(
                graph, topology, designs, options
            )
            sweep = sweep_of(graph)
            mars = min(sweep, key=lambda r: r.evaluation.latency_seconds)
            result.mars_results[graph.name] = mars
            result.rows.append(
                Table3Row(
                    model=graph.name,
                    num_convs=stats.num_convs,
                    params_m=stats.params_m,
                    flops_g=stats.flops_g,
                    baseline_ms=baseline.latency_ms,
                    mars_ms=mars.latency_ms,
                    mapping_found=mars.describe(),
                )
            )
        if shards is not None:
            # Tenant and store counters live in the shard workers'
            # registries; the frontend only ships them on request.
            result.serving = server.stats(worker_stats=True)
        else:
            result.serving = server.stats()
    return result

"""One frozen bundle for everything a MARS search is configured by.

The paper configures a search with a design catalog (Table II), a
two-level GA budget (Section V) and an objective; :class:`SearchConfig`
bundles exactly that, plus the cost model and the serving knobs. It is

* **frozen** — hashable all the way down, so a config can key caches
  and be compared for equality, and a search can never be changed
  after its store key was computed;
* **picklable** — every member is a plain dataclass, so a config can be
  shipped to another process verbatim (the multi-process serving
  frontend sends one ``SearchConfig`` to each shard worker, which
  rebuilds an identically-configured registry from it);
* **spelled one way** — every knob has exactly one field: worker counts
  live in ``budget.level1.workers``, fitness memoization in
  ``budget.level2.cache``, the layer-cost cache in ``options``.

Constructors (:class:`~repro.core.session.MarsSession`,
:class:`~repro.core.mapper.Mars`,
:class:`~repro.core.serving.MultiModelSession`) take either a config or
the keywords of :meth:`SearchConfig.from_kwargs`, the one keyword
adapter, which folds ``workers=`` and ``layer_cache=`` into their
fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.registry import table2_designs
from repro.core.costmodel import CostModelSpec
from repro.core.evaluator import EvaluatorOptions
from repro.core.faults import FaultPlan
from repro.core.ga.level1 import SearchBudget
from repro.core.store import StoreSpec
from repro.utils.rng import stable_digest
from repro.utils.validation import require, require_positive

__all__ = ["SearchConfig"]

#: Default maximum number of live tenant sessions in a serving registry.
DEFAULT_CAPACITY = 8

#: Default LRU bound of a session's cross-search sub-problem cache.
DEFAULT_SUBPROBLEM_CAPACITY = 4096

#: Default per-tenant bound on queued (not yet dispatched) requests in
#: the SLO frontend — requests beyond it are shed with
#: :class:`~repro.core.frontend.TenantQueueFull`.
DEFAULT_QUEUE_DEPTH = 64

#: Default global bound on requests in flight (queued + running) across
#: one SLO frontend — requests beyond it are shed with
#: :class:`~repro.core.frontend.ServerSaturated`.
DEFAULT_MAX_INFLIGHT = 512


def _default_designs() -> tuple[AcceleratorDesign, ...]:
    return tuple(table2_designs())


@dataclass(frozen=True)
class SearchConfig:
    """Everything a MARS search does, minus the workload and the system.

    The graph and topology stay *out* of the config on purpose: one
    config describes a whole serving deployment (many tenants, one
    search configuration), and workloads are addressed separately by
    their content fingerprints
    (:meth:`~repro.dnn.graph.ComputationGraph.fingerprint`).

    Attributes:
        designs: Design catalog for adaptive systems (Table II default).
        budget: GA budgets for the two levels. ``budget.level1.workers``
            sizes the session's sub-problem pool (each level-1
            generation's distinct uncached sub-problems are solved on
            that many worker processes; level-2 GAs always run serial)
            and ``budget.level2.cache`` memoizes level-2 fitness. Both
            change wall-clock only, never results.
        options: Cost-model knobs. ``options.layer_cache`` (and its
            capacity) toggles the evaluator's per-layer cost cache —
            again wall-clock only.
        cost_model: The :class:`~repro.core.costmodel.CostModelSpec`
            naming the pricing model every evaluator built from this
            config uses (``"analytical"`` by default — the paper's
            closed forms). Unlike the wall-clock knobs, the cost model
            *changes results*, so it participates in
            :meth:`result_fingerprint`: sessions, tenant keys and
            persistent store artifacts priced by different models never
            alias.
        objective: ``"latency"`` (paper) or ``"throughput"``.
        capacity: Maximum live tenant sessions per serving registry.
        subproblem_capacity: Per-session LRU bound on the cross-search
            sub-problem cache.
        store: A :class:`~repro.core.store.StoreSpec` naming the
            persistent mapping artifact store every session built from
            this config consults before searching and publishes to
            after (``None`` — the default — runs without durable
            state). Like the capacities, the store changes wall-clock
            only, never results, and is therefore excluded from
            :meth:`result_fingerprint`.
        faults: A :class:`~repro.core.faults.FaultPlan` of deterministic
            failures shard workers inject while serving (``None`` — the
            default — serves faithfully). A test/bench knob: it rides
            the config across the spawn boundary but, like ``store``,
            is excluded from :meth:`result_fingerprint`, so planned
            faults never perturb stored-artifact keys.
    """

    designs: tuple[AcceleratorDesign, ...] = field(
        default_factory=_default_designs
    )
    budget: SearchBudget = field(default_factory=SearchBudget.fast)
    options: EvaluatorOptions = field(default_factory=EvaluatorOptions)
    cost_model: CostModelSpec = field(default_factory=CostModelSpec)
    objective: str = "latency"
    capacity: int = DEFAULT_CAPACITY
    subproblem_capacity: int = DEFAULT_SUBPROBLEM_CAPACITY
    store: StoreSpec | None = None
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.designs, tuple):
            object.__setattr__(self, "designs", tuple(self.designs))
        require(
            self.objective in ("latency", "throughput"),
            "objective must be 'latency' or 'throughput', "
            f"got {self.objective!r}",
        )
        require_positive(self.capacity, "capacity")
        require_positive(self.subproblem_capacity, "subproblem_capacity")

    @classmethod
    def from_kwargs(
        cls,
        designs: list[AcceleratorDesign] | tuple[AcceleratorDesign, ...] | None = None,
        budget: SearchBudget | None = None,
        options: EvaluatorOptions | None = None,
        cost_model: CostModelSpec | None = None,
        objective: str = "latency",
        workers: int | None = None,
        layer_cache: bool | None = None,
        capacity: int = DEFAULT_CAPACITY,
        subproblem_capacity: int = DEFAULT_SUBPROBLEM_CAPACITY,
        store: StoreSpec | None = None,
        faults: FaultPlan | None = None,
    ) -> "SearchConfig":
        """The one keyword adapter onto the config.

        ``None`` means "the default" for designs/budget/options/
        cost_model. ``workers`` lands on ``budget.level1.workers`` and
        ``layer_cache`` on ``options.layer_cache``; ``None`` keeps the
        budget's or options' own value.
        """
        budget = budget if budget is not None else SearchBudget.fast()
        if workers is not None:
            budget = budget.with_backend(workers=workers)
        options = options if options is not None else EvaluatorOptions()
        if layer_cache is not None:
            options = replace(options, layer_cache=layer_cache)
        return cls(
            designs=tuple(designs) if designs is not None else _default_designs(),
            budget=budget,
            options=options,
            cost_model=cost_model if cost_model is not None else CostModelSpec(),
            objective=objective,
            capacity=capacity,
            subproblem_capacity=subproblem_capacity,
            store=store,
            faults=faults,
        )

    @classmethod
    def of(cls, config: "SearchConfig | None", **kwargs) -> "SearchConfig":
        """``config`` itself, or the :meth:`from_kwargs` bundle of
        ``kwargs`` — the config-or-keywords rule every constructor
        applies. Passing both raises ``ValueError``."""
        if config is None:
            return cls.from_kwargs(**kwargs)
        if kwargs:
            raise ValueError(
                "pass a SearchConfig or search keywords, not both "
                f"(got config and {', '.join(sorted(kwargs))})"
            )
        return config

    def result_fingerprint(self) -> str:
        """Stable hash of everything that determines *search results*.

        The knobs the stack proved results-invisible — worker counts,
        fitness memoization, the layer-cost cache and its bound, the
        serving capacities, the store spec and the fault plan — are
        normalized away, so two configs that *search identically* share
        one fingerprint no matter how their wall-clock knobs are set.
        This is the config component of a persistent store key: an
        artifact searched under ``workers=4`` must warm-start a
        ``workers=1`` deployment, and a store entry must never be
        addressed by the spec of the store holding it. Stable across
        processes and interpreter runs.
        """
        defaults = EvaluatorOptions()
        budget = SearchBudget(
            level1=replace(self.budget.level1, workers=1, cache=False),
            level2=replace(self.budget.level2, cache=False),
        )
        return stable_digest(
            "search-config-result-v2",
            tuple(repr(design) for design in self.designs),
            repr(budget),
            repr(
                replace(
                    self.options,
                    layer_cache=defaults.layer_cache,
                    layer_cache_capacity=defaults.layer_cache_capacity,
                )
            ),
            self.cost_model.token(),
            self.objective,
        )

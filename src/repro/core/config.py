"""One frozen bundle for everything a MARS search is configured by.

:class:`~repro.core.mapper.Mars`, :class:`~repro.core.session.MarsSession`
and :class:`~repro.core.serving.MultiModelSession` historically took the
same loose kwargs — designs, budget, evaluator options, objective,
backend knobs, capacities — each normalizing defaults on its own.
:class:`SearchConfig` is the canonical form of that bundle:

* **frozen** — a config can key caches and be compared for equality;
* **picklable** — every member is a plain dataclass, so a config can be
  shipped to another process verbatim (the sharded serving frontend
  sends one ``SearchConfig`` to each shard worker, which rebuilds an
  identically-configured registry from it);
* **canonically ordered** — :meth:`canonical` folds the late-override
  knobs (``workers``/``cache`` into the budget, ``layer_cache`` into
  the options), so two configs that *mean* the same search compare
  equal and fingerprint identically regardless of how they were
  spelled.

The facades keep their kwarg constructors as thin adapters over
:meth:`SearchConfig.from_kwargs`; ``from_config`` classmethods construct
from a bundle directly.
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
        budget: GA budgets for the two levels.
        options: Cost-model knobs.
        cost_model: The :class:`~repro.core.costmodel.CostModelSpec`
            naming the pricing model every evaluator built from this
            config uses (``"analytical"`` by default — the paper's
            closed forms, bit-identical to the historical hard-coded
            walk). Unlike the wall-clock knobs, the cost model
            *changes results*, so it participates in both
            :meth:`fingerprint` and :meth:`result_fingerprint`:
            sessions, tenant keys and persistent store artifacts
            priced by different models never alias.
        objective: ``"latency"`` (paper) or ``"throughput"``.
        workers: Size of the session's sub-problem pool (``None``
            keeps the budget's value): each level-1 generation's
            distinct uncached sub-problems are solved on that many
            worker processes. It lands on ``budget.level1.workers``
            only; level-2 GAs always run serial. Results never change
            — only wall-clock.
        cache: Override both levels' fitness memoization.
        layer_cache: Override :attr:`EvaluatorOptions.layer_cache`.
        capacity: Maximum live tenant sessions per serving registry.
        subproblem_capacity: Per-session LRU bound on the cross-search
            sub-problem cache.
        store: A :class:`~repro.core.store.StoreSpec` naming the
            persistent mapping artifact store every session built from
            this config consults before searching and publishes to
            after (``None`` — the default — runs without durable
            state). Like the capacities, the store changes wall-clock
            only, never results, and is therefore excluded from
            :meth:`fingerprint`.
        faults: A :class:`~repro.core.faults.FaultPlan` of deterministic
            failures shard workers inject while serving (``None`` — the
            default — serves faithfully). A test/bench knob: it rides
            the config across the spawn boundary but, like ``store``,
            is excluded from both fingerprints, so planned faults never
            perturb content addressing or stored-artifact keys.
    """

    designs: tuple[AcceleratorDesign, ...] = field(
        default_factory=_default_designs
    )
    budget: SearchBudget = field(default_factory=SearchBudget.fast)
    options: EvaluatorOptions = field(default_factory=EvaluatorOptions)
    cost_model: CostModelSpec = field(default_factory=CostModelSpec)
    objective: str = "latency"
    workers: int | None = None
    cache: bool | None = None
    layer_cache: bool | None = None
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
        if self.workers is not None:
            require_positive(self.workers, "workers")
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
        cache: bool | None = None,
        layer_cache: bool | None = None,
        capacity: int = DEFAULT_CAPACITY,
        subproblem_capacity: int = DEFAULT_SUBPROBLEM_CAPACITY,
        store: StoreSpec | None = None,
        faults: FaultPlan | None = None,
    ) -> "SearchConfig":
        """The bundle of the facades' historical loose kwargs.

        ``None`` means "the default" for designs/budget/options/
        cost_model, exactly as the kwarg constructors always treated it.
        """
        return cls(
            designs=tuple(designs) if designs is not None else _default_designs(),
            budget=budget if budget is not None else SearchBudget.fast(),
            options=options if options is not None else EvaluatorOptions(),
            cost_model=cost_model if cost_model is not None else CostModelSpec(),
            objective=objective,
            workers=workers,
            cache=cache,
            layer_cache=layer_cache,
            capacity=capacity,
            subproblem_capacity=subproblem_capacity,
            store=store,
            faults=faults,
        )

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------

    def canonical(self) -> "SearchConfig":
        """This config with every late-override knob folded in.

        ``workers`` lands in the budget's level 1, ``cache`` in both GA
        levels and ``layer_cache`` in the evaluator options, after which
        the three override fields are ``None``. Idempotent; two configs
        with equal canonical forms configure bit-identical searches.
        """
        return replace(
            self,
            budget=self.resolved_budget(),
            options=self.resolved_options(),
            workers=None,
            cache=None,
            layer_cache=None,
        )

    def resolved_budget(self) -> SearchBudget:
        """The effective GA budget (``workers``/``cache`` applied)."""
        return self.budget.with_backend(self.workers, self.cache)

    def resolved_options(self) -> EvaluatorOptions:
        """The effective evaluator options (``layer_cache`` applied)."""
        if self.layer_cache is None:
            return self.options
        return replace(self.options, layer_cache=self.layer_cache)

    def fingerprint(self) -> str:
        """Stable content hash of the canonical form.

        Two configs fingerprint identically iff they configure the same
        search — the config-side analogue of
        :meth:`~repro.dnn.graph.ComputationGraph.fingerprint`, and like
        it stable across processes and interpreter runs.
        """
        canonical = self.canonical()
        return stable_digest(
            "search-config-v2",
            tuple(repr(design) for design in canonical.designs),
            repr(canonical.budget),
            repr(canonical.options),
            canonical.cost_model.token(),
            canonical.objective,
            canonical.capacity,
            canonical.subproblem_capacity,
        )

    def result_fingerprint(self) -> str:
        """Stable hash of everything that determines *search results*.

        Narrower than :meth:`fingerprint`: the backend knobs the stack
        proved results-invisible — worker counts, fitness memoization,
        the layer-cost cache and its bound, the serving capacities, and
        the store spec itself — are normalized away, so two configs
        that *search identically* share one fingerprint no matter how
        their wall-clock knobs are spelled. This is the config
        component of a persistent store key: an artifact searched under
        ``workers=4`` must warm-start a ``workers=1`` deployment, and a
        store entry must never be addressed by the spec of the store
        holding it.
        """
        canonical = self.canonical()
        defaults = EvaluatorOptions()
        return stable_digest(
            "search-config-result-v2",
            tuple(repr(design) for design in canonical.designs),
            repr(canonical.budget.with_backend(workers=1, cache=False)),
            repr(
                replace(
                    canonical.options,
                    layer_cache=defaults.layer_cache,
                    layer_cache_capacity=defaults.layer_cache_capacity,
                )
            ),
            canonical.cost_model.token(),
            canonical.objective,
        )

"""The MARS facade: one call from workload + system to a mapping.

>>> from repro.core.mapper import Mars
>>> from repro.dnn import build_model
>>> from repro.system import f1_16xlarge
>>> result = Mars(build_model("tiny_cnn"), f1_16xlarge()).search(seed=0)
>>> result.latency_ms  # doctest: +SKIP

Each ``Mars`` instance keeps an internal
:class:`~repro.core.session.MarsSession`, so repeated ``search`` calls
(seed sweeps) and ``compile_program`` share one warm evaluator and one
cross-search sub-problem cache instead of rebuilding them per call.
Warm state never changes results — only wall-clock (see
:mod:`repro.core.session`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.registry import table2_designs
from repro.core.config import DEFAULT_SUBPROBLEM_CAPACITY, SearchConfig
from repro.core.costmodel import CostModelSpec
from repro.core.evaluator import EvaluatorOptions
from repro.core.ga.level1 import SearchBudget
from repro.core.session import MarsResult, MarsSession
from repro.dnn.graph import ComputationGraph
from repro.simulator.program import ExecutionProgram
from repro.system.topology import SystemTopology
from repro.utils.identity import IdentityRef

__all__ = ["Mars", "MarsResult", "MarsSession", "SearchConfig"]


@dataclass
class Mars:
    """The MARS mapping framework (paper Sections III-V).

    Args:
        graph: The DNN workload.
        topology: The multi-accelerator system. ``adaptive`` systems
            draw designs from ``designs``; ``fixed`` systems use the
            designs baked into the topology.
        designs: Design catalog for adaptive systems (Table II default).
        budget: GA budgets for the two levels.
        options: Cost-model knobs.
        workers: Size of the internal session's sub-problem pool when
            > 1 (each level-1 generation's distinct sub-problems are
            solved on that many worker processes); ``None`` keeps the
            budget's ``level1.workers``.
        cache: Override both levels' fitness memoization; ``None`` keeps
            the budget's values. Backends never change results — only
            wall-clock.
        layer_cache: Override the evaluator's per-layer cost cache
            (:attr:`EvaluatorOptions.layer_cache`, on by default);
            ``None`` keeps ``options`` as given. Like the backends, the
            layer cache is bit-identical on or off — only wall-clock
            changes. Counters land on ``MarsResult.layer_cache``.
        subproblem_capacity: LRU bound on the internal session's
            cross-search sub-problem cache (results-invisible, like
            every cache here).
    """

    graph: ComputationGraph
    topology: SystemTopology
    designs: list[AcceleratorDesign] = field(default_factory=table2_designs)
    budget: SearchBudget = field(default_factory=SearchBudget.fast)
    options: EvaluatorOptions = field(default_factory=EvaluatorOptions)
    cost_model: CostModelSpec = field(default_factory=CostModelSpec)
    objective: str = "latency"
    workers: int | None = None
    cache: bool | None = None
    layer_cache: bool | None = None
    subproblem_capacity: int = DEFAULT_SUBPROBLEM_CAPACITY
    _session: MarsSession | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _session_config: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_config(
        cls,
        graph: ComputationGraph,
        topology: SystemTopology,
        config: SearchConfig,
    ) -> "Mars":
        """Build a facade from a canonical config bundle.

        The dataclass constructor is a thin adapter over the same
        bundle (see :meth:`config`); both spellings produce
        bit-identical searches for equivalent inputs.
        ``config.capacity`` — a serving-registry bound — has no meaning
        for a single-workload facade and is not carried. Neither is
        ``config.store``: a fresh ``Mars`` run is the *reference
        baseline* every store hit is property-tested bit-identical
        against, so the facade always searches rather than consulting
        the persistent tier.
        """
        config = config.canonical()
        return cls(
            graph=graph,
            topology=topology,
            designs=list(config.designs),
            budget=config.budget,
            options=config.options,
            cost_model=config.cost_model,
            objective=config.objective,
            subproblem_capacity=config.subproblem_capacity,
        )

    def config(self) -> SearchConfig:
        """The facade's loose fields as one canonical
        :class:`~repro.core.config.SearchConfig` bundle."""
        return SearchConfig.from_kwargs(
            designs=self.designs,
            budget=self.budget,
            options=self.options,
            cost_model=self.cost_model,
            objective=self.objective,
            workers=self.workers,
            cache=self.cache,
            layer_cache=self.layer_cache,
            subproblem_capacity=self.subproblem_capacity,
        ).canonical()

    def _config_key(self) -> tuple:
        """Snapshot of everything the internal session was built from.

        Graph and topology are compared by *identity* but held through
        :class:`~repro.utils.identity.IdentityRef` — a strong reference,
        not a bare ``id()``. A bare id would alias: CPython recycles ids
        after GC, so a new graph allocated at a dead graph's address
        would silently match the stale key and be served the stale
        session's warm caches (a mapping for the wrong workload). The
        wrapper pins the original object alive for as long as the key
        is retained, making recycling impossible by construction.
        The rest of the configuration compares by canonical value: two
        spellings of the same effective configuration share a session.
        """
        return (
            IdentityRef(self.graph),
            IdentityRef(self.topology),
            self.config(),
        )

    def session(self) -> MarsSession:
        """The facade's internal warm session (built lazily).

        One session backs every ``search``/``compile_program`` of this
        instance; it is rebuilt — dropping the warm caches and shutting
        down any worker pool — if any configuration field was
        reassigned since the last call.
        """
        key = self._config_key()
        if self._session is None or self._session_config != key:
            if self._session is not None:
                self._session.close()
            self._session = MarsSession.from_config(
                self.graph, self.topology, key[2]
            )
            self._session_config = key
        return self._session

    def search(self, seed: int = 0) -> MarsResult:
        """Run the two-level GA and return the best mapping found.

        Repeated calls on one instance reuse the internal session's
        warm caches; results are bit-identical to a cold search either
        way.
        """
        return self.session().search(seed=seed)

    def compile_program(self, result: MarsResult) -> ExecutionProgram:
        """Replayable execution program of a search result.

        Shares the session evaluator with ``search`` instead of
        building a fresh one per emission.
        """
        return self.session().compile_program(result)

    def close(self) -> None:
        """Shut down the internal session (worker pool included).

        Only matters with ``workers > 1`` — a serial facade holds no OS
        resources — and the facade rebuilds a fresh session if used
        again after closing.
        """
        if self._session is not None:
            self._session.close()
            self._session = None
            self._session_config = None

    def __enter__(self) -> "Mars":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

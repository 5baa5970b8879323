"""MARS core: formulation, parallelism strategies, evaluator, mapper.

The paper's primary contribution. :class:`~repro.core.mapper.Mars` is
the entry point; the submodules expose each piece for direct use:

* :mod:`repro.core.formulation` — Table I notation.
* :mod:`repro.core.sharding` — ES/SS shard semantics (Fig. 2).
* :mod:`repro.core.strategy_space` — the per-layer design space.
* :mod:`repro.core.evaluator` — the latency oracle.
* :mod:`repro.core.ga` — the two-level genetic algorithm (Fig. 3).
* :mod:`repro.core.session` — warm-search sessions for server workloads.
* :mod:`repro.core.serving` — the multi-tenant session registry and
  the shard worker protocol.
* :mod:`repro.core.frontend` — the multi-process, SLO-aware frontend.
* :mod:`repro.core.health` — liveness: watchdog, beacons, escalation.
* :mod:`repro.core.faults` — deterministic fault injection for tests.
* :mod:`repro.core.store` — the crash-safe persistent artifact store.
* :mod:`repro.core.baselines` — comparison mappers.
"""

from repro.core.config import SearchConfig
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.evaluator import (
    EvaluatorOptions,
    LayerCacheStats,
    MappingEvaluation,
    MappingEvaluator,
)
from repro.core.formulation import (
    AcceleratorSet,
    LayerRange,
    Mapping,
    SetAssignment,
)
from repro.core.frontend import (
    AdmissionRejected,
    DeadlineExceeded,
    ServerSaturated,
    SloServing,
    SloServingStats,
    TenantQueueFull,
    TrafficPolicy,
)
from repro.core.health import LivenessPolicy, WorkerHung
from repro.core.mapper import Mars, MarsResult
from repro.core.serving import MultiModelSession, ServingStats
from repro.core.session import MarsSession, SessionStats
from repro.core.store import (
    MappingStore,
    StoreCorruption,
    StoreSpec,
    StoreStats,
)
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    ShardingPlan,
    cached_sharding_plan,
    make_sharding_plan,
)
from repro.core.strategy_space import (
    enumerate_strategies,
    feasible_strategies,
    longest_dims_strategy,
)

__all__ = [
    "AcceleratorSet",
    "AdmissionRejected",
    "DeadlineExceeded",
    "EvaluatorOptions",
    "FaultPlan",
    "FaultSpec",
    "LayerCacheStats",
    "LayerRange",
    "LivenessPolicy",
    "Mapping",
    "MappingEvaluation",
    "MappingEvaluator",
    "MappingStore",
    "Mars",
    "MarsResult",
    "MarsSession",
    "MultiModelSession",
    "NO_PARALLELISM",
    "SearchConfig",
    "ServerSaturated",
    "ServingStats",
    "SloServing",
    "SloServingStats",
    "ParallelismStrategy",
    "SessionStats",
    "SetAssignment",
    "ShardingPlan",
    "StoreCorruption",
    "StoreSpec",
    "StoreStats",
    "TenantQueueFull",
    "TrafficPolicy",
    "WorkerHung",
    "cached_sharding_plan",
    "enumerate_strategies",
    "feasible_strategies",
    "longest_dims_strategy",
    "make_sharding_plan",
]

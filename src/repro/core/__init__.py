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

The names in ``__all__`` resolve on first use (PEP 562), so a process
that only searches never loads the serving stack: ``import
repro.core.session`` and a whole search leave :mod:`~repro.core.frontend`,
:mod:`~repro.core.serving`, :mod:`~repro.core.health`, asyncio and
multiprocessing unloaded.
"""

from importlib import import_module

#: Each re-exported name and the module that defines it; a name's module
#: is imported on first access.
_EXPORTS = {
    "AcceleratorSet": "repro.core.formulation",
    "AdmissionRejected": "repro.core.frontend",
    "DeadlineExceeded": "repro.core.frontend",
    "EvaluatorOptions": "repro.core.evaluator",
    "FaultPlan": "repro.core.faults",
    "FaultSpec": "repro.core.faults",
    "LayerCacheStats": "repro.core.evaluator",
    "LayerRange": "repro.core.formulation",
    "LivenessPolicy": "repro.core.health",
    "Mapping": "repro.core.formulation",
    "MappingEvaluation": "repro.core.evaluator",
    "MappingEvaluator": "repro.core.evaluator",
    "MappingStore": "repro.core.store",
    "Mars": "repro.core.mapper",
    "MarsResult": "repro.core.mapper",
    "MarsSession": "repro.core.session",
    "MultiModelSession": "repro.core.serving",
    "NO_PARALLELISM": "repro.core.sharding",
    "SearchConfig": "repro.core.config",
    "ServerSaturated": "repro.core.frontend",
    "ServingStats": "repro.core.serving",
    "SloServing": "repro.core.frontend",
    "SloServingStats": "repro.core.frontend",
    "ParallelismStrategy": "repro.core.sharding",
    "SessionStats": "repro.core.session",
    "SetAssignment": "repro.core.formulation",
    "ShardingPlan": "repro.core.sharding",
    "StoreCorruption": "repro.core.store",
    "StoreSpec": "repro.core.store",
    "StoreStats": "repro.core.store",
    "TenantQueueFull": "repro.core.frontend",
    "TrafficPolicy": "repro.core.frontend",
    "WorkerHung": "repro.core.health",
    "cached_sharding_plan": "repro.core.sharding",
    "enumerate_strategies": "repro.core.strategy_space",
    "feasible_strategies": "repro.core.strategy_space",
    "longest_dims_strategy": "repro.core.strategy_space",
    "make_sharding_plan": "repro.core.sharding",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

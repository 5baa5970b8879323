"""E7: GA evaluation backends — serial vs memoized.

The engine evaluates whole populations through an
:class:`~repro.core.ga.backends.EvaluationBackend`; this bench verifies
the backends' contract (bit-identical results for a fixed seed) and
measures their wall-clock on ResNet-class workloads.

The headline number is the *warm re-search*: MARS keeps a sub-problem
solution cache across level-1 restarts (seed sweeps, objective changes),
so a re-search prices full mappings only — exactly the duplicate-heavy
regime the phenotype-keyed :class:`CachedBackend` collapses.
"""

import time

from repro.accelerators import table2_designs
from repro.core.evaluator import MappingEvaluator
from repro.core.ga import Level1Search, SerialBackend
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng

from _report import emit, search_budget, subproblem_pool


def _restart(
    graph, topology, evaluator, solution_cache, backend, seed, pool
):
    search = Level1Search(
        graph=graph,
        topology=topology,
        designs=table2_designs(),
        evaluator=evaluator,
        budget=search_budget(),
        rng=make_rng(seed),
        solution_cache=dict(solution_cache),
        backend=backend,
        level1_backend=pool,
    )
    start = time.perf_counter()
    _, _, result = search.run()
    return result, time.perf_counter() - start


def bench_cached_backend_warm_restart_resnet34(benchmark):
    """Serial vs cached level-1 re-search over a warm sub-problem cache.

    Asserts the backend contract: identical ``history`` and
    ``best_fitness``, and >= 1.5x wall-clock for the cached backend
    over the plain (uncached) serial engine.

    Framing note: before the backend refactor, level 1 carried an
    ad-hoc fitness dict with the same effect as today's default
    ``CachedBackend`` — so this measures what phenotype memoization
    buys relative to the bare serial engine (now an explicit, opt-out
    configuration), not a speedup over the pre-refactor default.
    """
    graph = build_model("resnet34")
    topology = f1_16xlarge()
    evaluator = MappingEvaluator(graph, topology)

    with subproblem_pool(search_budget()) as pool:
        warm = Level1Search(
            graph=graph,
            topology=topology,
            designs=table2_designs(),
            evaluator=evaluator,
            budget=search_budget(),
            rng=make_rng(0),
            level1_backend=pool,
        )
        warm.run()  # un-timed: populates the sub-problem solution cache

        serial_result, serial_s = _restart(
            graph,
            topology,
            evaluator,
            warm.solution_cache,
            SerialBackend(),
            0,
            pool,
        )
        cached_result, cached_s = benchmark.pedantic(
            lambda: _restart(
                graph, topology, evaluator, warm.solution_cache, None, 0, pool
            ),
            rounds=1,
            iterations=1,
        )

    assert cached_result.history == serial_result.history
    assert cached_result.best_fitness == serial_result.best_fitness
    speedup = serial_s / cached_s
    benchmark.extra_info["serial_s"] = round(serial_s, 3)
    benchmark.extra_info["cached_s"] = round(cached_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["unique_evaluations"] = cached_result.evaluations
    benchmark.extra_info["cache_hits"] = cached_result.cache_hits

    emit(
        "backend_cached_restart",
        "GA backends: warm level-1 re-search on ResNet-34 (identical results)\n"
        "(serial = uncached engine; the cached column is the default backend)\n"
        f"serial backend : {serial_s * 1e3:9.1f} ms "
        f"({serial_result.evaluations} mapping evaluations)\n"
        f"cached backend : {cached_s * 1e3:9.1f} ms "
        f"({cached_result.evaluations} unique evaluations, "
        f"{cached_result.cache_hits} cache hits)\n"
        f"speedup        : {speedup:9.2f}x\n",
    )
    assert speedup >= 1.5, f"cached backend speedup {speedup:.2f}x < 1.5x"

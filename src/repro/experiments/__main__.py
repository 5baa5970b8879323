"""Command-line experiment runner.

Usage::

    python -m repro.experiments table2
    python -m repro.experiments table3 --models alexnet vgg16 --budget fast
    python -m repro.experiments table4 --budget paper --seed 1
    python -m repro.experiments table3 --workers 4
    python -m repro.experiments table3 --seeds 4
    python -m repro.experiments --validate --models tiny_cnn

``--validate`` (or the ``validate`` experiment) runs the cost-model
validation harness (:mod:`repro.core.validation`): it searches each
requested model, replays the winning mapping through the event-driven
network simulator, and prints a per-step-pattern divergence report
between the analytical cost model and the simulator. ``--tolerance``
gates the contention-free patterns (compute and host traffic must
reconcile exactly up to float noise) and ``--out`` writes the full
JSON report.

``--workers N`` solves each level-1 generation's distinct sub-problems
(each a whole level-2 GA) on a pool of N worker processes
(``budget.level1.workers``) and ``--no-layer-cache`` disables the
evaluator's per-layer cost cache (``options.layer_cache``); both change
wall-clock only — for a fixed seed every configuration reproduces the
same tables.
``--seeds N`` sweeps N GA seeds per Table III model through that
model's warm session and keeps the best mapping (per-seed results stay
bit-identical to fresh single-seed runs). Table III routes every model
through one multi-tenant
:class:`~repro.core.serving.MultiModelSession`; ``--session-capacity``
bounds how many tenant sessions stay warm at once (smaller capacities
evict and rebuild without changing the table), ``--combined`` adds
the Herald-style merged multi-DNN row, and ``--shards N`` serves the
table through N shard worker processes behind the SLO-aware frontend
(:class:`~repro.core.frontend.SloServing`) — concurrent on multi-core
machines, bit-identical everywhere. ``--deadline SECONDS`` (with
``--shards``) attaches a deadline to every search — a miss raises
instead of silently dropping a row, and admitted searches stay
bit-identical.
``--store PATH`` persists finished mappings to a crash-safe artifact
store at PATH: re-running the same table answers repeat (model, seed)
searches from disk, verified and bit-identical, without re-running
the GA.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial, reduce

from repro.core.evaluator import EvaluatorOptions, LayerCacheStats
from repro.core.ga import SearchBudget
from repro.dnn.models import TABLE3_MODELS, TABLE4_MODELS
from repro.experiments import run_table2, run_table3, run_table4


def _budget(name: str, workers: int = 1) -> SearchBudget:
    budget = SearchBudget.paper() if name == "paper" else SearchBudget.fast()
    return budget.with_backend(workers=workers)


def _layer_cache_summary(stats: list[LayerCacheStats]) -> str | None:
    """One aggregate line over the searches' layer-cost cache counters."""
    stats = [s for s in stats if s is not None]
    if not stats:
        return None
    # Each ``entries`` is a cache's population when its search ended;
    # the line reports the largest, so the gauge folds by max.
    total = reduce(partial(LayerCacheStats.merge, gauge=max), stats)
    return (
        f"layer-cost cache: {total.hits} hits / {total.misses} misses "
        f"({total.hit_rate * 100.0:.1f}% hit rate), {total.entries} "
        f"entries, {total.evictions} evictions"
    )


def _store_summary(serving, sharded: bool) -> str | None:
    """One line of persistent-store counters from the serving stats.

    The in-process registry carries its lifetime counters directly;
    a ``sharded`` frontend's shard registries (plus the inline
    fallback's) fold into one through its ``merged`` view.
    """
    if serving is None:
        return None
    if sharded:
        serving = serving.merged
    lifetime = serving.lifetime
    return (
        f"persistent store: {lifetime.store_hits} hits / "
        f"{lifetime.store_misses} misses, "
        f"{lifetime.store_publishes} published, "
        f"{lifetime.store_quarantined} quarantined, "
        f"{lifetime.store_errors} io errors"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=["table2", "table3", "table4", "validate"],
        default=None,
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="run the cost-model validation harness: replay searched "
        "mappings through the event simulator and report per-pattern "
        "analytical-vs-simulated divergence (same as the 'validate' "
        "experiment)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="validate: maximum relative divergence tolerated on "
        "contention-free step patterns (compute/host traffic) before "
        "exiting non-zero",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="validate: also write the full JSON divergence report here",
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=None,
        help="restrict to these models (default: the paper's set)",
    )
    parser.add_argument(
        "--budget", choices=["fast", "paper"], default="fast"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="table3: sweep this many GA seeds (starting at --seed) per "
        "model through one warm search session and keep the best mapping",
    )
    parser.add_argument(
        "--session-capacity",
        type=int,
        default=None,
        help="table3: cap the number of warm per-model sessions in the "
        "serving registry (default: one per requested row; smaller "
        "values evict+rebuild tenants, results unchanged)",
    )
    parser.add_argument(
        "--combined",
        action="store_true",
        help="table3: append a merged multi-DNN row (all requested "
        "models combined into one graph, Herald-style)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="table3: serve searches through this many shard worker "
        "processes behind the SLO-aware frontend (sticky fingerprint "
        "placement; models on different shards search concurrently, "
        "results unchanged)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="table3: per-search deadline in seconds for --shards "
        "(a missed deadline raises DeadlineExceeded)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="table3: persist finished mappings to a crash-safe "
        "artifact store at PATH; repeat runs answer known "
        "(model, seed) searches from disk, bit-identically",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes that solve each level-1 generation's "
        "sub-problems (> 1 runs a process pool; not for table2)",
    )
    parser.add_argument(
        "--no-layer-cache",
        action="store_true",
        help="disable the evaluator's per-layer cost cache "
        "(identical results, more recomputation)",
    )
    args = parser.parse_args(argv)
    if args.validate:
        if args.experiment not in (None, "validate"):
            parser.error("--validate conflicts with a table experiment")
        args.experiment = "validate"
    if args.experiment is None:
        parser.error(
            "an experiment is required: table2, table3, table4, "
            "validate (or --validate)"
        )
    if not 0 < args.tolerance < math.inf:
        parser.error("--tolerance must be a finite number > 0")
    if args.out is not None and args.experiment != "validate":
        parser.error("--out applies to validate only")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    if args.seeds > 1 and args.experiment != "table3":
        parser.error("--seeds currently applies to table3 only")
    if args.session_capacity is not None:
        if args.experiment != "table3":
            parser.error("--session-capacity applies to table3 only")
        if args.session_capacity < 1:
            parser.error("--session-capacity must be >= 1")
    if args.combined and args.experiment != "table3":
        parser.error("--combined applies to table3 only")
    if args.shards is not None:
        if args.experiment != "table3":
            parser.error("--shards applies to table3 only")
        if args.shards < 1:
            parser.error("--shards must be >= 1")
    if args.deadline is not None:
        if args.shards is None:
            parser.error("--deadline requires --shards")
        if not 0 < args.deadline < math.inf:
            parser.error("--deadline must be a finite number > 0")
    if args.store is not None and args.experiment != "table3":
        parser.error("--store applies to table3 only")
    if args.experiment == "table2":
        # table2 profiles designs without any mapping search; there is
        # no evaluator whose cache --no-layer-cache could disable and no
        # sub-problem for --workers to fan out.
        if args.no_layer_cache:
            parser.error("--no-layer-cache does not apply to table2")
        if args.workers > 1:
            parser.error("--workers does not apply to table2")
    layer_cache = not args.no_layer_cache

    budget = _budget(args.budget, workers=args.workers)
    if args.experiment == "validate":
        import json

        from repro.core.validation import divergence_report, format_report

        models = (
            tuple(args.models)
            if args.models
            else ("tiny_cnn", "alexnet", "squeezenet")
        )
        report = divergence_report(models, seeds=(args.seed,), budget=budget)
        print(format_report(report))
        if args.out is not None:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if report["contention_free_divergence"] > args.tolerance:
            print(
                "FAIL: contention-free divergence "
                f"{report['contention_free_divergence']:.3e} exceeds "
                f"tolerance {args.tolerance:.3e}",
                file=sys.stderr,
            )
            return 1
        return 0
    if args.experiment == "table2":
        models = tuple(args.models) if args.models else TABLE3_MODELS
        print(run_table2(models=models).to_text())
    elif args.experiment == "table3":
        models = tuple(args.models) if args.models else TABLE3_MODELS
        if args.combined and len(models) < 2:
            parser.error("--combined needs at least two models")
        store = None
        if args.store is not None:
            from repro.core.store import StoreSpec

            store = StoreSpec(path=args.store)
        result = run_table3(
            models=models,
            budget=budget,
            seed=args.seed,
            seeds=tuple(range(args.seed, args.seed + args.seeds)),
            options=EvaluatorOptions(layer_cache=layer_cache),
            session_capacity=args.session_capacity,
            combined=args.combined,
            shards=args.shards,
            deadline=args.deadline,
            store=store,
        )
        print(result.to_text())
        summary = _layer_cache_summary(
            [mars.layer_cache for mars in result.mars_results.values()]
        )
        if summary:
            print(summary)
        serving = result.serving
        sharded = args.shards is not None
        if args.store is not None:
            store_line = _store_summary(serving, sharded)
            if store_line:
                print(store_line)
        if sharded:
            merged = serving.merged
            print(
                f"sharded serving: {serving.shards} shards "
                f"({serving.scheduling} scheduling), "
                f"{serving.submitted} submitted, "
                f"{serving.completed} completed, {serving.shed} shed, "
                f"{serving.expired} expired, "
                f"{merged.tenants} live tenants, {merged.hits} hits / "
                f"{merged.misses} misses, {serving.respawns} respawns, "
                f"{sum(serving.graph_ships)} graph ships / "
                f"{sum(serving.fp_sends)} fingerprint sends"
            )
        elif serving is not None:
            print(
                f"serving registry: {serving.tenants} live tenants "
                f"(capacity {serving.capacity}), {serving.hits} hits / "
                f"{serving.misses} misses, {serving.evictions} evictions, "
                f"{serving.searches} searches"
            )
    else:
        models = tuple(args.models) if args.models else TABLE4_MODELS
        result = run_table4(
            models=models,
            budget=budget,
            seed=args.seed,
            layer_cache=layer_cache,
        )
        print(result.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())

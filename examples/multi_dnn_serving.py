#!/usr/bin/env python3
"""Extension tour: multi-DNN serving, throughput search, and traces.

Combines two networks into one workload (Herald's multi-DNN setting),
routes both objectives through a multi-tenant ``MultiModelSession``
registry (the serving deployment shape: one warm session per tenant,
LRU eviction beyond capacity), re-serves them through a 2-shard
``SloServing`` frontend (worker processes, sticky fingerprint
placement, admission control, deadlines, EDF scheduling — still
bit-identical), searches with the throughput
objective (steady-state pipeline interval instead of single-input
latency), reads the Section VI-B pattern evidence per source network,
and renders the winning schedule as an ASCII Gantt chart plus a
``chrome://tracing`` JSON file.

Usage::

    python examples/multi_dnn_serving.py [--trace-out trace.json]
"""

from __future__ import annotations

import argparse

from repro.core import (
    MappingEvaluator,
    MultiModelSession,
    SearchConfig,
    SloServing,
    TrafficPolicy,
)
from repro.core.ga import GAConfig, SearchBudget
from repro.dnn import build_model
from repro.dnn.multi import combine_graphs, per_workload_ranges
from repro.experiments import per_workload_patterns
from repro.simulator import chrome_trace_json, render_gantt
from repro.system import f1_16xlarge
from repro.utils import seconds_to_human

BUDGET = SearchBudget(
    level1=GAConfig(population_size=10, generations=8, elite_count=1, patience=5),
    level2=GAConfig(population_size=10, generations=8, elite_count=1, patience=4),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write a chrome://tracing JSON file of the final schedule",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # Two independent services on one F1 instance.
    combined = combine_graphs(
        [build_model("tiny_cnn"), build_model("tiny_resnet")]
    )
    ranges = per_workload_ranges(combined, ["tiny_cnn", "tiny_resnet"])
    print(f"Combined workload: {combined.summary()}")
    print(f"Per-network node ranges: {ranges}\n")

    topology = f1_16xlarge()
    config = SearchConfig(budget=BUDGET, capacity=4)
    results = {}
    # One serving registry holds a warm session per (tenant, objective):
    # both objective searches below are separate tenants of the merged
    # graph, and a real deployment would route every model through the
    # same registry (LRU-evicting cold tenants beyond `capacity`).
    with MultiModelSession(topology, config) as registry:
        for objective in ("latency", "throughput"):
            result = registry.search(
                combined, seed=args.seed, objective=objective
            )
            results[objective] = result
            evaluation = result.evaluation
            print(f"objective = {objective}:")
            print(f"  single-pass latency : {evaluation.latency_ms:.3f} ms")
            print(
                "  pipeline interval   : "
                f"{seconds_to_human(evaluation.pipeline_interval_seconds)} "
                f"({evaluation.pipeline_throughput_per_second:.0f} inferences/s)"
            )
            print(
                f"  mapping:\n    "
                + result.describe().replace("\n", "\n    ")
            )
            print()
        stats = registry.stats()
        print(
            f"serving registry: {stats.tenants} tenants, "
            f"{stats.searches} searches, {stats.evictions} evictions"
        )

    # The same deployment, sharded: worker processes host the tenants,
    # placed stickily by content fingerprint, and requests on different
    # shards run concurrently. Under load, per-tenant bounded queues
    # shed overload with typed errors, deadlines expire stale requests
    # before they waste a worker, and EDF runs the tightest deadline
    # first. None of that changes what a search finds — results are
    # bit-identical to the in-process registry above.
    policy = TrafficPolicy(scheduling="edf", queue_depth=8)
    with SloServing(
        topology, shards=2, config=config, policy=policy
    ) as frontend:
        futures = {
            objective: frontend.submit(
                combined,
                seed=args.seed,
                objective=objective,
                deadline=300.0,  # generous SLO: both must complete
            )
            for objective in ("latency", "throughput")
        }
        for objective, future in futures.items():
            assert (
                future.result().latency_ms == results[objective].latency_ms
            ), "the SLO frontend must be bit-identical to the registry"
        stats = frontend.stats()
        print(
            f"slo serving: {stats.shards} shards "
            f"(tenant on shard {frontend.shard_of(combined)}), "
            f"{stats.scheduling} scheduling, {stats.completed} completed, "
            f"{stats.shed} shed, {stats.expired} expired, "
            f"results identical\n"
        )

    # Section VI-B pattern evidence, read per source network.
    for workload, evidence in per_workload_patterns(
        results["throughput"].mapping, ["tiny_cnn", "tiny_resnet"]
    ).items():
        print(
            f"  {workload}: first set on {evidence.first_set_design}, "
            f"early spatial {evidence.early_spatial_fraction:.0%}, "
            f"late channel {evidence.late_channel_fraction:.0%}"
        )
    print()

    # Replay the throughput-optimal schedule and draw it.
    best = results["throughput"]
    evaluator = MappingEvaluator(combined, topology)
    program = evaluator.compile_program(best.mapping)
    replay = program.replay()
    print(render_gantt(program, replay, width=56, max_rows=14))

    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            handle.write(chrome_trace_json(program, replay))
        print(f"\nwrote {args.trace_out} (open in chrome://tracing)")


if __name__ == "__main__":
    main()

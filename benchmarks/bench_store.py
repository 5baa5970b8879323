"""Warm-start bench of the persistent mapping artifact store.

The deployment scenario the store exists for: a serving frontend goes
down — crash, upgrade, scale-out to a new machine — and a *brand-new
process tree* comes up on the same artifact directory. The cold arm
pays full price: spawn shard workers, run every GA search, publish the
artifacts. The warm arm builds an equally fresh ``SloServing`` on
the now-populated store and serves the same sweep from disk — every
request a verified store hit, zero GA activity (asserted via the
layer-cache counters: no evaluator lookups at all).

The noise-free contract is bit-identity: every warm result must equal
its cold counterpart, and the warm frontend's lifetime counters must
show ``store_hits == requests`` with no misses. The wall-clock gate
(``REPRO_STORE_MIN_SPEEDUP``, default 1.5x) holds on any host — the
warm arm skips the searches entirely, so it does not depend on core
count, only on searches costing more than verified reads.

Headline numbers land in the repo-root ``BENCH_store.json``.
"""

import os
import tempfile
import time

from repro.core import SloServing
from repro.core.config import SearchConfig
from repro.core.store import StoreSpec
from repro.dnn import build_model
from repro.system import f1_16xlarge

from _report import bench_shards as _shard_count
from _report import (
    STORE_TRAJECTORY_PATH,
    emit,
    emit_json,
    emit_trajectory,
    quick_budget,
    run_metadata,
)

TENANTS = ("tiny_cnn", "tiny_resnet", "squeezenet")
SEEDS = (0, 1, 2)


def bench_store_warm_start(benchmark):
    """Cold deployment vs store-warm deployment of a fresh frontend."""
    shards = _shard_count()
    topology = f1_16xlarge()
    graphs = [build_model(name) for name in TENANTS]
    requests = [(graph, seed) for graph in graphs for seed in SEEDS]

    with tempfile.TemporaryDirectory(prefix="mars-store-") as root:
        config = SearchConfig.from_kwargs(
            store=StoreSpec(path=os.path.join(root, "artifacts")),
            budget=quick_budget(),
        )

        def deploy_and_sweep():
            """A whole frontend lifecycle: spawn, sweep, report, close.

            Both arms pay the identical spawn/close overhead, so the
            difference between them is purely search-vs-store-read.
            """
            with SloServing(
                topology, shards=shards, config=config
            ) as serving:
                results = [
                    serving.search(graph, seed=seed)
                    for graph, seed in requests
                ]
                stats = serving.stats(worker_stats=True)
                return results, stats.merged.lifetime

        start = time.perf_counter()
        cold_results, cold_counters = deploy_and_sweep()
        cold_s = time.perf_counter() - start
        assert cold_counters.store_publishes == len(requests)
        assert cold_counters.store_hits == 0

        start = time.perf_counter()
        warm_results, warm_counters = deploy_and_sweep()
        warm_s = time.perf_counter() - start
        assert warm_counters.store_hits == len(requests)
        assert warm_counters.store_misses == 0
        assert warm_counters.layer_cache.lookups == 0  # no GA ran
        for cold, warm in zip(cold_results, warm_results):
            assert warm.latency_ms == cold.latency_ms
            assert warm.describe() == cold.describe()
            assert warm.ga.history == cold.ga.history

        benchmark.pedantic(deploy_and_sweep, rounds=1, iterations=1)

    cpus = run_metadata()["cpus"]
    speedup = cold_s / warm_s
    benchmark.extra_info["cold_s"] = round(cold_s, 3)
    benchmark.extra_info["warm_s"] = round(warm_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    emit(
        "store_warm_start",
        f"Persistent store: fresh {shards}-shard deployment, "
        f"{len(TENANTS)}-tenant x {len(SEEDS)}-seed sweep "
        f"(bit-identical results, asserted)\n"
        f"cold start (searches) : {cold_s * 1e3:9.1f} ms\n"
        f"warm start (store)    : {warm_s * 1e3:9.1f} ms\n"
        f"speedup               : {speedup:9.2f}x ({cpus} cpus)\n"
        f"artifacts published   : {cold_counters.store_publishes}\n"
        f"verified store hits   : {warm_counters.store_hits}\n",
    )
    payload = {
        "tenants": list(TENANTS),
        "seeds": list(SEEDS),
        "shards": shards,
        "requests": len(requests),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": speedup,
        "published": cold_counters.store_publishes,
        "store_hits": warm_counters.store_hits,
    }
    emit_json("store_warm_start", payload)
    emit_trajectory("store_warm_start", payload, path=STORE_TRAJECTORY_PATH)
    min_speedup = float(os.environ.get("REPRO_STORE_MIN_SPEEDUP", "1.5"))
    assert speedup >= min_speedup, (
        f"store warm-start speedup {speedup:.2f}x < {min_speedup:.2f}x"
    )

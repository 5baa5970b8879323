"""One run of one benchmark workload, in this process: set up, time, check.

``perfbench/run.py`` starts this file in a child process of its own
process group and reads the JSON file it writes::

    python3 perfbench/workload.py --workload search_cold --seed 3 \\
        --seconds 25 --trace 0 --out .perfbench_runs/x/main.json

``--setup-only`` stops after set-up (the set-up probes behind
``setup_s``). ``--trace 1`` installs :mod:`tracer` for the timed phase
and adds the per-layer metrics; end-to-end numbers are only ever taken
from ``--trace 0`` runs. Every input is generated from ``--seed``
before the timed phase and recorded in the output file. A failed
correctness or isolation check exits with status 1 after writing the
file; it is not counted as a failed operation.

Shard workers of ``serve_mixed`` are spawned interpreters that import
this file as ``__mp_main__``, so everything outside the ``__main__``
block only defines names.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pickle
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from concurrent.futures import wait

from run import exit_on_signals, proc_stats, prctl

ROOT = os.getcwd()
GOLDENS = os.path.join(ROOT, "tests", "core", "goldens", "costmodel_goldens.json")

#: search_* cycles these models; pass 0 uses GA seed 0.
SEARCH_MODELS = ("squeezenet", "resnet34", "mobilenet_v1", "casia_surf", "alexnet")
#: Wall seconds one pass of SEARCH_MODELS is sized at: a run does
#: round(--seconds / NOMINAL_PASS_S) whole passes, the same searches on
#: every commit, so its samples always mix the models in equal shares.
NOMINAL_PASS_S = 5.0

#: serve_mixed tenants and their popularity (shares of all requests).
SERVE_TENANTS = (
    ("tiny_cnn", 0.4),
    ("tiny_resnet", 0.3),
    ("squeezenet", 0.2),
    ("mobilenet_v1", 0.1),
)
#: Open-loop arrival rate (requests per second), well below capacity.
SERVE_RATE = 10.0
#: Share of each tenant's requests that pose a new GA seed.
NEW_SHARE = 0.15
#: Latency limit on the served tail (frontend.tail_ms); a request over
#: it, or failed, misses the SLO (frontend.slo_miss_rate).
SERVE_TAIL_LIMIT_MS = 1000.0
SERVE_SHARDS = 2
#: How long the generator waits for the last futures before counting
#: them as never resolved.
SERVE_DRAIN_S = 60.0
#: Seconds :func:`host_probe` takes on the host the bounds were set on
#: (2 vCPUs, Xeon at 2.1 GHz); timings are scaled to that host's speed.
HOST_REFERENCE_S = 0.025
#: Host probes right after set-up, which ``setup_s`` is scaled by.
READY_PROBES = 5


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------

_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Tie this process, and every child it forks, to its parent.

    ``run.py`` SIGTERMs this process and SIGKILLs its group on timeout,
    but if ``run.py`` itself is killed the kernel must do it: this
    process gets SIGTERM (and closes everything in ``finally``), and a
    forked pool worker — which would otherwise sleep forever once
    reparented — gets SIGKILL when this process dies.
    """
    prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    me = os.getpid()

    def in_forked_child() -> None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != me:  # the parent died before prctl took effect
            os._exit(1)

    os.register_at_fork(after_in_child=in_forked_child)


def cpu_seconds() -> float:
    """User+system CPU of this process, its reaped children and its
    live children (read from ``/proc``, clock ticks)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    tick = os.sysconf("SC_CLK_TCK")
    me = os.getpid()
    for _, fields in proc_stats():
        if int(fields[1]) == me:
            total += sum(int(f) for f in fields[11:15]) / tick
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes now: how fast the host
    runs at this moment, independent of the code under test."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(150_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - start


def slowdown(probes: list[float]) -> float:
    """How many times longer than on the reference host the probes
    took: the factor a timing is scaled by (see README, "Host speed")."""
    return statistics.mean(probes) / HOST_REFERENCE_S


def mark_ready(out: dict) -> None:
    """Stamp the end of set-up, then probe the host (outside set-up)."""
    out["ready_at"] = time.monotonic()
    out["ready_slowdown"] = slowdown([host_probe() for _ in range(READY_PROBES)])


def metadata() -> dict:
    """CPUs, interpreter and code identity of the run."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    commit = handle.read().strip()
        else:
            commit = ref
    digest = hashlib.blake2b(digest_size=16)
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "src_digest": digest.hexdigest(),
    }


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    ten samples beyond it; the median when that is no higher."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def search_requests(seed: int, seconds: float) -> list[tuple[str, int]]:
    """(model, GA seed) per search: pass 0 uses seed 0, later passes
    draw distinct seeds from the workload seed."""
    passes = max(1, round(seconds / NOMINAL_PASS_S))
    rng = random.Random(f"perfbench-search-{seed}")
    fresh = rng.sample(range(1, 1 << 30), (passes - 1) * len(SEARCH_MODELS))
    requests = [(model, 0) for model in SEARCH_MODELS]
    for index, model in enumerate(SEARCH_MODELS * (passes - 1)):
        requests.append((model, fresh[index]))
    return requests


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder split of ``total`` by ``weights``."""
    raw = [total * w / sum(weights) for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def serve_schedule(seed: int, seconds: float) -> list[dict]:
    """The open-loop request list: Poisson arrivals (uniform order
    statistics of a fixed count) with exact per-tenant and new-seed
    counts, in an order drawn from ``seed``.

    The i-th new request of a tenant always poses the same GA seed, so
    every run does the same GA work and the workload seed moves only
    arrival times, interleaving and which pairs are repeated (the GA
    cost of a seed varies about tenfold, which would otherwise swamp
    the serving metrics). A repeat names a pair scheduled earlier for
    the same tenant; a tenant's requests are served in order on one
    shard, so every repeat finds its pair in the store.
    """
    rng = random.Random(f"perfbench-serve-{seed}")
    count = round(SERVE_RATE * seconds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    slots, fresh = [], {}
    for (name, _), requests in zip(
        SERVE_TENANTS, _apportion(count, [w for _, w in SERVE_TENANTS])
    ):
        new = round(requests * NEW_SHARE)
        slots += [(name, True)] * new + [(name, False)] * (requests - new)
        fresh[name] = iter(
            random.Random(f"perfbench-serve-ga-{name}").sample(
                range(1, 1 << 30), new)
        )
    rng.shuffle(slots)
    served = {name: [0] for name, _ in SERVE_TENANTS}
    schedule = []
    for op, (due, (name, new)) in enumerate(zip(dues, slots)):
        if new:
            ga_seed = next(fresh[name])
            served[name].append(ga_seed)
        else:
            ga_seed = rng.choice(served[name])
        schedule.append(
            {"op": op, "due": due, "tenant": name, "seed": ga_seed, "new": new}
        )
    return schedule


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def fingerprint(result) -> dict:
    """Bit-exact identity of a search result."""
    from repro.utils.serialization import mapping_to_dict

    return {
        "latency_hex": float(result.evaluation.latency_seconds).hex(),
        "history_hex": [float(h).hex() for h in result.ga.history],
        "mapping": hashlib.blake2b(
            json.dumps(mapping_to_dict(result.mapping), sort_keys=True).encode(),
            digest_size=16,
        ).hexdigest(),
    }


class Checks:
    """Correctness and isolation checks; every failure is kept."""

    def __init__(self) -> None:
        with open(GOLDENS) as handle:
            self.goldens = json.load(handle)["cells"]
        self.failures: list[str] = []
        self.counts = {"golden": 0, "coverage": 0, "repriced": 0}

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def golden(self, model: str, seed: int, result) -> None:
        """A seed-0 result must equal its committed cost-model golden."""
        cell = self.goldens.get(f"{model}/seed{seed}/cache=on")
        if cell is None:
            return
        self.counts["golden"] += 1
        got = fingerprint(result)
        self.require(
            got["latency_hex"] == cell["latency_seconds_hex"]
            and got["history_hex"] == cell["ga_history_hex"],
            f"{model} seed {seed} differs from its cost-model golden",
        )

    def coverage(self, label: str, result) -> None:
        """Every layer in exactly one set, in order, with strategies
        only for the compute layers of its own set."""
        self.counts["coverage"] += 1
        mapping = result.mapping
        nodes = mapping.graph.nodes()
        expected = 0
        for assignment in mapping.assignments:
            span = assignment.layer_range
            names = {
                nodes[i].name for i in range(span.start, span.stop)
                if nodes[i].is_compute
            }
            if span.start != expected or span.stop <= span.start or not (
                set(assignment.strategies) <= names
            ):
                break
            expected = span.stop
        self.require(
            expected == len(nodes), f"{label}: mapping does not tile the layers"
        )

    def reprice(self, label: str, result) -> None:
        """Re-price through a fresh evaluator without the layer cache."""
        from repro.core.evaluator import EvaluatorOptions, MappingEvaluator

        self.counts["repriced"] += 1
        mapping = result.mapping
        fresh = MappingEvaluator(
            mapping.graph, mapping.topology, EvaluatorOptions(layer_cache=False)
        ).evaluate_mapping(mapping)
        self.require(
            fresh.latency_seconds == result.evaluation.latency_seconds,
            f"{label}: re-priced latency {fresh.latency_seconds!r} != "
            f"{result.evaluation.latency_seconds!r}",
        )


# ----------------------------------------------------------------------
# Traced-run bookkeeping
# ----------------------------------------------------------------------


class GaCounters:
    """GAResult counters seen through the tracer's return hooks."""

    def __init__(self) -> None:
        self.level1_generations = 0
        self.evaluations = 0
        self.memo_hits = 0
        self.memo_misses = 0

    def on_level1(self, outcome) -> None:
        self.level1_generations += outcome[2].generations_run

    def on_ga(self, result) -> None:
        self.evaluations += result.evaluations
        self.memo_hits += result.cache_hits
        self.memo_misses += result.cache_misses


def start_tracer():
    from tracer import Tracer, install

    tracer = Tracer()
    counters = GaCounters()
    install(tracer, {
        "Level1Search.run": counters.on_level1,
        "GeneticAlgorithm.run": counters.on_ga,
    })
    return tracer, counters


def memo_info() -> dict:
    from repro.accelerators.base import cached_conv_cycles
    from repro.core.sharding import cached_sharding_plan

    plan = cached_sharding_plan.cache_info()
    cycles = cached_conv_cycles.cache_info()
    return {
        "sharding.plan_hits": plan.hits,
        "sharding.plan_misses": plan.misses,
        "accelerators.cycles_hits": cycles.hits,
        "accelerators.cycles_misses": cycles.misses,
    }


def span_durations(tracer, name: str) -> list[float]:
    return [end - start for span, start, end, *_ in tracer.spans if span == name]


def shard_lifetime(stats, checks: Checks):
    """Every shard's tenant sessions' SessionStats, merged."""
    from repro.core.session import SessionStats

    total = SessionStats.zero()
    for shard in stats.per_shard:
        checks.require(shard is not None, "a shard reported no stats")
        if shard is not None:
            total = total.merge(shard.lifetime)
    return total


def session_since(after, before):
    """SessionStats counters accumulated between two snapshots."""
    changes = {
        f.name: getattr(after, f.name) - getattr(before, f.name)
        for f in dataclasses.fields(after)
        if isinstance(getattr(after, f.name), int)
    }
    return dataclasses.replace(
        after,
        layer_cache=after.layer_cache.since(before.layer_cache),
        worker_layer_cache=after.worker_layer_cache.since(
            before.worker_layer_cache),
        **changes,
    )


def session_layers(stats) -> dict:
    """Per-layer metrics read from (merged) SessionStats."""
    return {
        "session.subproblem_hits": stats.subproblem_hits,
        "session.subproblem_misses": stats.subproblem_misses,
        "session.subproblem_hit_rate": ratio(
            stats.subproblem_hits,
            stats.subproblem_hits + stats.subproblem_misses,
        ),
        "session.greedy_entries": stats.greedy_entries,
        "evaluator.layer_cache_hit_rate": stats.layer_cache.hit_rate,
        "evaluator.layer_cache_misses": stats.layer_cache.misses,
        "evaluator.layer_cache_evictions": stats.layer_cache.evictions,
        "backends.pool_spawns": stats.pool_spawns,
        "backends.pool_failures": stats.pool_failures,
        "backends.fanned_out": stats.subproblems_fanned_out,
        "backends.worker_layer_cache_hit_rate": (
            stats.worker_layer_cache.hit_rate
        ),
        "store.hits": stats.store_hits,
        "store.misses": stats.store_misses,
        "store.publishes": stats.store_publishes,
        "store.errors": stats.store_errors,
    }


def traced_layers(
    tracer, counters: GaCounters, memo_before: dict, fanned_out: int
) -> dict:
    """Per-layer metrics measured by the tracer during the timed phase;
    ``fanned_out`` counts the sub-problems pool workers solved."""
    ms = 1e3
    calls = tracer.calls
    layers = {
        "session.self_ms": tracer.self_s("MarsSession.search") * ms,
        "level1.generations": counters.level1_generations,
        "level1.subproblems_solved": calls("optimize_set") + fanned_out,
        "level1.self_ms": tracer.layer_self_s("level1") * ms,
        "level1.prefetch_ms": tracer.incl_s("Level1Search.prefetch_population") * ms,
        "level1.setup_ms": (
            tracer.incl_s("candidate_partitions")
            + tracer.incl_s("Level1Search.seed_genomes")
        ) * ms,
        "engine.evaluations": counters.evaluations,
        "engine.memo_hit_rate": ratio(
            counters.memo_hits, counters.memo_hits + counters.memo_misses
        ),
        "engine.self_ms": tracer.self_s("GeneticAlgorithm.run") * ms,
        "backends.fanout_wait_ms": (
            tracer.incl_s("ProcessPoolBackend.map_subproblems") * ms
        ),
        "backends.population_batches": calls("ProcessPoolBackend.evaluate"),
        "level2.solves": calls("optimize_set"),
        "level2.solve_ms": tracer.incl_s("optimize_set") * ms,
        "level2.self_ms": tracer.layer_self_s("level2") * ms,
        "level2.decode_ms": tracer.incl_s("Level2Fitness.prepare_population") * ms,
        "level2.greedy_ms": tracer.incl_s("greedy_strategies") * ms,
        "evaluator.set_calls": calls("MappingEvaluator.evaluate_set"),
        "evaluator.set_ms": tracer.incl_s("MappingEvaluator.evaluate_set") * ms,
        "evaluator.self_ms": tracer.layer_self_s("evaluator") * ms,
        "evaluator.mapping_calls": calls("MappingEvaluator.evaluate_mapping"),
        "costmodel.calls": tracer.layer_calls("costmodel"),
        "costmodel.ms": tracer.layer_self_s("costmodel") * ms,
        "topology.ms": tracer.layer_self_s("topology") * ms,
    }
    for query in (
        "direct_bandwidth",
        "effective_bandwidth",
        "path_latency",
        "min_bandwidth_within",
        "max_latency_within",
    ):
        layers[f"topology.{query}_calls"] = calls(f"SystemTopology.{query}")
    gets = span_durations(tracer, "MappingStore.get")
    puts = span_durations(tracer, "MappingStore.put")
    layers["store.get_ms"] = statistics.median(gets) * ms if gets else 0.0
    layers["store.put_ms"] = statistics.median(puts) * ms if puts else 0.0
    for key, value in memo_info().items():
        layers[key] = value - memo_before[key]
    return layers


# ----------------------------------------------------------------------
# search_cold / search_pooled
# ----------------------------------------------------------------------


def setup_search():
    from repro.dnn import build_model
    from repro.system import f1_16xlarge

    topology = f1_16xlarge()
    graphs = {model: build_model(model) for model in SEARCH_MODELS}
    return topology, graphs


def run_search(args, workers: int, checks: Checks, out: dict) -> None:
    from repro.core.session import MarsSession, SessionStats

    topology, graphs = setup_search()
    requests = search_requests(args.seed, args.seconds)
    out["record"]["requests"] = requests
    mark_ready(out)
    if args.setup_only:
        return
    tracer = counters = None
    if args.trace:
        tracer, counters = start_tracer()
    memo_before = memo_info()
    cpu_before = cpu_seconds()
    latencies, results, failed, probes = [], [], 0, []
    merged = SessionStats.zero()
    stores = set()
    soft_cap = 4.0 * args.seconds
    phase_start = time.perf_counter()
    if tracer is not None:
        tracer.enabled = True
    for op, (model, ga_seed) in enumerate(requests):
        if time.perf_counter() - phase_start > soft_cap:
            failed += len(requests) - op
            break
        if tracer is not None:
            tracer.op = op
        probes.append(host_probe())
        start = time.perf_counter()
        try:
            session = MarsSession(graphs[model], topology, workers=workers)
            try:
                result = session.search(seed=ga_seed)
                stats = session.stats
                stores.add(session.store is not None)
            finally:
                session.close()
        except Exception as exc:  # an operation failure, counted below
            print(f"search {op} ({model}, {ga_seed}) failed: {exc!r}",
                  file=sys.stderr)
            failed += 1
            continue
        latencies.append(time.perf_counter() - start)
        results.append((op, model, ga_seed, result))
        merged = merged.merge(stats)
    if tracer is not None:
        tracer.enabled = False
    cpu_s = cpu_seconds() - cpu_before
    rss_mb = peak_rss_mb()

    # Isolation: what each search workload claims to exercise.
    if workers == 1:
        checks.require(merged.pool_spawns == 0, "search_cold spawned a pool")
    else:
        checks.require(
            merged.subproblems_fanned_out > 0,
            "search_pooled fanned no sub-problem out",
        )
    checks.require(stores == {False}, "a search touched a store")
    for op, model, ga_seed, result in results:
        label = f"search {op} ({model}, seed {ga_seed})"
        if ga_seed == 0:
            checks.golden(model, 0, result)
        checks.coverage(label, result)
        checks.reprice(label, result)

    tail_s, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
    p50_s = statistics.median(latencies) if latencies else 0.0
    ops = len(requests)
    out.update(
        attempted=ops,
        failed=failed,
        fingerprints=[fingerprint(r) for *_, r in results],
    )
    busy_s = sum(latencies)
    out["end_to_end"] = {
        "searches_per_s": len(results) / busy_s * slowdown(probes),
        "mapping_latency_ms": geomean([r.latency_ms for *_, r in results]),
        "peak_rss_mb": rss_mb,
    }
    out["headline_s"] = busy_s
    out["untraced_layers"] = {
        "proc.search_p50_s": p50_s,
        "proc.search_tail_s": tail_s,
        "proc.cpu_s_per_op": cpu_s / ops,
        "proc.first_op_s": latencies[0] if latencies else 0.0,
        "proc.error_rate": failed / ops,
        "proc.raw_searches_per_s": len(results) / busy_s,
        "proc.host_slowdown": slowdown(probes),
    }
    out["record"].update(
        latencies_s=latencies,
        samples=len(latencies),
        search_tail_pct=tail_pct,
        host_probe_ms=[p * 1e3 for p in probes],
    )
    if tracer is not None:
        out["layers"] = {
            **session_layers(merged),
            **traced_layers(
                tracer, counters, memo_before, merged.subproblems_fanned_out
            ),
        }
        tracer.write(args.spans)


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------


def serve_config(store_path: str):
    from repro.core.config import SearchConfig
    from repro.core.store import StoreSpec

    return SearchConfig.from_kwargs(store=StoreSpec(path=store_path))


def first_requests(frontend, graphs) -> dict:
    """Each tenant's seed-0 request: part of set-up (cold GAs). The
    results are checked after the timed phase."""
    futures = {name: frontend.submit(graph, seed=0) for name, graph in graphs.items()}
    return {name: future.result() for name, future in futures.items()}


def run_serve(args, checks: Checks, out: dict) -> None:
    store_root = tempfile.mkdtemp(prefix="store-", dir=args.workdir)
    try:
        _run_serve(args, checks, out, store_root)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)


def _run_serve(args, checks: Checks, out: dict, store_root: str) -> None:
    from repro.core.frontend import AdmissionRejected, SloServing
    from repro.core.serving import MultiModelSession
    from repro.dnn import build_model
    from repro.system import f1_16xlarge

    topology = f1_16xlarge()
    graphs = {name: build_model(name) for name, _ in SERVE_TENANTS}
    schedule = serve_schedule(args.seed, args.seconds)
    out["record"]["schedule"] = schedule
    frontend = None
    try:
        frontend = SloServing(
            topology,
            shards=SERVE_SHARDS,
            config=serve_config(os.path.join(store_root, "served")),
        )
        firsts = first_requests(frontend, graphs)
        mark_ready(out)
        if args.setup_only:
            return
        tracer = counters = None
        if args.trace:
            tracer, counters = start_tracer()
            ready = shard_lifetime(frontend.stats(worker_stats=True), checks)
        cpu_before = cpu_seconds()
        done_at: dict[int, float] = {}
        futures, lags, queued_peak, shed = {}, [], 0, 0
        phase_start = time.perf_counter()
        if tracer is not None:
            tracer.enabled = True
        for request in schedule:
            due = phase_start + request["due"]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lags.append(time.perf_counter() - due)
            op = request["op"]
            if tracer is not None:
                tracer.op = op
            try:
                future = frontend.submit(
                    graphs[request["tenant"]], seed=request["seed"]
                )
            except AdmissionRejected:
                shed += 1
                continue
            future.add_done_callback(
                lambda _, op=op: done_at.setdefault(op, time.perf_counter())
            )
            futures[op] = future
            if tracer is not None:
                queued_peak = max(queued_peak, frontend.stats().queued)
        if tracer is not None:
            tracer.enabled = False
        _, pending = wait(futures.values(), timeout=SERVE_DRAIN_S)
        final = frontend.stats(worker_stats=True)
    finally:
        if frontend is not None:
            frontend.close()  # drains every queued request first
    cpu_s = cpu_seconds() - cpu_before
    rss_mb = peak_rss_mb()  # before the checks and the replay allocate
    for name, result in firsts.items():
        checks.golden(name, 0, result)
        checks.coverage(f"{name} seed 0", result)
        checks.reprice(f"{name} seed 0", result)
    served, failed = {}, shed + len(pending)
    for op, future in futures.items():
        if future in pending:
            continue
        exc = future.exception()
        if exc is not None:
            print(f"request {op} failed: {exc!r}", file=sys.stderr)
            failed += 1
        else:
            served[op] = future.result()

    latency_ms = {
        op: (done_at[op] - phase_start - schedule[op]["due"]) * 1e3
        for op in served
    }
    all_ms = list(latency_ms.values())
    news = [r["op"] for r in schedule if r["new"]]

    # Isolation: repeats are store reads, new pairs are store writes,
    # each tenant's graph ships once, and no worker was replaced.
    lifetime = shard_lifetime(final, checks)
    checks.require(final.fallback is None, "the inline fallback engaged")
    checks.require(
        lifetime.store_publishes == len(graphs) + len(news),
        f"store publishes {lifetime.store_publishes} != distinct pairs "
        f"{len(graphs) + len(news)}",
    )
    checks.require(
        lifetime.store_hits == len(schedule) - len(news),
        f"store hits {lifetime.store_hits} != repeats "
        f"{len(schedule) - len(news)}",
    )
    checks.require(
        sum(final.graph_ships) == len(graphs),
        f"graph ships {final.graph_ships} != {len(graphs)} tenants",
    )
    checks.require(
        final.respawns == 0 and sum(final.hangs) == 0,
        "a shard worker was respawned or hung",
    )
    seen = {}
    for op, result in served.items():
        request = schedule[op]
        pair = (request["tenant"], request["seed"])
        got = fingerprint(result)
        if pair in seen:
            checks.require(got == seen[pair], f"request {op}: repeat differs")
            continue
        seen[pair] = got
        checks.coverage(f"request {op} {pair}", result)
        checks.reprice(f"request {op} {pair}", result)

    # Replay the same requests in-process through what each shard hosts,
    # with a fresh store: it checks every served result, times the fresh
    # GAs without the queueing in front of them, and, traced, splits
    # service time across the layers the shard processes hide.
    replay = MultiModelSession.from_config(
        topology, serve_config(os.path.join(store_root, "replayed")))
    service_ms, probes = {}, []
    try:
        for graph in graphs.values():
            replay.search(graph, seed=0)
        memo_before = memo_info()
        if tracer is not None:
            tracer.enabled = True
        for request in schedule:
            op = request["op"]
            if tracer is not None:
                tracer.op = op
            if request["new"]:
                probes.append(host_probe())
            start = time.perf_counter()
            result = replay.search(graphs[request["tenant"]], seed=request["seed"])
            service_ms[op] = (time.perf_counter() - start) * 1e3
            if op in served:
                checks.require(
                    fingerprint(result) == fingerprint(served[op]),
                    f"request {op}: served result differs from the replay",
                )
        if tracer is not None:
            tracer.enabled = False
    finally:
        replay.close()

    ga_s = [service_ms[op] / 1e3 for op in news]
    search_tail_s, search_tail_pct = tail(ga_s)
    new_ms = [latency_ms[op] for op in news if op in served]
    tail_ms, tail_pct = tail(all_ms) if all_ms else (0.0, 0.0)
    out.update(
        attempted=len(schedule),
        failed=failed,
        fingerprints=[fingerprint(served[op]) for op in sorted(served)],
    )
    out["end_to_end"] = {
        "searches_per_s": len(ga_s) / sum(ga_s) * slowdown(probes),
        "mapping_latency_ms": geomean([served[op].latency_ms for op in served]),
        "peak_rss_mb": rss_mb,
    }
    out["headline_s"] = sum(service_ms.values()) / 1e3
    out["untraced_layers"] = {
        "proc.search_p50_s": statistics.median(ga_s),
        "proc.search_tail_s": search_tail_s,
        "frontend.p50_ms": statistics.median(all_ms) if all_ms else 0.0,
        "frontend.new_p50_ms": statistics.median(new_ms) if new_ms else 0.0,
        "frontend.tail_ms": tail_ms,
        "frontend.gen_lag_ms": tail([lag * 1e3 for lag in lags])[0],
        "frontend.slo_miss_rate": (
            sum(1 for v in all_ms if v > SERVE_TAIL_LIMIT_MS) + failed
        ) / len(schedule),
        "serving.overhead_ms": statistics.median(
            latency_ms[op] - service_ms[op] for op in served
        ) if served else 0.0,
        "proc.cpu_s_per_op": cpu_s / len(schedule),
        "proc.first_op_s": latency_ms.get(0, 0.0) / 1e3,
        "proc.error_rate": failed / len(schedule),
        "proc.raw_searches_per_s": len(ga_s) / sum(ga_s),
        "proc.host_slowdown": slowdown(probes),
    }
    out["record"].update(
        latencies_ms=[latency_ms.get(r["op"]) for r in schedule],
        replay_service_ms=[service_ms[r["op"]] for r in schedule],
        samples=len(all_ms),
        search_tail_pct=search_tail_pct,
        serve_tail_pct=tail_pct,
        serve_tail_limit_ms=SERVE_TAIL_LIMIT_MS,
        serve_tail_within_limit=tail_ms <= SERVE_TAIL_LIMIT_MS,
        generator_lag_ms=[lag * 1e3 for lag in lags],
        host_probe_ms=[p * 1e3 for p in probes],
    )
    if tracer is None:
        return
    timed = session_since(lifetime, ready)
    layers = session_layers(timed)
    layers.update({
        "frontend.submit_us": statistics.median(
            span_durations(tracer, "SloServing.submit")) * 1e6,
        "frontend.queued_peak": queued_peak,
        "frontend.shed": final.shed,
        "frontend.expired": final.expired,
        "serving.graph_ships": sum(final.graph_ships),
        "serving.fp_sends": sum(final.fp_sends),
        "serving.tenant_misses": sum(
            shard.misses for shard in final.per_shard if shard is not None),
        "serving.respawns": final.respawns,
        "serving.hangs": sum(final.hangs),
        "serving.reply_kb": statistics.median(
            len(pickle.dumps(result)) / 1024 for result in served.values()),
    })
    layers.update(traced_layers(
        tracer, counters, memo_before, timed.subproblems_fanned_out
    ))
    out["layers"] = layers
    tracer.write(args.spans)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

WORKLOADS = ("search_cold", "search_pooled", "serve_mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    args.workdir = os.path.dirname(os.path.abspath(args.out))
    args.spans = os.path.splitext(args.out)[0] + "-spans.jsonl"
    die_with_parent()
    exit_on_signals()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    checks = Checks()
    out: dict = {"record": {"metadata": metadata(), "workload": args.workload,
                            "seed": args.seed, "seconds": args.seconds}}
    if args.workload == "serve_mixed":
        run_serve(args, checks, out)
    else:
        run_search(args, 1 if args.workload == "search_cold" else 2, checks, out)
    if not args.setup_only:
        out["untraced_layers"]["proc.child_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        )
    out["checks"] = {"failures": checks.failures, **checks.counts}
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())

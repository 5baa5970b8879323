"""Load-generator bench of the SLO-aware serving frontend.

Open-loop traffic (Poisson arrivals from a seeded generator — the
arrival process never waits for completions, so overload actually
builds a backlog) against a live ``SloServing`` frontend, under three
mixes:

* ``uniform`` — four tenants drawn uniformly, no deadlines, arrival
  rate below capacity: the happy path. Latency is warm service time,
  shed rate ~0, and the interned-graph handshake keeps the wire free
  of repeat graph pickles (asserted).
* ``skewed`` — one hot tenant takes 80% of an over-capacity arrival
  stream against a deliberately shallow tenant queue: admission
  control's regime. The hot tenant sheds (``shed_rate > 0``,
  asserted) instead of growing an unbounded backlog.
* ``deadline_tight`` — one tenant at ~1.5x capacity where 30% of
  requests are "premium" (tight deadline) and the rest background
  (no deadline), run twice: once under EDF, once under FIFO, with the
  *same* arrival schedule. EDF dispatchers pull premium requests past
  the backlog, so premium p99 stays near service time; FIFO makes
  premium wait behind the backlog until (mostly) their deadlines
  lapse. The EDF-beats-FIFO premium-p99 gate is the scheduling
  contract, applied on multi-core hosts (``meta.cpus`` >= 2 — on one
  core the bench process and the shard workers fight for the same
  core and the timing signal drowns); premium latency counts expired
  requests at their resolve time, so expiry cannot flatter either
  side.

A separate leg, ``bench_serving_stalled_shard``, replays one arrival
schedule twice — once clean, once with a planned mid-run worker hang
(:class:`repro.core.FaultPlan`) — and gates that the liveness layer
bounds the damage: every future still resolves, the hang is detected
and counted, and the stalled run's p99 exceeds the clean run's by at
most the recovery ceiling (stall budget + escalation graces + respawn
slack, env-tunable).

Every mix reports p50/p99 latency, throughput and shed rate, and the
lifecycle counters must reconcile exactly after the drain
(``submitted == completed + shed + expired``, asserted). Headline
numbers land in the repo-root ``BENCH_serving.json`` trajectory.
Request volume scales with ``REPRO_SERVING_REQUESTS`` (default 120
per mix — the CI smoke size).
"""

import math
import os
import random
import time

from repro.core import (
    AdmissionRejected,
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    LivenessPolicy,
    Mars,
    SearchConfig,
    SloServing,
    TrafficPolicy,
)
from repro.dnn import build_model
from repro.system import f1_16xlarge

from _report import bench_shards as _shard_count
from _report import (
    SERVING_TRAJECTORY_PATH,
    emit,
    emit_json,
    emit_trajectory,
    quick_budget,
    run_metadata,
)

TENANTS = ("tiny_cnn", "tiny_resnet", "squeezenet", "mobilenet_v1")
SEEDS = (0, 1, 2)


def _request_count() -> int:
    return max(20, int(os.environ.get("REPRO_SERVING_REQUESTS", "120")))


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation, robust to small n)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def _poisson_schedule(rng, count, rate, make_request):
    """Open-loop arrival times: exponential gaps at ``rate`` per second."""
    schedule, t = [], 0.0
    for index in range(count):
        t += rng.expovariate(rate)
        schedule.append((t, *make_request(index, rng)))
    return schedule


def _drive(frontend, graphs, schedule):
    """Replay one arrival schedule; return per-request records + stats.

    Arrivals are open-loop: the driver sleeps to each arrival offset
    and submits regardless of how far behind the frontend is. Resolve
    times come from future callbacks, so they are accurate even while
    the driver sleeps between arrivals.
    """
    records = []
    start = time.perf_counter()
    for offset, name, seed, deadline, klass in schedule:
        delay = start + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = {
            "klass": klass,
            "submit": time.perf_counter(),
            "done": None,
            "expired": False,
            "shed": False,
        }
        records.append(record)
        try:
            future = frontend.submit(
                graphs[name], seed=seed, deadline=deadline
            )
        except AdmissionRejected:
            record["shed"] = True
            continue

        def on_done(f, record=record):
            record["done"] = time.perf_counter()
            record["expired"] = isinstance(f.exception(), DeadlineExceeded)

        future.add_done_callback(on_done)
        record["future"] = future
    for record in records:
        future = record.get("future")
        if future is not None:
            try:
                future.result(timeout=600)
            except DeadlineExceeded:
                pass
    duration = time.perf_counter() - start
    stats = frontend.stats()
    assert stats.queued == 0 and stats.running == 0
    assert (
        stats.submitted == stats.completed + stats.shed + stats.expired
    ), stats
    return records, duration, stats


def _latencies_ms(records, klass=None, include_expired=False):
    out = []
    for record in records:
        if record["shed"] or record["done"] is None:
            continue
        if klass is not None and record["klass"] != klass:
            continue
        if record["expired"] and not include_expired:
            continue
        out.append((record["done"] - record["submit"]) * 1e3)
    return out


def _mix_metrics(records, duration, stats):
    latencies = _latencies_ms(records)
    return {
        "requests": stats.submitted,
        "completed": stats.completed,
        "shed": stats.shed,
        "expired": stats.expired,
        "shed_rate": stats.shed_rate,
        "throughput_rps": stats.completed / duration if duration else 0.0,
        "p50_ms": _percentile(latencies, 50),
        "p99_ms": _percentile(latencies, 99),
        "duration_seconds": duration,
    }


def bench_serving_traffic_mixes(benchmark):
    """Three traffic mixes through ``SloServing``; EDF-vs-FIFO gate."""
    shards = _shard_count()
    topology = f1_16xlarge()
    budget = quick_budget()
    count = _request_count()
    graphs = {name: build_model(name) for name in TENANTS}
    hot = TENANTS[0]

    def make_frontend(scheduling="edf", queue_depth=1024):
        return SloServing(
            topology,
            shards=shards,
            config=SearchConfig(budget=budget, capacity=len(TENANTS)),
            policy=TrafficPolicy(
                scheduling=scheduling,
                queue_depth=queue_depth,
                max_inflight=4096,
            ),
        )

    def warm(frontend):
        # Level every tenant's caches before the timed run (and pay
        # the shard workers' interpreter start once), then measure the
        # warm service time the arrival rates are calibrated against.
        for name in TENANTS:
            for seed in SEEDS:
                frontend.search(graphs[name], seed=seed)
        start = time.perf_counter()
        probes = 20
        for index in range(probes):
            frontend.search(graphs[hot], seed=SEEDS[index % len(SEEDS)])
        return max((time.perf_counter() - start) / probes, 1e-3)

    mixes: dict = {}

    cpus = run_metadata()["cpus"]
    # Rates are calibrated against the measured warm service time. The
    # driver thread itself costs a core, so the effective parallelism
    # is bounded by both the shard count and the cores left over.
    effective_shards = min(shards, max(1, cpus - 1))

    # --- uniform: below capacity, no deadlines --------------------------
    with make_frontend() as frontend:
        service_s = warm(frontend)
        ships_before = sum(frontend.stats().graph_ships)
        rate = 0.6 * effective_shards / service_s

        def uniform_request(index, rng):
            name = TENANTS[index % len(TENANTS)]
            return (name, rng.choice(SEEDS), None, "any")

        schedule = _poisson_schedule(
            random.Random(1), count, rate, uniform_request
        )
        records, duration, stats = _drive(frontend, graphs, schedule)
        mixes["uniform"] = _mix_metrics(records, duration, stats)
        mixes["uniform"]["arrival_rate_rps"] = rate
        # Interned-graph handshake under load: the timed run shipped no
        # new full graphs — every request went out as a fingerprint.
        assert stats.respawns == 0
        assert sum(stats.graph_ships) == ships_before
        assert mixes["uniform"]["shed_rate"] == 0.0

    # --- skewed: hot tenant over capacity, shallow tenant queue ---------
    # The hot tenant's backlog peaks around count * 0.8 * (1 - 1/1.5)
    # ~= count / 4.7 requests; the queue bound scales with the request
    # count so the run sits well inside the shedding regime (~2x
    # headroom) at the CI smoke size (REPRO_SERVING_REQUESTS=60) as
    # much as at the full default run — a fixed depth of 16 was exactly
    # at the smoke run's backlog peak, making the shed gate a coin flip.
    with make_frontend(queue_depth=max(4, count // 10)) as frontend:
        service_s = warm(frontend)
        rate = 1.5 / service_s  # the hot tenant's one shard saturates

        def skewed_request(index, rng):
            name = hot if rng.random() < 0.8 else TENANTS[1]
            return (name, rng.choice(SEEDS), None, "any")

        schedule = _poisson_schedule(
            random.Random(2), count, rate, skewed_request
        )
        records, duration, stats = _drive(frontend, graphs, schedule)
        mixes["skewed"] = _mix_metrics(records, duration, stats)
        mixes["skewed"]["arrival_rate_rps"] = rate
        # Admission control engaged: the hot tenant shed instead of
        # queueing without bound.
        assert mixes["skewed"]["shed"] > 0

    # --- deadline-tight: EDF vs FIFO on one overloaded tenant -----------
    # 30% premium requests carry a deadline of 24 warm service times;
    # background requests carry none. Same seeded schedule for both
    # disciplines, so the comparison is scheduling-only. The deadline
    # multiple is chosen against both failure modes: far above what an
    # EDF queue-jump needs even when contention inflates service times
    # (premiums wait only behind each other, ~0.45x capacity), yet far
    # below the FIFO backlog a 1.5x-overloaded run builds (~half the
    # run's requests deep by the end) — so under FIFO the premium tail
    # pins at the deadline cap while under EDF it stays near service
    # time.
    service_probe = None
    edf_fifo: dict = {}
    for scheduling in ("edf", "fifo"):
        with make_frontend(scheduling=scheduling) as frontend:
            service_s = warm(frontend)
            if service_probe is None:
                service_probe = service_s
            rate = 1.5 / service_probe
            premium_deadline = 24.0 * service_probe

            def tight_request(index, rng):
                if rng.random() < 0.3:
                    return (hot, rng.choice(SEEDS), premium_deadline, "premium")
                return (hot, rng.choice(SEEDS), None, "background")

            schedule = _poisson_schedule(
                random.Random(3), count, rate, tight_request
            )
            records, duration, stats = _drive(frontend, graphs, schedule)
            metrics = _mix_metrics(records, duration, stats)
            metrics["arrival_rate_rps"] = rate
            metrics["premium_deadline_ms"] = premium_deadline * 1e3
            # Premium p99 over ALL admitted premium requests — expired
            # ones count at their resolve time, so letting a request
            # die cannot flatter the percentile.
            premium = _latencies_ms(
                records, klass="premium", include_expired=True
            )
            metrics["premium_requests"] = len(premium)
            metrics["premium_p50_ms"] = _percentile(premium, 50)
            metrics["premium_p99_ms"] = _percentile(premium, 99)
            metrics["premium_expired"] = sum(
                1
                for r in records
                if r["klass"] == "premium" and r["expired"]
            )
            metrics["premium_miss_rate"] = (
                metrics["premium_expired"] / len(premium) if premium else 0.0
            )
            edf_fifo[scheduling] = metrics
    mixes["deadline_tight"] = edf_fifo["edf"]
    mixes["deadline_tight_fifo"] = edf_fifo["fifo"]

    # Spot-check identity under load: routed results are fresh-Mars
    # bit-identical (the exhaustive property lives in the test suite).
    with make_frontend() as frontend:
        routed = frontend.search(graphs[hot], seed=0)
        reference = Mars(
            graphs[hot], topology, budget=budget
        ).search(seed=0)
        assert routed.latency_ms == reference.latency_ms
        assert routed.ga.history == reference.ga.history
        benchmark.pedantic(
            lambda: frontend.search(graphs[hot], seed=0),
            rounds=1,
            iterations=1,
        )

    edf_p99 = edf_fifo["edf"]["premium_p99_ms"]
    fifo_p99 = edf_fifo["fifo"]["premium_p99_ms"]
    gain = fifo_p99 / edf_p99 if edf_p99 else float("inf")
    lines = [
        "SLO serving frontend: open-loop Poisson mixes "
        f"({count} requests/mix, {shards} shards, {cpus} cpus)",
    ]
    for name, metric in mixes.items():
        lines.append(
            f"{name:20s}: p50 {metric['p50_ms']:8.1f} ms  "
            f"p99 {metric['p99_ms']:8.1f} ms  "
            f"{metric['throughput_rps']:7.1f} rps  "
            f"shed {metric['shed_rate'] * 100:5.1f} %"
        )
    lines.append(
        f"premium p99 (EDF)   : {edf_p99:8.1f} ms vs FIFO "
        f"{fifo_p99:8.1f} ms ({gain:.2f}x)"
    )
    emit("serving_load", "\n".join(lines) + "\n")
    payload = {
        "shards": shards,
        "requests_per_mix": count,
        "mixes": mixes,
        "edf_premium_p99_ms": edf_p99,
        "fifo_premium_p99_ms": fifo_p99,
        "edf_p99_gain": gain,
    }
    emit_json("serving", payload)
    emit_trajectory("serving_load", payload, path=SERVING_TRAJECTORY_PATH)

    benchmark.extra_info["edf_premium_p99_ms"] = round(edf_p99, 1)
    benchmark.extra_info["fifo_premium_p99_ms"] = round(fifo_p99, 1)
    benchmark.extra_info["edf_p99_gain"] = round(gain, 2)
    # The scheduling contract: under contention, EDF's premium p99
    # beats FIFO's. Gated on multi-core hosts — on one core the driver
    # and shard workers timeshare one CPU and the signal is noise.
    min_gain = float(os.environ.get("REPRO_EDF_MIN_P99_GAIN", "1.0"))
    if cpus >= 2:
        assert gain >= min_gain, (
            f"EDF premium p99 gain {gain:.2f}x < {min_gain:.2f}x "
            f"(EDF {edf_p99:.1f} ms, FIFO {fifo_p99:.1f} ms, {cpus} cpus)"
        )


def bench_serving_stalled_shard(benchmark):
    """One arrival schedule, clean vs. mid-run hung shard: bounded p99.

    The hang is a planned fault (exact request coordinate, not a
    race): the worker serving the single tenant wedges a third of the
    way into the timed run, the watchdog classifies it hung within the
    (real, sub-second) stall budget, kill-escalates it, and the cold
    replacement re-serves the in-flight request plus the backlog that
    piled up behind it. The gate is the liveness contract in latency
    terms: the stalled run completes every request and its p99 sits
    within a fixed recovery ceiling of the clean run's.
    """
    shards = _shard_count()
    topology = f1_16xlarge()
    budget = quick_budget()
    count = max(12, _request_count() // 2)
    name = TENANTS[0]
    graphs = {name: build_model(name)}

    stall_budget = float(os.environ.get("REPRO_STALL_BUDGET", "1.0"))
    term_grace = float(os.environ.get("REPRO_STALL_TERM_GRACE", "0.5"))
    # Covers the respawn: backoff, interpreter boot, registry rebuild,
    # and re-serving the request the hang ate (cold caches).
    slack_s = float(os.environ.get("REPRO_STALL_SLACK", "15.0"))
    liveness = LivenessPolicy(
        stall_budget=stall_budget,
        poll_interval=0.02,
        term_grace=term_grace,
        beacon_interval=0.05,
        spawn_grace=120.0,
    )
    # Requests served by the doomed worker before the timed schedule:
    # the warm loop plus the service-time probes, all single-tenant so
    # they land on the same shard the schedule does.
    warm_requests = len(SEEDS) + 5
    fault_at = warm_requests + max(2, count // 3)
    plan = FaultPlan(
        faults=(FaultSpec(kind="hang", at_request=fault_at, shard=None),)
    )

    results: dict = {}
    schedule = None
    for leg, faults in (("clean", None), ("stalled", plan)):
        config = SearchConfig.from_kwargs(budget=budget, faults=faults)
        with SloServing(
            topology,
            shards=shards,
            config=config,
            liveness=liveness,
            policy=TrafficPolicy(queue_depth=4096, max_inflight=4096),
        ) as frontend:
            for seed in SEEDS:
                frontend.search(graphs[name], seed=seed)
            start = time.perf_counter()
            for index in range(5):
                frontend.search(
                    graphs[name], seed=SEEDS[index % len(SEEDS)]
                )
            service_s = max((time.perf_counter() - start) / 5, 1e-3)
            if schedule is None:
                # Calibrated once, replayed verbatim for both legs so
                # the comparison is fault-vs-no-fault only.
                rate = 0.7 / service_s

                def stalled_request(index, rng):
                    return (name, rng.choice(SEEDS), None, "any")

                schedule = _poisson_schedule(
                    random.Random(7), count, rate, stalled_request
                )
            if leg == "clean":
                benchmark.pedantic(
                    lambda: frontend.search(graphs[name], seed=0),
                    rounds=1,
                    iterations=1,
                )
            records, duration, stats = _drive(frontend, graphs, schedule)
            metrics = _mix_metrics(records, duration, stats)
            metrics["hangs"] = sum(stats.hangs)
            metrics["kill_escalations"] = sum(stats.kill_escalations)
            metrics["respawns"] = stats.respawns
            metrics["beacons"] = sum(stats.beacons)
            metrics["unacked_shutdowns"] = sum(stats.unacked_shutdowns)
            results[leg] = metrics

    clean, stalled = results["clean"], results["stalled"]
    # The fault fired exactly once, was detected, and cost one respawn;
    # nothing was shed or expired and every schedule request completed.
    assert clean["hangs"] == 0 and clean["respawns"] == 0
    assert stalled["hangs"] == 1, stalled
    assert stalled["respawns"] >= 1, stalled
    assert stalled["shed"] == 0 and stalled["expired"] == 0, stalled
    # Every admitted request completed in both legs — the hang cost
    # latency, never a result.
    assert clean["completed"] == clean["requests"], clean
    assert stalled["completed"] == stalled["requests"], stalled
    ceiling_ms = (stall_budget + 2.0 * term_grace + slack_s) * 1e3
    assert stalled["p99_ms"] <= clean["p99_ms"] + ceiling_ms, (
        f"stalled p99 {stalled['p99_ms']:.1f} ms exceeds clean "
        f"{clean['p99_ms']:.1f} ms by more than the recovery ceiling "
        f"{ceiling_ms:.0f} ms"
    )

    lines = [
        "Stalled-shard recovery: one planned mid-run hang "
        f"({count} requests, {shards} shards, "
        f"stall budget {stall_budget:.1f}s)",
    ]
    for leg in ("clean", "stalled"):
        metric = results[leg]
        lines.append(
            f"{leg:8s}: p50 {metric['p50_ms']:8.1f} ms  "
            f"p99 {metric['p99_ms']:8.1f} ms  "
            f"hangs {metric['hangs']}  respawns {metric['respawns']}"
        )
    emit("serving_stall", "\n".join(lines) + "\n")
    payload = {
        "shards": shards,
        "requests": count,
        "stall_budget_s": stall_budget,
        "term_grace_s": term_grace,
        "recovery_ceiling_ms": ceiling_ms,
        "clean": clean,
        "stalled": stalled,
    }
    emit_json("serving_stall", payload)
    emit_trajectory("serving_stall", payload, path=SERVING_TRAJECTORY_PATH)
    benchmark.extra_info["clean_p99_ms"] = round(clean["p99_ms"], 1)
    benchmark.extra_info["stalled_p99_ms"] = round(stalled["p99_ms"], 1)
    benchmark.extra_info["hang_recovery_ceiling_ms"] = round(ceiling_ms)

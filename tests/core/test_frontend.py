"""SloServing: admission, scheduling determinism, stats, identity.

The traffic layer's contract: requests beyond the per-tenant or global
bounds are shed with typed errors at submit time; the EDF dispatch
order is a pure function of ``(deadline, arrival seq)`` (same trace →
same order, every run); FIFO mode preserves per-shard arrival order;
the stats snapshot reports the fixed shard count; and every request
the frontend *does* dispatch is bit-identical to a fresh ``Mars`` run —
including under the concurrency stress mix, where the lifecycle
counters must reconcile exactly
(``submitted == completed + shed + expired``).
"""

import asyncio
import math
import random
import threading

import pytest

from repro.core import (
    DeadlineExceeded,
    Mars,
    ServerSaturated,
    SloServing,
    SloServingStats,
    TenantQueueFull,
    TrafficPolicy,
)
from repro.core.frontend import dispatch_key
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")
RESNET = build_model("tiny_resnet")

#: Fresh single-process results, computed once per module — every
#: frontend test compares against these.
_FRESH: dict = {}


def fresh(graph, seed, objective="latency"):
    key = (graph.fingerprint(), seed, objective)
    if key not in _FRESH:
        _FRESH[key] = Mars(graph, TOPOLOGY, objective=objective).search(
            seed=seed
        )
    return _FRESH[key]


def _same_result(routed, reference):
    assert routed.latency_ms == reference.latency_ms
    assert routed.describe() == reference.describe()
    assert routed.ga.history == reference.ga.history


class FakeClock:
    """A hand-advanced monotonic clock — deadlines become data."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def completion_order(frontend, trace):
    """Submit ``trace`` while suspended; return names in completion order.

    ``trace`` is ``[(name, graph, seed, deadline), ...]``. On a single
    shard, completion order equals dispatch order (one request runs at
    a time), which is what the scheduling tests observe.
    """
    order: list[str] = []
    frontend.suspend()
    futures = []
    for name, graph, seed, deadline in trace:
        future = frontend.submit(graph, seed=seed, deadline=deadline)
        future.add_done_callback(lambda _f, n=name: order.append(n))
        futures.append(future)
    frontend.resume()
    for future in futures:
        future.result(timeout=240)
    return order


class TestAdmission:
    def test_tenant_queue_bound_sheds_typed(self):
        policy = TrafficPolicy(queue_depth=2, max_inflight=100)
        with SloServing(TOPOLOGY, shards=1, policy=policy) as frontend:
            frontend.suspend()
            held = [frontend.submit(CNN, seed=s) for s in (0, 1)]
            with pytest.raises(TenantQueueFull):
                frontend.submit(CNN, seed=2)
            frontend.resume()
            for future in held:
                future.result(timeout=240)
            stats = frontend.stats()
        assert stats.shed == 1
        assert stats.completed == 2
        assert stats.submitted == 3

    def test_global_inflight_budget_sheds_typed(self):
        policy = TrafficPolicy(queue_depth=100, max_inflight=2)
        with SloServing(TOPOLOGY, shards=1, policy=policy) as frontend:
            frontend.suspend()
            held = [frontend.submit(CNN, seed=s) for s in (0, 1)]
            # A *different* tenant still sheds: the budget is global.
            with pytest.raises(ServerSaturated):
                frontend.submit(RESNET, seed=0)
            frontend.resume()
            for future in held:
                future.result(timeout=240)

    def test_shed_requests_produce_no_future_and_count_once(self):
        policy = TrafficPolicy(queue_depth=1)
        with SloServing(TOPOLOGY, shards=1, policy=policy) as frontend:
            frontend.suspend()
            kept = frontend.submit(CNN, seed=0)
            for _ in range(3):
                with pytest.raises(TenantQueueFull):
                    frontend.submit(CNN, seed=1)
            frontend.resume()
            kept.result(timeout=240)
            stats = frontend.stats()
        assert stats.submitted == 4
        assert stats.shed == 3
        assert stats.completed == 1
        assert stats.submitted == stats.completed + stats.shed + stats.expired

    def test_admission_rejection_is_runtime_error(self):
        # Callers can catch the base class without importing the leaves.
        assert issubclass(TenantQueueFull, RuntimeError)
        assert issubclass(ServerSaturated, RuntimeError)

    def test_nan_deadline_rejected_before_admission(self):
        # A NaN deadline would never expire (``nan <= now`` is false)
        # and would break dispatch_key's total order. Infinite
        # deadlines keep their meaning: -inf is dead on arrival, +inf
        # never elapses.
        with SloServing(TOPOLOGY, shards=1) as frontend:
            with pytest.raises(ValueError, match="NaN"):
                frontend.submit(CNN, seed=0, deadline=math.nan)
            assert frontend.stats().submitted == 0
            with pytest.raises(DeadlineExceeded):
                frontend.submit(CNN, seed=0, deadline=-math.inf).result(
                    timeout=240
                )
            unbounded = frontend.submit(CNN, seed=0, deadline=math.inf)
            _same_result(unbounded.result(timeout=240), fresh(CNN, 0))

    def test_submit_after_close_raises_runtime_error(self):
        frontend = SloServing(TOPOLOGY, shards=1)
        frontend.close()
        with pytest.raises(RuntimeError, match="closed"):
            frontend.submit(CNN)
        frontend.close()  # idempotent


class TestScheduling:
    def test_edf_order_is_pure_function_of_deadline_and_seq(self):
        # Fixed arrival trace; deadlines far enough out that nothing
        # expires. The expected dispatch order is computable *without*
        # running anything: sort by dispatch_key(deadline, seq).
        trace = [
            ("late", CNN, 0, 500.0),
            ("none-a", CNN, 1, None),
            ("tight", CNN, 2, 100.0),
            ("mid", CNN, 3, 300.0),
            ("none-b", CNN, 4, None),
        ]
        expected = [
            name
            for _, (name, *_rest) in sorted(
                (dispatch_key(deadline, seq), (name, deadline))
                for seq, (name, _g, _s, deadline) in enumerate(trace)
            )
        ]
        assert expected == ["tight", "mid", "late", "none-a", "none-b"]
        orders = []
        for _ in range(2):  # repeated runs: same trace, same order
            with SloServing(TOPOLOGY, shards=1) as frontend:
                orders.append(completion_order(frontend, trace))
        assert orders[0] == expected
        assert orders[1] == expected

    def test_fifo_mode_ignores_deadlines_for_ordering(self):
        trace = [
            ("first", CNN, 0, None),
            ("second", CNN, 1, 100.0),  # tight deadline, no queue-jump
            ("third", CNN, 2, None),
        ]
        policy = TrafficPolicy(scheduling="fifo")
        with SloServing(TOPOLOGY, shards=1, policy=policy) as frontend:
            order = completion_order(frontend, trace)
        assert order == ["first", "second", "third"]

    def test_fifo_mode_still_expires_deadlines(self):
        clock = FakeClock()
        policy = TrafficPolicy(scheduling="fifo")
        with SloServing(
            TOPOLOGY, shards=1, policy=policy, clock=clock
        ) as frontend:
            frontend.suspend()
            doomed = frontend.submit(CNN, seed=0, deadline=1.0)
            kept = frontend.submit(CNN, seed=1)
            clock.advance(2.0)
            frontend.resume()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=240)
            kept.result(timeout=240)

    def test_edf_ties_break_by_arrival_order(self):
        trace = [
            ("a", CNN, 0, 200.0),
            ("b", CNN, 1, 200.0),
            ("c", CNN, 2, 200.0),
        ]
        with SloServing(TOPOLOGY, shards=1) as frontend:
            assert completion_order(frontend, trace) == ["a", "b", "c"]

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            TrafficPolicy(scheduling="lifo")


class TestDeterminism:
    def test_routed_results_match_fresh_mars(self):
        with SloServing(TOPOLOGY, shards=2) as frontend:
            futures = {
                (graph.name, seed): frontend.submit(graph, seed=seed)
                for graph in (CNN, RESNET)
                for seed in (0, 1)
            }
            for (name, seed), future in futures.items():
                graph = CNN if name == CNN.name else RESNET
                _same_result(future.result(timeout=240), fresh(graph, seed))

    def test_deadlined_results_identical_to_undeadlined(self):
        # A deadline changes *when* a search runs, never what it finds.
        with SloServing(TOPOLOGY, shards=1) as frontend:
            deadlined = frontend.search(CNN, seed=0, deadline=600.0)
        _same_result(deadlined, fresh(CNN, 0))

    def test_objective_override_routes_and_matches(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            result = frontend.search(CNN, seed=0, objective="throughput")
        _same_result(result, fresh(CNN, 0, objective="throughput"))

    def test_async_path_matches_fresh_mars(self):
        async def drive(frontend):
            results = await asyncio.gather(
                frontend.search_async(CNN, seed=0),
                frontend.search_async(RESNET, seed=0),
            )
            return results

        with SloServing(TOPOLOGY, shards=2) as frontend:
            cnn_result, resnet_result = asyncio.run(drive(frontend))
        _same_result(cnn_result, fresh(CNN, 0))
        _same_result(resnet_result, fresh(RESNET, 0))

    def test_async_admission_rejection_raises_in_coroutine(self):
        policy = TrafficPolicy(queue_depth=1)

        async def drive(frontend):
            frontend.suspend()
            held = asyncio.ensure_future(frontend.search_async(CNN, seed=0))
            await asyncio.sleep(0)  # let the first submit land
            with pytest.raises(TenantQueueFull):
                await frontend.search_async(CNN, seed=1)
            frontend.resume()
            await held

        with SloServing(TOPOLOGY, shards=1, policy=policy) as frontend:
            asyncio.run(drive(frontend))


class TestStats:
    def test_stats_snapshot_fields(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            frontend.search(CNN, seed=0)
            stats = frontend.stats()
            assert isinstance(stats, SloServingStats)
            assert stats.scheduling == "edf"
            assert stats.shards == 1
            assert stats.completed == 1
            assert stats.queued == 0 and stats.running == 0
            assert stats.in_flight == 0
            assert stats.resolved == 1
            assert stats.shed_rate == 0.0
            assert stats.graph_ships == (1,)

    def test_worker_stats_probe(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            frontend.search(CNN, seed=0)
            frontend.search(CNN, seed=1)
            stats = frontend.stats(worker_stats=True)
        assert stats.per_shard[0] is not None
        assert stats.per_shard[0].searches == 2
        assert stats.per_shard[0].hits == 1  # second seed was warm

    def test_stats_readable_after_close(self):
        frontend = SloServing(TOPOLOGY, shards=1)
        frontend.search(CNN, seed=0)
        frontend.close()
        stats = frontend.stats()
        assert stats.completed == 1
        assert stats.submitted == stats.completed + stats.shed + stats.expired


@pytest.mark.slow
class TestConcurrencyStress:
    def test_stress_mix_reconciles_and_matches_fresh(self):
        # 8 threads × 50 submits across 2 shards with random tenant /
        # deadline mixes. Admission bounds are deliberately tight so
        # the run sheds; every future must still resolve, the counters
        # must reconcile exactly, and no graph may ever be pickled to
        # one shard twice.
        threads, per_thread = 8, 50
        seeds = range(4)
        policy = TrafficPolicy(queue_depth=48, max_inflight=160)
        outcomes = {"ok": 0, "shed": 0, "expired": 0}
        outcome_lock = threading.Lock()
        futures = []

        with SloServing(TOPOLOGY, shards=2, policy=policy) as frontend:
            def client(worker_index):
                rng = random.Random(worker_index)
                for _ in range(per_thread):
                    graph = CNN if rng.random() < 0.5 else RESNET
                    seed = rng.choice(seeds)
                    deadline = rng.choice([None, None, 120.0, -1.0])
                    try:
                        future = frontend.submit(
                            graph, seed=seed, deadline=deadline
                        )
                    except (TenantQueueFull, ServerSaturated):
                        with outcome_lock:
                            outcomes["shed"] += 1
                        continue
                    with outcome_lock:
                        futures.append((graph, seed, future))

            workers = [
                threading.Thread(target=client, args=(index,))
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()

            for graph, seed, future in futures:
                try:
                    result = future.result(timeout=600)
                except DeadlineExceeded:
                    outcomes["expired"] += 1
                    continue
                outcomes["ok"] += 1
                _same_result(result, fresh(graph, seed))
            stats = frontend.stats()

        # No lost futures: every submit is accounted for exactly once,
        # client-side and frontend-side, and the two ledgers agree.
        assert sum(outcomes.values()) == threads * per_thread
        assert stats.submitted == threads * per_thread
        assert stats.completed == outcomes["ok"]
        assert stats.shed == outcomes["shed"]
        assert stats.expired == outcomes["expired"]
        assert stats.failed == 0 and stats.cancelled == 0
        assert stats.queued == 0 and stats.running == 0
        assert (
            stats.submitted
            == stats.completed + stats.shed + stats.expired
        )
        # Interned-graph handshake: nothing crashed (respawns == 0), so
        # each of the two tenants shipped its graph at most once to its
        # one home shard — everything else went over the wire as a
        # fingerprint.
        assert stats.respawns == 0
        assert sum(stats.graph_ships) <= 2
        assert sum(stats.fp_sends) >= stats.completed - 2

"""Fault injection: killed shards, dead deadlines, exhausted respawns.

The serving stack's liveness contract: no injected fault may ever hang
a caller. A shard killed under a queued backlog resolves every queued
future (cold respawn + resend, or the inline fallback once the respawn
budget is spent) with results bit-identical to a fresh ``Mars`` run;
a deadline already in the past resolves immediately with
``DeadlineExceeded`` and the search is never dispatched at all. A
future cancelled while queued resolves by cancellation — never by a
dispatcher-killing ``InvalidStateError``, and never leaving ``drain()``
blocked.
"""

import threading
from concurrent.futures import CancelledError

import pytest

from repro.core import DeadlineExceeded, Mars, SloServing
from repro.core.config import SearchConfig
from repro.core.serving import _shard_worker
from repro.core.session import decode_result
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")
RESNET = build_model("tiny_resnet")

_FRESH: dict = {}


def fresh(graph, seed):
    key = (graph.fingerprint(), seed)
    if key not in _FRESH:
        _FRESH[key] = Mars(graph, TOPOLOGY).search(seed=seed)
    return _FRESH[key]


def _same_result(routed, reference):
    assert routed.latency_ms == reference.latency_ms
    assert routed.describe() == reference.describe()
    assert routed.ga.history == reference.ga.history


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestShardKillWithBacklog:
    def test_slo_frontend_resolves_every_queued_future(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            frontend.suspend()  # build a backlog the kill strands
            futures = [frontend.submit(CNN, seed=s) for s in (0, 1, 2)]
            frontend._handles[0].process.kill()
            frontend.resume()
            for seed, future in enumerate(futures):
                _same_result(future.result(timeout=240), fresh(CNN, seed))
            stats = frontend.stats()
        assert stats.respawns == 1
        assert stats.completed == 3
        assert stats.queued == 0 and stats.running == 0
        # The cold replacement knew nothing: the graph re-shipped once.
        assert stats.graph_ships == (2,)

    def test_exhausted_respawn_budget_drains_backlog_inline(
        self, monkeypatch
    ):
        monkeypatch.setattr(SloServing, "SHARD_RESPAWN_LIMIT", 0)
        with SloServing(TOPOLOGY, shards=1) as frontend:
            frontend.suspend()
            futures = [frontend.submit(CNN, seed=s) for s in (0, 1)]
            frontend._handles[0].process.kill()
            frontend.resume()
            for seed, future in enumerate(futures):
                _same_result(future.result(timeout=240), fresh(CNN, seed))
            stats = frontend.stats()
        assert stats.respawns == 0
        assert stats.fallback is not None
        assert stats.fallback.searches == 2
        assert stats.completed == 2

    def test_kill_during_close_still_drains(self):
        frontend = SloServing(TOPOLOGY, shards=1)
        frontend.suspend()
        futures = [frontend.submit(CNN, seed=s) for s in (0, 1)]
        frontend._handles[0].process.kill()
        frontend.close()  # overrides the suspension and drains
        for seed, future in enumerate(futures):
            _same_result(future.result(timeout=0), fresh(CNN, seed))


class TestDeadlineFaults:
    def test_past_deadline_resolves_immediately_without_dispatch(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            future = frontend.submit(CNN, seed=0, deadline=-5.0)
            assert future.done()  # resolved at submit, no queue wait
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=0)
            stats = frontend.stats()
        assert stats.expired == 1
        assert stats.completed == 0
        # Never dispatched: nothing was ever shipped to the worker.
        assert stats.graph_ships == (0,)
        assert stats.fp_sends == (0,)

    def test_zero_deadline_counts_as_past(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            future = frontend.submit(CNN, seed=0, deadline=0.0)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=0)

    def test_queued_request_expires_before_dispatch(self):
        clock = FakeClock()
        with SloServing(TOPOLOGY, shards=1, clock=clock) as frontend:
            frontend.suspend()
            doomed = frontend.submit(CNN, seed=0, deadline=1.0)
            clock.advance(2.0)  # deadline passes while queued
            frontend.resume()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=240)
            stats = frontend.stats()
        assert stats.expired == 1
        assert stats.graph_ships == (0,)  # culled before any dispatch

    def test_expiry_only_hits_the_doomed_request(self):
        clock = FakeClock()
        with SloServing(TOPOLOGY, shards=1, clock=clock) as frontend:
            frontend.suspend()
            doomed = frontend.submit(CNN, seed=0, deadline=1.0)
            kept = frontend.submit(RESNET, seed=0)
            clock.advance(2.0)
            frontend.resume()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=240)
            _same_result(kept.result(timeout=240), fresh(RESNET, 0))
            stats = frontend.stats()
        assert stats.expired == 1
        assert stats.completed == 1
        assert stats.submitted == stats.completed + stats.shed + stats.expired

    def test_deadline_exceeded_is_timeout_error(self):
        assert issubclass(DeadlineExceeded, TimeoutError)


class TestCancellationFaults:
    def test_cancel_then_expire_keeps_dispatcher_alive(self):
        # A queued request is cancelled by its caller, *then* its
        # deadline passes. Expiry resolution must notice the
        # cancellation (not die on InvalidStateError) — the shard's
        # dispatcher survives and keeps serving.
        clock = FakeClock()
        with SloServing(TOPOLOGY, shards=1, clock=clock) as frontend:
            frontend.suspend()
            doomed = frontend.submit(CNN, seed=0, deadline=1.0)
            assert doomed.cancel()
            clock.advance(2.0)
            frontend.resume()
            with pytest.raises(CancelledError):
                doomed.result(timeout=0)
            # The same shard still dispatches: a dead dispatcher would
            # hang this follow-up forever.
            follow_up = frontend.submit(CNN, seed=0)
            _same_result(follow_up.result(timeout=240), fresh(CNN, 0))
            assert frontend.drain(timeout=240)
            stats = frontend.stats()
        assert stats.cancelled == 1
        assert stats.expired == 0  # resolved by cancellation, not expiry
        assert stats.completed == 1
        assert stats.queued == 0 and stats.running == 0
        assert stats.submitted == stats.resolved + stats.shed

    def test_drain_wakes_when_last_request_resolves_by_cancellation(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            frontend.suspend()
            held = frontend.submit(CNN, seed=0)
            assert held.cancel()
            frontend.resume()
            # The cancelled dispatch is the only in-flight work; drain
            # must be notified of its resolution, not sit until timeout.
            assert frontend.drain(timeout=240)
            stats = frontend.stats()
        assert stats.cancelled == 1
        assert stats.queued == 0 and stats.running == 0


class TestQueueHygiene:
    def test_tenant_queues_pruned_when_emptied(self):
        # Distinct tenants come and go; their queue entries must not
        # accumulate in the frontend for its whole lifetime.
        clock = FakeClock()
        with SloServing(TOPOLOGY, shards=1, clock=clock) as frontend:
            frontend.search(CNN, seed=0)
            frontend.search(RESNET, seed=0)
            # An expiry-culled tenant is pruned too, not just a
            # dispatched one.
            frontend.suspend()
            doomed = frontend.submit(CNN, seed=1, deadline=1.0)
            clock.advance(2.0)
            frontend.resume()
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=240)
            assert frontend.drain(timeout=240)
            with frontend._lock:
                assert not any(frontend._queues)


class TestWorkerInternBound:
    def test_worker_interned_graphs_are_lru_bounded(self):
        # Drive the shard worker loop directly over an in-process pipe:
        # with a capacity-1 registry the worker may retain at most one
        # interned graph, and an evicted fingerprint must answer
        # unknown_fp (the same path a respawn uses) rather than being
        # served from an unbounded side table. Replies carry decisions,
        # decoded here as the frontend decodes them.
        import multiprocessing

        config = SearchConfig.from_kwargs(capacity=1)

        def decoded(payload, graph):
            return decode_result(payload, graph, TOPOLOGY, config.designs)

        parent, child = multiprocessing.get_context("spawn").Pipe()
        worker = threading.Thread(
            target=_shard_worker,
            args=(child, TOPOLOGY, config),
            daemon=True,
        )
        worker.start()
        try:
            parent.send(("search", CNN, 0, None, "latency"))
            status, payload = parent.recv()
            assert status == "ok"
            _same_result(decoded(payload, CNN), fresh(CNN, 0))
            # Still interned: the fingerprint round-trips.
            parent.send(("search_fp", CNN.fingerprint(), 0, None, "latency"))
            assert parent.recv()[0] == "ok"
            # A second workload pushes the first out (capacity=1)...
            parent.send(("search", RESNET, 0, None, "latency"))
            assert parent.recv()[0] == "ok"
            parent.send(("search_fp", CNN.fingerprint(), 0, None, "latency"))
            status, payload = parent.recv()
            assert status == "unknown_fp"
            assert payload == CNN.fingerprint()
            # ...and re-shipping the full graph recovers, bit-identically.
            parent.send(("search", CNN, 1, None, "latency"))
            status, payload = parent.recv()
            assert status == "ok"
            _same_result(decoded(payload, CNN), fresh(CNN, 1))
        finally:
            parent.send(("shutdown",))
            assert parent.recv()[0] == "bye"
            parent.close()
            worker.join(timeout=60)
        assert not worker.is_alive()


class TestRespawnBackoff:
    """Crash respawns back off: bounded exponential, deterministic
    jitter, every delay visible in stats — a deterministically-crashing
    worker costs a slowing cycle, not a hot spawn/die loop."""

    def test_consecutive_crashes_back_off_with_recorded_delays(self):
        from repro.utils.rng import stable_seed

        with SloServing(TOPOLOGY, shards=1) as frontend:
            delays = []
            frontend._sleep = delays.append  # record instead of sleeping
            _same_result(
                frontend.submit(CNN, seed=0).result(timeout=240),
                fresh(CNN, 0),
            )
            for _ in range(2):  # == default SHARD_RESPAWN_LIMIT
                frontend._handles[0].process.kill()
                _same_result(
                    frontend.submit(CNN, seed=0).result(timeout=240),
                    fresh(CNN, 0),
                )
            stats = frontend.stats()
        assert stats.respawns == 2
        assert len(delays) == 2
        for attempt, delay in enumerate(delays):
            nominal = min(2.0, 0.05 * 2.0**attempt)
            jitter = 0.5 + (
                stable_seed("respawn-jitter", 0, attempt) % 4096
            ) / 8192.0
            assert delay == pytest.approx(nominal * jitter)
            assert 0.5 * nominal <= delay < nominal  # jittered in [.5, 1)
        # Doubling nominals with jitter < 1 keeps the windows disjoint:
        # every delay strictly exceeds its predecessor.
        assert delays[1] > delays[0]
        # The last delay per shard is stats-visible.
        assert stats.respawn_backoff == (pytest.approx(delays[-1]),)

    def test_quiet_shards_report_zero_backoff(self):
        with SloServing(TOPOLOGY, shards=2) as serving:
            serving.search(CNN, seed=0)
            stats = serving.stats()
        assert stats.respawn_backoff == (0.0, 0.0)
        assert stats.respawns == 0


class TestSwallowedErrorVisibility:
    """Exceptions absorbed on teardown/respawn paths (formerly bare
    ``pass`` sites) are counted per shard and surfaced by ``stats()``."""

    def test_slo_stats_surface_absorbed_errors(self):
        with SloServing(TOPOLOGY, shards=1) as frontend:
            assert frontend.stats().swallowed_errors == (0,)
            frontend._handles[0].swallowed += 1
            assert frontend.stats().swallowed_errors == (1,)

    def test_clean_lifecycle_absorbs_nothing(self):
        serving = SloServing(TOPOLOGY, shards=1)
        serving.search(CNN, seed=0)
        serving.close()
        # Read after close, so the graceful shutdown is covered too.
        stats = serving.stats()
        assert stats.swallowed_errors == (0,)
        assert stats.unacked_shutdowns == (0,)

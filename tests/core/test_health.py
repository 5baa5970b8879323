"""Liveness layer: watchdog, beacons, kill-escalation, fault plans.

The contract under test: a worker that is alive but *wedged* is
detected within its stall budget, kill-escalated (SIGTERM, then
SIGKILL for a worker that ignores it), and its in-flight request rides
the same respawn/resend policy a crash takes — every queued future
still resolves bit-identically to a fresh ``Mars`` run. Heartbeat
beacons emitted between GA generations extend the budget, so a
legitimately long search is never killed while a true wedge is. All
hang scenarios run on injected fault plans and fake clocks — no test
here waits out a real multi-second budget.
"""

import pickle
import threading
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FaultPlan,
    FaultSpec,
    LivenessPolicy,
    Mars,
    SloServing,
    WorkerHung,
)
from repro.core.config import SearchConfig
from repro.core.faults import CORRUPT_REPLY
from repro.core.health import BEACON, BeaconEmitter, stop_process, wait_for_reply
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


#: A watchdog policy for fake-clock hang tests: the stall budget only
#: ever expires when the test advances the clock past it, spawn grace
#: is folded into the same budget (a frozen clock can't false-trigger
#: on cold start), and the real poll cadence stays tight so detection
#: after an advance is near-immediate.
FAKE_CLOCK_POLICY = LivenessPolicy(
    stall_budget=5.0,
    poll_interval=0.02,
    term_grace=2.0,
    beacon_interval=0.0,
    spawn_grace=None,
)


def _advance_until_hang(clock, handle, ready, timeout=240.0):
    """Drive a fake clock past the stall budget while the doomed
    request is in flight; returns once the watchdog counted the hang.

    ``ready()`` gates the advance on "the hung request is the one being
    waited on" so a healthy in-flight request is never aged past its
    budget. Advancing repeatedly (not once) closes the race between
    ``waiting_since`` being set and the watchdog computing its
    deadline.
    """
    deadline = time.monotonic() + timeout
    while handle.hangs == 0:
        assert time.monotonic() < deadline, "watchdog never fired"
        if handle.waiting_since is not None and ready():
            clock.advance(6.0)
        time.sleep(0.01)


# ----------------------------------------------------------------------
# LivenessPolicy
# ----------------------------------------------------------------------


class TestLivenessPolicy:
    def test_defaults_are_valid_and_picklable(self):
        policy = LivenessPolicy()
        assert pickle.loads(pickle.dumps(policy)) == policy

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stall_budget": 0.0},
            {"stall_budget": -1.0},
            {"poll_interval": 0.0},
            {"beacon_interval": -0.1},
            {"term_grace": -1.0},
            {"spawn_grace": 0.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LivenessPolicy(**kwargs)

    def test_first_reply_budget_takes_the_larger_grace(self):
        assert (
            LivenessPolicy(stall_budget=2.0, spawn_grace=30.0)
            .first_reply_budget()
            == 30.0
        )
        assert (
            LivenessPolicy(stall_budget=30.0, spawn_grace=2.0)
            .first_reply_budget()
            == 30.0
        )

    def test_first_reply_budget_none_handling(self):
        # No watchdog at all: the first reply waits forever too.
        assert (
            LivenessPolicy(stall_budget=None).first_reply_budget() is None
        )
        # No spawn grace: the plain budget applies from request one.
        assert (
            LivenessPolicy(stall_budget=7.0, spawn_grace=None)
            .first_reply_budget()
            == 7.0
        )


# ----------------------------------------------------------------------
# wait_for_reply (pure watchdog loop, scripted pipe + fake clock)
# ----------------------------------------------------------------------


class _TimedConn:
    """A scripted pipe end: each ``poll`` consumes one ``(advance,
    message)`` step, advancing the fake clock and optionally producing
    a message — deterministic wall-clock-free watchdog scenarios."""

    def __init__(self, clock, steps):
        self.clock = clock
        self.steps = deque(steps)
        self._pending = None

    def poll(self, timeout=None):
        if self._pending is not None:
            return True
        assert self.steps, "watchdog outlived its script"
        advance, message = self.steps.popleft()
        self.clock.advance(advance)
        if message is None:
            return False
        self._pending = message
        return True

    def recv(self):
        message, self._pending = self._pending, None
        return message


class TestWaitForReply:
    POLICY = LivenessPolicy(stall_budget=5.0, poll_interval=0.01)

    def test_returns_first_real_message(self):
        clock = FakeClock()
        conn = _TimedConn(clock, [(1.0, ("ok", 42))])
        assert wait_for_reply(conn, self.POLICY, clock, 5.0) == ("ok", 42)

    def test_silence_past_the_budget_raises(self):
        clock = FakeClock()
        conn = _TimedConn(clock, [(6.0, None)])
        with pytest.raises(WorkerHung):
            wait_for_reply(conn, self.POLICY, clock, 5.0)

    def test_beacon_extends_the_deadline(self):
        # 4s of silence, a beacon, 4s more: 8s total elapsed against a
        # 5s budget — survives only because the beacon reset it.
        clock = FakeClock()
        beacons = []
        conn = _TimedConn(
            clock,
            [(4.0, (BEACON, "level1-generation", 3)), (4.0, ("ok", 1))],
        )
        reply = wait_for_reply(
            conn, self.POLICY, clock, 5.0, on_beacon=beacons.append
        )
        assert reply == ("ok", 1)
        assert beacons == [(BEACON, "level1-generation", 3)]

    def test_beacon_alone_never_satisfies_the_wait(self):
        clock = FakeClock()
        conn = _TimedConn(
            clock, [(1.0, (BEACON, "level2-subproblem", 1)), (6.0, None)]
        )
        with pytest.raises(WorkerHung):
            wait_for_reply(conn, self.POLICY, clock, 5.0)

    def test_none_budget_waits_indefinitely(self):
        clock = FakeClock()
        policy = LivenessPolicy(stall_budget=None, poll_interval=0.01)
        conn = _TimedConn(clock, [(10_000.0, None), (0.0, ("ok", 9))])
        assert wait_for_reply(conn, policy, clock, None) == ("ok", 9)

    def test_corrupt_reply_is_returned_not_classified_as_beacon(self):
        clock = FakeClock()
        conn = _TimedConn(clock, [(0.0, list(CORRUPT_REPLY))])
        assert (
            wait_for_reply(conn, self.POLICY, clock, 5.0)
            == CORRUPT_REPLY
        )


# ----------------------------------------------------------------------
# stop_process (escalation ladder, stub processes)
# ----------------------------------------------------------------------


class _StubProcess:
    """Dies at the first ladder rung it ``obeys``; SIGKILL always works."""

    def __init__(self, obeys="join"):
        self.obeys = obeys
        self._alive = True
        self.terminated = False
        self.killed = False
        self.joins = 0

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        self.joins += 1
        if self.killed:
            self._alive = False
        elif self.obeys == "join":
            self._alive = False
        elif self.obeys == "terminate" and self.terminated:
            self._alive = False

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


class TestStopProcess:
    def test_cooperative_worker_needs_no_signal(self):
        process = _StubProcess(obeys="join")
        assert stop_process(process, 0.01) is False
        assert not process.terminated and not process.killed

    def test_hung_worker_skips_the_graceful_join(self):
        process = _StubProcess(obeys="terminate")
        assert stop_process(process, 0.01, graceful=False) is False
        assert process.terminated and not process.killed
        assert process.joins == 1  # straight to SIGTERM + join

    def test_sigterm_ignoring_worker_is_killed(self):
        process = _StubProcess(obeys="kill")
        assert stop_process(process, 0.01) is True
        assert process.terminated and process.killed
        assert not process.is_alive()

    def test_none_process_is_a_noop(self):
        assert stop_process(None, 0.01) is False


# ----------------------------------------------------------------------
# BeaconEmitter (worker-side throttle)
# ----------------------------------------------------------------------


class _SendConn:
    def __init__(self, fail=False):
        self.sent = []
        self.fail = fail

    def send(self, message):
        if self.fail:
            raise BrokenPipeError("frontend is gone")
        self.sent.append(message)


class TestBeaconEmitter:
    def test_throttles_to_one_beacon_per_interval(self):
        clock = FakeClock()
        conn = _SendConn()
        beacon = BeaconEmitter(conn, 10.0, now=clock)
        beacon("level1-generation", 0)
        beacon("level1-generation", 1)  # throttled
        clock.advance(10.0)
        beacon("level2-subproblem", 4)
        assert conn.sent == [
            (BEACON, "level1-generation", 0),
            (BEACON, "level2-subproblem", 4),
        ]
        assert beacon.sent == 2

    def test_zero_interval_sends_every_tick(self):
        clock = FakeClock()
        conn = _SendConn()
        beacon = BeaconEmitter(conn, 0.0, now=clock)
        for count in range(3):
            beacon("level1-generation", count)
        assert len(conn.sent) == 3

    def test_goes_silent_on_a_broken_pipe(self):
        beacon = BeaconEmitter(_SendConn(fail=True), 0.0, now=FakeClock())
        beacon("level1-generation", 0)  # swallowed
        beacon("level1-generation", 1)  # dead: not even attempted
        assert beacon.sent == 0


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="lie")
        with pytest.raises(ValueError):
            FaultSpec(kind="hang", at_request=-1)

    def test_matches_exact_coordinates(self):
        spec = FaultSpec(kind="hang", at_request=2, shard=1, incarnation=0)
        assert spec.matches(1, 0, 2)
        assert not spec.matches(0, 0, 2)  # other shard
        assert not spec.matches(1, 1, 2)  # the respawned replacement
        assert not spec.matches(1, 0, 3)  # a later request

    def test_wildcards_match_any_shard_and_incarnation(self):
        spec = FaultSpec(kind="crash", at_request=0, shard=None, incarnation=None)
        assert spec.matches(3, 0, 0) and spec.matches(0, 7, 0)

    def test_first_matching_spec_wins(self):
        first = FaultSpec(kind="crash", at_request=1)
        second = FaultSpec(kind="hang", at_request=1)
        plan = FaultPlan(faults=(first, second))
        assert plan.fault_for(0, 0, 1) is first
        assert plan.fault_for(0, 0, 0) is None

    def test_plan_is_picklable_and_hashable(self):
        plan = FaultPlan(faults=(FaultSpec(kind="slow", delay=0.1),))
        assert pickle.loads(pickle.dumps(plan)) == plan
        hash(plan)

    def test_plan_rides_the_config_without_touching_fingerprints(self):
        plan = FaultPlan(faults=(FaultSpec(kind="hang", at_request=1),))
        faulted = SearchConfig(faults=plan)
        clean = SearchConfig()
        assert faulted.result_fingerprint() == clean.result_fingerprint()
        assert pickle.loads(pickle.dumps(faulted)).faults == plan


# ----------------------------------------------------------------------
# SloServing teardown paths (stub workers, no processes)
# ----------------------------------------------------------------------


class _DeafConn:
    """Accepts sends, never replies — a wedged worker's pipe."""

    def __init__(self):
        self.sent = []
        self.closed = False

    def send(self, message):
        self.sent.append(message)

    def poll(self, timeout=None):
        time.sleep(min(timeout or 0.0, 0.005))
        return False

    def close(self):
        self.closed = True


class _ScriptConn(_DeafConn):
    def __init__(self, replies):
        super().__init__()
        self.replies = deque(replies)

    def poll(self, timeout=None):
        return bool(self.replies)

    def recv(self):
        return self.replies.popleft()


@pytest.fixture
def stub_frontend(monkeypatch):
    """A one-shard frontend that spawned no worker, and its handle.

    The tests plant stub processes and pipes on the handle and drive
    the teardown paths directly; the idle dispatcher thread never
    touches them, and the frontend is closed afterwards.
    """
    monkeypatch.setattr(SloServing, "_spawn_worker", lambda self, handle: None)
    policy = LivenessPolicy(
        stall_budget=0.05,
        poll_interval=0.01,
        term_grace=0.01,
        spawn_grace=None,
    )
    frontend = SloServing(TOPOLOGY, shards=1, liveness=policy)
    yield frontend, frontend._handles[0]
    frontend.close()


class TestShutdownWorker:
    def test_acked_shutdown_reaps_gracefully(self, stub_frontend):
        frontend, handle = stub_frontend
        handle.conn = conn = _ScriptConn([("bye", None)])
        handle.process = process = _StubProcess(obeys="join")
        frontend._shutdown_worker(handle)
        assert conn.sent == [("shutdown",)]
        assert conn.closed and handle.process is None
        assert not process.terminated  # graceful join sufficed
        assert handle.unacked == 0 and handle.hangs == 0
        assert handle.escalations == 0

    def test_unacked_shutdown_is_bounded_counted_and_escalated(self, stub_frontend):
        # The old path polled a hard-wired 30s and ignored the answer;
        # now the ack wait runs on the stall budget and a worker that
        # ignores SIGTERM still cannot survive the reap.
        frontend, handle = stub_frontend
        handle.conn = conn = _DeafConn()
        handle.process = process = _StubProcess(obeys="kill")
        started = time.monotonic()
        frontend._shutdown_worker(handle)
        assert time.monotonic() - started < 5.0
        assert conn.closed and handle.process is None
        assert handle.unacked == 1 and handle.hangs == 1
        assert handle.escalations == 1
        assert process.killed
        # The SIGKILL rung counts as absorbed teardown trouble too.
        assert handle.swallowed == 1

    def test_dead_worker_ack_failure_is_swallowed_not_raised(self, stub_frontend):
        frontend, handle = stub_frontend

        class _BrokenConn(_DeafConn):
            def send(self, message):
                raise BrokenPipeError("worker died first")

        handle.conn = _BrokenConn()
        handle.process = _StubProcess(obeys="join")
        frontend._shutdown_worker(handle)
        assert handle.unacked == 1 and handle.swallowed == 1
        assert handle.hangs == 0


class TestReapWorker:
    def test_sigterm_ignoring_worker_cannot_leak(self, stub_frontend):
        frontend, handle = stub_frontend
        handle.conn = _DeafConn()
        handle.process = process = _StubProcess(obeys="kill")
        handle.interned.add("fp")
        frontend._reap_worker(handle, graceful=False)
        assert process.killed and not process.is_alive()
        assert handle.process is None and handle.conn is None
        assert handle.escalations == 1 and handle.swallowed == 1
        assert not handle.interned  # the interned set died with it

    def test_cooperative_worker_costs_no_escalation(self, stub_frontend):
        frontend, handle = stub_frontend
        handle.conn = _DeafConn()
        handle.process = _StubProcess(obeys="join")
        frontend._reap_worker(handle)
        assert handle.escalations == 0 and handle.swallowed == 0


# ----------------------------------------------------------------------
# End-to-end hang recovery (real workers, injected faults, fake clock)
# ----------------------------------------------------------------------


class TestHangRecovery:
    def test_slo_hung_worker_under_backlog_resolves_bit_identically(self):
        clock = FakeClock()
        plan = FaultPlan(faults=(FaultSpec(kind="hang", at_request=2, shard=0),))
        with SloServing(
            TOPOLOGY,
            shards=1,
            config=SearchConfig(faults=plan),
            clock=clock,
            liveness=FAKE_CLOCK_POLICY,
        ) as frontend:
            frontend.suspend()  # queue a backlog behind the doomed request
            futures = [frontend.submit(CNN, seed=s) for s in range(4)]
            frontend.resume()
            handle = frontend._handles[0]
            # Requests 0 and 1 complete; request 2 wedges its worker.
            _advance_until_hang(
                clock,
                handle,
                ready=lambda: frontend.stats().completed >= 2,
            )
            for seed, future in enumerate(futures):
                _same_result(future.result(timeout=240), fresh(CNN, seed))
            stats = frontend.stats()
        assert stats.hangs == (1,)
        assert stats.kill_escalations == (0,)  # SIGTERM sufficed
        assert stats.respawns == 1
        assert stats.completed == 4 and stats.failed == 0
        # The replacement was re-shipped the graph (its predecessor's
        # interned set died with it) and re-served the hung request.
        assert stats.graph_ships == (2,)
        # Reconciliation holds through a hang-kill-respawn cycle: the
        # re-served request resolved as completed, nothing leaked into
        # running/queued.
        assert stats.submitted == 4
        assert stats.queued == 0 and stats.running == 0

    def test_sigterm_ignoring_hang_forces_the_sigkill_rung(self):
        clock = FakeClock()
        # The fault wedges request 1 of a *warm* worker (request 0
        # proves it is up), and the clock only starts aging the wait a
        # beat after the doomed request went in flight — the worker
        # must have reached the fault (and installed SIG_IGN) before
        # the watchdog's SIGTERM arrives, or the test would measure a
        # boot-time kill instead of the escalation rung.
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    kind="hang", at_request=1, shard=0, ignore_sigterm=True
                ),
            )
        )
        policy = LivenessPolicy(
            stall_budget=5.0,
            poll_interval=0.02,
            term_grace=0.2,  # short SIGTERM window: escalate fast
            beacon_interval=0.0,
            spawn_grace=None,
        )
        with SloServing(
            TOPOLOGY,
            shards=1,
            config=SearchConfig(faults=plan),
            clock=clock,
            liveness=policy,
        ) as serving:
            futures = [serving.submit(CNN, seed=s) for s in range(2)]
            handle = serving._handles[0]
            armed: list[float] = []

            def ready():
                if not futures[0].done():
                    return False
                if not armed:
                    armed.append(time.monotonic())
                return time.monotonic() - armed[0] > 0.3

            _advance_until_hang(clock, handle, ready=ready)
            for seed, future in enumerate(futures):
                _same_result(future.result(timeout=240), fresh(CNN, seed))
            stats = serving.stats()
        assert stats.hangs == (1,)
        assert stats.kill_escalations == (1,)
        assert stats.respawns == 1

    def test_hang_racing_close_still_drains_every_future(self):
        clock = FakeClock()
        plan = FaultPlan(faults=(FaultSpec(kind="hang", at_request=1, shard=0),))
        frontend = SloServing(
            TOPOLOGY,
            shards=1,
            config=SearchConfig(faults=plan),
            clock=clock,
            liveness=FAKE_CLOCK_POLICY,
        )
        handle = frontend._handles[0]
        frontend.suspend()
        futures = [frontend.submit(CNN, seed=s) for s in range(3)]
        stop = threading.Event()

        def pump():
            # Age only the doomed request; once the hang is counted the
            # clock freezes again so the recovery (and the close-time
            # "bye" ack) can never be aged into a false hang.
            while not stop.is_set():
                if (
                    handle.hangs == 0
                    and futures[0].done()
                    and handle.waiting_since is not None
                ):
                    clock.advance(6.0)
                time.sleep(0.01)

        pumper = threading.Thread(target=pump, daemon=True)
        pumper.start()
        try:
            # close() overrides the suspension and must drain through
            # the hang: detect, kill, respawn, re-serve, then shut the
            # replacement down cleanly.
            frontend.close()
        finally:
            stop.set()
            pumper.join()
        for seed, future in enumerate(futures):
            _same_result(future.result(timeout=0), fresh(CNN, seed))
        stats = frontend.stats()
        assert stats.hangs == (1,)
        assert stats.completed == 3 and stats.cancelled == 0
        assert stats.unacked_shutdowns == (0,)

    def test_beacons_flow_and_extend_a_long_search(self):
        # A single search whose fake-clock lifetime (18s) is far past
        # the 10s stall budget: it survives purely because beacons
        # between GA generations and sub-problem solves keep resetting
        # the deadline. The clock only ever advances right after a
        # beacon was consumed, so the wait is never aged without an
        # intervening sign of life.
        clock = FakeClock()
        policy = LivenessPolicy(
            stall_budget=10.0,
            poll_interval=0.02,
            term_grace=2.0,
            beacon_interval=0.0,
            spawn_grace=None,
        )
        with SloServing(
            TOPOLOGY, shards=1, liveness=policy, clock=clock
        ) as serving:
            handle = serving._handles[0]
            future = serving.submit(RESNET, seed=0)
            for _ in range(3):
                before = handle.beacons
                deadline = time.monotonic() + 240
                while handle.beacons == before:
                    assert not future.done(), (
                        "search finished before enough beacons were seen"
                    )
                    assert time.monotonic() < deadline
                    time.sleep(0.002)
                clock.advance(6.0)
            _same_result(future.result(timeout=240), fresh(RESNET, 0))
            stats = serving.stats()
        assert clock.now == 18.0
        assert stats.hangs == (0,)
        assert stats.respawns == 0
        assert stats.beacons[0] >= 3

    def test_beacons_can_be_disabled(self):
        policy = LivenessPolicy(
            stall_budget=300.0, beacons=False, spawn_grace=None
        )
        with SloServing(TOPOLOGY, shards=1, liveness=policy) as serving:
            _same_result(
                serving.submit(CNN, seed=0).result(timeout=240),
                fresh(CNN, 0),
            )
            stats = serving.stats()
        assert stats.beacons == (0,)
        assert stats.hangs == (0,)


# ----------------------------------------------------------------------
# Reconciliation invariant under injected faults (satellite 6)
# ----------------------------------------------------------------------


def _reconciles(stats):
    return stats.submitted == (
        stats.completed
        + stats.failed
        + stats.shed
        + stats.expired
        + stats.cancelled
        + stats.queued
        + stats.running
    )


@pytest.mark.slow
class TestReconciliationUnderFaults:
    @settings(max_examples=4, deadline=None)
    @given(
        kind=st.sampled_from(["hang", "crash"]),
        position=st.integers(min_value=0, max_value=3),
    )
    def test_every_submission_is_accounted_for(self, kind, position):
        clock = FakeClock()
        plan = FaultPlan(
            faults=(FaultSpec(kind=kind, at_request=position, shard=0),)
        )
        with SloServing(
            TOPOLOGY,
            shards=1,
            config=SearchConfig(faults=plan),
            clock=clock,
            liveness=FAKE_CLOCK_POLICY,
        ) as frontend:
            frontend.suspend()
            futures = [frontend.submit(CNN, seed=s) for s in range(4)]
            frontend.resume()
            handle = frontend._handles[0]
            if kind == "hang":
                _advance_until_hang(
                    clock,
                    handle,
                    ready=lambda: frontend.stats().completed >= position,
                )
            for seed, future in enumerate(futures):
                _same_result(future.result(timeout=240), fresh(CNN, seed))
            stats = frontend.stats()
        # A request whose worker was hang-killed (or crashed) stays
        # `running` through the kill/respawn and resolves `completed`
        # — liveness events add no reconciliation terms.
        assert _reconciles(stats)
        assert stats.completed == 4
        assert stats.queued == 0 and stats.running == 0
        assert stats.hangs == ((1,) if kind == "hang" else (0,))
        assert stats.respawns == 1

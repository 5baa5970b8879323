"""The session-owned pool: one executor per session lifetime.

The contract: a ``workers > 1`` session spawns exactly one
``ProcessPoolExecutor`` no matter how many searches run through it,
results stay bit-identical to the serial path, and ``close()`` /
context-manager exit shuts the pool down exactly once. A search never
builds or closes a pool of its own. A retired pool backend is replaced
by the session at most ``POOL_RESPAWN_LIMIT`` times.
"""

from dataclasses import replace

import pytest

from repro.core import Mars, MarsSession
from repro.core.ga import Level1Search, ProcessPoolBackend, SearchBudget
from repro.core.evaluator import MappingEvaluator
from repro.dnn import build_model
from repro.system import f1_16xlarge
from repro.utils import make_rng

GRAPH = build_model("tiny_cnn")
TOPOLOGY = f1_16xlarge()
SEEDS = (0, 1, 2)


def _same_result(a, b):
    assert a.latency_ms == b.latency_ms
    assert a.describe() == b.describe()
    assert a.ga.history == b.ga.history


class TestSessionOwnedPool:
    def test_warm_sweep_spawns_exactly_one_executor(self):
        with MarsSession(GRAPH, TOPOLOGY, workers=2) as session:
            warm = [session.search(seed=s) for s in SEEDS]
            stats = session.stats
            assert stats.pool_spawns == 1
            assert stats.pool_failures == 0
            assert stats.pool_respawns == 0
        serial = MarsSession(GRAPH, TOPOLOGY)
        for pooled, fresh in zip(warm, (serial.search(seed=s) for s in SEEDS)):
            _same_result(pooled, fresh)

    def test_serial_session_has_no_pool(self):
        session = MarsSession(GRAPH, TOPOLOGY)
        assert session.pool is None
        session.search(seed=0)
        assert session.stats.pool_spawns == 0
        session.close()  # no-op, still idempotent

    def test_close_shuts_the_pool_down_exactly_once(self):
        session = MarsSession(GRAPH, TOPOLOGY, workers=2)
        session.search(seed=0)
        pool = session.pool
        assert pool._executor is not None
        session.close()
        assert session.closed
        assert pool._executor is None
        session.close()  # second close is a no-op
        assert pool._executor is None

    def test_closed_session_refuses_to_search(self):
        session = MarsSession(GRAPH, TOPOLOGY, workers=2)
        session.close()
        with pytest.raises(ValueError):
            session.search(seed=0)

    def test_context_manager_closes_on_exit(self):
        with MarsSession(GRAPH, TOPOLOGY, workers=2) as session:
            session.search(seed=0)
            assert not session.closed
        assert session.closed
        assert session.pool._executor is None

    def test_facade_close_shuts_internal_session(self):
        with Mars(GRAPH, TOPOLOGY, workers=2) as mars:
            mars.search(seed=0)
        assert mars.closed
        assert mars.pool._executor is None
        with pytest.raises(ValueError):
            mars.search(seed=0)


class TestLevel1PoolOwnership:
    def _search(self, level1_backend=None):
        from repro.accelerators import table2_designs

        return Level1Search(
            graph=GRAPH,
            topology=TOPOLOGY,
            designs=table2_designs(),
            evaluator=MappingEvaluator(GRAPH, TOPOLOGY),
            budget=SearchBudget.fast().with_backend(workers=2),
            rng=make_rng(0),
            level1_backend=level1_backend,
        )

    def test_run_leaves_a_caller_supplied_level1_pool_open(self):
        pool = ProcessPoolBackend(2)
        try:
            search = self._search(level1_backend=pool)
            search.run()
            assert pool._executor is not None  # engaged and survived
            # still usable
            assert pool.map_subproblems(abs, [-1, -2]) == [1, 2]
        finally:
            pool.close()


class TestSessionRespawnPolicy:
    def _retire(self, pool):
        pool._consecutive_failures = pool.failure_limit
        assert pool.retired

    def test_retired_pool_is_replaced_up_to_the_limit(self):
        session = MarsSession(GRAPH, TOPOLOGY, workers=2)
        try:
            replaced = []
            for expected in range(1, MarsSession.POOL_RESPAWN_LIMIT + 1):
                old = session.pool
                self._retire(old)
                fresh = session._search_pool()
                replaced.append(old)
                assert fresh is not old
                assert not fresh.retired
                assert session.pool is fresh
                assert session.stats.pool_respawns == expected
            # Budget exhausted: a retired pool now stays.
            self._retire(session.pool)
            final = session._search_pool()
            assert final is session.pool
            assert final.retired
            assert (
                session.stats.pool_respawns == MarsSession.POOL_RESPAWN_LIMIT
            )
            assert all(pool._executor is None for pool in replaced)
        finally:
            session.close()

    def test_search_with_retired_pool_is_still_bit_identical(self):
        pooled = MarsSession(GRAPH, TOPOLOGY, workers=2)
        try:
            self._retire(pooled.pool)
            pooled._history = replace(
                pooled._history, pool_respawns=MarsSession.POOL_RESPAWN_LIMIT
            )
            retired_results = [pooled.search(seed=s) for s in SEEDS[:2]]
        finally:
            pooled.close()
        serial = MarsSession(GRAPH, TOPOLOGY)
        for a, b in zip(
            retired_results, (serial.search(seed=s) for s in SEEDS[:2])
        ):
            _same_result(a, b)

    def test_respawn_preserves_cumulative_pool_counters(self):
        session = MarsSession(GRAPH, TOPOLOGY, workers=2)
        try:
            pool = session.pool
            pool._spawns = 1
            pool._failures = pool.failure_limit
            self._retire(pool)
            session._search_pool()
            stats = session.stats
            assert stats.pool_spawns == 1  # retired backend's spawn kept
            assert stats.pool_failures == pool.failure_limit
        finally:
            session.close()

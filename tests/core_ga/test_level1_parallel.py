"""Batched level-1 sub-problem fan-out: bit-identity and exact accounting.

The contract under test (the bar for the parallel level-1 path): for a
fixed seed, a search run with a level-1 fan-out pool is **bit-identical**
to the serial search — same mapping, same latency, same GA history —
across zoo models, seeds, and layer-cache settings. Parallelism holds
because each sub-problem's level-2 GA draws from a content-keyed RNG
(:func:`repro.core.ga.level1.subproblem_rng`), so its solution does not
depend on which process solves it, in what order, or whether a prefetch
or a fitness call got there first.

Riders: the fan-out inherits the pool's retire-and-respawn failure
policy (a killed worker degrades the batch to a bit-identical serial
rerun), worker-side layer-cache counters ship back with pool results,
and ``progress("level2-subproblem", …)`` ticks exactly once per
distinct sub-problem — prefetch/fitness/eviction races included.
"""

import os

import pytest

from repro.core import Mars, MarsSession
from repro.core.ga import (
    ProcessPoolBackend,
    SearchBudget,
    SubproblemSolver,
)
from repro.core.ga import level1 as level1_module
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
MODELS = ("tiny_cnn", "tiny_resnet", "squeezenet")
SEEDS = (0, 1)


def _same_result(a, b):
    assert a.latency_ms == b.latency_ms
    assert a.describe() == b.describe()
    assert a.ga.history == b.ga.history
    assert a.ga.generations_run == b.ga.generations_run
    assert a.feasible == b.feasible


def _search(graph, *, workers, seed, layer_cache=True):
    with MarsSession(
        graph, TOPOLOGY, workers=workers, layer_cache=layer_cache
    ) as session:
        result = session.search(seed=seed)
        return result, session.stats


class TestBitIdentity:
    """Serial vs fan-out, property-style across the zoo."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("layer_cache", (True, False))
    def test_parallel_matches_serial(self, model, seed, layer_cache):
        graph = build_model(model)
        serial, _ = _search(
            graph, workers=1, seed=seed, layer_cache=layer_cache
        )
        parallel, stats = _search(
            graph, workers=2, seed=seed, layer_cache=layer_cache
        )
        _same_result(serial, parallel)
        # The fan-out actually engaged — this was not a serial run in
        # disguise (the silent-no-op regression this PR fixes).
        assert stats.subproblems_fanned_out > 0

    def test_warm_session_reuse_stays_bit_identical(self):
        graph = build_model("tiny_cnn")
        fresh = [Mars(graph, TOPOLOGY).search(seed=s) for s in (0, 1, 2)]
        with MarsSession(graph, TOPOLOGY, workers=2) as session:
            warm = [session.search(seed=s) for s in (0, 1, 2)]
            again = session.search(seed=0)
        for a, b in zip(fresh, warm):
            _same_result(a, b)
        _same_result(warm[0], again)

    def test_fanout_engages_without_level2_pool(self):
        # level1.workers alone must drive the fan-out (the knob used to
        # be accepted and silently ignored).
        graph = build_model("tiny_cnn")
        budget = SearchBudget.fast().with_backend(workers=2)
        serial_budget = SearchBudget.fast()
        with MarsSession(graph, TOPOLOGY, budget=budget) as session:
            assert session.pool is not None
            parallel = session.search(seed=0)
            stats = session.stats
        with MarsSession(graph, TOPOLOGY, budget=serial_budget) as session:
            serial = session.search(seed=0)
        _same_result(serial, parallel)
        assert stats.subproblems_fanned_out > 0

    def test_workers_run_one_pool(self):
        graph = build_model("tiny_cnn")
        with MarsSession(graph, TOPOLOGY, workers=2) as session:
            assert session.pool is not None
            session.search(seed=0)
            assert session.stats.pool_spawns == 1


class KillingSolver(SubproblemSolver):
    """A solver whose worker-side copies kill their host process.

    In the parent (the pool's serial fallback path) it solves normally,
    so a "broken" fan-out batch still produces the asserted —
    bit-identical — results. ``_remote`` is set by unpickling, exactly
    like the real solver's worker-side stats switch.
    """

    def __call__(self, item):
        if self._remote:
            os._exit(1)
        return super().__call__(item)


class TestFaultLeg:
    def test_killed_worker_degrades_to_bit_identical_serial(self, monkeypatch):
        graph = build_model("tiny_cnn")
        serial, _ = _search(graph, workers=1, seed=0)
        monkeypatch.setattr(level1_module, "SubproblemSolver", KillingSolver)
        parallel, stats = _search(graph, workers=2, seed=0)
        _same_result(serial, parallel)
        assert stats.pool_failures >= 1
        # Every batch broke, so nothing was solved *on* a worker.
        assert stats.subproblems_fanned_out == 0
        assert stats.worker_layer_cache.lookups == 0


class TestWorkerStats:
    def test_worker_layer_cache_ships_back_and_merges(self):
        graph = build_model("tiny_cnn")
        result, stats = _search(graph, workers=2, seed=0)
        assert stats.subproblems_fanned_out > 0
        assert stats.worker_layer_cache.misses > 0
        assert result.ga.worker_layer_cache is not None
        assert (
            result.worker_layer_cache.lookups
            == stats.worker_layer_cache.lookups
        )

    def test_serial_search_reports_no_worker_activity(self):
        graph = build_model("tiny_cnn")
        result, stats = _search(graph, workers=1, seed=0)
        assert stats.subproblems_fanned_out == 0
        assert stats.worker_layer_cache.lookups == 0
        assert result.ga.worker_layer_cache is None

    def test_worker_stats_accumulate_across_searches(self):
        graph = build_model("tiny_cnn")
        with MarsSession(graph, TOPOLOGY, workers=2) as session:
            session.search(seed=0)
            first = session.stats
            session.search(seed=1)
            second = session.stats
        assert (
            second.subproblems_fanned_out > first.subproblems_fanned_out
        )
        assert (
            second.worker_layer_cache.lookups
            > first.worker_layer_cache.lookups
        )


class TestSubproblemCounters:
    """The session's sub-problem cache counts the same lookups with and
    without the pool: the prefetch probes it with a plain membership
    test, and a fanned-out solution enters it only where the serial
    path would have solved and stored it — so at a small capacity the
    same entries are evicted too."""

    @staticmethod
    def _counters(*, workers, seed, **config):
        graph = build_model("squeezenet")
        with MarsSession(
            graph, TOPOLOGY, workers=workers, **config
        ) as session:
            result = session.search(seed=seed)
            stats = session.stats
        assert (stats.subproblems_fanned_out > 0) == (workers > 1)
        return (
            stats.subproblem_hits,
            stats.subproblem_misses,
            stats.subproblem_evictions,
            stats.subproblem_solutions,
            result.evaluation.latency_seconds.hex(),
        )

    @pytest.mark.parametrize(
        "config",
        ({}, {"subproblem_capacity": 16}),
        ids=("default-capacity", "capacity-16"),
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pooled_counters_equal_serial(self, config, seed):
        serial = self._counters(workers=1, seed=seed, **config)
        pooled = self._counters(workers=2, seed=seed, **config)
        assert pooled == serial


class _ProgressSink:
    def __init__(self):
        self.by_phase: dict[str, list[int]] = {}

    def __call__(self, phase: str, count: int) -> None:
        self.by_phase.setdefault(phase, []).append(count)


class TestProgressExactness:
    """One tick per *distinct* solved sub-problem, both paths."""

    def _ticks(self, *, workers, subproblem_capacity):
        graph = build_model("tiny_cnn")
        sink = _ProgressSink()
        with MarsSession(
            graph,
            TOPOLOGY,
            workers=workers,
            subproblem_capacity=subproblem_capacity,
        ) as session:
            session.search(seed=0, progress=sink)
        return sink.by_phase.get("level2-subproblem", [])

    @pytest.mark.parametrize("workers", (1, 2))
    def test_ticks_are_consecutive_without_duplicates(self, workers):
        ticks = self._ticks(workers=workers, subproblem_capacity=512)
        assert ticks == list(range(1, len(ticks) + 1))
        assert len(ticks) > 0

    def test_serial_and_parallel_solve_the_same_subproblem_count(self):
        serial = self._ticks(workers=1, subproblem_capacity=512)
        parallel = self._ticks(workers=2, subproblem_capacity=512)
        assert serial == parallel

    @pytest.mark.parametrize("workers", (1, 2))
    def test_eviction_forced_resolves_do_not_double_tick(self, workers):
        # A 2-entry LRU evicts constantly, so keys are re-solved many
        # times; the beacon still ticks once per distinct key.
        ticks = self._ticks(workers=workers, subproblem_capacity=2)
        assert ticks == list(range(1, len(ticks) + 1))

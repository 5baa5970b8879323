"""Warm-search sessions: cross-search determinism and state reuse.

The contract under test: every cache a :class:`MarsSession` keeps warm
(evaluator layer costs, level-1 sub-problem solutions, greedy seeds,
partition catalog, design profile) is seed-independent, so a warm
session is bit-identical to a fresh :class:`Mars` per search — with the
layer cache on or off — and a session run twice replays itself exactly.
"""

import gc
import pickle
import pickletools
import weakref

import pytest

from repro.core import Mars, MarsSession
from repro.core.costmodel import AnalyticalCostModel
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.ga import Level1Search, SearchBudget
from repro.core.validation import price_step
from repro.dnn import build_model
from repro.system import SystemTopology, f1_16xlarge, h2h_fixed_system
from repro.utils import make_rng

GRAPH = build_model("tiny_cnn")
TOPOLOGY = f1_16xlarge()
SEEDS = (0, 1, 2)


def _same_result(a, b):
    assert a.latency_ms == b.latency_ms
    assert a.describe() == b.describe()
    assert a.ga.history == b.ga.history
    assert a.feasible == b.feasible


class TestSessionDeterminism:
    def test_session_run_twice_same_seed_is_bit_identical(self):
        session = MarsSession(GRAPH, TOPOLOGY)
        first = session.search(seed=3)
        second = session.search(seed=3)
        _same_result(first, second)

    def test_two_sessions_replay_identically(self):
        sweep_a = [MarsSession(GRAPH, TOPOLOGY).search(seed=s) for s in SEEDS]
        session = MarsSession(GRAPH, TOPOLOGY)
        sweep_b = [session.search(seed=s) for s in SEEDS]
        for a, b in zip(sweep_a, sweep_b):
            _same_result(a, b)

    def test_warm_session_matches_fresh_mars_per_search(self):
        session = MarsSession(GRAPH, TOPOLOGY)
        warm = [session.search(seed=s) for s in SEEDS]
        fresh = [Mars(GRAPH, TOPOLOGY).search(seed=s) for s in SEEDS]
        for w, f in zip(warm, fresh):
            _same_result(w, f)

    def test_warm_session_matches_fresh_mars_with_layer_cache_off(self):
        options = EvaluatorOptions(layer_cache=False)
        session = MarsSession(GRAPH, TOPOLOGY, options=options)
        warm = [session.search(seed=s) for s in SEEDS]
        fresh = [
            Mars(GRAPH, TOPOLOGY, options=options).search(seed=s)
            for s in SEEDS
        ]
        for w, f in zip(warm, fresh):
            _same_result(w, f)
        assert session.stats.layer_cache.lookups == 0

    def test_fixed_topology_session(self):
        system = h2h_fixed_system(2.0)
        session = MarsSession(GRAPH, system)
        warm = [session.search(seed=s) for s in (0, 1)]
        fresh = [Mars(GRAPH, system).search(seed=s) for s in (0, 1)]
        for w, f in zip(warm, fresh):
            _same_result(w, f)

    def test_subproblem_solutions_are_search_order_independent(self):
        """A sub-problem solved under any level-1 seed solves identically.

        The level-2 RNG is derived from the sub-problem key, so shared
        keys across independent searches must carry identical strategies
        — the property that makes the cross-search cache sound — and
        each search's warm evaluator re-prices them to the same latency.
        """
        from repro.accelerators import table2_designs

        designs = {design.name: design for design in table2_designs()}

        def solve(seed):
            search = Level1Search(
                graph=GRAPH,
                topology=TOPOLOGY,
                designs=list(designs.values()),
                evaluator=MappingEvaluator(GRAPH, TOPOLOGY),
                budget=SearchBudget.fast(),
                rng=make_rng(seed),
            )
            search.run()
            return search

        def latency(search, key):
            start, stop, accs, design = key
            return search.evaluator.evaluate_set(
                GRAPH.nodes()[start:stop],
                accs,
                designs[design],
                search.solution_cache[key],
            ).latency_seconds

        search_a = solve(0)
        search_b = solve(9)
        shared = set(search_a.solution_cache) & set(search_b.solution_cache)
        assert shared  # different seeds still pose common sub-problems
        for key in shared:
            assert (
                search_a.solution_cache[key] == search_b.solution_cache[key]
            )
            assert latency(search_a, key).hex() == latency(search_b, key).hex()


class TestSessionState:
    def test_stats_accumulate_and_cache_is_reused(self):
        session = MarsSession(GRAPH, TOPOLOGY)
        session.search(seed=0)
        after_first = session.stats
        assert after_first.searches == 1
        assert after_first.subproblem_solutions > 0
        assert after_first.greedy_entries > 0
        # A same-seed re-search poses only known sub-problems.
        session.search(seed=0)
        after_second = session.stats
        assert after_second.searches == 2
        assert (
            after_second.subproblem_solutions
            == after_first.subproblem_solutions
        )

    def test_clear_drops_warm_state_but_not_results(self):
        session = MarsSession(GRAPH, TOPOLOGY)
        first = session.search(seed=1)
        session.clear()
        assert session.stats.subproblem_solutions == 0
        assert session.stats.greedy_entries == 0
        _same_result(first, session.search(seed=1))

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            MarsSession(GRAPH, TOPOLOGY, objective="power")

    def test_subproblem_counters_surface_in_stats(self):
        session = MarsSession(GRAPH, TOPOLOGY)
        session.search(seed=0)
        first = session.stats
        assert first.subproblem_misses > 0
        assert first.subproblem_evictions == 0
        session.search(seed=0)
        second = session.stats
        # A same-seed re-search poses only known sub-problems.
        assert second.subproblem_misses == first.subproblem_misses
        assert second.subproblem_hits > first.subproblem_hits

    def test_tiny_subproblem_capacity_evicts_without_changing_results(self):
        """The LRU bound is purely a memory/wall-clock trade: an evicted
        sub-problem re-solves identically from its content-keyed RNG."""
        bounded = MarsSession(GRAPH, TOPOLOGY, subproblem_capacity=2)
        sweep = [bounded.search(seed=s) for s in SEEDS]
        stats = bounded.stats
        assert stats.subproblem_solutions <= 2
        assert stats.subproblem_evictions > 0
        fresh = [MarsSession(GRAPH, TOPOLOGY).search(seed=s) for s in SEEDS]
        for a, b in zip(sweep, fresh):
            _same_result(a, b)

    def test_invalid_subproblem_capacity_rejected(self):
        with pytest.raises(ValueError):
            MarsSession(GRAPH, TOPOLOGY, subproblem_capacity=0)

    def test_closed_session_frees_its_evaluator_without_the_collector(self):
        """Regression: a finished search sat in a reference cycle (its
        memoizer pinned a fitness that pointed back at the search), so
        the session's evaluator outlived ``close()`` until the cyclic
        garbage collector ran."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            session = MarsSession(GRAPH, TOPOLOGY)
            result = session.search(seed=0)
            evaluator = weakref.ref(session.evaluator)
            session.close()
            del session
            assert evaluator() is None
            assert result.feasible
        finally:
            if enabled:
                gc.enable()

    def test_result_pickle_carries_no_derived_state(self):
        """An in-process search result pickles its mapping's topology
        (a shard's reply does not: it carries the decision in the
        store's codec, see ``test_reply_codec.py``); the pair tables
        and set memos the search built on it stay behind, so the result
        pickles to the same bytes once they are dropped from the live
        topology. No evaluator-side table rides along either."""
        with MarsSession(build_model("squeezenet"), f1_16xlarge()) as session:
            reply = session.search(seed=0)
            before = pickle.dumps(reply, protocol=4)
            topology = reply.mapping.topology
            assert any(
                topology.__dict__.get(name)
                for name in SystemTopology._DERIVED
            )
            for name in SystemTopology._DERIVED:
                topology.__dict__.pop(name, None)
            after = pickle.dumps(reply, protocol=4)
            topology._init_derived()
        assert after == before
        names = set()
        for _, arg, _ in pickletools.genops(before):
            if isinstance(arg, str):
                names.update(arg.split())
        assert names.isdisjoint(
            {
                "MappingEvaluator",
                "SubproblemCosts",
                "StrategyCatalog",
                "LruCache",
            }
        )


class TestMarsFacadeSession:
    def test_facade_reuses_one_session_and_evaluator(self):
        mars = Mars(GRAPH, TOPOLOGY)
        assert isinstance(mars, MarsSession)
        result = mars.search(seed=0)
        evaluator = mars.evaluator
        mars.search(seed=1)
        mars.compile_program(result)
        assert mars.evaluator is evaluator
        assert mars.stats.searches == 2

    def test_compile_program_matches_analytical_latency(self):
        mars = Mars(GRAPH, TOPOLOGY)
        result = mars.search(seed=0)
        program = mars.compile_program(result)
        model = AnalyticalCostModel(TOPOLOGY)
        assert sum(
            price_step(model, step) for step in program.steps
        ) == pytest.approx(result.evaluation.latency_seconds, rel=1e-9)


class TestReassignmentRefused:
    """Regression: every public name of a session is fixed at
    construction.

    The warm caches key on the graph, topology and config, so a
    reassigned graph used to search against the old graph's caches (a
    ``KeyError`` deep in pricing), and a reassigned former ``Mars``
    field such as ``workers`` was silently accepted and ignored.
    """

    @pytest.mark.parametrize(
        "name",
        ["graph", "topology", "config", "workers", "layer_cache", "budget"],
    )
    def test_reassigning_a_public_name_raises(self, name):
        session = MarsSession(GRAPH, TOPOLOGY)
        with pytest.raises(AttributeError, match="fixed at construction"):
            setattr(session, name, getattr(session, name, 1))

    def test_refused_reassignment_leaves_the_session_intact(self):
        mars = Mars(GRAPH, TOPOLOGY)
        with pytest.raises(AttributeError):
            mars.graph = build_model("tiny_resnet")
        assert mars.graph is GRAPH
        fresh = MarsSession(GRAPH, TOPOLOGY).search(seed=0)
        _same_result(mars.search(seed=0), fresh)

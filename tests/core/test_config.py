"""SearchConfig: canonicalization, equality, pickling, adapters.

The config bundle's contract: two spellings of the same effective
search configuration canonicalize (and fingerprint) identically; the
bundle survives pickling unchanged (it is what sharded serving ships to
worker processes); and the facades' kwarg constructors are thin
adapters over it — ``from_config`` and kwargs build bit-identical
searchers.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core import Mars, MarsSession, MultiModelSession, SearchConfig
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.ga import Level1Search, ProcessPoolBackend, SearchBudget
from repro.utils import make_rng
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")


class TestCanonicalization:
    def test_defaults_are_already_canonical(self):
        config = SearchConfig()
        assert config.canonical() == config

    def test_worker_override_folds_into_the_budget(self):
        via_override = SearchConfig(workers=2, cache=True).canonical()
        via_budget = SearchConfig(
            budget=SearchBudget.fast().with_backend(workers=2, cache=True)
        ).canonical()
        assert via_override == via_budget
        assert via_override.workers is None
        assert via_override.budget.level1.workers == 2

    def test_layer_cache_override_folds_into_the_options(self):
        via_override = SearchConfig(layer_cache=False).canonical()
        via_options = SearchConfig(
            options=EvaluatorOptions(layer_cache=False)
        ).canonical()
        assert via_override == via_options
        assert via_override.layer_cache is None

    def test_canonical_is_idempotent(self):
        config = SearchConfig(workers=2, layer_cache=False).canonical()
        assert config.canonical() == config

    def test_fingerprint_matches_for_equivalent_spellings(self):
        a = SearchConfig(workers=2)
        b = SearchConfig(
            budget=SearchBudget.fast().with_backend(workers=2)
        )
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            dict(objective="throughput"),
            dict(capacity=3),
            dict(subproblem_capacity=16),
            dict(budget=SearchBudget.paper()),
            dict(options=EvaluatorOptions(memory_spill=False)),
        ],
        ids=["objective", "capacity", "subproblem", "budget", "options"],
    )
    def test_fingerprint_changes_with_the_configuration(self, change):
        assert (
            replace(SearchConfig(), **change).fingerprint()
            != SearchConfig().fingerprint()
        )


class TestLevel1WorkerAliasing:
    """``workers`` sizes the level-1 fan-out and nothing else.

    Regression: ``budget.level1.workers`` used to be accepted by every
    spelling (kwarg, ``with_backend``, explicit ``GAConfig``) and then
    silently ignored — level 1 always ran serial. The knob now drives
    the batched sub-problem fan-out, level-2 GAs always run serial, and
    all spellings must stay aliases of each other.
    """

    def test_worker_override_folds_into_level1_only(self):
        config = SearchConfig(workers=2).canonical()
        assert config.budget.level1.workers == 2
        assert config.budget.level2.workers == 1

    def test_explicit_level1_spelling_fingerprints_identically(self):
        via_kwarg = SearchConfig(workers=2)
        via_budget = SearchConfig(
            budget=SearchBudget(
                level1=replace(SearchBudget.fast().level1, workers=2),
                level2=SearchBudget.fast().level2,
            )
        )
        assert via_kwarg.canonical() == via_budget.canonical()
        assert via_kwarg.fingerprint() == via_budget.fingerprint()

    def test_workers_are_invisible_to_result_fingerprint(self):
        assert (
            SearchConfig(workers=2).result_fingerprint()
            == SearchConfig().result_fingerprint()
        )

    def test_workers_actually_spawn_a_fanout_pool(self):
        with MarsSession(CNN, TOPOLOGY, workers=2) as session:
            assert session.pool is not None
            assert session.pool.workers == 2


#: Pinned ``result_fingerprint()`` digests. Store keys embed them, so
#: a change that moves one orphans every artifact stored under it —
#: and worker counts must never move them at all.
PINNED_RESULT_FINGERPRINTS = [
    (dict(), "e687d01643f3bfc5030416bb5f44963f"),
    (dict(workers=2), "e687d01643f3bfc5030416bb5f44963f"),
    (dict(workers=2, cache=True), "e687d01643f3bfc5030416bb5f44963f"),
    (dict(layer_cache=False), "e687d01643f3bfc5030416bb5f44963f"),
    (
        dict(budget=SearchBudget.paper(), workers=4),
        "a13d09be07e767b380c3d07353466f4c",
    ),
    (dict(objective="throughput"), "52e585fb62a71bc842c3e06f10d6db73"),
]


class TestStoreKeysDoNotMove:
    @pytest.mark.parametrize(
        "kwargs, digest",
        PINNED_RESULT_FINGERPRINTS,
        ids=["default", "workers", "workers-cache", "no-layer-cache",
             "paper-workers", "throughput"],
    )
    def test_result_fingerprint_is_pinned(self, kwargs, digest):
        assert SearchConfig(**kwargs).result_fingerprint() == digest


def _level2_workers_budget():
    budget = SearchBudget.fast()
    return SearchBudget(
        level1=budget.level1, level2=replace(budget.level2, workers=2)
    )


def _level1_search(budget, pool=None):
    from repro.accelerators import table2_designs

    return Level1Search(
        graph=CNN,
        topology=TOPOLOGY,
        designs=table2_designs(),
        evaluator=MappingEvaluator(CNN, TOPOLOGY),
        budget=budget,
        rng=make_rng(0),
        level1_backend=pool,
    )


class TestPopulationParallelismRejected:
    """Every way of asking for level-2 population parallelism raises
    instead of being silently ignored (the GA-level spelling is pinned
    in ``tests/core_ga/test_backends.py``)."""

    def test_level2_workers_rejected_by_session(self):
        with pytest.raises(ValueError, match="level2.workers"):
            MarsSession(CNN, TOPOLOGY, budget=_level2_workers_budget())

    def test_level2_workers_rejected_by_level1_search(self):
        with ProcessPoolBackend(workers=2) as pool:
            with pytest.raises(ValueError, match="level2.workers"):
                _level1_search(_level2_workers_budget(), pool)

    def test_level1_workers_without_a_pool_rejected_by_level1_search(self):
        budget = SearchBudget.fast().with_backend(workers=2)
        with pytest.raises(ValueError, match="level1_backend"):
            _level1_search(budget)


class TestValidation:
    def test_bad_objective_rejected(self):
        with pytest.raises(ValueError, match="objective"):
            SearchConfig(objective="power")

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(capacity=0)

    def test_zero_subproblem_capacity_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(subproblem_capacity=0)

    def test_designs_list_coerced_to_tuple(self):
        from repro.accelerators import table2_designs

        config = SearchConfig(designs=table2_designs())
        assert isinstance(config.designs, tuple)


class TestPickling:
    def test_round_trip_preserves_equality_and_fingerprint(self):
        config = SearchConfig(workers=2, layer_cache=False, capacity=3)
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config
        assert copy.fingerprint() == config.fingerprint()


class TestFacadeAdapters:
    def test_mars_kwargs_and_from_config_agree(self):
        config = SearchConfig(workers=None, cache=True)
        via_config = Mars.from_config(CNN, TOPOLOGY, config)
        via_kwargs = Mars(CNN, TOPOLOGY, cache=True)
        assert via_config.config() == via_kwargs.config()

    def test_mars_honors_subproblem_capacity(self):
        # Regression: the facade used to drop the configured bound and
        # build its session with the 4096 default.
        config = SearchConfig(subproblem_capacity=16)
        mars = Mars.from_config(CNN, TOPOLOGY, config)
        assert mars.config().subproblem_capacity == 16
        with mars:
            assert mars.session().solution_cache.capacity == 16

    def test_session_kwargs_and_from_config_agree(self):
        config = SearchConfig(layer_cache=False)
        with MarsSession.from_config(CNN, TOPOLOGY, config) as a:
            with MarsSession(CNN, TOPOLOGY, layer_cache=False) as b:
                assert a.config == b.config
                assert a.options == b.options
                assert not a.options.layer_cache

    def test_registry_kwargs_and_from_config_agree(self):
        config = SearchConfig(capacity=3)
        with MultiModelSession.from_config(TOPOLOGY, config) as a:
            with MultiModelSession(TOPOLOGY, capacity=3) as b:
                assert a.config == b.config
                assert a.capacity == b.capacity == 3

    def test_config_constructed_search_is_bit_identical_to_kwargs(self):
        config = SearchConfig()
        fresh = Mars(CNN, TOPOLOGY).search(seed=0)
        with MarsSession.from_config(CNN, TOPOLOGY, config) as session:
            warm = session.search(seed=0)
        assert warm.latency_ms == fresh.latency_ms
        assert warm.describe() == fresh.describe()
        assert warm.ga.history == fresh.ga.history

"""SearchConfig: one spelling per knob, equality, pickling, adapters.

The config bundle's contract: every knob has exactly one field, and
the one keyword adapter (:meth:`SearchConfig.from_kwargs`) folds its
``workers=``/``layer_cache=`` keywords into those fields, so equivalent
spellings compare (and hash) equal; the bundle is frozen all the way
down and survives pickling unchanged (it is what sharded serving ships
to worker processes); every constructor takes a config or the
adapter's keywords, never both; and ``result_fingerprint()`` moves
exactly when a knob can change search results.
"""

import functools
import pickle
from dataclasses import fields, replace

import pytest

from repro.core import Mars, MarsSession, MultiModelSession, SearchConfig
from repro.core.costmodel import CostModelSpec
from repro.core.evaluator import EvaluatorOptions, MappingEvaluator
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.ga import (
    GAConfig,
    Level1Search,
    ProcessPoolBackend,
    SearchBudget,
)
from repro.core.store import StoreSpec
from repro.utils import make_rng
from repro.dnn import build_model
from repro.system import f1_16xlarge

TOPOLOGY = f1_16xlarge()
CNN = build_model("tiny_cnn")


def _cached_budget():
    """The fast budget with fitness memoization on at both GA levels."""
    budget = SearchBudget.fast()
    return SearchBudget(
        level1=replace(budget.level1, cache=True),
        level2=replace(budget.level2, cache=True),
    )


class TestKeywordAdapter:
    def test_worker_keyword_folds_into_the_budget(self):
        via_keyword = SearchConfig.from_kwargs(
            workers=2, budget=_cached_budget()
        )
        via_budget = SearchConfig(
            budget=_cached_budget().with_backend(workers=2)
        )
        assert via_keyword == via_budget
        assert via_keyword.budget.level1.workers == 2

    def test_layer_cache_keyword_folds_into_the_options(self):
        via_keyword = SearchConfig.from_kwargs(layer_cache=False)
        via_options = SearchConfig(options=EvaluatorOptions(layer_cache=False))
        assert via_keyword == via_options
        assert not via_keyword.options.layer_cache

    def test_equivalent_spellings_are_equal_and_hash_equal(self):
        a = SearchConfig.from_kwargs(workers=2)
        b = SearchConfig(budget=SearchBudget.fast().with_backend(workers=2))
        assert a == b
        assert hash(a) == hash(b)

    def test_cache_keyword_is_refused(self):
        # GAConfig(cache=True) on level 2 is the one spelling.
        with pytest.raises(TypeError):
            SearchConfig.from_kwargs(cache=True)

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
    def test_configs_differ_with_the_configuration(self, change):
        changed = replace(SearchConfig(), **change)
        assert changed != SearchConfig()
        assert hash(changed) != hash(SearchConfig())


class TestFrozen:
    def test_config_is_hashable(self):
        assert hash(SearchConfig()) == hash(SearchConfig())

    def test_budget_cannot_be_mutated_under_a_config(self):
        config = SearchConfig()
        with pytest.raises(AttributeError):
            config.budget.level1 = SearchBudget.paper().level1
        assert config == SearchConfig()


class TestLevel1WorkerAliasing:
    """``workers`` sizes the level-1 fan-out and nothing else.

    Regression: ``budget.level1.workers`` used to be accepted by every
    spelling (kwarg, ``with_backend``, explicit ``GAConfig``) and then
    silently ignored — level 1 always ran serial. The knob now drives
    the batched sub-problem fan-out, level-2 GAs always run serial, and
    all spellings must stay aliases of each other.
    """

    def test_worker_override_folds_into_level1_only(self):
        config = SearchConfig.from_kwargs(workers=2)
        assert config.budget.level1.workers == 2
        assert config.budget.level2.workers == 1

    def test_explicit_level1_spelling_fingerprints_identically(self):
        via_kwarg = SearchConfig.from_kwargs(workers=2)
        via_budget = SearchConfig(
            budget=SearchBudget(
                level1=replace(SearchBudget.fast().level1, workers=2),
                level2=SearchBudget.fast().level2,
            )
        )
        assert via_kwarg == via_budget
        assert via_kwarg.result_fingerprint() == via_budget.result_fingerprint()

    def test_workers_are_invisible_to_result_fingerprint(self):
        assert (
            SearchConfig.from_kwargs(workers=2).result_fingerprint()
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
    (
        dict(workers=2, budget=_cached_budget()),
        "e687d01643f3bfc5030416bb5f44963f",
    ),
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
        assert SearchConfig.from_kwargs(**kwargs).result_fingerprint() == digest


def _with_level(level, **changes):
    """A config mutation that replaces fields of one GA level."""

    def mutate(config):
        budget = config.budget
        ga = replace(getattr(budget, level), **changes)
        return replace(config, budget=replace(budget, **{level: ga}))

    return mutate


def _with_options(**changes):
    return lambda config: replace(
        config, options=replace(config.options, **changes)
    )


def _with_cost_model(**changes):
    return lambda config: replace(
        config, cost_model=replace(config.cost_model, **changes)
    )


#: A changed value for each search hyper-parameter of a GA level, valid
#: at both levels of the default budget.
GA_HYPERPARAMETERS = dict(
    population_size=12,
    generations=9,
    crossover_rate=0.5,
    mutation_rate=0.3,
    mutation_sigma=0.5,
    tournament_size=2,
    elite_count=3,
    patience=7,
)

#: Knobs that change what a search finds: mutating one must move
#: ``result_fingerprint()``, or a store would serve stale artifacts.
RESULTS_AFFECTING = {
    "designs": lambda c: replace(c, designs=c.designs[:1]),
    "budget": lambda c: replace(c, budget=SearchBudget.paper()),
    "options": _with_options(memory_spill=False),
    "cost_model": lambda c: replace(
        c,
        cost_model=CostModelSpec.with_params(
            "contention-derated", collective_derate=1.5
        ),
    ),
    "objective": lambda c: replace(c, objective="throughput"),
    **{
        f"budget.{level}.{name}": _with_level(level, **{name: value})
        for level in ("level1", "level2")
        for name, value in GA_HYPERPARAMETERS.items()
    },
    "options.dtype_bytes": _with_options(dtype_bytes=4),
    "options.include_host_input": _with_options(include_host_input=False),
    "options.include_resharding": _with_options(include_resharding=False),
    "options.include_halo": _with_options(include_halo=False),
    "options.memory_spill": _with_options(memory_spill=False),
    "options.weights_resident": _with_options(weights_resident=False),
    "cost_model.kind": _with_cost_model(kind="contention-derated"),
    "cost_model.params": _with_cost_model(
        params=(("collective_derate", 1.5),)
    ),
}

#: Knobs that change wall-clock only: mutating one must leave
#: ``result_fingerprint()`` and a search bit-identical. ``store`` is
#: filled in per test (it needs a temporary directory). Level 1 runs its
#: engine with ``cache=True, workers=1`` whatever its config says, so
#: neither of those level-1 fields may reach a store key.
WALL_CLOCK_ONLY = {
    "capacity": lambda c: replace(c, capacity=1),
    "subproblem_capacity": lambda c: replace(c, subproblem_capacity=2),
    "store": None,
    "faults": lambda c: replace(
        c, faults=FaultPlan(faults=(FaultSpec(kind="slow", delay=0.1),))
    ),
    "budget.level1.workers": _with_level("level1", workers=2),
    "budget.level1.cache": _with_level("level1", cache=True),
    "budget.level2.cache": _with_level("level2", cache=True),
    "options.layer_cache": _with_options(layer_cache=False),
    "options.layer_cache_capacity": _with_options(layer_cache_capacity=8),
}

#: Knobs a session refuses to run with: level-2 populations never fan
#: out.
REFUSED = {
    "budget.level2.workers": _with_level("level2", workers=2),
}


@pytest.fixture(scope="module")
def reference_search():
    return Mars(CNN, TOPOLOGY).search(seed=0)


class TestFingerprintSoundness:
    """Every config knob is classified, and the classification holds."""

    def test_every_config_field_is_classified(self):
        knobs = {*RESULTS_AFFECTING, *WALL_CLOCK_ONLY, *REFUSED}
        assert len(knobs) == (
            len(RESULTS_AFFECTING) + len(WALL_CLOCK_ONLY) + len(REFUSED)
        )
        assert {f.name for f in fields(SearchConfig)} == {
            name for name in knobs if "." not in name
        }
        # Every field of both GA levels is classified.
        for level in ("level1", "level2"):
            prefix = f"budget.{level}."
            assert {f.name for f in fields(GAConfig)} == {
                name.removeprefix(prefix)
                for name in knobs
                if name.startswith(prefix)
            }
        # Every field of the evaluator options and of the cost-model
        # spec is classified.
        for prefix, cls in (
            ("options.", EvaluatorOptions),
            ("cost_model.", CostModelSpec),
        ):
            assert {f.name for f in fields(cls)} == {
                name.removeprefix(prefix)
                for name in knobs
                if name.startswith(prefix)
            }
        # Sub-knobs name real nested fields (a rename fails here).
        for name in knobs:
            functools.reduce(getattr, name.split("."), SearchConfig())

    @pytest.mark.parametrize("knob", sorted(RESULTS_AFFECTING))
    def test_results_affecting_knob_moves_the_fingerprint(self, knob):
        base = SearchConfig()
        changed = RESULTS_AFFECTING[knob](base)
        assert changed != base
        assert changed.result_fingerprint() != base.result_fingerprint()

    @pytest.mark.parametrize("knob", sorted(WALL_CLOCK_ONLY))
    def test_wall_clock_knob_keeps_results_bit_identical(
        self, knob, tmp_path, reference_search
    ):
        base = SearchConfig()
        mutate = WALL_CLOCK_ONLY[knob] or (
            lambda c: replace(c, store=StoreSpec(path=str(tmp_path / "s")))
        )
        changed = mutate(base)
        assert changed != base
        assert changed.result_fingerprint() == base.result_fingerprint()
        with MarsSession(CNN, TOPOLOGY, changed) as session:
            result = session.search(seed=0)
        assert result.evaluation.latency_seconds.hex() == (
            reference_search.evaluation.latency_seconds.hex()
        )
        assert result.ga.history == reference_search.ga.history
        assert result.describe() == reference_search.describe()

    @pytest.mark.parametrize("knob", sorted(REFUSED))
    def test_refused_knob_is_refused_by_the_session(self, knob):
        with pytest.raises(ValueError, match=knob.removeprefix("budget.")):
            MarsSession(CNN, TOPOLOGY, REFUSED[knob](SearchConfig()))


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
    instead of being silently ignored (the session spelling is a
    ``REFUSED`` knob above; the GA-level spelling is pinned in
    ``tests/core_ga/test_engine.py``)."""

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
        config = SearchConfig.from_kwargs(
            workers=2, layer_cache=False, capacity=3
        )
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config
        assert hash(copy) == hash(config)
        assert copy.result_fingerprint() == config.result_fingerprint()


class TestFacadeAdapters:
    def test_mars_kwargs_and_config_agree(self):
        config = SearchConfig.from_kwargs(layer_cache=False)
        via_config = Mars(CNN, TOPOLOGY, config)
        via_kwargs = Mars(CNN, TOPOLOGY, layer_cache=False)
        assert via_config.config == via_kwargs.config == config

    def test_mars_honors_subproblem_capacity(self):
        # Regression: the facade used to drop the configured bound and
        # build its session with the 4096 default.
        config = SearchConfig(subproblem_capacity=16)
        with Mars(CNN, TOPOLOGY, config) as mars:
            assert mars.config.subproblem_capacity == 16
            assert mars.solution_cache.capacity == 16

    def test_session_kwargs_and_config_agree(self):
        config = SearchConfig.from_kwargs(layer_cache=False)
        with MarsSession(CNN, TOPOLOGY, config) as a:
            with MarsSession(CNN, TOPOLOGY, layer_cache=False) as b:
                assert a.config == b.config
                assert not a.config.options.layer_cache
                assert not a.evaluator.layer_cache_enabled

    def test_registry_kwargs_and_config_agree(self):
        config = SearchConfig(capacity=3)
        with MultiModelSession(TOPOLOGY, config) as a:
            with MultiModelSession(TOPOLOGY, capacity=3) as b:
                assert a.config == b.config
                assert a.capacity == b.capacity == 3
        with MultiModelSession.from_config(TOPOLOGY, config) as alias:
            assert alias.config == config

    def test_config_constructed_search_is_bit_identical_to_kwargs(self):
        config = SearchConfig()
        fresh = Mars(CNN, TOPOLOGY).search(seed=0)
        with MarsSession(CNN, TOPOLOGY, config) as session:
            warm = session.search(seed=0)
        assert warm.latency_ms == fresh.latency_ms
        assert warm.describe() == fresh.describe()
        assert warm.ga.history == fresh.ga.history


class TestConfigOrKeywords:
    @pytest.mark.parametrize(
        "build",
        [
            lambda **kw: Mars(CNN, TOPOLOGY, **kw),
            lambda **kw: MarsSession(CNN, TOPOLOGY, **kw),
            lambda **kw: MultiModelSession(TOPOLOGY, **kw),
        ],
        ids=["Mars", "MarsSession", "MultiModelSession"],
    )
    def test_config_and_keywords_together_raise(self, build):
        with pytest.raises(ValueError, match="not both"):
            build(config=SearchConfig(), workers=2)

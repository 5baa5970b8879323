"""The evaluator's per-layer cost cache: bit-identity and bookkeeping.

The layer cache is a pure wall-clock optimization; these tests pin the
contract that makes it safe to leave on by default — cached and
uncached evaluations are bit-identical across models, topologies,
scenarios (weights resident vs streamed) and the DRAM-spill path — plus
the cache mechanics themselves (bounded LRU, counters, pickling, one
program whether the cache is cold, warm or off). The pricing walk itself
(:class:`~repro.core.evaluator.SubproblemCosts`, which ``evaluate_set``
calls) is held to the straight-line walk of
:mod:`tests.core.reference_walk`.
"""

import pickle
from dataclasses import astuple, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import design1_superlip, design2_systolic
from repro.core.evaluator import (
    EvaluatorOptions,
    LayerCacheStats,
    MappingEvaluator,
    SubproblemCosts,
)
from repro.core.formulation import (
    AcceleratorSet,
    LayerRange,
    Mapping,
    SetAssignment,
)
from repro.core.ga import Level2Fitness, SearchBudget, optimize_set
from repro.core.ga.level2 import SHORTLIST
from repro.core.session import MarsSession
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    cached_sharding_plan,
)
from repro.dnn import build_model
from repro.dnn.layers import LOOP_DIMS, LoopDim
from repro.dnn.models.random_model import random_model
from repro.system import f1_16xlarge
from repro.utils import MIB, make_rng
from tests.core import reference_walk
from tests.core.reference_walk import reference_evaluate_set

#: Workloads mixing the zoo with fuzzed shapes (primes, tiny maps).
GRAPHS = [
    build_model("tiny_cnn"),
    random_model(3),
    random_model(11),
]

#: The table arm adds multi-input layers: residual adds with a compute
#: layer on each input (random_22, where the first can lack a plan) and
#: squeezenet's channel concats.
TABLE_GRAPHS = [*GRAPHS, random_model(22), build_model("squeezenet")]

#: Strategy motifs the generator draws from (feasible and infeasible
#: ones both — infeasible plans exercise the penalty path).
CANDIDATE_STRATEGIES = [
    ParallelismStrategy(),
    ParallelismStrategy(es=(LoopDim.H,)),
    ParallelismStrategy(es=(LoopDim.H, LoopDim.W)),
    ParallelismStrategy(es=(LoopDim.COUT,)),
    ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN)),
    ParallelismStrategy(es=(LoopDim.CIN, LoopDim.H)),
    ParallelismStrategy(es=(LoopDim.KH, LoopDim.KW)),
    ParallelismStrategy(es=(LoopDim.H,), ss=LoopDim.COUT),
    ParallelismStrategy(es=(LoopDim.COUT,), ss=LoopDim.H),
    ParallelismStrategy(ss=LoopDim.CIN),
]


def _random_strategies(graph, seed: int, omit: float = 0.0) -> dict:
    """A strategy per compute layer; each layer is left out (priced as
    replicated) with probability ``omit``."""
    rng = make_rng(seed)
    strategies = {}
    for node in graph.compute_nodes():
        strategy = CANDIDATE_STRATEGIES[
            int(rng.integers(len(CANDIDATE_STRATEGIES)))
        ]
        if rng.random() >= omit:
            strategies[node.name] = strategy
    return strategies


def _options(weights_resident: bool, layer_cache: bool) -> EvaluatorOptions:
    return EvaluatorOptions(
        weights_resident=weights_resident, layer_cache=layer_cache
    )


def _assert_set_evaluations_identical(a, b):
    assert a.latency_seconds == b.latency_seconds
    assert a.feasible == b.feasible
    assert a.memory == b.memory
    assert len(a.layer_costs) == len(b.layer_costs)
    for ca, cb in zip(a.layer_costs, b.layer_costs):
        assert ca.name == cb.name
        assert ca.compute_seconds == cb.compute_seconds
        assert ca.resharding_seconds == cb.resharding_seconds
        assert ca.allreduce_seconds == cb.allreduce_seconds
        assert ca.rotation_seconds == cb.rotation_seconds
        assert ca.halo_seconds == cb.halo_seconds


class TestBitIdentity:
    """Cache on vs off is invisible in the numbers."""

    @settings(max_examples=30, deadline=None)
    @given(
        graph_index=st.integers(0, len(GRAPHS) - 1),
        strategy_seed=st.integers(0, 10_000),
        accs=st.sampled_from([(0,), (0, 1), (0, 1, 2, 3), (4, 5)]),
        weights_resident=st.booleans(),
    )
    def test_evaluate_set_bit_identical_cache_on_vs_off(
        self, graph_index, strategy_seed, accs, weights_resident
    ):
        graph = GRAPHS[graph_index]
        topology = f1_16xlarge()
        strategies = _random_strategies(graph, strategy_seed)
        cached = MappingEvaluator(
            graph, topology, _options(weights_resident, True)
        )
        uncached = MappingEvaluator(
            graph, topology, _options(weights_resident, False)
        )
        baseline = uncached.evaluate_set(
            graph.nodes(), accs, design2_systolic(), strategies
        )
        cold = cached.evaluate_set(
            graph.nodes(), accs, design2_systolic(), strategies
        )
        warm = cached.evaluate_set(
            graph.nodes(), accs, design2_systolic(), strategies
        )
        _assert_set_evaluations_identical(cold, baseline)
        _assert_set_evaluations_identical(warm, baseline)

    @settings(max_examples=15, deadline=None)
    @given(
        graph_index=st.integers(0, len(GRAPHS) - 1),
        strategy_seed=st.integers(0, 10_000),
        weights_resident=st.booleans(),
    )
    def test_spill_path_bit_identical(
        self, graph_index, strategy_seed, weights_resident
    ):
        """Tiny DRAM forces the host-spill charge; identity must hold."""
        graph = GRAPHS[graph_index]
        topology = f1_16xlarge(dram_bytes=16 * 1024)
        strategies = _random_strategies(graph, strategy_seed)
        cached = MappingEvaluator(
            graph, topology, _options(weights_resident, True)
        )
        uncached = MappingEvaluator(
            graph, topology, _options(weights_resident, False)
        )
        accs = (0, 1)
        baseline = uncached.evaluate_set(
            graph.nodes(), accs, design1_superlip(), strategies
        )
        warmup = cached.evaluate_set(
            graph.nodes(), accs, design1_superlip(), strategies
        )
        again = cached.evaluate_set(
            graph.nodes(), accs, design1_superlip(), strategies
        )
        assert not baseline.memory.fits  # the scenario actually spills
        _assert_set_evaluations_identical(warmup, baseline)
        _assert_set_evaluations_identical(again, baseline)

    def test_spill_path_bit_identical_vgg16(self):
        """Deterministic spill: VGG-16 weights cannot fit 1 MiB DRAM."""
        graph = build_model("vgg16")
        topology = f1_16xlarge(dram_bytes=1 * MIB)
        strategies = _random_strategies(graph, 7)
        cached = MappingEvaluator(graph, topology, _options(True, True))
        uncached = MappingEvaluator(graph, topology, _options(True, False))
        accs = (0, 1, 2, 3)
        baseline = uncached.evaluate_set(
            graph.nodes(), accs, design2_systolic(), strategies
        )
        warm = [
            cached.evaluate_set(
                graph.nodes(), accs, design2_systolic(), strategies
            )
            for _ in range(2)
        ][1]
        assert not baseline.memory.fits
        assert baseline.memory.overflow_bytes > 0
        _assert_set_evaluations_identical(warm, baseline)

    @settings(max_examples=10, deadline=None)
    @given(
        graph_index=st.integers(0, len(GRAPHS) - 1),
        strategy_seed=st.integers(0, 10_000),
        weights_resident=st.booleans(),
    )
    def test_evaluate_mapping_bit_identical(
        self, graph_index, strategy_seed, weights_resident
    ):
        graph = GRAPHS[graph_index]
        topology = f1_16xlarge()
        strategies = _random_strategies(graph, strategy_seed)
        positions = [
            i for i, node in enumerate(graph.nodes()) if node.is_compute
        ]
        cut = positions[len(positions) // 2] if len(positions) > 1 else 1
        assignments = []
        for layer_range, accs in [
            (LayerRange(0, cut), (0, 1, 2, 3)),
            (LayerRange(cut, len(graph)), (4, 5)),
        ]:
            members = {
                graph.nodes()[i].name for i in layer_range.indices()
            }
            assignments.append(
                SetAssignment(
                    layer_range=layer_range,
                    acc_set=AcceleratorSet(accs),
                    design=design2_systolic(),
                    strategies={
                        name: s
                        for name, s in strategies.items()
                        if name in members
                    },
                )
            )
        mapping = Mapping(
            graph=graph, topology=topology, assignments=assignments
        )
        cached = MappingEvaluator(
            graph, topology, _options(weights_resident, True)
        )
        uncached = MappingEvaluator(
            graph, topology, _options(weights_resident, False)
        )
        baseline = uncached.evaluate_mapping(mapping)
        cold = cached.evaluate_mapping(mapping)
        warm = cached.evaluate_mapping(mapping)
        for result in (cold, warm):
            assert result.latency_seconds == baseline.latency_seconds
            assert result.transfer_seconds == baseline.transfer_seconds
            assert result.host_input_seconds == baseline.host_input_seconds
            assert result.transfer_breakdown == baseline.transfer_breakdown
            assert result.feasible == baseline.feasible
            for sa, sb in zip(
                result.set_evaluations, baseline.set_evaluations
            ):
                _assert_set_evaluations_identical(sa, sb)

    @settings(max_examples=30, deadline=None)
    @given(
        graph_index=st.integers(0, len(TABLE_GRAPHS) - 1),
        strategy_seed=st.integers(0, 10_000),
        accs=st.sampled_from([(0,), (0, 1), (0, 1, 2, 3), (4, 5)]),
        weights_resident=st.booleans(),
        layer_cache=st.booleans(),
        tiny_dram=st.booleans(),
        start=st.integers(0, 1_000),
        length=st.integers(1, 1_000),
    )
    def test_subproblem_table_bit_identical(
        self, graph_index, strategy_seed, accs, weights_resident,
        layer_cache, tiny_dram, start, length,
    ):
        """The level-2 table prices every strategies dict exactly as
        the reference walk does: infeasible plans, left-out layers, the
        spill and weight-stream charges, and contiguous sub-ranges whose
        first inputs come from outside the set (the entry)."""
        graph = TABLE_GRAPHS[graph_index]
        topology = (
            f1_16xlarge(dram_bytes=16 * 1024) if tiny_dram else f1_16xlarge()
        )
        design = design1_superlip() if tiny_dram else design2_systolic()
        reference = MappingEvaluator(
            graph, topology, _options(weights_resident, False)
        )
        # One evaluator under every table, so tables also miss into
        # layer-cache entries that earlier tables left.
        evaluator = MappingEvaluator(
            graph, topology, _options(weights_resident, layer_cache)
        )
        base = _random_strategies(graph, strategy_seed, omit=0.25)

        def assert_table_matches(nodes, dicts):
            table = SubproblemCosts(evaluator, nodes, accs, design)
            for strategies in dicts:
                expected = reference_evaluate_set(
                    reference, nodes, accs, design, strategies
                ).latency_seconds
                got = table.latency(table.phenotype(strategies))
                assert got.hex() == expected.hex()
            return table

        # Every cut, so each multi-input layer sees its inputs split
        # between the set and the entry.
        all_nodes = graph.nodes()
        for cut in range(len(all_nodes)):
            assert_table_matches(all_nodes[cut:], [base])
        # Many dicts through one table, so later ones replay records the
        # earlier ones left under other upstream states: two random
        # dicts, then every candidate on every layer of the first.
        start %= len(all_nodes)
        nodes = all_nodes[start : start + length]
        dicts = [base, _random_strategies(graph, strategy_seed + 1), base]
        for node in nodes:
            if node.is_compute:
                dicts.extend(
                    {**base, node.name: strategy}
                    for strategy in CANDIDATE_STRATEGIES
                )
        table = assert_table_matches(nodes, dicts)
        for index, node in enumerate(nodes):
            if not node.is_compute:
                continue
            for strategy in SHORTLIST + tuple(CANDIDATE_STRATEGIES):
                alone = reference_evaluate_set(
                    reference, [node], accs, design, {node.name: strategy}
                )
                got = table.layer_latency(index, strategy)
                if alone.feasible:
                    assert got is not None
                    assert got.hex() == alone.latency_seconds.hex()
                else:
                    assert got is None

    @pytest.mark.parametrize(
        "model, span, accs, design",
        [
            ("resnet34", slice(40, 90), (0, 1), design1_superlip()),
            ("alexnet", slice(None), (0, 1, 2, 3), design1_superlip()),
        ],
    )
    def test_optimize_set_identical_to_evaluate_set_pricing(
        self, monkeypatch, model, span, accs, design
    ):
        """Level 2 priced from the table equals level 2 priced by the
        reference walk: strategies, latency and GA history; and the
        table misses into the layer cache once per distinct (layer
        shape, strategy) with a plan that the reference walk priced, so
        the repeated blocks of resnet34 share their misses."""
        graph = build_model(model)
        nodes = graph.nodes()[span]
        config = replace(SearchBudget.fast().level2, cache=True)

        def solve():
            return optimize_set(
                MappingEvaluator(graph, f1_16xlarge()),
                nodes,
                accs,
                design,
                config,
                make_rng(0),
            )

        tabled = solve()

        def walked_call(self, phenotype):
            return reference_evaluate_set(
                self.evaluator,
                self.nodes,
                self.accs,
                self.design,
                self.costs.strategies(phenotype),
            ).latency_seconds

        def walked_layer(self, index, strategy):
            node = self.nodes[index]
            alone = reference_evaluate_set(
                self.evaluator,
                [node],
                self.accs,
                self.design,
                {node.name: strategy},
            )
            return alone.latency_seconds if alone.feasible else None

        # The layer-cache keys the walked arm prices (the accelerator
        # set, design and cost model are fixed within one solve; a
        # strategy with no plan has no upstream-free price to cache;
        # layers of one conv spec share a price).
        priced = set()
        compute_layer_cost = reference_walk.compute_layer_cost

        def spied(evaluator, node, accs, designs, strategy, *rest):
            seconds, plan = compute_layer_cost(
                evaluator, node, accs, designs, strategy, *rest
            )
            if plan is not None:
                priced.add((node.conv_spec(), strategy))
            return seconds, plan

        monkeypatch.setattr(Level2Fitness, "__call__", walked_call)
        monkeypatch.setattr(SubproblemCosts, "layer_latency", walked_layer)
        monkeypatch.setattr(reference_walk, "compute_layer_cost", spied)
        walked = solve()
        assert tabled.strategies == walked.strategies
        assert tabled.latency_seconds == walked.latency_seconds
        assert tabled.ga.history == walked.ga.history
        assert len(set(tabled.ga.history)) > 1  # the GA moved off its seeds
        assert tabled.ga.layer_cache.evictions == 0
        assert tabled.ga.layer_cache.misses == len(priced)


class TestCacheMechanics:
    def _evaluator(self, **overrides) -> MappingEvaluator:
        return MappingEvaluator(
            GRAPHS[0], f1_16xlarge(), EvaluatorOptions(**overrides)
        )

    def test_second_evaluation_hits(self):
        """The LRU holds compute layers only: non-compute layers are
        priced from a per-set memo that the counters do not see."""
        evaluator = self._evaluator()
        strategies = _random_strategies(GRAPHS[0], 0)
        compute = len(GRAPHS[0].compute_nodes())
        assert compute < len(GRAPHS[0].nodes())
        evaluator.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        after_cold = evaluator.layer_cache_stats
        assert after_cold.misses == compute
        assert after_cold.hits == 0
        assert after_cold.entries == after_cold.misses
        evaluator.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        after_warm = evaluator.layer_cache_stats
        assert after_warm.misses == after_cold.misses
        assert after_warm.hits == compute
        assert after_warm.hit_rate == pytest.approx(0.5)

    def test_disabled_cache_reports_zeros(self):
        evaluator = self._evaluator(layer_cache=False)
        strategies = _random_strategies(GRAPHS[0], 0)
        evaluator.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        assert not evaluator.layer_cache_enabled
        assert evaluator.layer_cache_stats == LayerCacheStats()

    def test_capacity_bound_evicts(self):
        evaluator = self._evaluator(layer_cache_capacity=4)
        strategies = _random_strategies(GRAPHS[0], 0)
        evaluator.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        stats = evaluator.layer_cache_stats
        assert stats.entries <= 4
        assert stats.evictions == stats.misses - stats.entries

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            self._evaluator(layer_cache_capacity=0)

    def test_program_emission_same_cold_warm_and_off(self):
        """compile_program prices through the same memos as the search:
        a cold evaluator, one warmed by evaluate_set on the same sets
        (whose program then replays LRU hits) and one with the cache
        off emit the same steps."""
        strategies = _random_strategies(GRAPHS[0], 0)
        mapping = Mapping(
            graph=GRAPHS[0],
            topology=f1_16xlarge(),
            assignments=[
                SetAssignment(
                    layer_range=LayerRange(0, len(GRAPHS[0])),
                    acc_set=AcceleratorSet((0, 1)),
                    design=design2_systolic(),
                    strategies=strategies,
                )
            ],
        )
        cold = self._evaluator().compile_program(mapping)
        warmed = self._evaluator()
        for assignment in mapping.assignments:
            warmed.evaluate_set(
                mapping.nodes_of(assignment),
                assignment.acc_set.accs,
                assignment.design,
                assignment.strategies,
            )
        hits = warmed.layer_cache_stats.hits
        warm = warmed.compile_program(mapping)
        assert warmed.layer_cache_stats.hits > hits
        off = self._evaluator(layer_cache=False).compile_program(mapping)
        assert len(cold.steps) > 0
        assert warm.steps == cold.steps
        assert off.steps == cold.steps

    def test_hits_return_fresh_cost_objects(self):
        """Mutating a returned LayerCost must not poison the cache."""
        evaluator = self._evaluator()
        strategies = _random_strategies(GRAPHS[0], 0)
        nodes = GRAPHS[0].nodes()
        first = evaluator.evaluate_set(
            nodes, (0, 1), design2_systolic(), strategies
        )
        expected = first.layer_costs[0].compute_seconds
        first.layer_costs[0].compute_seconds = 123.0
        second = evaluator.evaluate_set(
            nodes, (0, 1), design2_systolic(), strategies
        )
        assert second.layer_costs[0].compute_seconds == expected
        assert second.layer_costs[0] is not first.layer_costs[0]

    def test_clear_layer_cache(self):
        """Every price memo, resharding's alignment memo included, is on
        with the cache and off without it, emptied by
        ``clear_layer_cache`` and left behind by a pickle."""
        strategies = _random_strategies(GRAPHS[0], 0)
        off = self._evaluator(layer_cache=False)
        off.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        assert off._alignment_memo is None
        evaluator = self._evaluator()
        evaluator.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        assert evaluator.layer_cache_stats.entries > 0
        assert evaluator._lightweight_memo
        assert evaluator._compute_memo
        assert evaluator._alignment_memo
        assert evaluator._transfer_memo
        # Keyed per (input-need state id, upstream state id).
        for need, upstream in evaluator._alignment_memo:
            assert evaluator._states.dicts[need] is not None
            assert evaluator._states.dicts[upstream] is not None
        assert evaluator.__getstate__()["_alignment_memo"] is None
        assert pickle.loads(pickle.dumps(evaluator))._alignment_memo == {}
        evaluator.clear_layer_cache()
        assert evaluator.layer_cache_stats.entries == 0
        assert evaluator._lightweight_memo == {}
        assert evaluator._compute_memo == {}
        assert evaluator._alignment_memo == {}
        assert evaluator._transfer_memo == {}

    def test_session_clear_empties_lightweight_memo(self):
        """And every other price memo; interned ids may stay."""
        with MarsSession(GRAPHS[0], f1_16xlarge()) as session:
            session.search(seed=0)
            evaluator = session.evaluator
            assert evaluator._lightweight_memo
            assert evaluator._compute_memo
            assert evaluator._alignment_memo
            assert any(evaluator._transfer_memo.values())
            session.clear()
            assert evaluator._lightweight_memo == {}
            assert evaluator._compute_memo == {}
            assert evaluator._alignment_memo == {}
            assert evaluator._transfer_memo == {}
            assert evaluator.layer_cache_stats.entries == 0

    def test_lightweight_price_ignores_upstream_sharding(self):
        """One memo entry per (kind, output shape, set) serves every
        upstream state and every layer of that kind and shape."""
        graph = GRAPHS[0]
        evaluator = self._evaluator()
        uncached = self._evaluator(layer_cache=False)
        producer = graph.compute_nodes()[0]
        states = []
        # The first compute layer's strategy sets the sharding that
        # reaches the non-compute layer after it.
        for strategy in (
            NO_PARALLELISM,
            ParallelismStrategy(es=(LoopDim.H,)),
            ParallelismStrategy(es=(LoopDim.COUT,)),
        ):
            strategies = {
                **_random_strategies(graph, 0), producer.name: strategy
            }
            got = evaluator.evaluate_set(
                graph.nodes(), (0, 1), design2_systolic(), strategies
            )
            expected = uncached.evaluate_set(
                graph.nodes(), (0, 1), design2_systolic(), strategies
            )
            _assert_set_evaluations_identical(got, expected)
            plan = cached_sharding_plan(producer.conv_spec(), strategy, 2)
            states.append(plan.output_sharding)
        assert len({tuple(state.items()) for state in states}) == 3
        (memo,) = evaluator._lightweight_memo.values()
        shapes = {
            (node.kind, *astuple(node.output_shape))
            for node in graph.nodes()
            if not node.is_compute
        }
        assert set(memo) == shapes
        assert len(shapes) < len(graph.nodes()) - len(graph.compute_nodes())

    def test_pickling_drops_cache_but_not_behaviour(self):
        evaluator = self._evaluator()
        strategies = _random_strategies(GRAPHS[0], 0)
        original = evaluator.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        assert evaluator.__getstate__()["_lightweight_memo"] is None
        clone = pickle.loads(pickle.dumps(evaluator))
        assert clone.layer_cache_enabled
        assert clone.layer_cache_stats == LayerCacheStats()
        assert clone._lightweight_memo == {}
        replay = clone.evaluate_set(
            GRAPHS[0].nodes(), (0, 1), design2_systolic(), strategies
        )
        _assert_set_evaluations_identical(replay, original)

    def test_stats_since_deltas(self):
        later = LayerCacheStats(hits=10, misses=4, entries=7, evictions=2)
        earlier = LayerCacheStats(hits=6, misses=1, entries=5, evictions=2)
        delta = later.since(earlier)
        assert delta == LayerCacheStats(
            hits=4, misses=3, entries=7, evictions=0
        )
        assert delta.lookups == 7
        assert delta.hit_rate == pytest.approx(4 / 7)

    def test_merge_worker_sums_counters_and_keeps_the_largest_gauge(self):
        a = LayerCacheStats(hits=10, misses=4, entries=7, evictions=2)
        b = LayerCacheStats(hits=6, misses=1, entries=5, evictions=3)
        expected = LayerCacheStats(hits=16, misses=5, entries=7, evictions=5)
        assert a.merge(b, gauge=max) == expected
        assert b.merge(a, gauge=max) == expected
        # ``merge`` sums the gauge instead.
        assert a.merge(b).entries == 12

    def test_design_variants_do_not_collide(self):
        """Same-named design with different parameters gets its own
        entries — the cache keys on the design object, not its name."""
        from dataclasses import replace as dc_replace

        graph = GRAPHS[0]
        evaluator = MappingEvaluator(graph, f1_16xlarge())
        strategies = _random_strategies(graph, 0)
        stock = design2_systolic()
        doubled = dc_replace(stock, num_pes=stock.num_pes * 2)
        assert doubled.name == stock.name
        first = evaluator.evaluate_set(
            graph.nodes(), (0, 1), stock, strategies
        )
        second = evaluator.evaluate_set(
            graph.nodes(), (0, 1), doubled, strategies
        )
        uncached = MappingEvaluator(
            graph, f1_16xlarge(), EvaluatorOptions(layer_cache=False)
        )
        expected = uncached.evaluate_set(
            graph.nodes(), (0, 1), doubled, strategies
        )
        _assert_set_evaluations_identical(second, expected)
        assert second.latency_seconds != first.latency_seconds

    def test_distinct_sets_do_not_collide(self):
        """Same layer+strategy on different acc sets prices differently."""
        graph = build_model("vgg16")
        evaluator = MappingEvaluator(graph, f1_16xlarge())
        strategies = {
            n.name: ParallelismStrategy(es=(LoopDim.H, LoopDim.W))
            for n in graph.compute_nodes()
        }
        small = evaluator.evaluate_set(
            graph.nodes(), (0, 1), design2_systolic(), strategies
        )
        large = evaluator.evaluate_set(
            graph.nodes(), (0, 1, 2, 3), design2_systolic(), strategies
        )
        uncached = MappingEvaluator(
            graph, f1_16xlarge(), EvaluatorOptions(layer_cache=False)
        )
        assert (
            large.latency_seconds
            == uncached.evaluate_set(
                graph.nodes(), (0, 1, 2, 3), design2_systolic(), strategies
            ).latency_seconds
        )
        assert small.latency_seconds != large.latency_seconds

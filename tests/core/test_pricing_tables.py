"""The evaluator's integer pricing tables, shared by every set walk.

GA phenotypes (strategy ids decoded by ``prepare_population`` and
priced by ``Level2Fitness``), the greedy seed's ``layer_latency`` and
``evaluate_set`` all walk :class:`~repro.core.evaluator.SubproblemCosts`
tables that share one evaluator's strategy catalogs, state ids and
price memos, all keyed on a layer's shape: upstream-free seconds per
(catalog id, strategy id, set), compute seconds per (catalog id,
strategy id, designs), records per (strategy id, upstream state id),
shared by the layers of one shape. The oracle holds every price taken
through them to the memo-free walk of :mod:`tests.core.reference_walk`
on a cache-off evaluator, over sub-problems chosen so that a key
missing one of its parts aliases two different prices: two sets of one
size on different designs, a smaller set on one of those designs,
layers whose first input has no plan, and a graph whose layers repeat
one shape under different names. The guards pin what the tables must
not do: price anything with the cache off, or leak into a pickle.
"""

import pickle
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accelerators import design1_superlip, design2_systolic
from repro.core.costmodel import AnalyticalCostModel
from repro.core.evaluator import (
    EvaluatorOptions,
    LayerCacheStats,
    MappingEvaluator,
    SubproblemCosts,
)
from repro.core.ga import Level2Fitness
from repro.core.ga.level1 import SubproblemSolver
from repro.core.ga.level2 import SHORTLIST, greedy_strategies
from repro.core.session import MarsSession
from repro.core.sharding import (
    NO_PARALLELISM,
    ParallelismStrategy,
    cached_sharding_plan,
)
from repro.dnn import build_model
from repro.dnn.builder import GraphBuilder
from repro.dnn.layers import ConvSpec, LoopDim
from repro.system import f1_16xlarge
from repro.utils import make_rng
from tests.core.reference_walk import reference_evaluate_set
from tests.core.test_layer_cache import TABLE_GRAPHS, _random_strategies
from tests.core.test_reference_walk import _assert_evaluations_identical

TOPOLOGIES = {False: f1_16xlarge(), True: f1_16xlarge(dram_bytes=16 * 1024)}
DESIGNS = (design1_superlip(), design2_systolic())

#: Two sets of one size, then a smaller one, then the first set again.
SETS = ((0, 1, 2, 3), (4, 5, 6, 7), (0, 1), (0, 1, 2, 3))


@settings(max_examples=25, deadline=None)
@given(
    graph_index=st.integers(0, len(TABLE_GRAPHS) - 1),
    spans=st.lists(
        st.tuples(st.integers(0, 1_000), st.integers(1, 1_000)),
        min_size=3,
        max_size=4,
    ),
    swap_designs=st.booleans(),
    weights_resident=st.booleans(),
    tiny_dram=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_shared_tables_price_as_the_reference_walk(
    graph_index, spans, swap_designs, weights_resident, tiny_dram, seed
):
    """Sub-problem ``k`` runs on ``SETS[k]`` with the designs
    alternating, so the two four-accelerator sets differ in design, the
    pair shares one with a four-accelerator set, and a fourth
    sub-problem puts the first set on the other design. On each:
    random populations decoded and priced twice (the second pass
    replays records), every shortlist strategy priced alone, and
    ``evaluate_set`` on the decoded strategies and on a random dict
    whose strategies may lack a plan. The 16 KiB topology makes every
    set spill."""
    graph = TABLE_GRAPHS[graph_index]
    topology = TOPOLOGIES[tiny_dram]
    options = EvaluatorOptions(weights_resident=weights_resident)
    evaluator = MappingEvaluator(graph, topology, options)
    reference = MappingEvaluator(
        graph, topology, replace(options, layer_cache=False)
    )
    designs = DESIGNS[::-1] if swap_designs else DESIGNS
    rng = make_rng(seed)
    all_nodes = graph.nodes()
    for k, (start, length) in enumerate(spans):
        accs, design = SETS[k], designs[k % 2]
        start %= len(all_nodes)
        nodes = all_nodes[start : start + length]

        def expected(strategies):
            return reference_evaluate_set(
                reference, nodes, accs, design, strategies
            )

        fitness = Level2Fitness(evaluator, nodes, accs, design)
        dicts = [_random_strategies(graph, seed + k, omit=0.25)]
        if fitness.compute_nodes:
            population = rng.random((6, fitness.genome_length))
            phenotypes = fitness.prepare_population(population)
            for phenotype in phenotypes + phenotypes:
                strategies = fitness.costs.strategies(phenotype)
                assert fitness(phenotype).hex() == (
                    expected(strategies).latency_seconds.hex()
                )
            dicts.append(fitness.decode(population[0]))
        for index, node in enumerate(nodes):
            if not node.is_compute:
                continue
            for strategy in SHORTLIST:
                alone = reference_evaluate_set(
                    reference, [node], accs, design, {node.name: strategy}
                )
                got = fitness.costs.layer_latency(index, strategy)
                if alone.feasible:
                    assert got is not None
                    assert got.hex() == alone.latency_seconds.hex()
                else:
                    assert got is None
        for strategies in dicts:
            _assert_evaluations_identical(
                evaluator.evaluate_set(nodes, accs, design, strategies),
                expected(strategies),
            )


def _squeezenet_head():
    graph = build_model("squeezenet")
    return graph, graph.nodes()[:30]


def test_cache_off_memoizes_no_price(monkeypatch):
    """With the layer cache off, every ``evaluate_set`` call and every
    pricing of a phenotype reaches the cost model's compute once per
    compute layer with a plan, and the cache counters stay zero; only
    interned ids persist between calls."""
    graph, nodes = _squeezenet_head()
    accs, design = (0, 1, 2, 3), design2_systolic()
    evaluator = MappingEvaluator(
        graph, f1_16xlarge(), EvaluatorOptions(layer_cache=False)
    )
    calls = 0
    conv_compute_seconds = AnalyticalCostModel.conv_compute_seconds

    def counted(self, designs, plan):
        nonlocal calls
        calls += 1
        return conv_compute_seconds(self, designs, plan)

    monkeypatch.setattr(
        AnalyticalCostModel, "conv_compute_seconds", counted
    )
    fitness = Level2Fitness(evaluator, nodes, accs, design)
    (phenotype,) = fitness.prepare_population(
        [make_rng(0).random(fitness.genome_length)]
    )
    strategies = fitness.costs.strategies(phenotype)
    planned = sum(
        cached_sharding_plan(
            node.conv_spec(), strategies[node.name], len(accs)
        )
        is not None
        for node in nodes
        if node.is_compute
    )
    assert planned == 12
    for price in (
        lambda: evaluator.evaluate_set(nodes, accs, design, strategies),
        lambda: evaluator.evaluate_set(nodes, accs, design, strategies),
        lambda: fitness(phenotype),
        lambda: fitness(phenotype),
    ):
        calls = 0
        price()
        assert calls == planned
        assert evaluator.layer_cache_stats == LayerCacheStats()


def test_tables_stay_in_the_evaluator():
    """The sub-problem job the pool ships pickles to the same bytes
    after one warm search and after two, and no id reaches a result."""
    graph = build_model("squeezenet")
    with MarsSession(graph, f1_16xlarge()) as session:
        level2 = session.config.budget.level2

        def payload() -> bytes:
            return pickle.dumps(SubproblemSolver(session.evaluator, level2))

        session.search(seed=0)
        first = payload()
        result = session.search(seed=1)
        assert payload() == first
        assert session.evaluator._catalogs  # the tables were in use
    for assignment in result.mapping.assignments:
        assert assignment.strategies
        for strategy in assignment.strategies.values():
            assert isinstance(strategy, ParallelismStrategy)


def _two_layer_graph(channels: int):
    """``stem`` then ``head``, ``channels`` wide: graphs of different
    widths share every layer name and no conv spec."""
    b = GraphBuilder(f"two_layers_{channels}")
    stem = b.conv(b.input(3, 16, 16), channels, 3, padding=1, name="stem")
    x = b.relu(stem)
    b.conv(x, channels, 3, padding=1, name="head")
    return b.build()


def test_a_seen_set_resolves_no_catalog(monkeypatch):
    """A table over node objects and a set size seen before takes the
    evaluator's layout of them: building it hashes no ``ConvSpec``, on
    the same set or another of that size, and it prices as the first
    walk did. Node objects that only share the names get a layout of
    their own, and a pickle carries no layout."""
    graph, nodes = _squeezenet_head()
    accs, design = (0, 1, 2, 3), design2_systolic()
    evaluator = MappingEvaluator(graph, f1_16xlarge())
    strategies = _random_strategies(graph, 0)
    first = evaluator.evaluate_set(nodes, accs, design, strategies)
    hashes = 0
    spec_hash = ConvSpec.__hash__

    def counted(self):
        nonlocal hashes
        hashes += 1
        return spec_hash(self)

    monkeypatch.setattr(ConvSpec, "__hash__", counted)
    again = evaluator.evaluate_set(list(nodes), accs, design, strategies)
    SubproblemCosts(evaluator, list(nodes), (4, 5, 6, 7), design)
    assert hashes == 0
    _assert_evaluations_identical(again, first)
    assert evaluator.__getstate__()["_layouts"] == {}
    assert pickle.loads(pickle.dumps(evaluator))._layouts == {}

    narrow, wide = _two_layer_graph(8), _two_layer_graph(16)
    shared = MappingEvaluator(narrow, f1_16xlarge())
    both = {
        name: ParallelismStrategy(es=(LoopDim.COUT,))
        for name in ("stem", "head")
    }
    for graph in (narrow, wide, narrow):
        _assert_evaluations_identical(
            shared.evaluate_set(graph.nodes(), accs, design, both),
            MappingEvaluator(graph, f1_16xlarge()).evaluate_set(
                graph.nodes(), accs, design, both
            ),
        )


def _repeated_shapes_graph():
    """Two differently named convs of one spec (``left``, ``right``),
    two more (``wide``, ``out``), and a concat beside a ReLU of its
    output shape: the concat drops the channel sharding that the ReLU
    passes on to ``out``."""
    b = GraphBuilder("repeated_shapes")
    x = b.relu(b.conv(b.input(3, 16, 16), 16, 3, padding=1, name="stem"))
    left = b.conv(x, 16, 3, padding=1, name="left")
    right = b.conv(b.relu(left), 16, 3, padding=1, name="right")
    wide = b.conv(b.concat([left, right]), 32, 3, padding=1, name="wide")
    b.conv(b.relu(wide), 32, 3, padding=1, name="out")
    return b.build()


SHAPES_GRAPH = _repeated_shapes_graph()

#: Sets of 2 and of 4 on one design, a set of 4 whose links cross the
#: two groups (host-staged) on that design, and the first set of 4 on
#: the other design.
SHAPES_SUBPROBLEMS = (
    ((0, 1), DESIGNS[0]),
    ((0, 1, 2, 3), DESIGNS[0]),
    ((2, 3, 4, 5), DESIGNS[0]),
    ((0, 1, 2, 3), DESIGNS[1]),
)

SHAPES_CANDIDATES = (
    NO_PARALLELISM,
    ParallelismStrategy(es=(LoopDim.COUT,)),
    ParallelismStrategy(es=(LoopDim.H,)),
    ParallelismStrategy(es=(LoopDim.H, LoopDim.W)),
    ParallelismStrategy(es=(LoopDim.COUT, LoopDim.CIN)),
    ParallelismStrategy(es=(LoopDim.H,), ss=LoopDim.COUT),
    ParallelismStrategy(ss=LoopDim.CIN),
)

_SHAPES_DICT = st.fixed_dictionaries(
    {
        node.name: st.sampled_from(SHAPES_CANDIDATES)
        for node in SHAPES_GRAPH.compute_nodes()
    }
)

#: Every layer sharded on its output channels: ``left`` and ``wide``
#: then leave one state, which the concat and the ReLU move apart.
_ALL_COUT = {
    node.name: SHAPES_CANDIDATES[1] for node in SHAPES_GRAPH.compute_nodes()
}


def _reference_greedy(reference, nodes, accs, design):
    """The greedy seed's choice per compute layer, from the reference
    walk: the cheapest feasible shortlist strategy priced alone, ties to
    the earlier one, replicated when none is feasible."""
    chosen = {}
    for node in nodes:
        if not node.is_compute:
            continue
        best, chosen[node.name] = None, NO_PARALLELISM
        for rank, strategy in enumerate(SHORTLIST):
            alone = reference_evaluate_set(
                reference, [node], accs, design, {node.name: strategy}
            )
            key = (alone.latency_seconds, rank)
            if alone.feasible and (best is None or key < best):
                best, chosen[node.name] = key, strategy
    return chosen


@settings(max_examples=12, deadline=None)
@given(
    dicts=st.lists(_SHAPES_DICT, min_size=1, max_size=3),
    order=st.permutations(range(len(SHAPES_SUBPROBLEMS))),
    weights_resident=st.booleans(),
)
@example(
    dicts=[_ALL_COUT], order=list(range(len(SHAPES_SUBPROBLEMS))),
    weights_resident=True,
)
@example(
    dicts=[_ALL_COUT], order=list(range(len(SHAPES_SUBPROBLEMS))),
    weights_resident=False,
)
def test_layers_of_one_shape_share_every_price_soundly(
    dicts, order, weights_resident
):
    """Layers of one conv spec share a catalog, their LRU entries and
    their records, and non-compute layers of one kind and output shape
    share their prices, yet every latency (GA walk, greedy seed,
    ``evaluate_set``) equals the reference walk's: on sets of 2 and of
    4 in one evaluator, on two sets of 4 with different links, and on
    one set under two designs. The LRU misses once per distinct (conv
    spec, strategy, set), fewer than the (layer, strategy, set)
    triples, and the catalogs number their (spec, set size) pairs
    from 0."""
    graph = SHAPES_GRAPH
    options = EvaluatorOptions(weights_resident=weights_resident)
    evaluator = MappingEvaluator(graph, f1_16xlarge(), options)
    reference = MappingEvaluator(
        graph, f1_16xlarge(), replace(options, layer_cache=False)
    )
    nodes = graph.nodes()
    shapes, names, catalogs = set(), set(), {}
    for accs, design in (SHAPES_SUBPROBLEMS[k] for k in order):
        table = SubproblemCosts(evaluator, nodes, accs, design)
        for strategies in dicts + dicts:
            expected = reference_evaluate_set(
                reference, nodes, accs, design, strategies
            )
            got = table.latency(table.phenotype(strategies))
            assert got.hex() == expected.latency_seconds.hex()
            _assert_evaluations_identical(
                evaluator.evaluate_set(nodes, accs, design, strategies),
                expected,
            )
        assert greedy_strategies(table) == _reference_greedy(
            reference, nodes, accs, design
        )
        for node, catalog in zip(table.compute_nodes, table.catalogs):
            spec = node.conv_spec()
            assert (catalog.spec, catalog.p) == (spec, len(accs))
            assert catalogs.setdefault((spec, len(accs)), catalog) is catalog
            for strategy in [*(d[node.name] for d in dicts), *SHORTLIST]:
                if cached_sharding_plan(spec, strategy, len(accs)):
                    shapes.add((spec, strategy, accs, design.name))
                    names.add((node.name, strategy, accs, design.name))
    # One catalog per (spec, set size), numbered in first-sight order.
    layers = len(order) * len(graph.compute_nodes())
    assert len(evaluator._catalogs) == len(catalogs) < layers
    assert [c.id for c in catalogs.values()] == list(range(len(catalogs)))
    stats = evaluator.layer_cache_stats
    assert stats.evictions == 0
    assert stats.misses == len(shapes) < len(names)

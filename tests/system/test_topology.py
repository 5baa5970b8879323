"""Topology graph semantics: links, host staging, bottleneck queries."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import h2h_catalog
from repro.system import (
    Accelerator,
    Link,
    SystemTopology,
    chiplet_mesh,
    f1_16xlarge,
    h2h_fixed_system,
)
from repro.utils.units import GIB, gbps


def _two_group_system() -> SystemTopology:
    accs = [
        Accelerator(i, f"a{i}", 1 * GIB, "g1" if i < 2 else "g2")
        for i in range(4)
    ]
    links = [Link(0, 1, gbps(8)), Link(2, 3, gbps(8))]
    host = {i: gbps(2) for i in range(4)}
    return SystemTopology("t", accs, links, host)


class TestConstruction:
    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            SystemTopology("t", [], [], {})

    def test_out_of_order_ids_rejected(self):
        accs = [
            Accelerator(1, "a1", GIB, "g"),
            Accelerator(0, "a0", GIB, "g"),
        ]
        with pytest.raises(ValueError):
            SystemTopology("t", accs, [], {0: gbps(1), 1: gbps(1)})

    def test_duplicate_link_rejected(self):
        accs = [Accelerator(i, f"a{i}", GIB, "g") for i in range(2)]
        links = [Link(0, 1, gbps(8)), Link(1, 0, gbps(4))]
        with pytest.raises(ValueError):
            SystemTopology("t", accs, links, {0: gbps(1), 1: gbps(1)})

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link(2, 2, gbps(8))

    def test_link_to_unknown_accelerator_rejected(self):
        accs = [Accelerator(0, "a0", GIB, "g")]
        with pytest.raises(ValueError):
            SystemTopology("t", accs, [Link(0, 5, gbps(8))], {0: gbps(1)})

    def test_missing_host_bandwidth_rejected(self):
        accs = [Accelerator(i, f"a{i}", GIB, "g") for i in range(2)]
        with pytest.raises(ValueError):
            SystemTopology("t", accs, [], {0: gbps(1)})

    def test_fixed_system_requires_designs(self):
        accs = [Accelerator(0, "a0", GIB, "g")]
        with pytest.raises(ValueError):
            SystemTopology("t", accs, [], {0: gbps(1)}, kind="fixed")


class TestBandwidth:
    def test_direct_link_used_when_present(self):
        sys = _two_group_system()
        assert sys.effective_bandwidth(0, 1) == gbps(8)

    def test_host_staging_when_no_direct_link(self):
        # Store-and-forward through host DRAM: two serializations over
        # the 2 Gbps host links -> effective 1 Gbps.
        sys = _two_group_system()
        assert sys.effective_bandwidth(0, 2) == gbps(1)

    def test_symmetry(self):
        sys = _two_group_system()
        assert sys.effective_bandwidth(1, 0) == sys.effective_bandwidth(0, 1)

    def test_self_transfer_rejected(self):
        with pytest.raises(ValueError):
            _two_group_system().effective_bandwidth(1, 1)

    def test_direct_bandwidth_none_for_unlinked(self):
        assert _two_group_system().direct_bandwidth(0, 3) is None

    def test_path_latency_direct_vs_host(self):
        sys = _two_group_system()
        assert sys.path_latency(0, 1) == sys.link_latency_s
        assert sys.path_latency(0, 2) == 2 * sys.host_latency_s


class TestSetQueries:
    def test_min_bandwidth_within_group(self):
        sys = _two_group_system()
        assert sys.min_bandwidth_within((0, 1)) == gbps(8)

    def test_min_bandwidth_across_groups_is_host_limited(self):
        sys = _two_group_system()
        assert sys.min_bandwidth_within((0, 1, 2)) == gbps(1)

    def test_singleton_set_reports_host_bandwidth(self):
        sys = _two_group_system()
        assert sys.min_bandwidth_within((3,)) == gbps(2)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            _two_group_system().min_bandwidth_within(())

    def test_max_latency_within(self):
        sys = _two_group_system()
        assert sys.max_latency_within((0, 1)) == sys.link_latency_s
        assert sys.max_latency_within((0, 2)) == 2 * sys.host_latency_s
        assert sys.max_latency_within((0,)) == 0.0


class TestGroupsAndViews:
    def test_groups(self):
        groups = _two_group_system().groups()
        assert groups == {"g1": [0, 1], "g2": [2, 3]}

    def test_links_are_the_graph_edges(self):
        topo = _two_group_system()
        assert topo.num_accelerators == 4
        assert len(topo.links) == 2
        bandwidths = {link.key: link.bandwidth_bps for link in topo.links}
        assert bandwidths[0, 1] == gbps(8)

    def test_ascii_diagram_mentions_groups(self):
        text = _two_group_system().ascii_diagram()
        assert "g1" in text and "g2" in text


class TestFixedDesigns:
    def test_design_of_in_fixed_system(self):
        catalog = h2h_catalog()[:2]
        accs = [Accelerator(i, f"a{i}", GIB, "g") for i in range(2)]
        sys = SystemTopology(
            "t",
            accs,
            [Link(0, 1, gbps(4))],
            {0: gbps(4), 1: gbps(4)},
            kind="fixed",
            fixed_designs={0: catalog[0], 1: catalog[1]},
        )
        assert sys.design_of(0).name == catalog[0].name

    def test_design_of_rejected_on_adaptive(self):
        with pytest.raises(ValueError):
            _two_group_system().design_of(0)


# ----------------------------------------------------------------------
# Oracle: every query against answers computed straight from the fields
# ----------------------------------------------------------------------


def _ref_direct(topo: SystemTopology, a: int, b: int) -> float | None:
    for link in topo.links:
        if {link.a, link.b} == {a, b}:
            return link.bandwidth_bps
    return None


def _ref_effective(topo: SystemTopology, a: int, b: int) -> float:
    direct = _ref_direct(topo, a, b)
    if direct is not None:
        return direct
    host = topo.host_bandwidth_bps
    return min(host[a], host[b]) / 2


def _ref_latency(topo: SystemTopology, a: int, b: int) -> float:
    if _ref_direct(topo, a, b) is not None:
        return topo.link_latency_s
    return 2 * topo.host_latency_s


def _ref_bottleneck(topo: SystemTopology, pairs: list) -> tuple[float, float]:
    return (
        min(_ref_effective(topo, a, b) for a, b in pairs),
        max(_ref_latency(topo, a, b) for a, b in pairs),
    )


def _ref_within(topo: SystemTopology, accs: tuple[int, ...]):
    if len(accs) == 1:
        return topo.host_bandwidth_bps[accs[0]], 0.0
    pairs = [(a, b) for i, a in enumerate(accs) for b in accs[i + 1 :]]
    return _ref_bottleneck(topo, pairs)


def _ref_between(topo: SystemTopology, src: tuple, dst: tuple):
    pairs = [(a, b) for a in src for b in dst if a != b]
    return _ref_bottleneck(topo, pairs) if pairs else None


def _assert_pairs_match(topo: SystemTopology) -> None:
    ids = range(topo.num_accelerators)
    for a in ids:
        for b in ids:
            assert topo.direct_bandwidth(a, b) == _ref_direct(topo, a, b)
            assert topo.path_latency(a, b) == _ref_latency(topo, a, b)
            if a != b:
                assert topo.effective_bandwidth(a, b) == _ref_effective(
                    topo, a, b
                )


def _assert_sets_match(topo: SystemTopology, src: tuple, dst: tuple) -> None:
    for accs in (src, dst):
        bandwidth, latency = _ref_within(topo, accs)
        assert topo.bottleneck_within(accs) == (bandwidth, latency)
        assert topo.min_bandwidth_within(accs) == bandwidth
        assert topo.max_latency_within(accs) == latency
    assert topo.bottleneck_between(src, dst) == _ref_between(topo, src, dst)


def _sample_set(draw, n: int) -> tuple[int, ...]:
    return tuple(
        sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    )


@st.composite
def _topology_and_sets(draw):
    """A random system — 1-12 accelerators, sparse links (at most half
    the pairs linked, so the rest stage through the host), mixed host
    bandwidths — and two sets."""
    n = draw(st.integers(1, 12))
    accs = [Accelerator(i, f"a{i}", GIB, f"g{i % 3}") for i in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    linked = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) // 2))
        if pairs
        else []
    )
    rates = st.sampled_from([gbps(1), gbps(2.5), gbps(8), gbps(16), gbps(25)])
    links = [Link(a, b, draw(rates)) for a, b in linked]
    host = {i: draw(rates) for i in range(n)}
    topo = SystemTopology(
        "random",
        accs,
        links,
        host,
        link_latency_s=draw(st.sampled_from([5e-7, 2e-6])),
        host_latency_s=draw(st.sampled_from([1e-6, 10e-6])),
    )
    return topo, _sample_set(draw, n), _sample_set(draw, n)


def _presets() -> list[SystemTopology]:
    return [f1_16xlarge(), chiplet_mesh(), h2h_fixed_system(8.0)]


class TestQueriesMatchReference:
    @pytest.mark.parametrize("topo", _presets(), ids=lambda t: t.name)
    def test_presets_every_pair_and_every_set(self, topo):
        _assert_pairs_match(topo)
        n = topo.num_accelerators
        sets = [
            tuple(i for i in range(n) if mask >> i & 1)
            for mask in range(1, 1 << n)
        ]
        for accs in sets:
            _assert_sets_match(topo, accs, accs)
        # Set pairs: every set against the singletons, the halves and
        # the full system (all 2^n x 2^n pairs would be slow).
        partners = [(i,) for i in range(n)] + [
            tuple(range(n // 2)),
            tuple(range(n // 2, n)),
            tuple(range(n)),
        ]
        for src in sets:
            for dst in partners:
                _assert_sets_match(topo, src, dst)
                _assert_sets_match(topo, dst, src)

    @settings(max_examples=150, deadline=None)
    @given(case=_topology_and_sets())
    def test_random_topologies(self, case):
        topo, src, dst = case
        _assert_pairs_match(topo)
        _assert_sets_match(topo, src, dst)
        # A second round answers from the memos: same values.
        _assert_sets_match(topo, src, dst)

    @settings(max_examples=50, deadline=None)
    @given(case=_topology_and_sets())
    def test_pickle_round_trip_keeps_answers(self, case):
        topo, src, dst = case
        _assert_sets_match(topo, src, dst)  # build tables and memos first
        clone = pickle.loads(pickle.dumps(topo))
        assert clone == topo
        _assert_pairs_match(clone)
        _assert_sets_match(clone, src, dst)

    def test_self_transfer_and_empty_sets_still_rejected(self):
        topo = f1_16xlarge()
        topo.min_bandwidth_within((0, 1))  # tables built
        for acc in range(topo.num_accelerators):
            with pytest.raises(ValueError):
                topo.effective_bandwidth(acc, acc)
        with pytest.raises(ValueError):
            topo.min_bandwidth_within((2, 2))
        for query in (topo.min_bandwidth_within, topo.bottleneck_within):
            with pytest.raises(ValueError):
                query(())
        for src, dst in (((), (0,)), ((0,), ()), ((), ())):
            with pytest.raises(ValueError):
                topo.bottleneck_between(src, dst)
        assert topo.max_latency_within(()) == 0.0


class TestDerivedStateNeverTravels:
    def test_queries_leave_pickle_bytes_unchanged(self):
        topo = f1_16xlarge()
        before = pickle.dumps(topo)
        _assert_pairs_match(topo)
        _assert_sets_match(topo, (0, 1, 2, 3), (4, 5))
        assert pickle.dumps(topo) == before

    def test_search_leaves_pickle_bytes_unchanged(self):
        from repro.core.session import MarsSession
        from repro.dnn import build_model

        topo = f1_16xlarge()
        before = pickle.dumps(topo)
        with MarsSession(build_model("tiny_cnn"), topo) as session:
            session.search(seed=0)
        assert pickle.dumps(topo) == before

    def test_unpickled_topology_builds_tables_on_first_query(self):
        topo = f1_16xlarge()
        topo.min_bandwidth_within(tuple(range(8)))
        clone = pickle.loads(pickle.dumps(topo))
        assert "_pair_tables" not in clone.__dict__
        assert clone.effective_bandwidth(0, 4) == topo.effective_bandwidth(0, 4)
        assert "_pair_tables" in clone.__dict__

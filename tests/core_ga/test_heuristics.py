"""Search-space pruning heuristics (Section V)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators import profile_designs, table2_designs
from repro.core.ga import (
    candidate_partitions,
    design_gene_seed,
    edge_removal_partitions,
)
from repro.dnn import build_model
from repro.system import (
    Accelerator,
    Link,
    SystemTopology,
    f1_16xlarge,
    h2h_fixed_system,
)
from repro.utils.units import GIB, gbps


class TestEdgeRemoval:
    def test_first_stage_is_whole_system(self):
        partitions = edge_removal_partitions(f1_16xlarge())
        assert partitions[0] == (tuple(range(8)),)

    def test_second_stage_is_the_two_groups(self):
        partitions = edge_removal_partitions(f1_16xlarge())
        assert partitions[1] == ((0, 1, 2, 3), (4, 5, 6, 7))

    def test_last_stage_is_singletons(self):
        partitions = edge_removal_partitions(f1_16xlarge())
        assert partitions[-1] == tuple((i,) for i in range(8))

    def test_every_stage_covers_all_accelerators(self):
        for partition in edge_removal_partitions(f1_16xlarge()):
            covered = sorted(a for s in partition for a in s)
            assert covered == list(range(8))

    def test_sets_are_disjoint(self):
        for partition in edge_removal_partitions(f1_16xlarge()):
            seen = set()
            for acc_set in partition:
                assert not seen.intersection(acc_set)
                seen.update(acc_set)


@st.composite
def _random_topologies(draw) -> SystemTopology:
    """1-9 accelerators in 1-3 groups; each pair linked with p ~ 0.4 at
    a rate from a small set (so stages tie), random host rates."""
    n = draw(st.integers(1, 9))
    groups = draw(st.integers(1, 3))
    accs = [
        Accelerator(i, f"a{i}", GIB, f"g{draw(st.integers(0, groups - 1))}")
        for i in range(n)
    ]
    rates = st.sampled_from([gbps(1), gbps(2), gbps(4), gbps(8)])
    links = [
        Link(a, b, draw(rates))
        for a in range(n)
        for b in range(a + 1, n)
        if draw(st.integers(0, 9)) < 4
    ]
    host = {i: draw(rates) for i in range(n)}
    return SystemTopology("random", accs, links, host)


def _reference_edge_removal(topology: SystemTopology) -> list:
    """Components by BFS over the edges strictly above each threshold:
    every edge first, then each distinct bandwidth in ascending order."""
    n = topology.num_accelerators
    edges = {
        (a, b): topology.effective_bandwidth(a, b)
        for a in range(n)
        for b in range(a + 1, n)
    }
    partitions = []
    for threshold in [float("-inf")] + sorted(set(edges.values())):
        neighbours = {a: [] for a in range(n)}
        for (a, b), bandwidth in edges.items():
            if bandwidth > threshold:
                neighbours[a].append(b)
                neighbours[b].append(a)
        seen, components = set(), []
        for start in range(n):
            if start in seen:
                continue
            seen.add(start)
            component, frontier = [start], [start]
            while frontier:
                for other in neighbours[frontier.pop()]:
                    if other not in seen:
                        seen.add(other)
                        component.append(other)
                        frontier.append(other)
            components.append(tuple(sorted(component)))
        partition = tuple(components)
        if partition not in partitions:
            partitions.append(partition)
    return partitions


class TestEdgeRemovalMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(topology=_random_topologies())
    def test_random_topologies(self, topology):
        assert edge_removal_partitions(topology) == _reference_edge_removal(
            topology
        )


class TestCandidateCatalog:
    def test_includes_asymmetric_shapes(self):
        partitions = candidate_partitions(f1_16xlarge())
        shapes = {tuple(sorted(len(s) for s in p)) for p in partitions}
        assert (2, 2, 4) in shapes  # the paper's VGG16 mapping shape

    def test_no_duplicates(self):
        partitions = candidate_partitions(f1_16xlarge())
        assert len(partitions) == len(set(partitions))

    def test_h2h_system_catalog(self):
        partitions = candidate_partitions(h2h_fixed_system(2.0))
        assert (tuple(range(4)),) in partitions
        assert tuple((i,) for i in range(4)) in partitions

    def test_deterministic(self):
        assert candidate_partitions(f1_16xlarge()) == candidate_partitions(
            f1_16xlarge()
        )


class TestDesignSeed:
    def test_scores_align_with_design_order(self):
        profile = profile_designs(build_model("vgg16"), table2_designs())
        names = [d.name for d in table2_designs()]
        seed = design_gene_seed(profile, names)
        assert len(seed) == 3
        assert max(seed) == pytest.approx(1.0)
        scores = profile.normalized_scores()
        assert seed == [scores[n] for n in names]

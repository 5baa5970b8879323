"""Search-space pruning heuristics of Section V.

Three heuristics make the two-level GA tractable:

1. **Edge-removal AccSet candidates** — iteratively delete the
   lowest-bandwidth edges of G(Acc, BW); the connected components at
   each stage become candidate partitions of the accelerators into
   sets, biased towards sets with no internal bandwidth bottleneck.
   The components come from a small union-find walk in this module,
   not from a graph library.
2. **Profiled design initialization** — design genes start at the
   designs' normalized profiled performance on the workload, so strong
   designs dominate the first generation.
3. **Contiguous layer allocation** — each accelerator set receives a
   contiguous run of layers in topological order (encoded directly in
   the level-1 genome decode, see :mod:`repro.core.ga.level1`).
"""

from __future__ import annotations

from itertools import product

from repro.accelerators.profiler import WorkloadProfile
from repro.system.topology import SystemTopology

#: A partition: disjoint accelerator tuples covering all accelerators.
Partition = tuple[tuple[int, ...], ...]


def _components(n: int, edges: dict[tuple[int, int], float]) -> Partition:
    """Connected components of accelerators ``0..n-1`` over the pairs in
    ``edges`` (union-find), each sorted and ordered by its smallest
    member."""
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for a, b in edges:
        root[find(a)] = find(b)
    # One ascending sweep: members join in order, and each component
    # first appears at its smallest member.
    components: dict[int, list[int]] = {}
    for a in range(n):
        components.setdefault(find(a), []).append(a)
    return tuple(tuple(members) for members in components.values())


def edge_removal_partitions(topology: SystemTopology) -> list[Partition]:
    """Candidate AccSet partitions via iterative lowest-edge removal.

    The graph starts with every communicating pair (host-staged pairs
    included at their effective bandwidth, mirroring the paper's
    G(Acc, BW)); at each stage all edges tied at the current minimum
    bandwidth are removed and the connected components are recorded.
    The first stage therefore yields the whole-system set, then the
    intra-group sets, down to singletons.
    """
    n = topology.num_accelerators
    edges = {link.key: link.bandwidth_bps for link in topology.links}
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges:
                edges[a, b] = topology.effective_bandwidth(a, b)

    partitions = [_components(n, edges)]
    while edges:
        lowest = min(edges.values())
        edges = {pair: bw for pair, bw in edges.items() if bw > lowest}
        partition = _components(n, edges)
        if partition not in partitions:
            partitions.append(partition)
    return partitions


def _group_subdivisions(members: list[int]) -> list[tuple[tuple[int, ...], ...]]:
    """Ways to subdivide one group: whole, halves, and pairs/singletons."""
    options: list[tuple[tuple[int, ...], ...]] = [(tuple(members),)]
    n = len(members)
    if n >= 2:
        mid = n // 2
        halves = (tuple(members[:mid]), tuple(members[mid:]))
        if halves not in options:
            options.append(halves)
    if n >= 4:
        pairs = tuple(
            tuple(members[i : min(i + 2, n)]) for i in range(0, n, 2)
        )
        if pairs not in options:
            options.append(pairs)
    return options


def subdivision_partitions(topology: SystemTopology) -> list[Partition]:
    """Mid-granularity candidates beyond the edge-removal walk.

    Uniform intra-group bandwidth makes the edge-removal walk jump from
    whole groups straight to singletons; the paper's found mappings use
    intermediate shapes (e.g. VGG16 on 4 + 2 + 2 accelerators). These
    candidates combine per-group subdivisions (whole / halves / pairs)
    across groups — asymmetric combinations included.
    """
    per_group = [
        _group_subdivisions(list(members))
        for members in topology.groups().values()
    ]
    # Set-based dedup: the product over per-group subdivisions grows
    # combinatorially on many-group topologies, where the old list
    # membership scan made catalog construction quadratic.
    partitions: list[Partition] = []
    seen: set[Partition] = set()
    for combo in product(*per_group):
        flattened: list[tuple[int, ...]] = []
        for sets in combo:
            flattened.extend(sets)
        partition = tuple(sorted(flattened, key=lambda c: c[0]))
        if partition not in seen:
            seen.add(partition)
            partitions.append(partition)
    return partitions


def candidate_partitions(topology: SystemTopology) -> list[Partition]:
    """The level-1 GA's partition catalog (deduplicated, deterministic)."""
    result = edge_removal_partitions(topology)
    seen = set(result)
    for partition in subdivision_partitions(topology):
        if partition not in seen:
            seen.add(partition)
            result.append(partition)
    return result


def design_gene_seed(
    profile: WorkloadProfile, design_names: list[str]
) -> list[float]:
    """Initial design-gene values from normalized profiled performance.

    Section V: "The gene value of these designs at the first generation
    is initialized according to the normalized performance."
    """
    scores = profile.normalized_scores()
    return [scores[name] for name in design_names]

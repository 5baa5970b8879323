"""Multi-accelerator system topology: the graph G(Acc, BW) of Section III.

Vertices are accelerators (with attached off-chip DRAM); weighted edges
are direct communication links. Every accelerator additionally reaches
the host over a (slow) host link, so accelerators without a direct edge
communicate through the host — the asymmetric pattern of Fig. 1 that the
mapping must respect.

Systems come in two flavours:

* ``adaptive`` — each accelerator's design is configurable (the F1
  scenario; MARS chooses designs).
* ``fixed`` — designs are baked per accelerator (the H2H comparison).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from repro.accelerators.base import AcceleratorDesign
from repro.utils.rng import stable_digest
from repro.utils.validation import require, require_positive

#: Memo marker for a set pair not priced yet (``None`` is a real answer).
_UNSEEN = object()

#: A per-pair quantity keyed by ordered accelerator pair.
_PairTable = dict[tuple[int, int], float]


@dataclass(frozen=True)
class Accelerator:
    """One configurable accelerator with attached off-chip DRAM."""

    acc_id: int
    name: str
    dram_bytes: int
    group: str

    def __post_init__(self) -> None:
        require(self.acc_id >= 0, f"acc_id must be >= 0, got {self.acc_id}")
        require_positive(self.dram_bytes, "dram_bytes")


@dataclass(frozen=True)
class Link:
    """A direct, symmetric accelerator-to-accelerator link."""

    a: int
    b: int
    bandwidth_bps: float

    def __post_init__(self) -> None:
        require(self.a != self.b, f"self-link on accelerator {self.a}")
        require_positive(self.bandwidth_bps, "bandwidth_bps")

    @property
    def key(self) -> tuple[int, int]:
        return (min(self.a, self.b), max(self.a, self.b))


@dataclass
class SystemTopology:
    """The multi-accelerator system graph.

    Attributes:
        name: Identifier used in reports.
        accelerators: All accelerators, indexed by ``acc_id`` = position.
        links: Direct links (symmetric; one entry per unordered pair).
        host_bandwidth_bps: Per-accelerator bandwidth to host memory.
        link_latency_s: Per-hop latency of a direct link.
        host_latency_s: Per-hop latency of a host-side transfer.
        kind: ``"adaptive"`` or ``"fixed"``.
        fixed_designs: For ``fixed`` systems, design per accelerator.
    """

    name: str
    accelerators: list[Accelerator]
    links: list[Link]
    host_bandwidth_bps: dict[int, float]
    link_latency_s: float = 2e-6
    host_latency_s: float = 10e-6
    kind: str = "adaptive"
    fixed_designs: dict[int, AcceleratorDesign] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(bool(self.accelerators), "topology needs at least one accelerator")
        require(
            self.kind in ("adaptive", "fixed"),
            f"kind must be 'adaptive' or 'fixed', got {self.kind!r}",
        )
        ids = [acc.acc_id for acc in self.accelerators]
        require(
            ids == list(range(len(ids))),
            f"accelerator ids must be 0..n-1 in order, got {ids}",
        )
        self._link_by_key: dict[tuple[int, int], Link] = {}
        for link in self.links:
            require(
                link.a < len(ids) and link.b < len(ids),
                f"link {link.key} references unknown accelerator",
            )
            require(
                link.key not in self._link_by_key,
                f"duplicate link {link.key}",
            )
            self._link_by_key[link.key] = link
        for acc in self.accelerators:
            require(
                acc.acc_id in self.host_bandwidth_bps,
                f"accelerator {acc.acc_id} has no host bandwidth",
            )
        if self.kind == "fixed":
            for acc in self.accelerators:
                require(
                    acc.acc_id in self.fixed_designs,
                    f"fixed system lacks a design for accelerator {acc.acc_id}",
                )
        self._init_derived()

    def _init_derived(self) -> None:
        """Empty the set memos; the pair tables are built on first use."""
        self._within_memo: dict[tuple[int, ...], tuple[float, float]] = {}
        self._between_memo: dict[tuple, tuple[float, float] | None] = {}

    #: Derived query state: pure functions of the fields, never pickled.
    _DERIVED = ("_pair_tables", "_within_memo", "_between_memo")

    def __getstate__(self) -> dict:
        # Leaving derived state behind keeps a topology's pickle the same
        # before and after a search (every search reply and pool payload
        # carries one); the receiving process rebuilds it on first query.
        state = dict(self.__dict__)
        for name in self._DERIVED:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_derived()

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the system (accelerators, links, rates).

        Every field the cost model reads contributes — accelerators
        (id, name, DRAM, group), links and their bandwidths, host
        bandwidths, per-hop latencies, the system kind and any fixed
        designs — plus the system name, so any perturbation yields a
        different digest while rebuilding the same preset twice (even
        in another process) yields the same one. See
        :meth:`repro.dnn.graph.ComputationGraph.fingerprint` for why
        this exists: fingerprints are the process-boundary-safe tenant
        identity of the serving layer.

        Computed once and cached; mutating a topology in place after
        construction is not supported anywhere in the mapper.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = stable_digest(
                "topology-v1",
                self.name,
                self.kind,
                tuple(
                    (acc.acc_id, acc.name, acc.dram_bytes, acc.group)
                    for acc in self.accelerators
                ),
                tuple(
                    (link.key, link.bandwidth_bps)
                    for link in sorted(self.links, key=lambda l: l.key)
                ),
                tuple(sorted(self.host_bandwidth_bps.items())),
                self.link_latency_s,
                self.host_latency_s,
                tuple(
                    (acc_id, repr(design))
                    for acc_id, design in sorted(self.fixed_designs.items())
                ),
            )
            self.__dict__["_fingerprint"] = cached
        return cached

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_accelerators(self) -> int:
        return len(self.accelerators)

    def accelerator(self, acc_id: int) -> Accelerator:
        return self.accelerators[acc_id]

    def groups(self) -> dict[str, list[int]]:
        """Accelerator ids per group, in id order."""
        result: dict[str, list[int]] = {}
        for acc in self.accelerators:
            result.setdefault(acc.group, []).append(acc.acc_id)
        return result

    def design_of(self, acc_id: int) -> AcceleratorDesign:
        """The fixed design of an accelerator (fixed systems only)."""
        require(
            self.kind == "fixed",
            "design_of() is only defined for fixed-design systems",
        )
        return self.fixed_designs[acc_id]

    # ------------------------------------------------------------------
    # Connectivity and bandwidth
    # ------------------------------------------------------------------
    #
    # Every answer below is a pure function of the (immutable) fields.
    # The pair queries read all-pairs tables built on first use, and the
    # set queries memoize one bottleneck summary per set or set pair:
    # the evaluator's ring and transfer formulas ask about a few dozen
    # sets millions of times per search. None of it is pickled (see
    # ``__getstate__``).

    def direct_bandwidth(self, a: int, b: int) -> float | None:
        """Bandwidth of the direct link between ``a`` and ``b``, if any."""
        key = (min(a, b), max(a, b))
        link = self._link_by_key.get(key)
        return link.bandwidth_bps if link else None

    def host_bandwidth(self, acc_id: int) -> float:
        return self.host_bandwidth_bps[acc_id]

    def effective_bandwidth(self, a: int, b: int) -> float:
        """End-to-end bandwidth between two accelerators.

        Directly linked pairs use the link. Pairs without a direct link
        stage traffic through host memory (store-and-forward: DMA up to
        host DRAM, then DMA down), so a message of S bytes costs two
        serializations — an effective rate of half the slower host link.
        """
        require(a != b, f"no transfer between an accelerator and itself ({a})")
        return self._tables()[0][a, b]

    def path_latency(self, a: int, b: int) -> float:
        """Per-message latency between two accelerators."""
        # Pairs outside the table (a == b) have no direct link either.
        return self._tables()[1].get((a, b), 2 * self.host_latency_s)

    def min_bandwidth_within(self, acc_ids: tuple[int, ...]) -> float:
        """Bottleneck pairwise bandwidth inside a candidate accelerator set.

        Collectives inside a set are limited by the slowest pairwise
        path; singleton sets communicate only with themselves, reported
        as the host bandwidth for memory-spill estimates.
        """
        return self.bottleneck_within(acc_ids)[0]

    def max_latency_within(self, acc_ids: tuple[int, ...]) -> float:
        """Worst per-hop latency inside a set (ring hops use neighbours)."""
        if len(acc_ids) <= 1:
            return 0.0
        return self.bottleneck_within(acc_ids)[1]

    def bottleneck_within(self, acc_ids: tuple[int, ...]) -> tuple[float, float]:
        """``(min_bandwidth_within, max_latency_within)`` of a set."""
        summary = self._within_memo.get(acc_ids)
        if summary is None:
            require(bool(acc_ids), "empty accelerator set")
            if len(acc_ids) == 1:
                summary = (self.host_bandwidth(acc_ids[0]), 0.0)
            else:
                pairs = [
                    (a, b) for i, a in enumerate(acc_ids) for b in acc_ids[i + 1 :]
                ]
                for a, b in pairs:
                    require(
                        a != b,
                        f"no transfer between an accelerator and itself ({a})",
                    )
                summary = self._bottleneck(pairs)
            self._within_memo[acc_ids] = summary
        return summary

    def bottleneck_between(
        self, src_accs: tuple[int, ...], dst_accs: tuple[int, ...]
    ) -> tuple[float, float] | None:
        """Minimum bandwidth and maximum latency over the pairs that move
        data from ``src_accs`` to ``dst_accs`` (every ``a != b``), or
        ``None`` when there is no such pair: the same single accelerator
        on both sides, where the data is already local."""
        key = (src_accs, dst_accs)
        summary = self._between_memo.get(key, _UNSEEN)
        if summary is _UNSEEN:
            require(bool(src_accs) and bool(dst_accs), "empty accelerator set")
            pairs = [(a, b) for a in src_accs for b in dst_accs if a != b]
            summary = self._bottleneck(pairs) if pairs else None
            self._between_memo[key] = summary
        return summary

    def _bottleneck(self, pairs: list[tuple[int, int]]) -> tuple[float, float]:
        """Slowest bandwidth and latency over ``pairs`` (all ``a != b``)."""
        bandwidth, latency = self._tables()
        return (
            min(bandwidth[pair] for pair in pairs),
            max(latency[pair] for pair in pairs),
        )

    def _tables(self) -> tuple[_PairTable, _PairTable]:
        """Effective bandwidth and path latency of every ordered pair of
        distinct accelerators, built on first use."""
        tables = self.__dict__.get("_pair_tables")
        if tables is None:
            bandwidth: _PairTable = {}
            latency: _PairTable = {}
            for a, b in permutations(range(self.num_accelerators), 2):
                link = self._link_by_key.get((min(a, b), max(a, b)))
                if link is not None:
                    bandwidth[a, b] = link.bandwidth_bps
                    latency[a, b] = self.link_latency_s
                else:
                    bandwidth[a, b] = (
                        min(self.host_bandwidth(a), self.host_bandwidth(b)) / 2
                    )
                    latency[a, b] = 2 * self.host_latency_s  # up and down
            tables = self.__dict__["_pair_tables"] = (bandwidth, latency)
        return tables

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------

    def ascii_diagram(self) -> str:
        """A small textual rendering of the topology (Fig. 1 style)."""
        lines = [f"System {self.name!r} ({self.kind}):"]
        for group, members in self.groups().items():
            rendered = ", ".join(
                f"Acc{m}" + (
                    f"[{self.fixed_designs[m].name}]"
                    if self.kind == "fixed"
                    else ""
                )
                for m in members
            )
            lines.append(f"  {group}: {rendered}")
        seen_bandwidths = sorted({l.bandwidth_bps for l in self.links})
        for bw in seen_bandwidths:
            pairs = [l.key for l in self.links if l.bandwidth_bps == bw]
            lines.append(f"  links @ {bw / 1e9:.1f} Gbps: {pairs}")
        host = sorted({bw for bw in self.host_bandwidth_bps.values()})
        lines.append(
            "  host links @ "
            + ", ".join(f"{bw / 1e9:.1f} Gbps" for bw in host)
        )
        return "\n".join(lines)

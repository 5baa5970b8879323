"""Closed-form communication cost model (the GA's fast path).

The mapping search evaluates thousands of candidate strategies; this
model prices each collective with the standard ring-algorithm formulas
over the topology's bottleneck bandwidth, mirroring what ASTRA-Sim's
analytical backend provides. The event-driven simulator
(:mod:`repro.simulator.collectives`) validates these numbers in tests.

All methods return seconds and take accelerator-id tuples so the same
call sites can later switch to the event-driven implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.topology import SystemTopology
from repro.utils.units import transfer_seconds
from repro.utils.validation import require


@dataclass(frozen=True)
class AnalyticalCommModel:
    """Ring-collective cost formulas over a :class:`SystemTopology`."""

    topology: SystemTopology

    # ------------------------------------------------------------------
    # Ring collectives within an accelerator set
    # ------------------------------------------------------------------

    def allreduce_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        """Ring all-reduce of an ``nbytes`` tensor across ``group``.

        Reduce-scatter + all-gather: ``2 (P-1)/P * S / B`` plus
        ``2 (P-1)`` hop latencies. Degenerates to 0 for P <= 1.
        """
        p = len(group)
        if p <= 1 or nbytes == 0:
            return 0.0
        bandwidth, latency = self.topology.bottleneck_within(group)
        wire = 2 * (p - 1) / p * transfer_seconds(nbytes, bandwidth)
        return wire + 2 * (p - 1) * latency

    def allgather_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        """Ring all-gather so every member ends with the full ``nbytes``."""
        p = len(group)
        if p <= 1 or nbytes == 0:
            return 0.0
        bandwidth, latency = self.topology.bottleneck_within(group)
        wire = (p - 1) / p * transfer_seconds(nbytes, bandwidth)
        return wire + (p - 1) * latency

    def reduce_scatter_seconds(self, group: tuple[int, ...], nbytes: float) -> float:
        """Ring reduce-scatter; same wire time as all-gather."""
        return self.allgather_seconds(group, nbytes)

    def ring_step_seconds(self, group: tuple[int, ...], shard_bytes: float) -> float:
        """One SS rotation: every member forwards its shard to its ring
        neighbour concurrently (Fig. 2(c) phase boundary)."""
        if len(group) <= 1 or shard_bytes == 0:
            return 0.0
        bandwidth, latency = self.topology.bottleneck_within(group)
        return transfer_seconds(shard_bytes, bandwidth) + latency

    # ------------------------------------------------------------------
    # Point-to-point and set-to-set
    # ------------------------------------------------------------------

    def p2p_seconds(self, src: int, dst: int, nbytes: float) -> float:
        if nbytes == 0 or src == dst:
            return 0.0
        bandwidth = self.topology.effective_bandwidth(src, dst)
        return transfer_seconds(nbytes, bandwidth) + self.topology.path_latency(src, dst)

    def set_to_set_seconds(
        self,
        src_accs: tuple[int, ...],
        dst_accs: tuple[int, ...],
        total_bytes: float,
        bytes_per_dst: float | None = None,
    ) -> float:
        """Move a tensor from one accelerator set to the next.

        The producer set holds the tensor sharded over ``src_accs``; the
        consumer set needs ``bytes_per_dst`` on each member (defaults to
        an even split of ``total_bytes``). The cost is a LogP-style
        bound: the slower of source-side egress and destination-side
        ingress over the bottleneck pairwise bandwidth, plus one path
        latency.
        """
        require(bool(src_accs) and bool(dst_accs), "empty accelerator set")
        if total_bytes == 0:
            return 0.0
        bottleneck = self.topology.bottleneck_between(src_accs, dst_accs)
        if bottleneck is None:
            return 0.0  # single accelerator on both sides: data is local
        if bytes_per_dst is None:
            bytes_per_dst = total_bytes / len(dst_accs)
        total_moved = bytes_per_dst * len(dst_accs)
        bandwidth, latency = bottleneck
        egress = transfer_seconds(total_moved / len(src_accs), bandwidth)
        ingress = transfer_seconds(bytes_per_dst, bandwidth)
        return max(egress, ingress) + latency

    # ------------------------------------------------------------------
    # Host traffic
    # ------------------------------------------------------------------

    def host_round_trip_seconds(self, acc: int, nbytes: float) -> float:
        """Spill ``nbytes`` to host memory and read it back (overflow)."""
        if nbytes == 0:
            return 0.0
        bandwidth = self.topology.host_bandwidth(acc)
        return 2 * (
            transfer_seconds(nbytes, bandwidth) + self.topology.host_latency_s
        )

    def host_read_seconds(self, acc: int, nbytes: float) -> float:
        """One-way host-memory -> accelerator read (e.g. initial input)."""
        if nbytes == 0:
            return 0.0
        bandwidth = self.topology.host_bandwidth(acc)
        return transfer_seconds(nbytes, bandwidth) + self.topology.host_latency_s

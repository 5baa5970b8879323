"""Event-driven collective communication over the network model.

These implement the primitives that
:class:`~repro.core.costmodel.AnalyticalCostModel` prices in closed
form, but execute on the :class:`~repro.simulator.network.Network`'s
serialized resources, so contention (e.g. two collectives fighting
over a host port) is captured. Tests cross-check against them the
closed forms that every search prices with.

Rings are laid out in ascending accelerator-id order; in step ``k`` of a
ring algorithm each member sends one chunk to its successor and the step
completes when every member has received its chunk (ring steps are
data-dependent, so members synchronize per step).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.network import Network
from repro.utils.validation import require


@dataclass
class CollectiveEngine:
    """Runs collectives on a network; methods return completion times."""

    network: Network

    def _ring(self, group: tuple[int, ...]) -> list[tuple[int, int]]:
        ordered = sorted(group)
        return [
            (ordered[i], ordered[(i + 1) % len(ordered)])
            for i in range(len(ordered))
        ]

    def _ring_rounds(
        self, group: tuple[int, ...], chunk_bytes: float, rounds: int, start: float
    ) -> float:
        """Run ``rounds`` synchronized ring steps of ``chunk_bytes``."""
        if len(group) <= 1 or chunk_bytes == 0 or rounds == 0:
            return start
        ring = self._ring(group)
        ready = {acc: start for acc in group}
        for _ in range(rounds):
            arrivals = {}
            for src, dst in ring:
                end = self.network.transfer_end_time(
                    ready[src], src, dst, chunk_bytes
                )
                arrivals[dst] = end
            # A member may start the next step once it has sent (resource
            # reservation already ordered it) and received.
            step_end = max(arrivals.values())
            for acc in group:
                ready[acc] = max(arrivals.get(acc, start), ready[acc])
            # Synchronize: ring steps are data-dependent on the slowest.
            for acc in group:
                ready[acc] = step_end
        return max(ready.values())

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def allreduce(self, group: tuple[int, ...], nbytes: float, start: float = 0.0) -> float:
        """Ring all-reduce: reduce-scatter then all-gather of chunks."""
        p = len(group)
        if p <= 1 or nbytes == 0:
            return start
        chunk = nbytes / p
        after_rs = self._ring_rounds(group, chunk, p - 1, start)
        return self._ring_rounds(group, chunk, p - 1, after_rs)

    def allgather(self, group: tuple[int, ...], nbytes: float, start: float = 0.0) -> float:
        p = len(group)
        if p <= 1 or nbytes == 0:
            return start
        return self._ring_rounds(group, nbytes / p, p - 1, start)

    def reduce_scatter(self, group: tuple[int, ...], nbytes: float, start: float = 0.0) -> float:
        return self.allgather(group, nbytes, start)

    def ring_step(self, group: tuple[int, ...], shard_bytes: float, start: float = 0.0) -> float:
        """One SS rotation step (Fig. 2(c) phase boundary)."""
        return self._ring_rounds(group, shard_bytes, 1, start)

    def p2p(self, src: int, dst: int, nbytes: float, start: float = 0.0) -> float:
        if src == dst or nbytes == 0:
            return start
        return self.network.transfer_end_time(start, src, dst, nbytes)

    def set_to_set(
        self,
        src_accs: tuple[int, ...],
        dst_accs: tuple[int, ...],
        total_bytes: float,
        start: float = 0.0,
        bytes_per_dst: float | None = None,
    ) -> float:
        """Producer set -> consumer set tensor movement.

        Each destination pulls its share from source members assigned
        round-robin; concurrent transfers contend on the shared
        resources naturally.
        """
        require(bool(src_accs) and bool(dst_accs), "empty accelerator set")
        if total_bytes == 0:
            return start
        if bytes_per_dst is None:
            bytes_per_dst = total_bytes / len(dst_accs)
        end = start
        sources = sorted(src_accs)
        for index, dst in enumerate(sorted(dst_accs)):
            src = sources[index % len(sources)]
            if src == dst:
                continue
            end = max(
                end,
                self.network.transfer_end_time(start, src, dst, bytes_per_dst),
            )
        return end

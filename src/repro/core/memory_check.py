"""DRAM validity of a parallelism choice (Section III's constraint).

"The chosen parallelism strategies are valid only if the tensor sizes of
these partitioned layers do not exceed the DRAM memory space of the
corresponding accelerator set."

Per accelerator we account:

* resident weight shards of every layer assigned to the set (weights are
  pre-loaded once and stay resident, as the paper's millisecond-scale
  latencies imply), and
* the peak activation working set (input shard + output shard, doubled
  for in-flight SS rotation buffers).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SetMemoryReport:
    """DRAM accounting for one accelerator of a set."""

    weight_bytes: int
    peak_activation_bytes: int
    capacity_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.peak_activation_bytes

    @property
    def fits(self) -> bool:
        return self.total_bytes <= self.capacity_bytes

    @property
    def overflow_bytes(self) -> int:
        return max(0, self.total_bytes - self.capacity_bytes)

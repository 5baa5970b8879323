"""Per-accelerator DRAM accounting.

The paper's validity rule (Section III): a parallelism strategy is valid
only if the sharded tensors of the layers mapped to an accelerator fit
in its off-chip DRAM. :class:`MemoryLedger` accumulates labelled
resident allocations against one accelerator's capacity and reports
the peak and any overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import bytes_to_human
from repro.utils.validation import require


@dataclass
class MemoryLedger:
    """Tracks resident bytes against a DRAM capacity."""

    capacity_bytes: int
    resident_bytes: int = 0
    peak_bytes: int = 0
    _labels: dict[str, int] = field(default_factory=dict)

    def charge(self, label: str, nbytes: int) -> None:
        """Add a resident allocation (weights, activations, buffers)."""
        require(nbytes >= 0, f"allocation {label!r} has negative size")
        self.resident_bytes += nbytes
        self._labels[label] = self._labels.get(label, 0) + nbytes
        self.peak_bytes = max(self.peak_bytes, self.resident_bytes)

    def release(self, label: str) -> None:
        """Release everything charged under ``label``."""
        nbytes = self._labels.pop(label, 0)
        self.resident_bytes -= nbytes

    @property
    def fits(self) -> bool:
        return self.peak_bytes <= self.capacity_bytes

    @property
    def overflow_bytes(self) -> int:
        """How far the peak exceeded capacity (0 when it fits)."""
        return max(0, self.peak_bytes - self.capacity_bytes)

    def describe(self) -> str:
        state = "fits" if self.fits else "OVERFLOW"
        return (
            f"peak {bytes_to_human(self.peak_bytes)} / "
            f"{bytes_to_human(self.capacity_bytes)} ({state})"
        )

"""DRAM device timing parameter sets (Ramulator-style standards).

Timings are in device clock cycles unless suffixed ``_ns``.  The two
presets used by the paper's experiments are DDR4-2400 (the DDR4-2333 of
Table I rounded to the nearest JEDEC speed bin) and an HBM2-class stack
for the MEM++ configuration of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["DramTiming", "DRAM_STANDARDS", "dram_standard"]


@dataclass(frozen=True)
class DramTiming:
    """JEDEC-style timing and geometry of one DRAM channel."""

    name: str
    tck_ns: float          # clock period
    cl: int                # CAS latency (cycles)
    trcd: int              # RAS-to-CAS delay
    trp: int               # row precharge
    tras: int              # row active time
    burst_cycles: int      # data-bus cycles per burst (BL/2 for DDR)
    n_banks: int
    row_bytes: int         # row-buffer size per bank
    bus_bytes_per_cycle: int  # data moved per bus cycle (both edges)
    trefi: int = 9360      # average refresh interval (7.8 us at 1.2 GHz)
    trfc: int = 420        # refresh cycle time (350 ns for 8 Gb parts)

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise ValueError("tck_ns must be positive")
        for field_name in ("cl", "trcd", "trp", "tras", "burst_cycles",
                           "n_banks", "row_bytes", "bus_bytes_per_cycle",
                           "trefi", "trfc"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")

    @property
    def trc(self) -> int:
        """Row cycle time: minimum spacing of activations to one bank."""
        return self.tras + self.trp

    @property
    def peak_bw_gbs(self) -> float:
        """Peak channel bandwidth in GB/s."""
        return self.bus_bytes_per_cycle / self.tck_ns


def _standards() -> Dict[str, DramTiming]:
    return {
        # 2400 MT/s x 8 B bus; BL8 -> 4 bus cycles per 64 B line.
        "DDR4-2400": DramTiming(
            name="DDR4-2400", tck_ns=1.0 / 1.2, cl=16, trcd=16, trp=16,
            tras=39, burst_cycles=4, n_banks=16, row_bytes=8192,
            bus_bytes_per_cycle=16,
        ),
        # HBM2-class pseudo-channel: wide slow bus, lower latency, more banks.
        "HBM2": DramTiming(
            name="HBM2", tck_ns=1.0, cl=14, trcd=14, trp=14,
            tras=34, burst_cycles=2, n_banks=32, row_bytes=2048,
            bus_bytes_per_cycle=32, trefi=3900, trfc=260,
        ),
    }


DRAM_STANDARDS: Dict[str, DramTiming] = _standards()


def dram_standard(name: str) -> DramTiming:
    """Look up a DRAM standard by name."""
    try:
        return DRAM_STANDARDS[name]
    except KeyError:
        raise KeyError(
            f"unknown DRAM standard {name!r}; choose from "
            f"{sorted(DRAM_STANDARDS)}"
        ) from None

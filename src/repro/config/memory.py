"""Main-memory configurations: DDR4 channel counts and HBM (Table I / II).

The base design space uses DDR4-2333 with four or eight channels.  The
"unconventional" configurations of Table II additionally use 16-channel
DDR4 (MEM+) and 16-channel HBM (MEM++).

Channel bandwidth for DDR4-2333 is ``2333 MT/s x 8 B = 18.66 GB/s``.
Each DDR4 channel is populated with two 8 GB single-rank RDIMMs
(4ch -> 8 DIMMs / 64 GB, 8ch -> 16 DIMMs / 128 GB), matching Sec. IV-C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "MemoryConfig",
    "MEMORY_PRESETS",
    "memory_preset",
    "MEMORY_LABELS",
    "GB",
]

GB = 10 ** 9


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory subsystem description.

    ``idle_latency_ns`` is the unloaded round-trip latency from the L3 miss
    point to data return; queueing delay on top of it is computed by the
    memory model as channel utilization grows.
    """

    label: str
    n_channels: int
    channel_bw_gbs: float      # peak GB/s per channel
    idle_latency_ns: float
    dimms_per_channel: int     # 0 for on-package (HBM) stacks
    #: True when the standard lacks public energy data (HBM in the paper).
    energy_data_available: bool = True

    def __post_init__(self) -> None:
        if self.n_channels <= 0:
            raise ValueError("n_channels must be positive")
        if self.channel_bw_gbs <= 0:
            raise ValueError("channel_bw_gbs must be positive")
        if self.idle_latency_ns <= 0:
            raise ValueError("idle_latency_ns must be positive")
        if self.dimms_per_channel < 0:
            raise ValueError("dimms_per_channel must be non-negative")

    @property
    def peak_bw_gbs(self) -> float:
        """Aggregate peak bandwidth across all channels (GB/s)."""
        return self.n_channels * self.channel_bw_gbs

    @property
    def total_dimms(self) -> int:
        return self.n_channels * self.dimms_per_channel


_DDR4_CH_BW = 2333e6 * 8 / 1e9     # 18.664 GB/s
_HBM_CH_BW = 32.0                  # GB/s per pseudo-channel-pair (HBM2-class)


def _presets() -> Dict[str, MemoryConfig]:
    return {
        "4chDDR4": MemoryConfig(
            label="4chDDR4", n_channels=4,
            channel_bw_gbs=_DDR4_CH_BW, idle_latency_ns=60.0,
            dimms_per_channel=2,
        ),
        "8chDDR4": MemoryConfig(
            label="8chDDR4", n_channels=8,
            channel_bw_gbs=_DDR4_CH_BW, idle_latency_ns=60.0,
            dimms_per_channel=2,
        ),
        # Table II "MEM+": 16-channel DDR4.
        "16chDDR4": MemoryConfig(
            label="16chDDR4", n_channels=16,
            channel_bw_gbs=_DDR4_CH_BW, idle_latency_ns=60.0,
            dimms_per_channel=2,
        ),
        # Table II "MEM++": 16-channel HBM; lower latency, no public
        # energy data (paper reports energy as n/a for this point).
        "16chHBM": MemoryConfig(
            label="16chHBM", n_channels=16,
            channel_bw_gbs=_HBM_CH_BW, idle_latency_ns=45.0,
            dimms_per_channel=0,
            energy_data_available=False,
        ),
    }


MEMORY_PRESETS: Dict[str, MemoryConfig] = _presets()

#: The two memory points of the 864-configuration base design space.
MEMORY_LABELS: Tuple[str, ...] = ("4chDDR4", "8chDDR4")


def memory_preset(name: str) -> MemoryConfig:
    """Look up a memory preset by label (includes Table II specials)."""
    try:
        return MEMORY_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown memory preset {name!r}; choose from {sorted(MEMORY_PRESETS)}"
        ) from None

"""Core microarchitecture configurations (Table I of the paper).

Four out-of-order (OoO) capability classes are explored: ``low-end``,
``medium``, ``high`` and ``aggressive``.  Each class fixes the reorder
buffer (ROB) size, issue/commit width, store buffer depth, the number of
integer ALUs and floating-point units (FPUs), and the integer/floating
register file sizes (IRF/FRF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["CoreConfig", "CORE_PRESETS", "core_preset", "CORE_LABELS"]


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core pipeline parameters.

    Attributes mirror Table I of the paper.  ``label`` is the name used
    throughout the paper's figures (``lowend``/``medium``/``high``/
    ``aggressive``).
    """

    label: str
    rob_size: int
    issue_width: int
    store_buffer: int
    n_alu: int
    n_fpu: int
    irf_size: int
    frf_size: int
    #: number of L1 data-cache ports (loads+stores issued per cycle)
    l1_ports: int = 2
    #: maximum outstanding L3->memory misses the core can sustain (MSHR-bound
    #: memory-level parallelism ceiling); scales loosely with ROB class.
    max_mlp: int = 8

    def __post_init__(self) -> None:
        if self.rob_size <= 0:
            raise ValueError(f"rob_size must be positive, got {self.rob_size}")
        if self.issue_width <= 0:
            raise ValueError(f"issue_width must be positive, got {self.issue_width}")
        if self.n_alu <= 0 or self.n_fpu <= 0:
            raise ValueError("functional unit counts must be positive")
        if self.store_buffer <= 0:
            raise ValueError("store_buffer must be positive")
        if self.irf_size <= 0 or self.frf_size <= 0:
            raise ValueError("register file sizes must be positive")

    @property
    def window_capability(self) -> float:
        """Scalar summary of OoO aggressiveness in [0, 1].

        Used by the power model to scale scheduler/rename energy and by the
        PCA study as the 'OoO struct.' variable.  Normalized against the
        aggressive preset.
        """
        ref = CORE_PRESETS["aggressive"]
        terms = (
            self.rob_size / ref.rob_size,
            self.issue_width / ref.issue_width,
            self.store_buffer / ref.store_buffer,
            (self.n_alu + self.n_fpu) / (ref.n_alu + ref.n_fpu),
            (self.irf_size + self.frf_size) / (ref.irf_size + ref.frf_size),
        )
        return sum(terms) / len(terms)


def _presets() -> Dict[str, CoreConfig]:
    # Values straight from Table I.  max_mlp grows with the OoO window: a
    # 40-entry ROB can keep far fewer misses in flight than a 300-entry one.
    return {
        "lowend": CoreConfig(
            label="lowend", rob_size=40, issue_width=2, store_buffer=20,
            n_alu=1, n_fpu=3, irf_size=30, frf_size=50, max_mlp=6,
        ),
        "medium": CoreConfig(
            label="medium", rob_size=180, issue_width=4, store_buffer=100,
            n_alu=3, n_fpu=3, irf_size=130, frf_size=70, max_mlp=10,
        ),
        "high": CoreConfig(
            label="high", rob_size=224, issue_width=6, store_buffer=120,
            n_alu=4, n_fpu=3, irf_size=180, frf_size=100, max_mlp=12,
        ),
        "aggressive": CoreConfig(
            label="aggressive", rob_size=300, issue_width=8, store_buffer=150,
            n_alu=5, n_fpu=4, irf_size=210, frf_size=120, max_mlp=16,
        ),
    }


CORE_PRESETS: Dict[str, CoreConfig] = _presets()

#: Paper ordering used on figure x-axes.
CORE_LABELS: Tuple[str, ...] = ("lowend", "medium", "high", "aggressive")


def core_preset(name: str) -> CoreConfig:
    """Look up one of the four Table I core classes by label."""
    try:
        return CORE_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown core preset {name!r}; choose from {sorted(CORE_PRESETS)}"
        ) from None

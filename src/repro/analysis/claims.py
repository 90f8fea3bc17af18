"""The paper's Sec. V conclusions as one table of named claims.

Each :class:`Claim` of :data:`CLAIMS` reads exactly one value from the
claim fixtures and checks it against one open interval.  A claim over
several apps measures their minimum or maximum; a "who wins" claim
measures the winner's margin.  The fixtures are the 2 GHz / {32,
64}-core plane (Figs. 5-8), the frequency column at the baseline corner
(Fig. 9) and the Table II runs (Fig. 11).  The tier-1 test, the figure
benchmarks (which pass the 864-point sweep as plane and column, so each
bar is a sweep mean) and ``repro claims`` all read this table: every
bound is written here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..apps import APP_NAMES, get_app
from ..config import (
    CACHE_LABELS,
    FIGURE_AXES,
    DesignSpace,
    baseline_node,
    plane_design_space,
    unconventional_configs,
)
from ..core.musa import Musa, RunResult
from ..core.normalize import axis_table, normalize_axis
from ..core.results import ResultSet
from ..core.sweep import run_sweep

__all__ = ["CLAIMS", "Claim", "ClaimFixtures", "Verdict",
           "check_claims", "claim_fixtures", "comm_share", "special_runs"]

#: Fig. 9's frequency axis at the baseline corner (medium core,
#: 64M:512K, 128-bit, 64 cores): 8 configurations.
FREQUENCY_COLUMN = DesignSpace(core_labels=("medium",),
                               cache_labels=("64M:512K",),
                               vector_widths=(128,), core_counts=(64,))


@dataclass
class ClaimFixtures:
    """The results every claim reads; each figure's bars are computed once."""

    plane: Optional[ResultSet]
    column: Optional[ResultSet]
    special: Optional[Dict[str, Dict[str, RunResult]]]
    _bars: Dict[Tuple[str, str], List] = field(default_factory=dict,
                                               init=False, repr=False)

    def bar(self, axis: str, metric: str, app: str, value,
            cores: int = 64) -> float:
        """The figure bar of ``app`` at ``axis=value``: ``metric``
        paired-normalized to the axis baseline (speedup for time)."""
        baseline, values = FIGURE_AXES[axis]
        if (axis, metric) not in self._bars:
            results = self.column if axis == "frequency" else self.plane
            self._bars[axis, metric] = normalize_axis(
                results, axis, baseline, metric)
        table = axis_table(self._bars[axis, metric], APP_NAMES, values, cores)
        return table[app][value][0]


class Verdict(NamedTuple):
    """One claim checked: its measured value and whether it holds."""

    claim: "Claim"
    value: float
    holds: bool


@dataclass(frozen=True)
class Claim:
    """One paper conclusion: ``lo < measure(fixtures) < hi`` (``None``
    leaves a side open); ``paper`` is the paper's own number."""

    name: str
    paper: str
    lo: Optional[float]
    hi: Optional[float]
    measure: Callable[[ClaimFixtures], float]

    @property
    def bound(self) -> str:
        if self.lo is None:
            return f"< {self.hi:g}"
        if self.hi is None:
            return f"> {self.lo:g}"
        return f"({self.lo:g}, {self.hi:g})"

    def check(self, fixtures: ClaimFixtures) -> Verdict:
        value = float(self.measure(fixtures))
        holds = ((self.lo is None or value > self.lo)
                 and (self.hi is None or value < self.hi))
        return Verdict(self, value, holds)


_ALL = " ".join(APP_NAMES)
_T, _P_CORE, _P_MEM, _P_NODE, _E = (
    "time_ns", "power_core_l1_w", "power_memory_w", "power_total_w",
    "energy_j")
_TIME, _POWER, _ENERGY = (attrgetter("time_ns"), attrgetter("power.total_w"),
                          attrgetter("energy_j"))


def _bars(axis: str, metric: str, value, apps: str = _ALL, agg=min,
          cores: int = 64) -> Callable:
    """Measure ``agg`` over ``apps`` (space-separated) of their bars."""
    return lambda fx: agg([fx.bar(axis, metric, a, value, cores)
                           for a in apps.split()])


def _lead(axis: str, value, app: str, sign: int = 1) -> Callable:
    """How far ``app``'s speedup bar leads every other app's
    (``sign=-1``: how far it trails them)."""
    return lambda fx: min(
        sign * (fx.bar(axis, _T, app, value) - fx.bar(axis, _T, a, value))
        for a in APP_NAMES if a != app)


def _ratio(app: str, num: str, den: str, get) -> Callable:
    """``get(num) / get(den)`` over two of ``app``'s Table II runs."""
    return lambda fx: get(fx.special[app][num]) / get(fx.special[app][den])


def _fig5_panel_gap(fx: ClaimFixtures) -> float:
    """Largest relative gap between an app's 32- and 64-core bars."""
    return max(abs(fx.bar("vector", _T, a, 512, cores=32)
                   / fx.bar("vector", _T, a, 512) - 1.0) for a in APP_NAMES)


def _l2l3_growth(small: str, big: str) -> Callable:
    """Smallest growth of the L2+L3 share of node power at 64 cores
    (Fig. 6b) from ``small`` to ``big`` caches, over SP-MZ and BT-MZ."""
    def share(fx, app, cache):
        rows = fx.plane.filter(app=app, cores=64, cache=cache)
        return float((rows.values("power_l2_l3_w")
                      / rows.values("power_total_w")).mean())
    return lambda fx: min(share(fx, a, big) / share(fx, a, small)
                          for a in ("spmz", "btmz"))


def _fig6_late_gain(fx: ClaimFixtures) -> float:
    """How much the 96M:1M step out-gains the 64M:512K step."""
    def excess(app):
        mid = fx.bar("cache", _T, app, "64M:512K")
        return (fx.bar("cache", _T, app, "96M:1M") - mid) - (mid - 1.0)
    return max(excess(app) for app in ("hydro", "btmz"))


def _fig9_worst_drop(fx: ClaimFixtures) -> float:
    """Largest speedup loss between adjacent frequencies, any app."""
    freqs = FIGURE_AXES["frequency"][1]
    return max(fx.bar("frequency", _T, app, f0)
               - fx.bar("frequency", _T, app, f1)
               for app in APP_NAMES for f0, f1 in zip(freqs, freqs[1:]))


#: Every Figs. 5-9 and Table II / Fig. 11 claim, in figure order.
CLAIMS: Tuple[Claim, ...] = (
    # Fig. 5: 512-bit FPUs buy 20% (HYDRO) to 75% (SP-MZ), 40% on
    # average and nothing for LULESH; Core+L1 power grows ~60%; 256-bit
    # saves 3-18% energy for the vectorizing apps.
    Claim("fig5.hydro_512b_speedup", "1.20", 1.05, 1.35,
          _bars("vector", _T, 512, "hydro")),
    Claim("fig5.spmz_512b_speedup", "1.75", 1.5, 2.2,
          _bars("vector", _T, 512, "spmz")),
    Claim("fig5.lulesh_512b_speedup", "~1.0", 0.95, 1.05,
          _bars("vector", _T, 512, "lulesh")),
    Claim("fig5.avg_512b_speedup_non_lulesh", "1.40", 1.25, 1.65,
          _bars("vector", _T, 512, "hydro spmz btmz spec3d", np.mean)),
    Claim("fig5.spmz_512b_winner_margin", "-", 0.0, None,
          _lead("vector", 512, "spmz")),
    Claim("fig5.avg_512b_core_power", "1.60", 1.25, 1.9,
          _bars("vector", _P_CORE, 512, agg=np.mean)),
    Claim("fig5.min_512b_core_power", "-", 1.1, None,
          _bars("vector", _P_CORE, 512)),
    Claim("fig5.max_256b_energy_spmz_btmz", "0.82-0.97", None, 1.0,
          _bars("vector", _E, 256, "spmz btmz", max)),
    Claim("fig5.max_512b_speedup_gap_32_vs_64c", "-", None, 0.15,
          _fig5_panel_gap),
    # Fig. 6: 96M:1M gives HYDRO ~21% and BT-MZ ~9% (11% on average),
    # Specfem3D nothing; 64M:512K takes most of the gain and is the
    # energy trade-off; the L2+L3 power share doubles per step.
    Claim("fig6.hydro_96m_speedup", "1.21", 1.10, 1.40,
          _bars("cache", _T, "96M:1M", "hydro")),
    Claim("fig6.btmz_96m_speedup", "1.09", 1.03, 1.25,
          _bars("cache", _T, "96M:1M", "btmz")),
    Claim("fig6.spec3d_96m_speedup", "~1.0", 0.92, 1.08,
          _bars("cache", _T, "96M:1M", "spec3d")),
    Claim("fig6.avg_96m_speedup", "1.11", 1.03, 1.25,
          _bars("cache", _T, "96M:1M", agg=np.mean)),
    Claim("fig6.min_64m_speedup_hydro_btmz", "-", 1.0, None,
          _bars("cache", _T, "64M:512K", "hydro btmz")),
    Claim("fig6.max_96m_step_excess_hydro_btmz", "-", None, 0.06,
          _fig6_late_gain),
    Claim("fig6.max_64m_energy_hydro_btmz", "-", None, 1.02,
          _bars("cache", _E, "64M:512K", "hydro btmz", max)),
    Claim("fig6.min_l2l3_share_step_spmz_btmz", "~2", 1.0, None,
          lambda fx: min(_l2l3_growth(small, big)(fx) for small, big
                         in zip(CACHE_LABELS, CACHE_LABELS[1:]))),
    Claim("fig6.min_l2l3_share_96m_over_32m_spmz_btmz", "~4", 2.0, None,
          _l2l3_growth("32M:256K", "96M:1M")),
    # Fig. 7: low-end cores run ~35% slower than aggressive (Specfem3D
    # ~60%) at ~half the power; high and medium stay within a few
    # percent while saving ~20% power, and LULESH saves energy.
    Claim("fig7.min_lowend_speedup", "~0.65", 0.35, None,
          _bars("core", _T, "lowend")),
    Claim("fig7.max_lowend_speedup", "~0.65", None, 0.85,
          _bars("core", _T, "lowend", agg=max)),
    Claim("fig7.spec3d_lowend_speedup", "0.40", None, 0.60,
          _bars("core", _T, "lowend", "spec3d")),
    Claim("fig7.spec3d_lowend_loser_margin", "-", 0.0, None,
          _lead("core", "lowend", "spec3d", sign=-1)),
    Claim("fig7.min_high_speedup", "0.85-0.95", 0.90, None,
          _bars("core", _T, "high")),
    Claim("fig7.min_medium_speedup", "0.85-0.95", 0.82, None,
          _bars("core", _T, "medium")),
    Claim("fig7.lulesh_medium_speedup", "-", 0.85, None,
          _bars("core", _T, "medium", "lulesh")),
    Claim("fig7.avg_lowend_core_power", "~0.5", 0.35, 0.75,
          _bars("core", _P_CORE, "lowend", agg=np.mean)),
    Claim("fig7.max_medium_core_power", "~0.8", None, 0.95,
          _bars("core", _P_CORE, "medium", agg=max)),
    Claim("fig7.max_high_core_power", "~0.8", None, 1.0,
          _bars("core", _P_CORE, "high", agg=max)),
    Claim("fig7.lulesh_medium_energy", "-", None, 0.97,
          _bars("core", _E, "medium", "lulesh")),
    # Fig. 8: only LULESH gains from 8 channels (up to ~60%, more at 64
    # cores than at 32); DRAM power ~doubles, node power grows 10-20%;
    # LULESH saves ~30% energy.
    Claim("fig8.lulesh_8ch_speedup", "1.6", 1.25, None,
          _bars("memory", _T, "8chDDR4", "lulesh")),
    Claim("fig8.max_8ch_speedup_non_lulesh", "~1.0", None, 1.10,
          _bars("memory", _T, "8chDDR4", "hydro spmz btmz spec3d", max)),
    Claim("fig8.lulesh_8ch_speedup_64c_minus_32c", "-", -0.05, None,
          lambda fx: fx.bar("memory", _T, "lulesh", "8chDDR4")
          - fx.bar("memory", _T, "lulesh", "8chDDR4", cores=32)),
    Claim("fig8.min_8ch_dram_power", "~2", 1.5, None,
          _bars("memory", _P_MEM, "8chDDR4")),
    Claim("fig8.max_8ch_dram_power", "~2", None, 2.3,
          _bars("memory", _P_MEM, "8chDDR4", agg=max)),
    Claim("fig8.max_8ch_node_power", "1.1-1.2", None, 1.25,
          _bars("memory", _P_NODE, "8chDDR4", agg=max)),
    Claim("fig8.lulesh_8ch_energy", "0.70", None, 0.85,
          _bars("memory", _E, "8chDDR4", "lulesh")),
    # Fig. 9: every app but HYDRO scales with frequency; HYDRO's task
    # creation caps it past 2.5 GHz; power grows ~2.5x for 2x clock, so
    # performance per watt worsens.
    Claim("fig9.min_3ghz_speedup_spmz_btmz", "~2", 1.6, None,
          _bars("frequency", _T, 3.0, "spmz btmz")),
    Claim("fig9.hydro_speedup_gain_2_5_to_3ghz", "-", None, 0.10,
          lambda fx: fx.bar("frequency", _T, "hydro", 3.0)
          - fx.bar("frequency", _T, "hydro", 2.5)),
    Claim("fig9.hydro_2_5ghz_speedup", "-", 1.25, None,
          _bars("frequency", _T, 2.5, "hydro")),
    Claim("fig9.max_speedup_drop_per_step", "-", None, 0.07,
          _fig9_worst_drop),
    Claim("fig9.min_3ghz_power_hydro_spmz_btmz", "~2.5", 1.7, None,
          _bars("frequency", _P_NODE, 3.0, "hydro spmz btmz")),
    Claim("fig9.min_3ghz_power_over_speedup", "~1.25", 1.0, None,
          lambda fx: min(fx.bar("frequency", _P_NODE, a, 3.0)
                         / fx.bar("frequency", _T, a, 3.0)
                         for a in ("hydro", "spmz", "btmz"))),
    # Table II / Fig. 11: SP-MZ's wider vectors keep helping at an
    # exploding power and energy cost; LULESH's MEM+ saves energy at
    # near-parity performance and HBM (MEM++) is the fastest memory.
    Claim("fig11.spmz_min_vector_step_speedup", "1.13", 1.0, None,
          lambda fx: min(_ratio("spmz", "Best-DSE", "Vector+", _TIME)(fx),
                         _ratio("spmz", "Vector+", "Vector++", _TIME)(fx))),
    Claim("fig11.spmz_vectorpp_speedup", "1.43", 1.05, None,
          _ratio("spmz", "Best-DSE", "Vector++", _TIME)),
    Claim("fig11.spmz_vectorpp_power", "3.14", 1.4, None,
          _ratio("spmz", "Vector++", "Best-DSE", _POWER)),
    Claim("fig11.spmz_vectorpp_energy", "2.5", 1.2, None,
          _ratio("spmz", "Vector++", "Best-DSE", _ENERGY)),
    Claim("fig11.lulesh_memp_energy", "0.53", None, 0.90,
          _ratio("lulesh", "MEM+", "Best-DSE", _ENERGY)),
    Claim("fig11.lulesh_memp_speedup", "1.07", 0.88, 1.12,
          _ratio("lulesh", "Best-DSE", "MEM+", _TIME)),
    Claim("fig11.lulesh_mempp_over_memp_speedup", "1.21", 1.0, None,
          _ratio("lulesh", "MEM+", "MEM++", _TIME)),
)


def check_claims(fixtures: ClaimFixtures,
                 figure: Optional[str] = None) -> List[Verdict]:
    """Check every claim, or those of one ``figure`` (e.g. ``"fig5"``)."""
    return [c.check(fixtures) for c in CLAIMS
            if figure is None or c.name.startswith(f"{figure}.")]


def special_runs(mode: str = "fast") -> Dict[str, Dict[str, RunResult]]:
    """Simulate the Table II configurations: app -> label -> run."""
    special = {}
    for app, configs in unconventional_configs().items():
        musa = Musa(get_app(app))
        special[app] = {label: musa.simulate_node(node, mode=mode)
                        for label, node in configs.items()}
    return special


def claim_fixtures(mode: str = "fast") -> ClaimFixtures:
    """Simulate the three claim fixtures inline at 256 ranks."""
    return ClaimFixtures(
        run_sweep(APP_NAMES, plane_design_space(), processes=1, mode=mode),
        run_sweep(APP_NAMES, FREQUENCY_COLUMN, processes=1, mode=mode),
        special_runs(mode))


def comm_share(fast: ClaimFixtures,
               replay: ClaimFixtures) -> List[Tuple[str, int, float]]:
    """``(app, cores, 1 - fast time / replay time)`` at the plane's
    baseline nodes: the share of the replayed run that communication
    adds, since fast mode times the compute region only."""
    rows = []
    for app in APP_NAMES:
        for cores in plane_design_space().core_counts:
            key = dict(baseline_node(cores).axis_values(), app=app)
            rows.append((app, cores,
                         1.0 - fast.plane.lookup(**key)["time_ns"]
                         / replay.plane.lookup(**key)["time_ns"]))
    return rows

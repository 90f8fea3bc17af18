"""The 864-point design space (Sec. IV-A) and Table II specials.

The full cartesian product of Table I values:

    4 core classes x 3 cache hierarchies x 2 memory configs
    x 4 frequencies x 3 vector widths x 3 core counts  =  864

Each application is simulated once per point.  The paper's per-axis bar
charts (Figs. 5-9) average *paired* normalizations over this space; the
pairing logic lives in :mod:`repro.core.normalize` and relies on the
stable ordering produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cache import CACHE_LABELS, cache_preset
from .core import CORE_LABELS, core_preset
from .memory import MEMORY_LABELS, memory_preset
from .node import CORE_COUNTS, FREQUENCIES_GHZ, VECTOR_WIDTHS_BITS, NodeConfig

__all__ = ["FIGURE_AXES", "DesignSpace", "axis_linspace", "axis_range",
           "full_design_space", "plane_design_space", "range_design_space",
           "smoke_design_space", "unconventional_configs"]

#: Axis names in canonical iteration order (outermost first).
AXES: Tuple[str, ...] = ("core", "cache", "memory", "frequency", "vector", "cores")

#: The :class:`DesignSpace` field that holds each axis's values.
_AXIS_FIELDS: Dict[str, str] = {
    "core": "core_labels", "cache": "cache_labels",
    "memory": "memory_labels", "frequency": "frequencies",
    "vector": "vector_widths", "cores": "core_counts",
}


def axis_range(start, stop, step) -> Tuple:
    """Inclusive arithmetic progression for a numeric axis.

    ``axis_range(8, 128, 8)`` explores cores-per-socket in steps of 8.
    Values stay ints when every operand is an int, so axis values keyed
    into journals/records round-trip exactly.
    """
    if step == 0:
        raise ValueError("step must be non-zero")
    values = []
    v = start
    while (v <= stop) if step > 0 else (v >= stop):
        values.append(v)
        v = v + step
    if not values:
        raise ValueError(f"empty range: start={start} stop={stop} step={step}")
    return tuple(values)


def axis_linspace(start: float, stop: float, num: int) -> Tuple[float, ...]:
    """``num`` evenly spaced floats from ``start`` to ``stop`` inclusive.

    Pure-Python arithmetic (no NumPy dtype round-trip) so the values are
    plain floats that serialize canonically.
    """
    if num < 1:
        raise ValueError("num must be >= 1")
    if num == 1:
        return (float(start),)
    step = (float(stop) - float(start)) / (num - 1)
    values = tuple(float(start) + i * step for i in range(num - 1))
    return values + (float(stop),)


@dataclass(frozen=True)
class DesignSpace:
    """A cartesian design space over the six Table I axes.

    Immutable; iteration order is deterministic (row-major over the axis
    value tuples), which downstream result containers depend on.
    """

    core_labels: Tuple[str, ...] = CORE_LABELS
    cache_labels: Tuple[str, ...] = CACHE_LABELS
    memory_labels: Tuple[str, ...] = MEMORY_LABELS
    frequencies: Tuple[float, ...] = FREQUENCIES_GHZ
    vector_widths: Tuple[int, ...] = VECTOR_WIDTHS_BITS
    core_counts: Tuple[int, ...] = CORE_COUNTS

    def __post_init__(self) -> None:
        for name in AXES:
            if len(self._axis(name)) == 0:
                raise ValueError(f"axis {name!r} must have at least one value")
            if len(set(self._axis(name))) != len(self._axis(name)):
                raise ValueError(f"axis {name!r} has duplicate values")

    def __getstate__(self) -> Dict[str, Tuple]:
        # Pickle the fields only, never the cached geometry.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def _axis(self, name: str) -> Sequence:
        return getattr(self, _AXIS_FIELDS[name])

    @cached_property
    def _geometry(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
        """Axis lengths, row-major strides and size, computed once."""
        lengths = tuple(len(self._axis(name)) for name in AXES)
        strides = [1]
        for length in reversed(lengths[1:]):
            strides.insert(0, strides[0] * length)
        return lengths, tuple(strides), strides[0] * lengths[0]

    def axis_values(self, name: str) -> Tuple:
        """Values explored along one named axis."""
        return tuple(self._axis(name))

    def __len__(self) -> int:
        return self._geometry[2]

    def __iter__(self) -> Iterator[NodeConfig]:
        for core, cache, mem, freq, vec, ncores in product(
            self.core_labels, self.cache_labels, self.memory_labels,
            self.frequencies, self.vector_widths, self.core_counts,
        ):
            yield NodeConfig(
                core=core_preset(core),
                cache=cache_preset(cache),
                memory=memory_preset(mem),
                frequency_ghz=freq,
                vector_bits=vec,
                n_cores=ncores,
            )

    def configs(self) -> List[NodeConfig]:
        """Materialize the whole space in canonical order."""
        return list(self)

    def axis_lengths(self) -> Tuple[int, ...]:
        """Per-axis value counts in canonical :data:`AXES` order."""
        return self._geometry[0]

    def axis_strides(self) -> Tuple[int, ...]:
        """Flat-index step of +1 along each axis, in :data:`AXES` order."""
        return self._geometry[1]

    def coords_at(self, index: int) -> Tuple[int, ...]:
        """Mixed-radix decode of a flat index into per-axis coordinates.

        Row-major over :data:`AXES` (cores fastest-varying), matching
        ``__iter__``'s ``itertools.product`` order exactly.
        """
        lengths, strides, n = self._geometry
        if not 0 <= index < n:
            raise IndexError(f"index {index} out of range for {n}-point space")
        return tuple(index // s % length for s, length in zip(strides, lengths))

    def index_of(self, coords: Sequence[int]) -> int:
        """Inverse of :meth:`coords_at`."""
        lengths, strides, _ = self._geometry
        if len(coords) != len(lengths):
            raise ValueError(f"expected {len(lengths)} coords, got {coords}")
        index = 0
        for c, length, s in zip(coords, lengths, strides):
            if not 0 <= c < length:
                raise IndexError(f"coordinate {c} out of range 0..{length - 1}")
            index += c * s
        return index

    def coords_array(self, indices) -> np.ndarray:
        """:meth:`coords_at` over an array of flat indices: an int64
        array with one trailing axis of ``len(AXES)`` coordinates."""
        lengths, strides, n = self._geometry
        idx = np.asarray(indices, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= n)]
        if bad.size:
            raise IndexError(f"index {bad[0]} out of range for {n}-point space")
        return idx[..., None] // np.array(strides) % np.array(lengths)

    def index_array(self, coords) -> np.ndarray:
        """:meth:`index_of` over an array of coordinate rows."""
        lengths, strides, _ = self._geometry
        z = np.asarray(coords, dtype=np.int64)
        if z.ndim == 0 or z.shape[-1] != len(lengths):
            raise ValueError(f"expected rows of {len(lengths)} coords, "
                             f"got shape {z.shape}")
        bad = z[(z < 0) | (z >= np.array(lengths))]
        if bad.size:
            raise IndexError(f"coordinate {bad[0]} out of range {lengths}")
        return z @ np.array(strides)

    def config_at(self, index: int) -> NodeConfig:
        """Lazily materialize the ``index``-th config of the space.

        ``space.config_at(i) == list(space)[i]`` for every ``i`` without
        building the list — the entry point that keeps million-point
        range spaces tractable for the sharded sweep and the search
        layer.
        """
        ci, xi, mi, fi, vi, ni = self.coords_at(index)
        return NodeConfig(
            core=core_preset(self.core_labels[ci]),
            cache=cache_preset(self.cache_labels[xi]),
            memory=memory_preset(self.memory_labels[mi]),
            frequency_ghz=self.frequencies[fi],
            vector_bits=self.vector_widths[vi],
            n_cores=self.core_counts[ni],
        )

    def restrict(self, **fixed) -> "DesignSpace":
        """Return a sub-space with some axes pinned to single values.

        Example: ``space.restrict(frequency=2.0, cores=64)`` gives the
        subset used for the PCA study (Sec. V-C).
        """
        kwargs: Dict[str, Tuple] = {}
        for axis, value in fixed.items():
            if axis not in _AXIS_FIELDS:
                raise KeyError(f"unknown axis {axis!r}; valid axes: {AXES}")
            values = value if isinstance(value, (tuple, list)) else (value,)
            for v in values:
                if v not in self._axis(axis):
                    raise ValueError(
                        f"value {v!r} not in axis {axis!r} ({self._axis(axis)})"
                    )
            kwargs[_AXIS_FIELDS[axis]] = tuple(values)
        return replace(self, **kwargs)


def full_design_space() -> DesignSpace:
    """The paper's 864-point space (Table I)."""
    return DesignSpace()


def range_design_space(
    core_labels: Tuple[str, ...] = CORE_LABELS,
    cache_labels: Tuple[str, ...] = CACHE_LABELS,
    memory_labels: Tuple[str, ...] = MEMORY_LABELS,
    frequencies: Optional[Tuple[float, ...]] = None,
    vector_widths: Tuple[int, ...] = VECTOR_WIDTHS_BITS,
    core_counts: Optional[Tuple[int, ...]] = None,
) -> DesignSpace:
    """A range-generated space densifying the two numeric axes.

    Defaults give 4 cores x 3 caches x 2 memories x 31 frequencies x 3
    vectors x 63 core counts = 140,616 points — the >=10^5-point space
    the active-search layer explores without exhaustion.  Pass explicit
    tuples (e.g. from :func:`axis_range` / :func:`axis_linspace`) to
    reshape any axis.
    """
    return DesignSpace(
        core_labels=core_labels,
        cache_labels=cache_labels,
        memory_labels=memory_labels,
        frequencies=frequencies or axis_linspace(1.0, 4.0, 31),
        vector_widths=vector_widths,
        core_counts=core_counts or axis_range(4, 252, 4),
    )


#: Axis -> (baseline value, bar values) of the paper's Figs. 5-9.
FIGURE_AXES = {
    "vector": (128, VECTOR_WIDTHS_BITS),
    "cache": ("32M:256K", CACHE_LABELS),
    "core": ("aggressive", ("aggressive", "lowend", "high", "medium")),
    "memory": ("4chDDR4", MEMORY_LABELS),
    "frequency": (1.5, FREQUENCIES_GHZ),
}


def plane_design_space() -> DesignSpace:
    """The 2 GHz / {32, 64}-core plane: 144 configurations.

    Every Figs. 5-8 axis at the paper's clock; ``repro sweep --plane``
    and the claim fixtures of :mod:`repro.analysis.claims` share it.
    """
    return DesignSpace(frequencies=(2.0,), core_counts=(32, 64))


def smoke_design_space() -> DesignSpace:
    """The 8-configuration CI smoke space.

    One definition shared by ``repro sweep --smoke``, the benchmark
    smoke tiers and the CI smoke scripts, so the smoke assertions
    (task counts, batched-config counts) can't drift apart.
    """
    return DesignSpace(core_labels=("medium", "high"),
                       cache_labels=("64M:512K",),
                       memory_labels=("4chDDR4", "8chDDR4"),
                       frequencies=(2.0,), vector_widths=(128, 512),
                       core_counts=(64,))


def unconventional_configs() -> Dict[str, Dict[str, NodeConfig]]:
    """Table II: application-specific configurations, all 64-core / 2 GHz.

    Returns ``{app: {label: NodeConfig}}`` including each app's paper
    ``DSE-Best`` baseline.
    """
    def node(core, vec, cachecfg, mem):
        return NodeConfig(
            core=core_preset(core), cache=cache_preset(cachecfg),
            memory=memory_preset(mem), frequency_ghz=2.0,
            vector_bits=vec, n_cores=64,
        )

    return {
        "spmz": {
            "Best-DSE": node("aggressive", 512, "96M:1M", "8chDDR4"),
            "Vector+": node("high", 1024, "64M:512K", "4chDDR4"),
            "Vector++": node("high", 2048, "64M:512K", "4chDDR4"),
        },
        "lulesh": {
            "Best-DSE": node("high", 512, "96M:1M", "8chDDR4"),
            "MEM+": node("medium", 64, "64M:512K", "16chDDR4"),
            "MEM++": node("medium", 64, "64M:512K", "16chHBM"),
        },
    }

"""The search loop's array index arithmetic against scalar oracles.

``_front_pool`` and ``_seed_indices`` build their candidate lists from
stride offsets over whole arrays.  The search trajectory -- and with it
every front digest -- depends on those lists' exact order, so each is
pinned here against the per-point loop it replaced.
"""

from itertools import product
from typing import List, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.search import _front_pool, _seed_indices
from repro.config import (
    CACHE_LABELS,
    CORE_LABELS,
    MEMORY_LABELS,
    DesignSpace,
    axis_linspace,
    axis_range,
)


def _oracle_neighbors(space: DesignSpace, idx: int) -> List[int]:
    """Axis neighbors (+-1 along each axis, clamped) of a flat index."""
    coords = space.coords_at(idx)
    out: List[int] = []
    for d, length in enumerate(space.axis_lengths()):
        for step in (-1, 1):
            c = coords[d] + step
            if 0 <= c < length:
                out.append(space.index_of(
                    coords[:d] + (c,) + coords[d + 1:]))
    return out


def _oracle_pool(space: DesignSpace, front: Sequence[int],
                 done: np.ndarray) -> List[int]:
    pool: List[int] = []
    pool_seen = set()
    for i in front:
        for j in _oracle_neighbors(space, i):
            if not done[j] and j not in pool_seen:
                pool_seen.add(j)
                pool.append(j)
    return pool


def _oracle_seeds(space: DesignSpace) -> List[int]:
    """Corners + axis cross through the center, first occurrence kept."""
    lengths = space.axis_lengths()
    seeds: List[int] = []
    seen = set()

    def add(coords) -> None:
        i = space.index_of(coords)
        if i not in seen:
            seen.add(i)
            seeds.append(i)

    for corner in product(*[(0, length - 1) for length in lengths]):
        add(tuple(corner))
    center = tuple(length // 2 for length in lengths)
    for d, length in enumerate(lengths):
        for v in range(length):
            add(center[:d] + (v,) + center[d + 1:])
    return seeds


def _subset(values):
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=len(values), unique=True).map(tuple)


spaces = st.builds(
    DesignSpace,
    core_labels=_subset(CORE_LABELS),
    cache_labels=_subset(CACHE_LABELS),
    memory_labels=_subset(MEMORY_LABELS),
    frequencies=st.integers(1, 5).map(lambda n: axis_linspace(1.0, 4.0, n)),
    vector_widths=st.integers(1, 3).map(lambda n: (128, 256, 512)[:n]),
    core_counts=st.integers(1, 6).map(lambda n: axis_range(8, 8 * n, 8)),
)


@settings(max_examples=100, deadline=None)
@given(space=spaces, data=st.data())
def test_front_pool_matches_scalar_oracle(space, data):
    n = len(space)
    front = data.draw(st.lists(st.integers(0, n - 1), max_size=12,
                               unique=True))
    done = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    assert _front_pool(space, front, done) == \
        _oracle_pool(space, front, done)


@settings(max_examples=50, deadline=None)
@given(space=spaces)
def test_seed_indices_match_scalar_oracle(space):
    assert _seed_indices(space) == _oracle_seeds(space)


def test_empty_front_gives_empty_pool():
    space = DesignSpace()
    assert _front_pool(space, [], np.zeros(len(space), dtype=bool)) == []

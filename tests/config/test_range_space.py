"""Range-generated spaces: axis generators and lazy random access.

The million-point sharded sweep and the active-search layer rely on
three contracts pinned here:

* :func:`axis_range` / :func:`axis_linspace` produce exact, inclusive
  endpoint values (ints stay ints, endpoints are not accumulated-error
  approximations) so axis values round-trip through journals;
* ``len(space)`` is pure arithmetic — no materialization;
* ``space.config_at(i)`` equals ``list(space)[i]`` for every ``i``, and
  ``coords_at``/``index_of`` are exact inverses.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CACHE_LABELS,
    CORE_LABELS,
    MEMORY_LABELS,
    DesignSpace,
    axis_linspace,
    axis_range,
    range_design_space,
)

_SETTINGS = settings(max_examples=50, deadline=None)


class TestAxisRange:
    def test_inclusive_arithmetic_progression(self):
        assert axis_range(8, 128, 8) == tuple(range(8, 129, 8))

    def test_ints_stay_ints(self):
        for v in axis_range(4, 252, 4):
            assert type(v) is int

    def test_stop_not_on_grid_is_excluded(self):
        assert axis_range(1, 10, 4) == (1, 5, 9)

    def test_negative_step(self):
        assert axis_range(10, 1, -3) == (10, 7, 4, 1)

    def test_float_step(self):
        assert axis_range(0.5, 2.0, 0.5) == (0.5, 1.0, 1.5, 2.0)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="non-zero"):
            axis_range(1, 10, 0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            axis_range(10, 1, 1)


class TestAxisLinspace:
    def test_endpoints_exact(self):
        values = axis_linspace(1.0, 4.0, 31)
        assert len(values) == 31
        assert values[0] == 1.0
        assert values[-1] == 4.0  # the literal stop, not start + 30*step

    def test_single_point(self):
        assert axis_linspace(2.5, 99.0, 1) == (2.5,)

    def test_evenly_spaced(self):
        values = axis_linspace(0.0, 1.0, 5)
        assert values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_plain_floats(self):
        for v in axis_linspace(1.0, 4.0, 7):
            assert type(v) is float

    def test_num_below_one_rejected(self):
        with pytest.raises(ValueError):
            axis_linspace(0.0, 1.0, 0)


class TestRangeDesignSpace:
    def test_default_exceeds_1e5_points(self):
        space = range_design_space()
        # 4 cores x 3 caches x 2 memories x 31 freqs x 3 vectors x 63
        # core counts.
        assert len(space) == 4 * 3 * 2 * 31 * 3 * 63 == 140_616
        assert len(space) >= 10 ** 5

    def test_len_is_arithmetic_not_materialization(self):
        # A space this size must answer len() without building configs;
        # a quadrillion-point space would hang here otherwise.
        space = range_design_space(
            frequencies=axis_linspace(1.0, 4.0, 10_000),
            core_counts=axis_range(1, 100_000, 1),
        )
        assert len(space) == 4 * 3 * 2 * 10_000 * 3 * 100_000

    def test_spot_indices_match_iteration_order(self):
        space = range_design_space(
            frequencies=axis_linspace(1.0, 4.0, 4),
            core_counts=axis_range(8, 32, 8),
        )
        materialized = list(space)
        for i in (0, 1, 7, len(space) // 2, len(space) - 1):
            assert space.config_at(i) == materialized[i]

    def test_config_at_out_of_range(self):
        space = range_design_space()
        with pytest.raises(IndexError):
            space.config_at(len(space))
        with pytest.raises(IndexError):
            space.config_at(-1)


def _axis_subset(values):
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=len(values), unique=True).map(tuple)


small_spaces = st.builds(
    DesignSpace,
    core_labels=_axis_subset(CORE_LABELS),
    cache_labels=_axis_subset(CACHE_LABELS),
    memory_labels=_axis_subset(MEMORY_LABELS),
    frequencies=st.just(axis_linspace(1.0, 4.0, 3)),
    vector_widths=st.just((128, 512)),
    core_counts=st.just(axis_range(8, 24, 8)),
)


class TestLazyIndexingProperties:
    @_SETTINGS
    @given(space=small_spaces, data=st.data())
    def test_config_at_matches_iteration(self, space, data):
        i = data.draw(st.integers(0, len(space) - 1))
        assert space.config_at(i) == list(space)[i]

    @_SETTINGS
    @given(space=small_spaces, data=st.data())
    def test_coords_index_roundtrip(self, space, data):
        i = data.draw(st.integers(0, len(space) - 1))
        coords = space.coords_at(i)
        assert space.index_of(coords) == i
        for c, length in zip(coords, space.axis_lengths()):
            assert 0 <= c < length

    @_SETTINGS
    @given(space=small_spaces)
    def test_full_enumeration_by_index(self, space):
        assert [space.config_at(i) for i in range(len(space))] == list(space)


#: Spaces with every axis length drawn, numeric axes included.
shaped_spaces = st.builds(
    DesignSpace,
    core_labels=_axis_subset(CORE_LABELS),
    cache_labels=_axis_subset(CACHE_LABELS),
    memory_labels=_axis_subset(MEMORY_LABELS),
    frequencies=st.integers(1, 4).map(lambda n: axis_linspace(1.0, 4.0, n)),
    vector_widths=st.integers(1, 3).map(lambda n: (128, 256, 512)[:n]),
    core_counts=st.integers(1, 5).map(lambda n: axis_range(8, 8 * n, 8)),
)


class TestArrayIndexing:
    @_SETTINGS
    @given(space=shaped_spaces, data=st.data())
    def test_array_forms_match_scalar_forms(self, space, data):
        indices = data.draw(st.lists(st.integers(0, len(space) - 1),
                                     max_size=20))
        coords = space.coords_array(indices)
        assert coords.shape == (len(indices), len(space.axis_lengths()))
        assert [tuple(row) for row in coords.tolist()] == \
            [space.coords_at(i) for i in indices]
        assert space.index_array(coords).tolist() == \
            [space.index_of(space.coords_at(i)) for i in indices]

    @_SETTINGS
    @given(space=shaped_spaces, data=st.data())
    def test_out_of_range_raises_index_error(self, space, data):
        n = len(space)
        bad = data.draw(st.one_of(st.integers(n, 2 * n),
                                  st.integers(-n, -1)))
        with pytest.raises(IndexError):
            space.coords_at(bad)
        with pytest.raises(IndexError):
            space.coords_array([0, bad])
        d = data.draw(st.integers(0, len(space.axis_lengths()) - 1))
        coords = list(space.coords_at(data.draw(st.integers(0, n - 1))))
        coords[d] = data.draw(st.sampled_from(
            [-1, space.axis_lengths()[d]]))
        with pytest.raises(IndexError):
            space.index_of(coords)
        with pytest.raises(IndexError):
            space.index_array([list(space.coords_at(0)), coords])

    def test_wrong_coordinate_width_raises_value_error(self):
        space = range_design_space()
        with pytest.raises(ValueError):
            space.index_of((0, 0))
        with pytest.raises(ValueError):
            space.index_array([[0, 0]])


class TestCachedGeometry:
    def test_cached_space_equals_hashes_and_pickles_like_a_fresh_one(self):
        import pickle

        warm = range_design_space()
        warm.config_at(len(warm) - 1)
        warm.coords_array([0, 1])
        fresh = range_design_space()
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        back = pickle.loads(pickle.dumps(warm))
        assert back == warm and hash(back) == hash(warm)
        assert pickle.dumps(warm) == pickle.dumps(fresh)
        assert back.axis_lengths() == warm.axis_lengths()
        assert back.config_at(12345) == warm.config_at(12345)

    def test_strides_are_row_major(self):
        space = range_design_space()
        lengths = space.axis_lengths()
        strides = space.axis_strides()
        assert strides[-1] == 1
        for d in range(len(lengths) - 1):
            assert strides[d] == strides[d + 1] * lengths[d + 1]
        assert strides[0] * lengths[0] == len(space)

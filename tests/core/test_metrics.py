"""Tests for the geometric mean of speedups."""

import pytest

from repro.core import geo_mean


class TestGeoMean:
    def test_known_value(self):
        assert geo_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_invariance(self):
        assert geo_mean([2.0, 0.5]) == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geo_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geo_mean([1.0, 0.0])

"""Tests for node A/B comparison."""

import pytest

from repro.apps import get_app
from repro.config import baseline_node
from repro.core import compare_nodes


@pytest.fixture(scope="module")
def channels_comparison():
    a = baseline_node(64)
    b = a.with_(memory="8chDDR4")
    return compare_nodes(a, b, apps=[get_app("hydro"), get_app("lulesh")])


class TestCompareNodes:
    def test_per_app_deltas(self, channels_comparison):
        d = channels_comparison["lulesh"]
        assert d.speedup > 1.2          # LULESH profits from channels
        assert channels_comparison["hydro"].speedup == pytest.approx(
            1.0, abs=0.03)

    def test_power_ratio_grows_with_dimms(self, channels_comparison):
        for d in channels_comparison.deltas:
            assert d.power_ratio > 1.0  # more DIMMs, more background power

    def test_winners(self, channels_comparison):
        assert [d.app for d in channels_comparison.deltas
                if d.speedup > 1.05] == ["lulesh"]

    def test_geomean(self, channels_comparison):
        speeds = [d.speedup for d in channels_comparison.deltas]
        assert min(speeds) <= channels_comparison.mean_speedup <= max(speeds)

    def test_energy_none_propagates(self):
        a = baseline_node(64).with_(vector_bits=64)
        b = a.with_(memory="16chHBM")
        cmp = compare_nodes(a, b, apps=[get_app("lulesh")])
        assert cmp["lulesh"].energy_ratio is None

    def test_perf_per_watt(self, channels_comparison):
        d = channels_comparison["lulesh"]
        assert d.perf_per_watt_ratio == pytest.approx(
            d.speedup / d.power_ratio)

    def test_render(self, channels_comparison):
        text = channels_comparison.render()
        assert "GEOMEAN" in text
        assert "lulesh" in text

    def test_same_node_rejected(self):
        a = baseline_node(64)
        with pytest.raises(ValueError, match="itself"):
            compare_nodes(a, a)

    def test_unknown_app_lookup(self, channels_comparison):
        with pytest.raises(KeyError):
            channels_comparison["miniFE"]

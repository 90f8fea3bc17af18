"""Tests for the silicon area model."""

import pytest

from repro.config import baseline_node
from repro.power import AreaModel


@pytest.fixture
def model():
    return AreaModel()


class TestCoreArea:
    def test_grows_with_ooo_class(self, model, node64):
        areas = [model.core_mm2(node64.with_(core=c))
                 for c in ("lowend", "medium", "high", "aggressive")]
        assert areas == sorted(areas)

    def test_grows_with_vector_width(self, model, node64):
        assert (model.core_mm2(node64.with_(vector_bits=2048))
                > 2 * model.core_mm2(node64.with_(vector_bits=128)))

    def test_magnitude_plausible(self, model, node64):
        # A 22nm server core: a few mm^2.
        a = model.core_mm2(node64)
        assert 1.0 < a < 10.0


class TestNodeArea:
    def test_breakdown_sums(self, model, node64):
        na = model.node_area(node64)
        assert na.total_mm2 == pytest.approx(
            na.cores_mm2 + na.l2_mm2 + na.l3_mm2 + na.uncore_mm2)

    def test_sram_proportional_to_capacity(self, model, node64):
        small = model.node_area(node64.with_(cache="32M:256K"))
        big = model.node_area(node64.with_(cache="96M:1M"))
        assert (big.l3_mm2 / small.l3_mm2) == pytest.approx(3.0, rel=0.01)
        assert (big.l2_mm2 / small.l2_mm2) == pytest.approx(4.0, rel=0.01)

    def test_uncore_grows_with_channels(self, model, node64):
        a4 = model.node_area(node64).uncore_mm2
        a8 = model.node_area(node64.with_(memory="8chDDR4")).uncore_mm2
        assert a8 > a4

    def test_die_size_plausible(self, model):
        # 64 medium cores + 64+32 MB SRAM: a big server die, < 900 mm^2.
        na = model.node_area(baseline_node(64))
        assert 150 < na.total_mm2 < 900

    def test_96mb_config_is_cache_dominated(self, model):
        na = AreaModel().node_area(
            baseline_node(64).with_(cache="96M:1M", core="lowend"))
        assert (na.l2_mm2 + na.l3_mm2) / na.total_mm2 > 0.4

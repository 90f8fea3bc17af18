"""Tests for full node configurations."""

import pytest

from repro.config import NodeConfig, baseline_node, cache_preset, core_preset, memory_preset


class TestBaseline:
    def test_baseline_matches_characterization_config(self):
        n = baseline_node(32)
        assert n.core.label == "medium"
        assert n.cache.label == "64M:512K"
        assert n.memory.label == "4chDDR4"
        assert n.frequency_ghz == 2.0
        assert n.vector_bits == 128
        assert n.n_cores == 32

    def test_default_core_count(self):
        assert baseline_node().n_cores == 64


class TestDerived:
    @pytest.mark.parametrize("bits,lanes", [(64, 1), (128, 2), (256, 4),
                                            (512, 8), (1024, 16), (2048, 32)])
    def test_vector_lanes(self, bits, lanes):
        assert baseline_node().with_(vector_bits=bits).vector_lanes == lanes

    def test_label_is_unique_per_config(self):
        a = baseline_node()
        b = a.with_(vector_bits=256)
        c = a.with_(frequency_ghz=2.5)
        assert len({a.label, b.label, c.label}) == 3

    def test_axis_values_keys(self):
        ax = baseline_node().axis_values()
        assert set(ax) == {"core", "cache", "memory", "frequency", "vector",
                           "cores"}


class TestWith:
    def test_string_shorthands(self):
        n = baseline_node().with_(core="aggressive", cache="96M:1M",
                                  memory="8chDDR4")
        assert n.core == core_preset("aggressive")
        assert n.cache == cache_preset("96M:1M")
        assert n.memory == memory_preset("8chDDR4")

    def test_original_unchanged(self):
        a = baseline_node()
        a.with_(n_cores=1)
        assert a.n_cores == 64


class TestValidation:
    def test_rejects_odd_vector_width(self):
        with pytest.raises(ValueError, match="vector_bits"):
            baseline_node().with_(vector_bits=192)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            baseline_node().with_(n_cores=0)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            baseline_node().with_(frequency_ghz=0.0)

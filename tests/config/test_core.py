"""Tests for core microarchitecture configurations (Table I)."""

import pytest

from repro.config import CORE_LABELS, CORE_PRESETS, CoreConfig, core_preset


class TestPresets:
    def test_all_four_classes_exist(self):
        assert set(CORE_LABELS) == {"lowend", "medium", "high", "aggressive"}
        for label in CORE_LABELS:
            assert core_preset(label).label == label

    def test_table1_lowend_values(self):
        c = core_preset("lowend")
        assert (c.rob_size, c.issue_width, c.store_buffer) == (40, 2, 20)
        assert (c.n_alu, c.n_fpu) == (1, 3)
        assert (c.irf_size, c.frf_size) == (30, 50)

    def test_table1_medium_values(self):
        c = core_preset("medium")
        assert (c.rob_size, c.issue_width, c.store_buffer) == (180, 4, 100)
        assert (c.n_alu, c.n_fpu) == (3, 3)

    def test_table1_high_values(self):
        c = core_preset("high")
        assert (c.rob_size, c.issue_width, c.store_buffer) == (224, 6, 120)
        assert (c.n_alu, c.n_fpu) == (4, 3)
        assert (c.irf_size, c.frf_size) == (180, 100)

    def test_table1_aggressive_values(self):
        c = core_preset("aggressive")
        assert (c.rob_size, c.issue_width, c.store_buffer) == (300, 8, 150)
        assert (c.n_alu, c.n_fpu) == (5, 4)
        assert (c.irf_size, c.frf_size) == (210, 120)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown core preset"):
            core_preset("epic")

    def test_presets_are_distinct_objects(self):
        assert core_preset("medium") == CORE_PRESETS["medium"]


class TestWindowCapability:
    def test_monotone_across_classes(self):
        caps = [core_preset(l).window_capability for l in CORE_LABELS]
        assert caps == sorted(caps)

    def test_aggressive_is_reference(self):
        assert core_preset("aggressive").window_capability == pytest.approx(1.0)

    def test_lowend_is_small(self):
        assert core_preset("lowend").window_capability < 0.35

    def test_mlp_caps_grow_with_class(self):
        mlps = [core_preset(l).max_mlp for l in CORE_LABELS]
        assert mlps == sorted(mlps)


class TestValidation:
    def test_rejects_zero_rob(self):
        with pytest.raises(ValueError, match="rob_size"):
            CoreConfig(label="bad", rob_size=0, issue_width=2, store_buffer=10,
                       n_alu=1, n_fpu=1, irf_size=10, frf_size=10)

    def test_rejects_zero_issue(self):
        with pytest.raises(ValueError, match="issue_width"):
            CoreConfig(label="bad", rob_size=10, issue_width=0, store_buffer=10,
                       n_alu=1, n_fpu=1, irf_size=10, frf_size=10)

    def test_rejects_zero_fus(self):
        with pytest.raises(ValueError):
            CoreConfig(label="bad", rob_size=10, issue_width=2, store_buffer=10,
                       n_alu=0, n_fpu=1, irf_size=10, frf_size=10)

    def test_rejects_zero_store_buffer(self):
        with pytest.raises(ValueError, match="store_buffer"):
            CoreConfig(label="bad", rob_size=10, issue_width=2, store_buffer=0,
                       n_alu=1, n_fpu=1, irf_size=10, frf_size=10)

    def test_frozen(self):
        with pytest.raises(Exception):
            core_preset("medium").rob_size = 999

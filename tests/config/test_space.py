"""Tests for the design space (Sec. IV-A) and Table II specials."""

import pytest

from repro.config import DesignSpace, full_design_space, unconventional_configs
from repro.core.normalize import normalize_axis
from repro.core.results import ResultSet


class TestFullSpace:
    def test_864_points(self):
        # 4 cores x 3 caches x 2 memories x 4 freqs x 3 vectors x 3 counts
        assert len(full_design_space()) == 864

    def test_iteration_yields_all_unique(self):
        labels = [n.label for n in full_design_space()]
        assert len(labels) == len(set(labels)) == 864

    def test_iteration_is_deterministic(self):
        a = [n.label for n in full_design_space()]
        b = [n.label for n in full_design_space()]
        assert a == b

    def test_samples_per_bar_matches_paper(self):
        # Sec. V-B: "with a total of 864 simulations per application,
        # we are averaging 96 samples per bar" (vector axis, one panel).
        # Synthetic records are enough: a bar's sample count depends on
        # the space, not on the model.
        results = ResultSet(
            dict(node.axis_values(), app="lulesh", time_ns=1.0 + i)
            for i, node in enumerate(full_design_space()))

        def n_samples(axis, baseline):
            bars = normalize_axis(results, axis, baseline, "time_ns")
            counts = {}
            for bar in bars:
                counts.setdefault(bar.cores, set()).add(bar.n_samples)
            return counts

        assert n_samples("vector", 128) == {c: {96} for c in (1, 32, 64)}
        assert n_samples("core", "medium")[64] == {72}
        assert n_samples("memory", "4chDDR4")[64] == {144}

    def test_axis_values(self):
        space = full_design_space()
        assert space.axis_values("frequency") == (1.5, 2.0, 2.5, 3.0)
        assert space.axis_values("vector") == (128, 256, 512)
        assert space.axis_values("cores") == (1, 32, 64)


class TestRestrict:
    def test_single_value(self):
        sub = full_design_space().restrict(frequency=2.0, cores=64)
        assert len(sub) == 864 // 4 // 3
        for node in sub:
            assert node.frequency_ghz == 2.0
            assert node.n_cores == 64

    def test_multiple_values(self):
        sub = full_design_space().restrict(vector=(128, 512))
        assert len(sub) == 864 * 2 // 3

    def test_unknown_axis_raises(self):
        with pytest.raises(KeyError):
            full_design_space().restrict(threads=4)

    def test_value_not_in_axis_raises(self):
        with pytest.raises(ValueError):
            full_design_space().restrict(frequency=4.0)

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpace(frequencies=(2.0, 2.0))


class TestUnconventional:
    def test_table2_structure(self):
        uc = unconventional_configs()
        assert set(uc) == {"spmz", "lulesh"}
        assert set(uc["spmz"]) == {"Best-DSE", "Vector+", "Vector++"}
        assert set(uc["lulesh"]) == {"Best-DSE", "MEM+", "MEM++"}

    def test_all_64core_2ghz(self):
        for cfgs in unconventional_configs().values():
            for node in cfgs.values():
                assert node.n_cores == 64
                assert node.frequency_ghz == 2.0

    def test_spmz_vector_widths(self):
        uc = unconventional_configs()["spmz"]
        assert uc["Best-DSE"].vector_bits == 512
        assert uc["Vector+"].vector_bits == 1024
        assert uc["Vector++"].vector_bits == 2048

    def test_lulesh_table2_rows(self):
        uc = unconventional_configs()["lulesh"]
        assert uc["Best-DSE"].core.label == "high"
        assert uc["MEM+"].vector_bits == 64
        assert uc["MEM+"].memory.label == "16chDDR4"
        assert uc["MEM++"].memory.label == "16chHBM"
        assert uc["MEM+"].core.label == "medium"

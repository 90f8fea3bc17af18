"""Tests for the analytic-vs-exact kernel validation harness."""

import pytest

from repro.apps import APP_NAMES, get_app
from repro.config import cache_preset
from repro.uarch import validate_kernel
from repro.uarch.cpu import dram_efficiency


@pytest.mark.parametrize("app", APP_NAMES)
def test_every_app_dominant_kernel_validates(app):
    """The sweep's analytic cache path stays anchored to the exact
    simulator for every application's dominant kernel."""
    detailed = get_app(app).detailed_trace()
    name = sorted(detailed.names())[0]
    v = validate_kernel(detailed[name], cache_preset("64M:512K"),
                        l3_share_cores=32, n_accesses=40_000)
    assert v.passed(), (app, v.analytic_miss, v.exact_miss,
                        v.efficiency_error)


class TestValidationMechanics:
    def test_miss_ratios_monotone(self):
        sig = get_app("spmz").detailed_trace()["sp_solve"]
        v = validate_kernel(sig, cache_preset("32M:256K"),
                            l3_share_cores=16, n_accesses=30_000)
        a = v.analytic_miss
        assert a[0] >= a[1] >= a[2]
        e = v.exact_miss
        assert e[0] >= e[1] - 0.02 >= e[2] - 0.04

    def test_efficiency_comparison_present_for_missy_kernels(self):
        sig = get_app("lulesh").detailed_trace()["stress"]
        v = validate_kernel(sig, cache_preset("32M:256K"),
                            l3_share_cores=64, n_accesses=40_000)
        assert v.measured_efficiency is not None
        assert v.analytic_efficiency is not None
        assert v.efficiency_error < 0.25

    def test_node_model_is_conservative(self):
        """The sweep's derated curve sits at or below the controller's
        measured efficiency — it folds in real-system overheads."""
        sig = get_app("lulesh").detailed_trace()["stress"]
        v = validate_kernel(sig, cache_preset("32M:256K"),
                            l3_share_cores=64, n_accesses=40_000)
        assert (dram_efficiency(sig.row_hit_rate)
                <= v.measured_efficiency + 0.05)

    def test_rejects_bad_share(self):
        sig = get_app("hydro").detailed_trace()["godunov"]
        with pytest.raises(ValueError):
            validate_kernel(sig, cache_preset("64M:512K"),
                            l3_share_cores=0)

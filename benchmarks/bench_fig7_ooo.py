"""Fig. 7: core out-of-order capability exploration.

The paper's claims are the ``fig7.*`` rows of
:data:`repro.analysis.claims.CLAIMS`, checked on the 864-point sweep.
"""

from conftest import write_figure
from figure_common import assert_claims, render_axis_figure

from repro.core import normalize_axis


def test_fig7_ooo_capability(benchmark, full_sweep, output_dir):
    benchmark(normalize_axis, full_sweep, "core", "aggressive", "time_ns")
    assert_claims("fig7", full_sweep)

    write_figure(output_dir, "fig7_ooo.txt", render_axis_figure(
        full_sweep, "core",
        "Fig. 7 — core OoO structures (normalized to aggressive)"))

"""Fig. 9: CPU frequency exploration (1.5 / 2.0 / 2.5 / 3.0 GHz).

The paper's claims are the ``fig9.*`` rows of
:data:`repro.analysis.claims.CLAIMS`, checked on the 864-point sweep.
"""

from conftest import write_figure
from figure_common import assert_claims, render_axis_figure

from repro.core import normalize_axis


def test_fig9_frequency(benchmark, full_sweep, output_dir):
    benchmark(normalize_axis, full_sweep, "frequency", 1.5, "time_ns")
    assert_claims("fig9", full_sweep)

    write_figure(output_dir, "fig9_frequency.txt", render_axis_figure(
        full_sweep, "frequency",
        "Fig. 9 — CPU clock frequency (normalized to 1.5 GHz)"))

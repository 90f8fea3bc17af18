"""Fig. 5: FPU vector-width exploration (128/256/512-bit).

The paper's claims are the ``fig5.*`` rows of
:data:`repro.analysis.claims.CLAIMS`, checked on the 864-point sweep.
"""

from conftest import write_figure
from figure_common import assert_claims, render_axis_figure

from repro.core import normalize_axis


def test_fig5_vector_width(benchmark, full_sweep, output_dir):
    benchmark(normalize_axis, full_sweep, "vector", 128, "time_ns")
    assert_claims("fig5", full_sweep)

    write_figure(output_dir, "fig5_vector.txt", render_axis_figure(
        full_sweep, "vector",
        "Fig. 5 — FPU vector width (normalized to 128-bit)"))

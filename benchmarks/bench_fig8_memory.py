"""Fig. 8: memory-channel exploration (4 vs 8 DDR4 channels).

The paper's claims are the ``fig8.*`` rows of
:data:`repro.analysis.claims.CLAIMS`, checked on the 864-point sweep.
"""

from conftest import write_figure
from figure_common import assert_claims, render_axis_figure

from repro.core import normalize_axis


def test_fig8_memory_channels(benchmark, full_sweep, output_dir):
    benchmark(normalize_axis, full_sweep, "memory", "4chDDR4", "time_ns")
    assert_claims("fig8", full_sweep)

    write_figure(output_dir, "fig8_memory.txt", render_axis_figure(
        full_sweep, "memory",
        "Fig. 8 — memory channels (normalized to 4-channel DDR4)"))

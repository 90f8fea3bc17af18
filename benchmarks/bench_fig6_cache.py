"""Fig. 6: cache-size exploration (32M:256K / 64M:512K / 96M:1M).

The paper's claims are the ``fig6.*`` rows of
:data:`repro.analysis.claims.CLAIMS`, checked on the 864-point sweep.
"""

from conftest import write_figure
from figure_common import assert_claims, render_axis_figure

from repro.core import normalize_axis


def test_fig6_cache_sizes(benchmark, full_sweep, output_dir):
    benchmark(normalize_axis, full_sweep, "cache", "32M:256K", "time_ns")
    assert_claims("fig6", full_sweep)

    write_figure(output_dir, "fig6_cache.txt", render_axis_figure(
        full_sweep, "cache",
        "Fig. 6 — L3:L2 cache sizes (normalized to 32M:256K)"))

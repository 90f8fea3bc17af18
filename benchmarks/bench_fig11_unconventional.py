"""Table II + Fig. 11: unconventional application-specific configurations.

The paper's claims are the ``fig11.*`` rows of
:data:`repro.analysis.claims.CLAIMS`.  HBM (MEM++) reports no energy,
as in the paper.
"""

import pytest
from conftest import write_figure
from figure_common import assert_claims

from repro.analysis import format_rows
from repro.analysis.claims import special_runs
from repro.apps import get_app
from repro.config import unconventional_configs
from repro.core import Musa


@pytest.fixture(scope="module")
def results():
    return special_runs()


def render(results) -> str:
    blocks = ["Fig. 11 — application-specific configurations "
              "(relative to each app's Best-DSE)"]
    paper = {
        ("spmz", "Vector+"): (1.13, "~1.1", "~1.1"),
        ("spmz", "Vector++"): (1.43, 3.14, 2.5),
        ("lulesh", "MEM+"): (1.07, None, 0.53),
        ("lulesh", "MEM++"): (1.30, None, None),
    }
    for app, runs in results.items():
        base = runs["Best-DSE"]
        rows = [["Best-DSE", 1.0, 1.0, 1.0, "(baseline)"]]
        for label, r in runs.items():
            if label == "Best-DSE":
                continue
            perf = base.time_ns / r.time_ns
            power = r.power.known_total_w / base.power.total_w
            energy = (None if r.energy_j is None
                      else r.energy_j / base.energy_j)
            p = paper[(app, label)]
            rows.append([label, perf, power, energy,
                         f"(paper: {p[0]}/{p[1]}/{p[2]})"])
        blocks.append(format_rows(f"{app}",
                                  ["config", "perf", "power", "energy",
                                   "paper perf/power/energy"], rows))
    return "\n\n".join(blocks)


def test_fig11_unconventional(benchmark, results, output_dir):
    musa = Musa(get_app("spmz"))
    node = unconventional_configs()["spmz"]["Vector++"]

    def simulate_special():
        musa._detail_cache.clear()
        return musa.simulate_node(node)

    benchmark(simulate_special)

    assert_claims("fig11", special=results)

    write_figure(output_dir, "fig11_unconventional.txt", render(results))

"""Integration tests pinning the paper's evaluation claims (Sec. V).

Every Figs. 5-9 and Table II / Fig. 11 claim is one row of
:data:`repro.analysis.claims.CLAIMS`, checked here in fast mode on its
fixtures (the 2 GHz plane, the baseline-corner frequency column and the
Table II runs); the bounds live in that table only.  Fig. 2's scaling
claims compare scaling curves, not result records, and stay below.
"""

import pytest

from repro.analysis import compute_region_scaling, full_app_scaling
from repro.analysis.claims import CLAIMS, claim_fixtures
from repro.apps import APP_NAMES, get_app
from repro.core import Musa


@pytest.fixture(scope="module")
def fixtures():
    return claim_fixtures("fast")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.name)
def test_claim(claim, fixtures):
    verdict = claim.check(fixtures)
    assert verdict.holds, (f"{claim.name} = {verdict.value:.4f}, bound "
                           f"{claim.bound} (paper {claim.paper})")


class TestScalingStudy:
    """Fig. 2: parallel-efficiency claims."""

    def test_fig2a_only_hydro_above_75pct_at_64(self):
        effs = {}
        for name in APP_NAMES:
            effs[name] = compute_region_scaling(
                Musa(get_app(name))).efficiency(64)
        assert effs["hydro"] > 0.75
        for name in APP_NAMES:
            if name != "hydro":
                assert effs[name] < 0.75

    def test_fig2a_average_efficiencies(self):
        curves = [compute_region_scaling(Musa(get_app(n)))
                  for n in APP_NAMES]
        avg32 = sum(c.efficiency(32) for c in curves) / 5
        avg64 = sum(c.efficiency(64) for c in curves) / 5
        assert avg32 == pytest.approx(0.70, abs=0.12)
        assert avg64 == pytest.approx(0.50, abs=0.10)

    def test_fig2b_mpi_drops_efficiency_below_fig2a(self):
        for name in ("spmz", "lulesh"):
            musa = Musa(get_app(name))
            region = compute_region_scaling(musa)
            full = full_app_scaling(musa, n_ranks=32, n_iterations=1)
            assert full.efficiency(64) < region.efficiency(64)

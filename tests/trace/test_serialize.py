"""Round trip of the test-side burst-trace dict (``burst_dict``)."""

import pytest

from repro.apps import get_app
from repro.trace import ComputePhase

from .burst_dict import burst_from_dict, burst_to_dict
from .encode import rank_events


@pytest.fixture(scope="module")
def small_burst():
    return get_app("spmz").burst_trace(n_ranks=4, n_iterations=1)


class TestBurstRoundTrip:
    def test_dict_round_trip(self, small_burst):
        again = burst_from_dict(burst_to_dict(small_burst))
        assert again.app == small_burst.app
        assert again.n_ranks == small_burst.n_ranks
        assert again.columns.kind.tolist() == small_burst.columns.kind.tolist()
        # Event-level equality on one rank.
        orig = rank_events(small_burst)[1]
        back = rank_events(again)[1]
        assert len(orig) == len(back)
        for a, b in zip(orig, back):
            assert type(a) is type(b)

    def test_compute_totals_preserved(self, small_burst):
        again = burst_from_dict(burst_to_dict(small_burst))
        for a, b in zip(rank_events(small_burst), rank_events(again)):
            assert ([e for e in a if isinstance(e, ComputePhase)]
                    == [e for e in b if isinstance(e, ComputePhase)])
        for col in ("kind", "peer", "tag", "size", "request"):
            assert (getattr(again.columns, col).tolist()
                    == getattr(small_burst.columns, col).tolist())

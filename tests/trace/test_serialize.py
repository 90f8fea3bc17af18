"""Round-trip tests for trace serialization."""

import numpy as np
import pytest

from repro.analysis import message_stats
from repro.apps import get_app
from repro.trace import (
    burst_from_dict,
    burst_to_dict,
    detailed_from_dict,
    detailed_to_dict,
    load_burst,
    load_detailed,
    save_burst,
    save_detailed,
)


@pytest.fixture(scope="module")
def small_burst():
    return get_app("spmz").burst_trace(n_ranks=4, n_iterations=1)


@pytest.fixture(scope="module")
def detailed():
    return get_app("lulesh").detailed_trace()


class TestBurstRoundTrip:
    def test_dict_round_trip(self, small_burst):
        again = burst_from_dict(burst_to_dict(small_burst))
        assert again.app == small_burst.app
        assert again.n_ranks == small_burst.n_ranks
        assert again.columns.kind.tolist() == small_burst.columns.kind.tolist()
        # Event-level equality on one rank.
        orig = small_burst.ranks[1].events
        back = again.ranks[1].events
        assert len(orig) == len(back)
        for a, b in zip(orig, back):
            assert type(a) is type(b)

    def test_compute_totals_preserved(self, small_burst):
        again = burst_from_dict(burst_to_dict(small_burst))
        for a, b in zip(small_burst.ranks, again.ranks):
            assert a.total_compute_ns == pytest.approx(b.total_compute_ns)
        assert message_stats(again) == message_stats(small_burst)

    def test_file_round_trip(self, small_burst, tmp_path):
        path = tmp_path / "trace.json"
        save_burst(small_burst, path)
        again = load_burst(path)
        assert again.n_ranks == small_burst.n_ranks

    def test_gzip_round_trip(self, small_burst, tmp_path):
        path = tmp_path / "trace.json.gz"
        save_burst(small_burst, path)
        again = load_burst(path)
        assert again.app == small_burst.app
        # gz file should actually be compressed (much smaller than json)
        plain = tmp_path / "plain.json"
        save_burst(small_burst, plain)
        assert path.stat().st_size < plain.stat().st_size

    def test_type_mismatch_rejected(self, small_burst, detailed):
        with pytest.raises(ValueError, match="expected a 'detailed'"):
            detailed_from_dict(burst_to_dict(small_burst))
        with pytest.raises(ValueError, match="expected a 'burst'"):
            burst_from_dict(detailed_to_dict(detailed))


class TestDetailedRoundTrip:
    def test_dict_round_trip(self, detailed):
        again = detailed_from_dict(detailed_to_dict(detailed))
        assert again.names() == detailed.names()
        for name in detailed.names():
            a, b = detailed[name], again[name]
            assert a.instr_per_unit == b.instr_per_unit
            assert a.ilp == b.ilp
            assert a.vec_fraction == b.vec_fraction
            assert a.row_hit_rate == b.row_hit_rate
            np.testing.assert_allclose(a.reuse.edges, b.reuse.edges)
            np.testing.assert_allclose(a.reuse.weights, b.reuse.weights)

    def test_miss_ratios_preserved(self, detailed):
        again = detailed_from_dict(detailed_to_dict(detailed))
        for name in detailed.names():
            for cap in (512, 8192, 1 << 20):
                assert detailed[name].reuse.miss_ratio(cap) == pytest.approx(
                    again[name].reuse.miss_ratio(cap), rel=1e-9)

    def test_file_round_trip(self, detailed, tmp_path):
        path = tmp_path / "detail.json"
        save_detailed(detailed, path)
        assert load_detailed(path).names() == detailed.names()

    def test_version_check(self, detailed):
        d = detailed_to_dict(detailed)
        d["version"] = 99
        with pytest.raises(ValueError, match="version"):
            detailed_from_dict(d)

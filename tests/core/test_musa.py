"""Tests for the Musa facade."""

import pytest

from repro.apps import get_app
from repro.core import Musa
from repro.obs import get_metrics
from tests.integration.test_fidelity import check_point


@pytest.fixture(scope="module")
def musa():
    return Musa(get_app("spmz"))


class TestBurstMode:
    def test_region_speedup_monotone(self, musa):
        t1 = musa.compute_region_makespan(1)
        s32 = t1 / musa.compute_region_makespan(32)
        s64 = t1 / musa.compute_region_makespan(64)
        assert 1.0 < s32 <= 64
        assert s32 <= s64 * 1.01

    def test_burst_phase_memoized(self, musa):
        p = musa.phases[0]
        assert musa.burst_phase(p, 32) is musa.burst_phase(p, 32)

    def test_burst_full_replay(self, musa):
        res = musa.simulate_burst_full(n_cores=32, n_ranks=8, n_iterations=1)
        assert res.n_ranks == 8
        assert res.total_ns > 0
        assert res.mpi_fraction > 0

    def test_trace_cached(self, musa):
        a = musa._burst_trace(8, 1)
        b = musa._burst_trace(8, 1)
        assert a is b

    def test_default_iterations_share_one_trace(self, musa):
        # ``None`` spells the default: one trace, hence one replay tape.
        n = musa.app.default_iterations
        assert musa._burst_trace(8, None) is musa._burst_trace(8, n)


class TestIterationCount:
    """``None`` means the app's default; zero or fewer iterations is an
    error in both modes, not a silent default or a later failure."""

    @pytest.mark.parametrize("mode", ["fast", "replay"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_simulate_node_rejects_nonpositive(self, musa, node64, mode,
                                               bad):
        with pytest.raises(ValueError, match="n_iterations"):
            musa.simulate_node(node64, n_ranks=4, n_iterations=bad,
                               mode=mode)

    @pytest.mark.parametrize("mode", ["fast", "replay"])
    def test_simulate_node_none_means_default(self, musa, node64, mode):
        n = musa.app.default_iterations
        a = musa.simulate_node(node64, n_ranks=4, mode=mode)
        b = musa.simulate_node(node64, n_ranks=4, n_iterations=n, mode=mode)
        assert a.record() == b.record()


class TestDetailedMode:
    def test_simulate_node_record_fields(self, musa, node64):
        rec = musa.simulate_node(node64).record()
        for key in ("app", "core", "cache", "memory", "frequency", "vector",
                    "cores", "time_ns", "power_total_w", "energy_j",
                    "mpki_l1", "occupancy"):
            assert key in rec

    def test_phase_detail_memoized(self, musa, node64):
        p = musa.phases[0]
        assert musa.phase_detail(p, node64) is musa.phase_detail(p, node64)

    def test_different_nodes_not_conflated(self, musa, node64):
        p = musa.phases[0]
        a = musa.phase_detail(p, node64)
        b = musa.phase_detail(p, node64.with_(vector_bits=512))
        assert a.makespan_ns != b.makespan_ns

    def test_energy_consistent_with_power_and_time(self, musa, node64):
        r = musa.simulate_node(node64)
        assert r.energy_j == pytest.approx(
            r.power.total_w * r.time_ns * 1e-9)

    def test_hbm_energy_is_none(self):
        from repro.config import baseline_node

        m = Musa(get_app("lulesh"))
        r = m.simulate_node(baseline_node(64).with_(memory="16chHBM",
                                                    vector_bits=64))
        assert r.energy_j is None
        assert r.power.memory_w is None
        assert r.power.core_l1_w > 0

    def test_fast_vs_replay_agree(self, node64):
        """Fast mode plus the communication oracle must track the replay."""
        check_point(Musa(get_app("btmz")), node64, 16, 2)

    def test_invalid_mode(self, musa, node64):
        with pytest.raises(ValueError):
            musa.simulate_node(node64, mode="magic")


class TestMemoLru:
    def test_capped_musa_results_unchanged(self, node64):
        """Evicted entries are re-simulated, not lost: a tightly capped
        Musa returns the same PhaseDetail values as an uncapped one."""
        reg = get_metrics()
        before = reg.counter("musa.memo.evictions")
        ref = Musa(get_app("spmz"))
        tight = Musa(get_app("spmz"), memo_cap=1)
        nodes = [node64, node64.with_(vector_bits=512),
                 node64.with_(frequency_ghz=3.0)]
        for _ in range(2):  # second pass replays evicted keys
            for node in nodes:
                for p in ref.phases:
                    assert (tight.phase_detail(p, node).makespan_ns
                            == ref.phase_detail(p, node).makespan_ns)
        assert reg.counter("musa.memo.evictions") > before
        for cache in (tight._burst_cache, tight._detail_cache,
                      tight._trace_cache, tight._timing_cache):
            assert len(cache) <= 1


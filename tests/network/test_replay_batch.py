"""Config-vectorized replay ≡ per-config scalar replay, bit for bit.

The batched engine's contract is exact equivalence: for every
configuration column, ``replay_batch`` must produce the same
``ReplayResult`` — down to the float bits — that the scalar engine
produces when handed that column's duration function.  The property
tests drive the array tape (unlimited buses) and the per-column scalar
fallback (finite buses), with per-config compute scalings chosen to
flip the global ``(clock, rank)`` step order mid-replay; the
regressions pin the tape bail-out fallback, the collective pricing
path, the :func:`_order_free` classification, and that every bundled
app stays on the tape.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES, get_app
from repro.core.musa import Musa
from repro.network import NetworkConfig, replay
from repro.network import replay_batch as replay_batch_mod
from repro.network.replay_batch import _order_free, _tape_for, replay_batch
from repro.obs import get_metrics
from repro.trace import MpiCall

from .test_replay_engines import (
    _skewed_duration,
    assert_results_equal,
    phase,
    round_traces,
    trace,
    zero_net,
)

#: Scale factors that reorder ranks' virtual clocks between columns.
SCALE_POOL = (0.1, 0.5, 1.0, 1.0 + 2**-40, 2.0, 7.3)


def batch_duration(scales):
    """Per-config duration column: the skewed scalar duration x scale."""
    arr = np.asarray(scales, dtype=np.float64)

    def fn(rank, ph):
        return _skewed_duration(rank, ph) * arr

    return fn


def assert_batch_equals_scalar(t, net, scales, **kw):
    dur = batch_duration(scales)
    out = replay_batch(t, net, dur, len(scales), **kw)
    for c in range(len(scales)):
        ref = replay(t, net, lambda r, p, _c=c: dur(r, p)[_c])
        assert_results_equal(ref, out[c])
    return out


class TestPropertyEquivalence:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=round_traces(),
           scales=st.lists(st.sampled_from(SCALE_POOL), min_size=1,
                           max_size=6))
    def test_batched_equals_scalar(self, data, scales):
        t, _, n_buses = data
        net = NetworkConfig(latency_us=0.1, bandwidth_gbs=10.0,
                            cpu_overhead_us=0.05, n_buses=n_buses)
        assert_batch_equals_scalar(t, net, scales)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=round_traces(),
           n_buses=st.integers(1, 3),
           scales=st.lists(st.sampled_from(SCALE_POOL), min_size=2,
                           max_size=8))
    def test_finite_bus_lockstep_equals_scalar(self, data, n_buses,
                                               scales):
        # A finite bus pool is never order-free, so the batch runs the
        # per-column scalar fallback: it must equal scalar replay across
        # bus counts x rank counts x scale vectors, reading the
        # per-call duration cache instead of the duration function.
        t, _, _ = data
        net = NetworkConfig(latency_us=0.1, bandwidth_gbs=10.0,
                            cpu_overhead_us=0.05, n_buses=n_buses)
        assert not _order_free(t, net)
        assert_batch_equals_scalar(t, net, scales)


class TestCollectivePricing:
    """Collectives must price identically in batched and scalar paths."""

    def test_collective_heavy_trace(self):
        n = 4
        evs = []
        for r in range(n):
            evs.append([
                phase(phase_id=0),
                MpiCall(kind="allreduce", size_bytes=64),
                phase(phase_id=1),
                MpiCall(kind="barrier"),
                MpiCall(kind="bcast", size_bytes=4096),
                phase(phase_id=2),
                MpiCall(kind="allreduce", size_bytes=8),
            ])
        t = trace(evs)
        scales = (0.25, 1.0, 3.0, 1.0 + 2**-30)
        for n_buses in (0, 2):
            net = zero_net(latency_us=0.2, cpu_overhead_us=0.1,
                           n_buses=n_buses)
            out = assert_batch_equals_scalar(t, net, scales)
            # Collective time must be non-trivial for the test to bite.
            assert all(r.collective_ns.sum() > 0 for r in out)


class TestForcedDivergence:
    """Per-config compute scalings that flip the step order mid-replay
    still match the scalar engine bit for bit, on either path."""

    def _racing_trace(self):
        # Ranks 0 and 2 race for the single bus; whichever reaches its
        # isend first (per config) holds the bus for 1000 ns.
        return trace([
            [phase(phase_id=0),
             MpiCall(kind="isend", peer=1, size_bytes=1000, request=0),
             MpiCall(kind="wait", request=0)],
            [MpiCall(kind="recv", peer=0, size_bytes=1000)],
            [phase(phase_id=0),
             MpiCall(kind="isend", peer=3, size_bytes=1000, request=0),
             MpiCall(kind="wait", request=0)],
            [MpiCall(kind="recv", peer=2, size_bytes=1000)],
        ])

    def duration(self, rank, ph):
        # Config 0: rank 0 wins the race; config 1: rank 2 wins.
        cols = {0: np.array([10.0, 500.0]), 2: np.array([500.0, 10.0])}
        return cols.get(rank, np.zeros(2))

    def test_unlimited_buses_take_array_path(self):
        # No bus contention: order-free, so the structural tape prices
        # the whole batch even though the step orders differ between
        # configs.
        net = zero_net(n_buses=0)
        t = self._racing_trace()
        assert _order_free(t, net)
        reg = get_metrics()
        scalar0 = reg.counter("replay.batch.driver.scalar")
        arr0 = reg.counter("replay.batch.array_events")
        out = replay_batch(t, net, self.duration, 2)
        assert reg.counter("replay.batch.driver.scalar") == scalar0
        assert reg.counter("replay.batch.array_events") > arr0
        for c in range(2):
            ref = replay(t, net,
                         lambda r, p, _c=c: self.duration(r, p)[_c])
            assert_results_equal(ref, out[c])

    def test_tape_bailout_falls_back_to_scalar_replay(self, monkeypatch):
        # An order-free trace whose tape build bails out runs the scalar
        # event engine once per column: the reference itself.
        net = zero_net(n_buses=0)
        t = self._racing_trace()
        monkeypatch.setattr(replay_batch_mod, "_tape_for",
                            lambda trace, net: None)
        reg = get_metrics()
        drv0 = reg.counter("replay.batch.driver.scalar")
        fb0 = reg.counter("replay.batch.array_fallbacks")
        arr0 = reg.counter("replay.batch.array_events")
        out = replay_batch(t, net, self.duration, 2)
        assert reg.counter("replay.batch.driver.scalar") - drv0 == 1
        assert reg.counter("replay.batch.array_fallbacks") - fb0 == 1
        assert reg.counter("replay.batch.array_events") == arr0
        for c in range(2):
            ref = replay(t, net,
                         lambda r, p, _c=c: self.duration(r, p)[_c])
            assert_results_equal(ref, out[c])


class TestOrderFreeClassification:
    def test_finite_bus_pool_is_order_dependent(self):
        t = trace([[phase()], [phase()]])
        assert not _order_free(t, zero_net(n_buses=1))
        assert _order_free(t, zero_net(n_buses=0))

    def test_mixed_protocol_key_is_order_dependent(self):
        # One (src, dst, tag) key carrying both an isend (buffered) and
        # a rendezvous send: matching prefers whichever buffered send
        # is outstanding, so pairing depends on step order.
        net = zero_net(eager_threshold_bytes=64)
        t = trace([
            [MpiCall(kind="isend", peer=1, size_bytes=8, request=0),
             MpiCall(kind="wait", request=0),
             MpiCall(kind="send", peer=1, size_bytes=1000)],
            [MpiCall(kind="recv", peer=0, size_bytes=8),
             MpiCall(kind="recv", peer=0, size_bytes=1000)],
        ])
        assert not _order_free(t, net)
        # The scalar fallback reproduces the scalar results.
        assert_batch_equals_scalar(t, net, (0.5, 1.0, 2.0))

    def test_distinct_tags_keep_keys_pure(self):
        net = zero_net(eager_threshold_bytes=64)
        t = trace([
            [MpiCall(kind="isend", peer=1, size_bytes=8, request=0,
                     tag=1),
             MpiCall(kind="wait", request=0),
             MpiCall(kind="send", peer=1, size_bytes=1000, tag=2)],
            [MpiCall(kind="recv", peer=0, size_bytes=8, tag=1),
             MpiCall(kind="recv", peer=0, size_bytes=1000, tag=2)],
        ])
        assert _order_free(t, net)
        assert_batch_equals_scalar(t, net, (0.5, 1.0, 2.0))


class TestDeadlockAndValidation:
    @pytest.mark.parametrize("n_buses", [0, 1])
    def test_deadlock_reproduces_scalar_diagnostic(self, n_buses):
        t = trace([
            [phase(), MpiCall(kind="recv", peer=1, size_bytes=8)],
            [phase()],
        ])
        with pytest.raises(RuntimeError,
                           match=r"rank 0@event1:recv\(peer=1\)"):
            replay_batch(t, zero_net(n_buses=n_buses),
                         batch_duration((1.0, 2.0)), 2)

    def test_rejects_nonpositive_config_count(self):
        t = trace([[phase()]])
        with pytest.raises(ValueError, match="n_configs"):
            replay_batch(t, zero_net(), batch_duration(()), 0)

    def test_rejects_negative_duration(self):
        t = trace([[phase()]])
        with pytest.raises(ValueError, match="non-negative"):
            replay_batch(t, zero_net(),
                         lambda r, p: np.array([1.0, -1.0]), 2)


class TestAppTraceEquivalence:
    def test_lulesh_trace_batched_equals_scalar(self):
        musa = Musa(get_app("lulesh"))
        tr = musa._burst_trace(8, 1)
        rank_scales = musa.app.rank_scales(8)
        base = {id(p): 1000.0 * (i + 1)
                for i, p in enumerate(musa.phases)}
        cfg = np.array([1.0, 0.5, 2.0, 1.0 + 2**-35, 3.7])

        def dur(rank, ph):
            return base[id(ph)] * cfg * rank_scales[rank]

        for n_buses in (0, 4):
            net = NetworkConfig(
                latency_us=musa.network.latency_us,
                bandwidth_gbs=musa.network.bandwidth_gbs,
                cpu_overhead_us=musa.network.cpu_overhead_us,
                n_buses=n_buses)
            out = replay_batch(tr, net, dur, len(cfg))
            for c in range(len(cfg)):
                ref = replay(tr, net,
                             lambda r, p, _c=c: dur(r, p)[_c])
                assert_results_equal(ref, out[c])


class TestBundledAppsStayOnTape:
    """Every bundled app must replay on the array tape with its default
    network.  A trace that drops to the per-column scalar fallback would
    run O(configs) slower; this fails instead of the sweep slowing down
    silently."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_default_network_builds_a_tape(self, app):
        musa = Musa(get_app(app))
        for n_ranks in (1, 7, 64, 256):
            t = musa._burst_trace(n_ranks, None)
            assert _order_free(t, musa.network), (app, n_ranks)
            assert _tape_for(t, musa.network) is not None, (app, n_ranks)

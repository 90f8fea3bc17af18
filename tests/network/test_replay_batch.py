"""Config-vectorized replay ≡ per-config scalar replay, bit for bit.

The batched engine's contract is exact equivalence: for every
configuration column, ``replay_batch`` must produce the same makespan
— down to the float bits — that the scalar engine's ``total_ns`` is
when handed that column's duration function.  The property
tests drive the array tape (unlimited buses) and the per-column scalar
fallback (finite buses), with per-config compute scalings chosen to
flip the global ``(clock, rank)`` step order mid-replay; the
regressions pin the tape bail-out fallback, the collective pricing
path, the order-free classification of :func:`_classify`, the
period tape and its full-tape fallback (flat and loaded traces,
unbalanced periods), that every bundled app stays on a period tape,
that message buffer rows are reused once their values are dead,
that column blocks change no bit and bound the cached workspace, and
that a fresh process replays without importing ``numpy.ma``.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.apps import APP_NAMES, get_app
from repro.core.musa import Musa
from repro.network import NetworkConfig, replay
from repro.network import replay_batch as replay_batch_mod
from repro.network.replay_batch import _classify, _tape_for, replay_batch
from repro.obs import get_metrics
from ..trace.burst_dict import burst_from_dict, burst_to_dict
from ..trace.encode import Call, burst

from .test_replay_engines import (
    _skewed_duration,
    phase,
    round_traces,
    trace,
    zero_net,
)

#: Scale factors that reorder ranks' virtual clocks between columns.
SCALE_POOL = (0.1, 0.5, 1.0, 1.0 + 2**-40, 2.0, 7.3)


def order_free(t, net):
    return _classify(t, net) is not None


def batch_duration(scales):
    """Per-config duration column: the skewed scalar duration x scale."""
    arr = np.asarray(scales, dtype=np.float64)

    def fn(rank, ph):
        return _skewed_duration(rank, ph) * arr

    return fn


def assert_totals_equal(out, t, net, dur):
    """``out`` holds, bit for bit, each column's scalar ``total_ns``."""
    assert out.dtype == np.float64 and out.ndim == 1
    for c in range(len(out)):
        ref = replay(t, net, lambda r, p, _c=c: dur(r, p)[_c])
        assert float.hex(float(out[c])) == float.hex(ref.total_ns), c


def assert_batch_equals_scalar(t, net, scales):
    dur = batch_duration(scales)
    out = replay_batch(t, net, dur, len(scales))
    assert out.shape == (len(scales),)
    assert_totals_equal(out, t, net, dur)
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
        assert not order_free(t, net)
        assert_batch_equals_scalar(t, net, scales)


#: Eager (<= the default 32 KiB threshold) and rendezvous sizes.
SIZES = st.one_of(st.integers(1, 4096), st.integers(40_000, 100_000))


@st.composite
def rich_traces(draw):
    """Deadlock-free traces in shapes the app generators never emit.

    Rounds of collectives, one-way pair exchanges and two-way ring
    exchanges: several messages in flight on one ``(src, dst, tag)``
    key, tags 0..2, blocking or nonblocking on either side (rendezvous
    sizes included), waits in a shuffled order, request ids reused once
    their wait has passed, and each rank's period repeated 1..3 times.
    """
    n_ranks = draw(st.integers(2, 4))
    events = [[] for _ in range(n_ranks)]
    free = [[0, 1, 2, 3, 4, 5, 6, 7] for _ in range(n_ranks)]

    def post(r, kind, peer, size, tag, opened):
        req = free[r].pop(0)        # the lowest id not pending
        events[r].append(Call(kind=kind, peer=peer, size_bytes=size,
                              tag=tag, request=req))
        opened.append(req)

    def wait_all(r, opened):
        for req in draw(st.permutations(opened)):
            events[r].append(Call(kind="wait", request=req))
        free[r] = sorted(free[r] + opened)

    pid = 0
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["collective", "pairs", "ring"]))
        if shape == "collective":
            kind = draw(st.sampled_from(["allreduce", "barrier", "bcast"]))
            size = 0 if kind == "barrier" else draw(st.integers(0, 4096))
            for r in range(n_ranks):
                events[r].append(Call(kind=kind, size_bytes=size))
        elif shape == "pairs":
            perm = draw(st.permutations(range(n_ranks)))
            for i in range(0, n_ranks - 1, 2):
                a, b = perm[i], perm[i + 1]
                msgs = draw(st.lists(st.tuples(SIZES, st.integers(0, 2)),
                                     min_size=1, max_size=3))
                sent, got = [], []
                for size, tag in msgs:
                    if draw(st.booleans()):
                        post(a, "isend", b, size, tag, sent)
                    else:
                        events[a].append(Call(kind="send", peer=b,
                                              size_bytes=size, tag=tag))
                    if draw(st.booleans()):
                        post(b, "irecv", a, size, tag, got)
                    else:
                        events[b].append(Call(kind="recv", peer=a,
                                              size_bytes=size, tag=tag))
                wait_all(a, sent)
                wait_all(b, got)
        else:  # every rank trades with both ring neighbours, nonblocking
            size = draw(SIZES)
            tag = draw(st.integers(0, 2))
            opened = [[] for _ in range(n_ranks)]
            for r in range(n_ranks):
                for nb in ((r - 1) % n_ranks, (r + 1) % n_ranks):
                    post(r, "irecv", nb, size, tag, opened[r])
            for r in range(n_ranks):
                for nb in ((r - 1) % n_ranks, (r + 1) % n_ranks):
                    post(r, "isend", nb, size, tag, opened[r])
            for r in range(n_ranks):
                wait_all(r, opened[r])
        if draw(st.booleans()):
            for r in range(n_ranks):
                events[r].append(phase(phase_id=pid))
            pid += 1
    repeats = draw(st.integers(1, 3))
    return burst(events, app="rich", repeats=repeats, n_iterations=repeats)


class TestRichShapes:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t=rich_traces(),
           scales=st.lists(st.sampled_from(SCALE_POOL), min_size=1,
                           max_size=4))
    def test_batched_equals_scalar_without_fallback(self, t, scales):
        net = NetworkConfig(latency_us=0.1, bandwidth_gbs=10.0,
                            cpu_overhead_us=0.05)
        reg = get_metrics()
        fb0 = reg.counter("replay.batch.array_fallbacks")
        assert_batch_equals_scalar(t, net, scales)
        if order_free(t, net):
            # Deadlock-free and order-free: the tape must build.
            assert reg.counter("replay.batch.array_fallbacks") == fb0


class TestCollectivePricing:
    """Collectives must price identically in batched and scalar paths."""

    def test_collective_heavy_trace(self):
        n = 4
        evs = []
        for r in range(n):
            evs.append([
                phase(phase_id=0),
                Call(kind="allreduce", size_bytes=64),
                phase(phase_id=1),
                Call(kind="barrier"),
                Call(kind="bcast", size_bytes=4096),
                phase(phase_id=2),
                Call(kind="allreduce", size_bytes=8),
            ])
        t = trace(evs)
        scales = (0.25, 1.0, 3.0, 1.0 + 2**-30)
        for n_buses in (0, 2):
            net = zero_net(latency_us=0.2, cpu_overhead_us=0.1,
                           n_buses=n_buses)
            assert_batch_equals_scalar(t, net, scales)
            # Collective time must be non-trivial for the test to bite.
            ref = replay(t, net, lambda r, p: _skewed_duration(r, p))
            assert ref.collective_ns.sum() > 0


class TestForcedDivergence:
    """Per-config compute scalings that flip the step order mid-replay
    still match the scalar engine bit for bit, on either path."""

    def _racing_trace(self):
        # Ranks 0 and 2 race for the single bus; whichever reaches its
        # isend first (per config) holds the bus for 1000 ns.
        return trace([
            [phase(phase_id=0),
             Call(kind="isend", peer=1, size_bytes=1000, request=0),
             Call(kind="wait", request=0)],
            [Call(kind="recv", peer=0, size_bytes=1000)],
            [phase(phase_id=0),
             Call(kind="isend", peer=3, size_bytes=1000, request=0),
             Call(kind="wait", request=0)],
            [Call(kind="recv", peer=2, size_bytes=1000)],
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
        assert order_free(t, net)
        reg = get_metrics()
        scalar0 = reg.counter("replay.batch.driver.scalar")
        arr0 = reg.counter("replay.batch.array_events")
        out = replay_batch(t, net, self.duration, 2)
        assert reg.counter("replay.batch.driver.scalar") == scalar0
        assert reg.counter("replay.batch.array_events") > arr0
        assert_totals_equal(out, t, net, self.duration)

    def test_tape_bailout_falls_back_to_scalar_replay(self, monkeypatch):
        # An order-free trace whose tape build bails out runs the scalar
        # event engine once per column: the reference itself.
        net = zero_net(n_buses=0)
        t = self._racing_trace()
        monkeypatch.setattr(replay_batch_mod, "_build_tape",
                            lambda *args: None)
        reg = get_metrics()
        drv0 = reg.counter("replay.batch.driver.scalar")
        fb0 = reg.counter("replay.batch.array_fallbacks")
        arr0 = reg.counter("replay.batch.array_events")
        out = replay_batch(t, net, self.duration, 2)
        assert reg.counter("replay.batch.driver.scalar") - drv0 == 1
        assert reg.counter("replay.batch.array_fallbacks") - fb0 == 1
        assert reg.counter("replay.batch.array_events") == arr0
        assert_totals_equal(out, t, net, self.duration)


class TestOrderFreeClassification:
    def test_finite_bus_pool_is_order_dependent(self):
        t = trace([[phase()], [phase()]])
        assert not order_free(t, zero_net(n_buses=1))
        assert order_free(t, zero_net(n_buses=0))

    def test_mixed_protocol_key_is_order_dependent(self):
        # One (src, dst, tag) key carrying both an isend (buffered) and
        # a rendezvous send: matching prefers whichever buffered send
        # is outstanding, so pairing depends on step order.
        net = zero_net(eager_threshold_bytes=64)
        t = trace([
            [Call(kind="isend", peer=1, size_bytes=8, request=0),
             Call(kind="wait", request=0),
             Call(kind="send", peer=1, size_bytes=1000)],
            [Call(kind="recv", peer=0, size_bytes=8),
             Call(kind="recv", peer=0, size_bytes=1000)],
        ])
        assert not order_free(t, net)
        # The scalar fallback reproduces the scalar results.
        assert_batch_equals_scalar(t, net, (0.5, 1.0, 2.0))

    def test_distinct_tags_keep_keys_pure(self):
        net = zero_net(eager_threshold_bytes=64)
        t = trace([
            [Call(kind="isend", peer=1, size_bytes=8, request=0,
                  tag=1),
             Call(kind="wait", request=0),
             Call(kind="send", peer=1, size_bytes=1000, tag=2)],
            [Call(kind="recv", peer=0, size_bytes=8, tag=1),
             Call(kind="recv", peer=0, size_bytes=1000, tag=2)],
        ])
        assert order_free(t, net)
        assert_batch_equals_scalar(t, net, (0.5, 1.0, 2.0))


class TestDeadlockAndValidation:
    @pytest.mark.parametrize("n_buses", [0, 1])
    def test_deadlock_reproduces_scalar_diagnostic(self, n_buses):
        t = trace([
            [phase(), Call(kind="recv", peer=1, size_bytes=8)],
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

    def test_results_survive_the_next_run(self):
        # The returned makespans must not alias the tape's cached
        # workspace, which the next run on the same tape overwrites
        # (one column included).
        t = trace([[phase()], [phase()]])
        net = zero_net()
        for n_cols in (1, 3):
            first = replay_batch(t, net, lambda r, p: np.full(n_cols, 5.0),
                                 n_cols)
            second = replay_batch(t, net,
                                  lambda r, p: np.full(n_cols, 9.0), n_cols)
            assert (first == 5.0).all() and (second == 9.0).all()
            assert not np.shares_memory(first, second)

    def test_rejects_negative_duration(self):
        t = trace([[phase()]])
        with pytest.raises(ValueError, match="non-negative"):
            replay_batch(t, zero_net(),
                         lambda r, p: np.array([1.0, -1.0]), 2)

    @pytest.mark.parametrize("n_buses", [0, 1])
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_nonfinite_duration(self, bad, n_buses):
        # Both engines, one message: the array tape (unlimited buses),
        # the per-column scalar fallback (a finite bus pool) and the
        # scalar replay itself.
        t = trace([[phase()], [phase()]])
        net = zero_net(n_buses=n_buses)
        match = "phase duration must be finite and non-negative"
        with pytest.raises(ValueError, match=match):
            replay_batch(t, net, lambda r, p: np.array([1.0, bad]), 2)
        with pytest.raises(ValueError, match=match):
            replay(t, net, lambda r, p: bad)

    def test_rejects_nonfinite_lulesh_duration(self):
        musa = Musa(get_app("lulesh"))
        t = musa._burst_trace(4, 1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                replay(t, musa.network, lambda r, p: bad)
            with pytest.raises(ValueError, match="finite"):
                replay_batch(t, musa.network,
                             lambda r, p: np.array([1e6, bad]), 2)


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
            assert_totals_equal(replay_batch(tr, net, dur, len(cfg)), tr,
                                net, dur)


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
            assert order_free(t, musa.network), (app, n_ranks)
            tape = _tape_for(t, musa.network)
            assert tape is not None, (app, n_ranks)
        # A silent fall back to the full tape would cost n_iterations
        # times the memory: pin the periodic one at paper scale.
        assert tape.reps == t.n_iterations > 1, app


class TestPeriodicTape:
    """A message-balanced period replays its own tape ``repeats`` times;
    a flat trace (``repeats == 1``, e.g. one loaded from disk) or an
    unbalanced period builds the full tape from the flat columns.  Both
    must equal scalar replay, which walks the period ``repeats`` times,
    bit for bit."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_app_traces_equal_scalar(self, app):
        musa = Musa(get_app(app))
        base = {id(p): 1000.0 * (i + 1)
                for i, p in enumerate(musa.phases)}
        cfg = np.array([1.0, 0.37, 1.0 + 2**-35])
        # Paper scale (256 ranks) is where message buffer rows are
        # reused across exchanges and periods.
        for n_ranks, iters in ((1, (1, 2, 3, 4)), (7, (1, 2, 3, 4)),
                               (64, (1, 2, 3, 4)), (256, (4,))):
            scales = musa.app.rank_scales(n_ranks)

            def dur(rank, ph):
                return base[id(ph)] * cfg * scales[rank]

            for n_iter in iters:
                t = musa._burst_trace(n_ranks, n_iter)
                assert _tape_for(t, musa.network).reps == n_iter
                assert_totals_equal(replay_batch(t, musa.network, dur,
                                                 len(cfg)),
                                    t, musa.network, dur)

    P = (phase(phase_id=0), phase(phase_id=1))

    def iteration(self, rank, k, size=8):
        """One halo-plus-allreduce iteration of a 2-rank ring; request
        ids grow across iterations, as a real trace's do."""
        peer = 1 - rank
        return [Call(kind="irecv", peer=peer, size_bytes=size,
                     request=2 * k),
                Call(kind="isend", peer=peer, size_bytes=size,
                     request=2 * k + 1),
                self.P[rank],
                Call(kind="wait", request=2 * k),
                Call(kind="wait", request=2 * k + 1),
                Call(kind="allreduce", size_bytes=8)]

    def check(self, rank_events, n_iterations, reps, repeats=1):
        t = burst(rank_events, repeats=repeats, n_iterations=n_iterations)
        net = zero_net(latency_us=0.3, cpu_overhead_us=0.1)
        assert _tape_for(t, net).reps == reps
        assert_batch_equals_scalar(t, net, (0.5, 1.0, 7.3))

    def test_identical_iterations_run_one_period(self):
        self.check([self.iteration(r, 0) for r in range(2)], 3, reps=3,
                   repeats=3)

    def test_rendezvous_iterations_run_one_period(self):
        # Blocking rendezvous sends: each period rewrites the buffer
        # rows the last one read.
        def rdv(rank):
            peer = 1 - rank
            return [Call(kind="irecv", peer=peer, size_bytes=65536,
                         request=0),
                    Call(kind="send", peer=peer, size_bytes=65536),
                    Call(kind="wait", request=0),
                    self.P[rank],
                    Call(kind="allreduce", size_bytes=8)]

        self.check([rdv(r) for r in range(2)], 3, reps=3, repeats=3)

    def test_flat_identical_iterations_build_full_tape(self):
        # The same three iterations stored flat: no block detection.
        self.check([sum((self.iteration(r, k) for k in range(3)), [])
                    for r in range(2)], 3, reps=1)

    @pytest.mark.parametrize("app", ["spmz", "lulesh"])
    def test_loaded_app_trace_builds_full_tape(self, app):
        musa = Musa(get_app(app))
        t = musa._burst_trace(16, None)
        flat = burst_from_dict(burst_to_dict(t))
        assert flat.repeats == 1 and t.repeats == t.n_iterations > 1
        net = musa.network
        assert _tape_for(flat, net).reps == 1
        assert _tape_for(flat, net).n_events == _tape_for(t, net).n_events
        scales = (0.5, 1.0, 7.3)
        out = assert_batch_equals_scalar(flat, net, scales)
        assert np.array_equal(out, replay_batch(
            t, net, batch_duration(scales), len(scales)))

    def test_pending_request_in_period_is_rejected(self):
        with pytest.raises(ValueError, match="unwaited"):
            burst([(Call(kind="irecv", peer=1, size_bytes=8, request=0),
                    self.P[0]), ()], repeats=2)

    def test_differing_last_iteration_builds_full_tape(self):
        self.check([self.iteration(r, 0) + self.iteration(r, 1)
                    + self.iteration(r, 2, size=16)
                    for r in range(2)], 3, reps=1)

    def test_request_pending_across_iterations_builds_full_tape(self):
        # Rank 0 posts both receives in iteration 0 and waits on them in
        # iteration 1.
        rank0 = [Call(kind="irecv", peer=1, size_bytes=8, request=0),
                 self.P[0], Call(kind="allreduce", size_bytes=8),
                 Call(kind="irecv", peer=1, size_bytes=8, request=1),
                 Call(kind="wait", request=0), self.P[0],
                 Call(kind="allreduce", size_bytes=8),
                 Call(kind="wait", request=1)]
        rank1 = [Call(kind="send", peer=0, size_bytes=8), self.P[1],
                 Call(kind="allreduce", size_bytes=8)] * 2
        self.check([rank0, rank1], 2, reps=1)

    def test_send_received_an_iteration_later_builds_full_tape(self):
        # Rank 0 sends twice per period while rank 1 receives once:
        # FIFO matching pairs rank 1's second receive with rank 0's
        # second send of period 0, so one period cannot replay alone.
        rank0 = [Call(kind="send", peer=1, size_bytes=8),
                 Call(kind="send", peer=1, size_bytes=8),
                 self.P[0], Call(kind="allreduce", size_bytes=8)]
        rank1 = [Call(kind="recv", peer=0, size_bytes=8),
                 self.P[1], Call(kind="allreduce", size_bytes=8)]
        self.check([rank0, rank1], 2, reps=1, repeats=2)

    def test_equal_but_distinct_phase_builds_full_tape(self):
        # Same fields, another object: the duration function may key
        # on phase identity, so the period must not stand in for it.
        again = [ev if ev is not self.P[0] else phase(phase_id=0)
                 for ev in self.iteration(0, 1)]
        assert again[2] == self.P[0] and again[2] is not self.P[0]
        self.check([self.iteration(0, 0) + again,
                    self.iteration(1, 0) + self.iteration(1, 1)], 2,
                   reps=1)


class TestBufferReuse:
    """Message buffer rows are reused once their values are dead: a
    reader block takes the rows of blocks read before its first
    producer runs, and a never-read slot holds its row only while its
    producer group runs."""

    @staticmethod
    def iteration(k):
        # Ranks 0 and 1 trade eager isends that both sides wait on (a
        # doubly-read arrival); rank 2 sends rank 0 a blocking
        # rendezvous message, and rank 1 an eager one it never receives
        # (a never-read slot).  Rank 2's shape differs, so most groups
        # are partial.
        def pair(peer):
            return [Call(kind="irecv", peer=peer, size_bytes=8,
                         request=2 * k),
                    Call(kind="isend", peer=peer, size_bytes=8,
                         request=2 * k + 1)]

        waits = [Call(kind="wait", request=2 * k),
                 Call(kind="wait", request=2 * k + 1)]
        end = [phase(phase_id=0), Call(kind="allreduce", size_bytes=8)]
        return [
            pair(1) + [Call(kind="recv", peer=2, size_bytes=65536)]
            + waits + end,
            pair(0) + waits + end,
            [Call(kind="send", peer=0, size_bytes=65536),
             Call(kind="send", peer=1, size_bytes=8, tag=9)] + end,
        ]

    def test_rows_are_reused_across_iterations(self):
        its = [self.iteration(k) for k in range(3)]
        t = trace([sum((it[r] for it in its), []) for r in range(3)])
        net = zero_net(latency_us=0.3, cpu_overhead_us=0.1)
        tape = _tape_for(t, net)
        assert tape is not None and tape.reps == 1
        kinds = {g[0] for g in tape.groups}
        assert {replay_batch_mod._K_RDV_SEND, replay_batch_mod._K_WAIT_EAGER,
                replay_batch_mod._K_RDV_COMPLETE} <= kinds
        assert any(g[1] is not None and type(g[1]) is not slice
                   for g in tape.groups), "no partial group"
        # One row per (slot, reader) pair would take this many rows.
        read = [0, 0]
        for kind, _, _, rsl, rsl2, _, _ in tape.groups:
            if rsl is not None:
                read[kind == replay_batch_mod._K_RDV_SEND] += \
                    rsl.stop - rsl.start
            if rsl2 is not None:
                read[1] += rsl2.stop - rsl2.start
        arr_rows, post_rows = tape.n_msgs
        assert arr_rows < read[0] and post_rows < read[1]
        assert_batch_equals_scalar(t, net, (0.5, 1.0, 7.3))


class TestColumnBlocks:
    """The driver runs the tape over blocks of at most ``_BLOCK_COLS``
    columns from one block-sized workspace per tape: results equal
    scalar replay bit for bit on either side of every block boundary,
    and the workspace grows only to the widest block the tape ran."""

    @staticmethod
    def blocked_trace():
        # Partial groups, a doubly-read isend arrival, a rendezvous
        # send and a collective, on every column.
        its = [TestBufferReuse.iteration(k) for k in range(2)]
        return trace([sum((it[r] for it in its), []) for r in range(3)])

    @staticmethod
    def rows(tape, t):
        return sum(tape.n_msgs) + 3 * t.n_ranks

    @pytest.mark.parametrize("k", [1, 4])
    def test_block_boundaries_equal_scalar(self, monkeypatch, k):
        monkeypatch.setattr(replay_batch_mod, "_BLOCK_COLS", k)
        t = self.blocked_trace()
        net = zero_net(latency_us=0.3, cpu_overhead_us=0.1)
        assert order_free(t, net)
        tape = _tape_for(t, net)
        assert tape is not None
        for n_cols in sorted({1, max(k - 1, 1), k, k + 1, 2 * k + 3}):
            scales = [SCALE_POOL[i % len(SCALE_POOL)] for i in range(n_cols)]
            out = assert_batch_equals_scalar(t, net, scales)
            assert not np.shares_memory(out, tape.ws)
            assert tape.ws.nbytes <= self.rows(tape, t) * k * 8

    def test_workspace_grows_to_one_block(self, monkeypatch):
        monkeypatch.setattr(replay_batch_mod, "_BLOCK_COLS", 64)
        t = self.blocked_trace()
        net = zero_net(latency_us=0.3, cpu_overhead_us=0.1)
        tape = _tape_for(t, net)
        row_bytes = self.rows(tape, t) * 8
        reg = get_metrics()
        grown = []
        for n_cols in (3, 200, 40, 200):
            before = reg.counter("replay.tape.workspace_bytes")
            replay_batch(t, net, batch_duration(np.ones(n_cols)), n_cols)
            grown.append(reg.counter("replay.tape.workspace_bytes") - before)
        # Allocated twice: 3 columns, then one 64-column block that
        # every later call reuses.
        assert grown == [3 * row_bytes, 64 * row_bytes, 0, 0]
        assert tape.ws.nbytes == 64 * row_bytes


@pytest.mark.parametrize("app", APP_NAMES)
def test_paper_scale_buffers_are_bounded(app):
    # One halo exchange's rows (six neighbours, two arrival readers and
    # one post reader each, per rank): later exchanges and periods
    # reuse the rows the earlier ones read.
    musa = Musa(get_app(app))
    tape = _tape_for(musa._burst_trace(256, None), musa.network)
    arr_rows, post_rows = tape.n_msgs
    assert arr_rows <= 3072 and post_rows <= 1536, tape.n_msgs


def test_fresh_replay_leaves_numpy_ma_unimported():
    # NumPy's plain ``np.unique`` imports ``numpy.ma`` (about 15 ms and
    # 1 MB); the tape build levels its DAG without it, so a fresh
    # server or sweep worker that replays never loads it.
    code = textwrap.dedent("""
        import sys
        from repro.apps import get_app
        from repro.config import smoke_design_space
        from repro.core.batch import BatchEvaluator
        from repro.core.musa import Musa
        from repro.obs import get_metrics

        evaluator = BatchEvaluator(Musa(get_app("spmz")))
        evaluator.evaluate_frame(smoke_design_space().configs()[:2],
                                 n_ranks=32, mode="replay")
        assert get_metrics().counter("replay.tape.builds") == 1
        print("numpy.ma" in sys.modules)
    """)
    src_root = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(src_root)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]

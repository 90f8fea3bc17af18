"""Engine equivalence, matching-order regressions, and deadlock
diagnostics for the reactive replay engine.

The event-driven engine and the test-local polling reference
(:mod:`tests.network.polling_oracle`) both step the ready
rank with the minimum ``(clock, rank)`` key, so the finite-bus pool —
the only shared resource whose grant order matters — is exercised in
one deterministic global-time order.  These tests pin that contract:
identical ``ReplayResult``s across engines and across rank-iteration
orders, and absolute timings that charge bus and link serialization on
*both* matching directions (the two historical order-dependence bugs).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.core.musa import Musa
from repro.network import NetworkConfig, replay
from repro.trace import ComputePhase, TaskRecord

from ..trace.encode import Call, burst
from .polling_oracle import polling_replay

#: The production event engine and the polling reference.
ENGINES = ("event", "polling")


def run(t, net, duration, engine, **kw):
    """Replay ``t`` on ``engine`` (one of :data:`ENGINES`)."""
    fn = replay if engine == "event" else polling_replay
    return fn(t, net, duration, **kw)


def phase(duration=100.0, phase_id=0):
    return ComputePhase(phase_id=phase_id, tasks=(
        TaskRecord(kernel="k", duration_ns=duration),))


def const_duration(value):
    return lambda rank, ph: value


def trace(rank_events, app="t"):
    return burst(rank_events, app=app)


def zero_net(**kw):
    """1 byte/ns wire, no latency, no per-call CPU overhead."""
    kw.setdefault("latency_us", 0.0)
    kw.setdefault("bandwidth_gbs", 1.0)
    kw.setdefault("cpu_overhead_us", 0.0)
    return NetworkConfig(**kw)


def assert_results_equal(a, b):
    assert a.total_ns == b.total_ns
    assert np.array_equal(a.compute_ns, b.compute_ns)
    assert np.array_equal(a.p2p_ns, b.p2p_ns)
    assert np.array_equal(a.collective_ns, b.collective_ns)
    assert a.n_messages == b.n_messages
    assert a.bytes_sent == b.bytes_sent


class TestEagerCostRegressions:
    """Late-matched buffered sends must charge bus and link time.

    Historically the sender buffered only ``(ready_ns, size)`` and a
    receive matched later re-priced the message without the bus grant
    or the sender's link serialization, so the cost depended on which
    side was processed first.
    """

    def test_congested_bus_charged_on_late_match(self):
        # One bus.  Rank 0's 1000 B transfer holds it for [0, 1000];
        # rank 2's 100 B message therefore rides the wire [1000, 1100]
        # and rank 3 must not see it before 1100 (the dropped-bus bug
        # priced it at 100).
        net = zero_net(n_buses=1)
        t = trace([
            [Call(kind="isend", peer=1, size_bytes=1000, request=0),
             Call(kind="wait", request=0)],
            [Call(kind="recv", peer=0, size_bytes=1000)],
            [Call(kind="isend", peer=3, size_bytes=100, request=0),
             Call(kind="wait", request=0)],
            [Call(kind="recv", peer=2, size_bytes=100)],
        ])
        for engine in ENGINES:
            res = run(t, net, const_duration(0.0), engine)
            assert res.p2p_ns[3] == pytest.approx(1100.0)
            assert res.total_ns == pytest.approx(1100.0)

    def test_sender_link_serializes_buffered_sends(self):
        # Unlimited buses, but one outgoing link: rank 0's second
        # message cannot start before the first finished, so rank 2
        # completes at 200 even though it posted its receive at 0.
        net = zero_net()
        t = trace([
            [Call(kind="isend", peer=1, size_bytes=100, request=0),
             Call(kind="isend", peer=2, size_bytes=100, request=1),
             Call(kind="wait", request=0),
             Call(kind="wait", request=1)],
            [Call(kind="recv", peer=0, size_bytes=100)],
            [Call(kind="recv", peer=0, size_bytes=100)],
        ])
        for engine in ENGINES:
            res = run(t, net, const_duration(0.0), engine)
            assert res.p2p_ns[1] == pytest.approx(100.0)
            assert res.p2p_ns[2] == pytest.approx(200.0)


class TestRendezvousCostRegressions:
    """Both rendezvous match directions must price identically.

    Historically a send matched from the receiver side bypassed the
    finite-bus pool and never advanced the sender's ``link_free``.
    """

    #: rendezvous for anything above 64 B
    NET = dict(n_buses=1, eager_threshold_bytes=64)

    def _run(self, t, durations, engine):
        return run(t, zero_net(**self.NET), durations, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_receiver_side_match_charges_bus(self, engine):
        # Ranks 2->3 hold the single bus for [0, 1000].  Rank 0's
        # rendezvous send is advertised at 0; rank 1 matches it from
        # the receiver side at 500 — the transfer still has to wait
        # for the bus, so completion is 2000, not 1500.
        t = trace([
            [Call(kind="send", peer=1, size_bytes=1000)],
            [phase(500.0), Call(kind="recv", peer=0, size_bytes=1000)],
            [Call(kind="send", peer=3, size_bytes=1000)],
            [Call(kind="recv", peer=2, size_bytes=1000)],
        ])
        res = self._run(t, lambda r, p: 500.0, engine)
        assert res.total_ns == pytest.approx(2000.0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_match_directions_price_identically(self, engine):
        # The mirrored scenario — who waits for whom is swapped, so the
        # sender-side path prices one trace and the receiver-side path
        # the other — must cost exactly the same.
        congestor = [
            [Call(kind="send", peer=3, size_bytes=1000)],
            [Call(kind="recv", peer=2, size_bytes=1000)],
        ]
        recv_side = trace([
            [Call(kind="send", peer=1, size_bytes=1000)],
            [phase(500.0), Call(kind="recv", peer=0, size_bytes=1000)],
        ] + congestor)
        send_side = trace([
            [phase(500.0), Call(kind="send", peer=1, size_bytes=1000)],
            [Call(kind="recv", peer=0, size_bytes=1000)],
        ] + congestor)
        a = self._run(recv_side, lambda r, p: 500.0, engine)
        b = self._run(send_side, lambda r, p: 500.0, engine)
        assert a.total_ns == b.total_ns == pytest.approx(2000.0)
        assert a.p2p_ns[0] + a.p2p_ns[1] == pytest.approx(
            b.p2p_ns[0] + b.p2p_ns[1])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_receiver_side_match_advances_sender_link(self, engine):
        # Two rendezvous sends from rank 0, both matched from the
        # receiver side at t=10.  The second transfer serializes on
        # rank 0's outgoing link: [10, 1010] then [1010, 2010].
        t = trace([
            [Call(kind="send", peer=1, size_bytes=1000),
             Call(kind="send", peer=2, size_bytes=1000)],
            [phase(10.0), Call(kind="recv", peer=0, size_bytes=1000)],
            [phase(10.0), Call(kind="recv", peer=0, size_bytes=1000)],
        ])
        res = run(t, zero_net(eager_threshold_bytes=64),
                  lambda r, p: 10.0, engine)
        assert res.total_ns == pytest.approx(2010.0)


class TestDeadlockDiagnostic:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_names_stuck_ranks_and_events(self, engine):
        t = trace([
            [phase(), Call(kind="recv", peer=1, size_bytes=8)],
            [phase()],
        ])
        with pytest.raises(RuntimeError,
                           match=r"rank 0@event1:recv\(peer=1\)"):
            run(t, zero_net(), const_duration(1.0), engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_counts_stuck_ranks(self, engine):
        t = trace([
            [Call(kind="barrier")],
            [Call(kind="barrier")],
            [],
        ])
        with pytest.raises(RuntimeError, match=r"2 rank\(s\) stuck"):
            run(t, zero_net(), const_duration(0.0), engine)


class TestEngineValidation:
    def test_rank_order_must_be_permutation(self):
        t = trace([[phase()], [phase()]])
        with pytest.raises(ValueError, match="rank_order"):
            replay(t, zero_net(), const_duration(1.0), rank_order=[0, 0])


class TestAppTraceEquivalence:
    def test_lulesh_trace_engines_agree(self):
        musa = Musa(get_app("lulesh"))
        tr = musa._burst_trace(8, 1)
        scales = musa.app.rank_scales(8)
        per_phase = {id(p): 1000.0 * (i + 1)
                     for i, p in enumerate(musa.phases)}

        def duration(rank, ph):
            return per_phase[id(ph)] * scales[rank]

        for n_buses in (0, 4):
            net = NetworkConfig(
                latency_us=musa.network.latency_us,
                bandwidth_gbs=musa.network.bandwidth_gbs,
                cpu_overhead_us=musa.network.cpu_overhead_us,
                n_buses=n_buses)
            ref = polling_replay(tr, net, duration)
            ev = replay(tr, net, duration)
            assert_results_equal(ref, ev)
            shuffled = list(reversed(range(8)))
            assert_results_equal(
                ref, replay(tr, net, duration, rank_order=shuffled))


# --------------------------------------------------------------------------
# Property: replay totals are invariant to rank-iteration order and to
# engine, for arbitrary deadlock-free traces (round-structured: every
# round is either a collective joined by all ranks or a set of disjoint
# matched point-to-point pairs).
# --------------------------------------------------------------------------

@st.composite
def round_traces(draw):
    n_ranks = draw(st.integers(2, 5))
    n_rounds = draw(st.integers(1, 4))
    events = [[] for _ in range(n_ranks)]
    next_req = [0] * n_ranks
    pid = 0
    for _ in range(n_rounds):
        if draw(st.booleans()):
            kind = draw(st.sampled_from(["allreduce", "barrier", "bcast"]))
            size = 0 if kind == "barrier" else draw(st.integers(0, 4096))
            for r in range(n_ranks):
                events[r].append(Call(kind=kind, size_bytes=size))
        else:
            perm = draw(st.permutations(range(n_ranks)))
            for i in range(0, n_ranks - 1, 2):
                a, b = perm[i], perm[i + 1]
                size = draw(st.integers(1, 100_000))
                if draw(st.booleans()):  # nonblocking pair
                    ra, rb = next_req[a], next_req[b]
                    next_req[a] += 1
                    next_req[b] += 1
                    events[a] += [Call(kind="isend", peer=b,
                                       size_bytes=size, request=ra),
                                  Call(kind="wait", request=ra)]
                    events[b] += [Call(kind="irecv", peer=a,
                                       size_bytes=size, request=rb),
                                  Call(kind="wait", request=rb)]
                else:  # blocking pair
                    events[a].append(Call(kind="send", peer=b,
                                          size_bytes=size))
                    events[b].append(Call(kind="recv", peer=a,
                                          size_bytes=size))
        if draw(st.booleans()):
            for r in range(n_ranks):
                events[r].append(phase(phase_id=pid))
            pid += 1
    order = draw(st.permutations(range(n_ranks)))
    n_buses = draw(st.sampled_from([0, 1, 2]))
    return trace(events), list(order), n_buses


def _skewed_duration(rank, ph):
    # Deterministic, rank- and phase-dependent compute time.
    return 50.0 * ((rank * 7 + ph.phase_id * 13) % 5 + 1)


class TestOrderIndependenceProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=round_traces())
    def test_engine_and_rank_order_invariant(self, data):
        t, order, n_buses = data
        net = NetworkConfig(latency_us=0.1, bandwidth_gbs=10.0,
                            cpu_overhead_us=0.05, n_buses=n_buses)
        ref = polling_replay(t, net, _skewed_duration)
        for engine in ENGINES:
            assert_results_equal(
                ref, run(t, net, _skewed_duration, engine,
                         rank_order=order))

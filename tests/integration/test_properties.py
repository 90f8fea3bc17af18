"""Cross-module property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_node, memory_preset
from repro.network import NetworkConfig, replay
from repro.trace import (
    ComputePhase,
    InstructionMix,
    KernelSignature,
    ReuseProfile,
    TaskRecord,
)
from repro.uarch import resolve_contention, time_kernel

from ..trace.encode import Call, burst


def _sig(ilp, vec, trip, mlp, components, cold, row_hit):
    return KernelSignature(
        name="k", instr_per_unit=50_000.0,
        mix=InstructionMix(fp=0.3, int_alu=0.2, load=0.25, store=0.1,
                           branch=0.1, other=0.05),
        ilp=ilp, vec_fraction=vec, trip_count=trip, mlp=mlp,
        reuse=ReuseProfile.from_components(components, cold_fraction=cold),
        row_hit_rate=row_hit,
    )


signature_strategy = st.builds(
    _sig,
    ilp=st.floats(min_value=1.0, max_value=6.0),
    vec=st.floats(min_value=0.0, max_value=1.0),
    trip=st.floats(min_value=1.0, max_value=4096.0),
    mlp=st.floats(min_value=1.0, max_value=16.0),
    components=st.lists(
        st.tuples(st.floats(min_value=1.0, max_value=1e6),
                  st.floats(min_value=0.01, max_value=1.0)),
        min_size=1, max_size=4),
    cold=st.floats(min_value=0.0, max_value=0.2),
    row_hit=st.floats(min_value=0.0, max_value=1.0),
)


class TestTimingProperties:
    @given(sig=signature_strategy)
    @settings(max_examples=50, deadline=None)
    def test_cycles_positive_and_finite(self, sig):
        t = time_kernel(sig, baseline_node(64))
        assert np.isfinite(t.cycles) and t.cycles > 0
        assert t.ipc > 0

    @given(sig=signature_strategy)
    @settings(max_examples=50, deadline=None)
    def test_wider_vectors_never_slower(self, sig):
        node = baseline_node(64)
        prev = None
        for width in (128, 256, 512, 1024):
            c = time_kernel(sig, node.with_(vector_bits=width)).cycles
            if prev is not None:
                assert c <= prev * (1 + 1e-9)
            prev = c

    @given(sig=signature_strategy)
    @settings(max_examples=50, deadline=None)
    def test_bigger_cores_never_materially_slower(self, sig):
        # Interval analysis has a genuine marginal inversion: a wider
        # core refills its window faster (hide = ROB/dispatch-rate), so
        # its *visible* stall per miss can be a touch larger.  The total
        # must still never degrade by more than a whisker.
        node = baseline_node(64)
        cyc = [time_kernel(sig, node.with_(core=c)).cycles
               for c in ("lowend", "medium", "high", "aggressive")]
        assert all(b <= a * 1.02 for a, b in zip(cyc, cyc[1:]))

    @given(sig=signature_strategy,
           n_busy=st.integers(min_value=1, max_value=64))
    @settings(max_examples=50, deadline=None)
    def test_contention_never_speeds_up(self, sig, n_busy):
        node = baseline_node(64)
        t = time_kernel(sig, node)
        r = resolve_contention(t, n_busy, node.memory)
        assert r.timing.cycles >= t.cycles - 1e-9
        assert r.achieved_bw_gbs <= r.capacity_gbs + 1e-6


class TestReplayProperties:
    @given(
        durations=st.lists(st.floats(min_value=1.0, max_value=1e6),
                           min_size=1, max_size=5),
        n_ranks=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_compute_time_conserved(self, durations, n_ranks):
        """Replay charges exactly the durations the callback supplies."""
        phases = tuple(
            ComputePhase(phase_id=i, tasks=(
                TaskRecord(kernel="k", duration_ns=1.0),))
            for i in range(len(durations))
        )
        trace = burst([phases] * n_ranks)
        net = NetworkConfig(latency_us=0.001, bandwidth_gbs=100.0,
                            cpu_overhead_us=0.001)
        res = replay(trace, net,
                     lambda rank, ph: durations[ph.phase_id])
        for r in range(n_ranks):
            assert res.compute_ns[r] == pytest.approx(sum(durations))

    @given(n_ranks=st.integers(min_value=2, max_value=8),
           slow_rank=st.integers(min_value=0, max_value=7))
    @settings(max_examples=25, deadline=None)
    def test_barrier_bounded_by_slowest(self, n_ranks, slow_rank):
        slow_rank %= n_ranks
        phase = ComputePhase(phase_id=0, tasks=(
            TaskRecord(kernel="k", duration_ns=1.0),))
        trace = burst([(phase, Call(kind="barrier"))] * n_ranks)
        net = NetworkConfig(latency_us=0.001, bandwidth_gbs=100.0,
                            cpu_overhead_us=0.001)
        res = replay(trace, net,
                     lambda r, ph: 1000.0 if r == slow_rank else 10.0)
        # Everyone leaves the barrier after the slowest rank enters.
        assert res.total_ns >= 1000.0
        assert res.total_ns < 1000.0 + 10_000.0  # barrier cost bounded

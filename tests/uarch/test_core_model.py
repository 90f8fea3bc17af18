"""Tests for the interval-analysis core timing model."""

import pytest

from repro.config import baseline_node
from repro.trace import InstructionMix, KernelSignature, ReuseProfile
from repro.uarch import time_kernel


def _sig(ilp=3.0, mlp=6.0, vec=0.7, trip=256, mem_components=None,
         row_hit=0.6, mix=None):
    return KernelSignature(
        name="k", instr_per_unit=100_000.0,
        mix=mix or InstructionMix(fp=0.30, int_alu=0.20, load=0.25,
                                  store=0.10, branch=0.10, other=0.05),
        ilp=ilp, vec_fraction=vec, trip_count=trip, mlp=mlp,
        reuse=ReuseProfile.from_components(
            mem_components or [(8.0, 0.95), (2000.0, 0.04), (1e6, 0.01)]),
        row_hit_rate=row_hit,
    )


class TestBaseComponent:
    def test_issue_width_bounds_ipc(self, node64):
        sig = _sig(ilp=100.0, vec=0.0,
                   mem_components=[(2.0, 1.0)])  # no stalls, no dep limit
        t = time_kernel(sig, node64.with_(core="lowend"))
        assert t.ipc <= 2.0 + 1e-6

    def test_dependency_bounds_ipc(self, node64):
        sig = _sig(ilp=1.5, vec=0.0, mem_components=[(2.0, 1.0)])
        t = time_kernel(sig, node64.with_(core="aggressive"))
        assert t.ipc <= 1.5 + 1e-6

    def test_wider_core_never_slower(self, node64):
        sig = _sig()
        cycles = [time_kernel(sig, node64.with_(core=c)).cycles
                  for c in ("lowend", "medium", "high", "aggressive")]
        assert cycles == sorted(cycles, reverse=True)


class TestVectorInteraction:
    def test_vectorization_reduces_cycles(self, node64):
        sig = _sig(vec=0.9, trip=1024)
        t128 = time_kernel(sig, node64.with_(vector_bits=128))
        t512 = time_kernel(sig, node64.with_(vector_bits=512))
        assert t512.cycles < t128.cycles

    def test_short_trip_no_wide_benefit(self, node64):
        sig = _sig(vec=0.9, trip=4)
        t128 = time_kernel(sig, node64.with_(vector_bits=128))
        t512 = time_kernel(sig, node64.with_(vector_bits=512))
        assert t512.cycles == pytest.approx(t128.cycles, rel=1e-6)

    def test_dram_bytes_conserved_under_fusion(self, node64):
        sig = _sig(vec=0.95, trip=2048)
        t128 = time_kernel(sig, node64.with_(vector_bits=128))
        t512 = time_kernel(sig, node64.with_(vector_bits=512))
        assert t512.dram_bytes == pytest.approx(t128.dram_bytes, rel=1e-9)

    def test_scalar_flops_invariant(self, node64):
        sig = _sig(vec=0.9)
        for w in (64, 128, 512):
            t = time_kernel(sig, node64.with_(vector_bits=w))
            assert t.scalar_flops == pytest.approx(100_000 * 0.30)


class TestMemoryBehaviour:
    def test_memory_latency_scales_with_frequency(self):
        # DRAM stall *cycles* grow with frequency (wall-clock latency fixed).
        sig = _sig(mem_components=[(8, 0.9), (1e6, 0.1)], mlp=1.0,
                   row_hit=0.0)
        slow = time_kernel(sig, baseline_node(1).with_(frequency_ghz=1.5))
        fast = time_kernel(sig, baseline_node(1).with_(frequency_ghz=3.0))
        assert fast.mem_stall_cycles > slow.mem_stall_cycles

    def test_mlp_reduces_dram_stall(self, node64):
        hi = _sig(mlp=12.0, row_hit=1.0,
                  mem_components=[(8, 0.9), (1e6, 0.1)])
        lo = _sig(mlp=1.0, row_hit=0.0,
                  mem_components=[(8, 0.9), (1e6, 0.1)])
        t_hi = time_kernel(hi, node64)
        t_lo = time_kernel(lo, node64)
        assert t_hi.mem_stall_cycles < t_lo.mem_stall_cycles

    def test_big_rob_hides_latency(self, node64):
        sig = _sig(mlp=2.0, row_hit=0.1,
                   mem_components=[(8, 0.9), (1e6, 0.1)])
        small = time_kernel(sig, node64.with_(core="lowend"))
        big = time_kernel(sig, node64.with_(core="aggressive"))
        assert big.mem_stall_cycles < small.mem_stall_cycles

    def test_l3_share_increases_dram_traffic(self, node64):
        sig = _sig(mem_components=[(8, 0.5), (30_000, 0.5)])
        alone = time_kernel(sig, node64, l3_share_cores=1)
        crowded = time_kernel(sig, node64, l3_share_cores=64)
        assert crowded.dram_accesses > alone.dram_accesses

    def test_mem_latency_override(self, node64):
        sig = _sig(mem_components=[(8, 0.9), (1e6, 0.1)], mlp=1.0,
                   row_hit=0.0)
        near = time_kernel(sig, node64, mem_latency_ns=30.0)
        far = time_kernel(sig, node64, mem_latency_ns=300.0)
        assert far.mem_stall_cycles > near.mem_stall_cycles


class TestAccounting:
    def test_cycle_breakdown_sums(self, node64, simple_kernel):
        t = time_kernel(simple_kernel, node64)
        assert t.cycles == pytest.approx(
            t.base_cycles + t.l2_stall_cycles + t.l3_stall_cycles
            + t.mem_stall_cycles)

    def test_duration_consistent_with_frequency(self, simple_kernel):
        t = time_kernel(simple_kernel, baseline_node(1))
        assert t.duration_ns == pytest.approx(t.cycles / 2.0)

    def test_mpki_ordering(self, node64, simple_kernel):
        # A run's mpki_l1, mpki_l2 and mpki_l3 divide these L2, L3 and
        # DRAM access counts by one instruction count.
        t = time_kernel(simple_kernel, node64)
        assert t.l1_accesses >= t.l2_accesses >= t.l3_accesses \
            >= t.dram_accesses >= 0

    def test_mem_stall_scaling_helper(self, node64, simple_kernel):
        t = time_kernel(simple_kernel, node64)
        t2 = t.with_mem_stall_scaled(3.0)
        assert t2.mem_stall_cycles == pytest.approx(3 * t.mem_stall_cycles)
        assert t2.base_cycles == t.base_cycles
        with pytest.raises(ValueError):
            t.with_mem_stall_scaled(0.5)

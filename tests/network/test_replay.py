"""Tests for the Dimemas-style MPI replay engine."""

import numpy as np
import pytest

from repro.network import NetworkConfig, marenostrum4_network, replay
from repro.trace import ComputePhase, TaskRecord

from ..trace.encode import Call, burst


def phase(duration=100.0, phase_id=0):
    return ComputePhase(phase_id=phase_id, tasks=(
        TaskRecord(kernel="k", duration_ns=duration),))


def const_duration(value):
    return lambda rank, ph: value


def trace(rank_events, app="t"):
    return burst(rank_events, app=app)


@pytest.fixture
def net():
    return marenostrum4_network()


@pytest.fixture
def fast_net():
    # Negligible latency/overhead for exact-arithmetic tests.
    return NetworkConfig(latency_us=0.0001, bandwidth_gbs=1000.0,
                        cpu_overhead_us=0.0001)


class TestComputeOnly:
    def test_single_rank(self, net):
        t = trace([[phase(), phase(phase_id=1)]])
        res = replay(t, net, const_duration(50.0))
        assert res.total_ns == pytest.approx(100.0)
        assert res.compute_ns[0] == pytest.approx(100.0)

    def test_per_rank_durations(self, net):
        t = trace([[phase()], [phase()]])
        res = replay(t, net, lambda r, p: 100.0 * (r + 1))
        assert res.total_ns == pytest.approx(200.0)


class TestPointToPoint:
    def test_eager_send_recv(self, net):
        t = trace([
            [Call(kind="send", peer=1, size_bytes=1024)],
            [Call(kind="recv", peer=0, size_bytes=1024)],
        ])
        res = replay(t, net, const_duration(0.0))
        assert res.n_messages == 1
        assert res.bytes_sent == 1024
        assert res.total_ns >= net.transfer_ns(1024)

    def test_rendezvous_send_blocks_for_receiver(self, net):
        big = 10 * 1024 * 1024  # above eager threshold
        t = trace([
            [Call(kind="send", peer=1, size_bytes=big)],
            [phase(), Call(kind="recv", peer=0, size_bytes=big)],
        ])
        res = replay(t, net, const_duration(5000.0))
        # Sender released only once receiver posted (after its phase).
        assert res.p2p_ns[0] >= 5000.0 - 1e-6

    def test_recv_before_send_blocks(self, net):
        t = trace([
            [phase(), Call(kind="send", peer=1, size_bytes=8)],
            [Call(kind="recv", peer=0, size_bytes=8)],
        ])
        res = replay(t, net, const_duration(1000.0))
        assert res.total_ns >= 1000.0

    def test_isend_irecv_wait(self, net):
        t = trace([
            [Call(kind="isend", peer=1, size_bytes=64, request=0),
             phase(), Call(kind="wait", request=0)],
            [Call(kind="irecv", peer=0, size_bytes=64, request=0),
             phase(), Call(kind="wait", request=0)],
        ])
        res = replay(t, net, const_duration(10.0))
        assert res.n_messages == 1
        assert res.total_ns > 0

    def test_message_order_fifo_per_channel(self, fast_net):
        # Two sends same (src, dst, tag) must match two recvs in order;
        # replay completes without deadlock and counts both.
        t = trace([
            [Call(kind="send", peer=1, size_bytes=100),
             Call(kind="send", peer=1, size_bytes=200)],
            [Call(kind="recv", peer=0, size_bytes=100),
             Call(kind="recv", peer=0, size_bytes=200)],
        ])
        res = replay(t, fast_net, const_duration(0.0))
        assert res.n_messages == 2
        assert res.bytes_sent == 300

    def test_injection_link_serializes(self, fast_net):
        # Rank 0 sends 4 big messages to distinct peers: they serialize
        # on its outgoing link, so total >= 4 * transfer.
        net = NetworkConfig(latency_us=0.0001, bandwidth_gbs=1.0,
                            cpu_overhead_us=0.0001)
        size = 1024 * 1024
        sends = [Call(kind="isend", peer=p, size_bytes=size, request=p)
                 for p in (1, 2, 3, 4)]
        waits = [Call(kind="wait", request=p) for p in (1, 2, 3, 4)]
        receivers = [[Call(kind="recv", peer=0, size_bytes=size)]
                     for _ in range(4)]
        t = trace([sends + waits] + receivers)
        res = replay(t, net, const_duration(0.0))
        assert res.total_ns >= 4 * size / 1.0  # 4 serialized transfers


class TestCollectives:
    def test_barrier_synchronizes(self, net):
        t = trace([
            [phase(), Call(kind="barrier")],
            [Call(kind="barrier")],
        ])
        res = replay(t, net, lambda r, p: 10_000.0)
        # Rank 1 waits for rank 0's compute inside the barrier.
        assert res.collective_ns[1] >= 10_000.0 - 1e-6

    def test_imbalance_becomes_collective_wait(self, net):
        t = trace([
            [phase(), Call(kind="allreduce", size_bytes=8)],
            [phase(), Call(kind="allreduce", size_bytes=8)],
            [phase(), Call(kind="allreduce", size_bytes=8)],
        ])
        res = replay(t, net, lambda r, p: 1000.0 * (1 + 10 * (r == 2)))
        # Fast ranks idle ~9000 ns in the allreduce.
        assert res.collective_ns[0] >= 9000.0
        assert res.collective_ns[2] < res.collective_ns[0]

    def test_multiple_collectives_sequence(self, net):
        evs = [Call(kind="allreduce", size_bytes=8),
               Call(kind="barrier"),
               Call(kind="allreduce", size_bytes=8)]
        t = trace([list(evs), list(evs)])
        res = replay(t, net, const_duration(0.0))
        assert res.total_ns > 0


class TestDeadlockDetection:
    def test_unmatched_recv_deadlocks(self, net):
        t = trace([
            [Call(kind="recv", peer=1, size_bytes=8)],
            [],
        ])
        with pytest.raises(RuntimeError, match="deadlock"):
            replay(t, net, const_duration(0.0))

    def test_collective_mismatch_deadlocks(self, net):
        t = trace([
            [Call(kind="barrier")],
            [],
        ])
        with pytest.raises(RuntimeError, match="deadlock"):
            replay(t, net, const_duration(0.0))


class TestSegments:
    def test_segments_collected(self, net):
        t = trace([
            [phase(), Call(kind="barrier")],
            [phase(), Call(kind="barrier")],
        ])
        res = replay(t, net, const_duration(100.0), collect_segments=True)
        kinds = {s.kind for s in res.segments}
        assert "compute" in kinds
        assert "collective" in kinds

    def test_segments_off_by_default(self, net):
        t = trace([[phase()]])
        assert replay(t, net, const_duration(1.0)).segments is None


class TestAggregateAccounting:
    def test_mpi_fraction_bounds(self, net):
        t = trace([
            [phase(), Call(kind="barrier")],
            [phase(), Call(kind="barrier")],
        ])
        res = replay(t, net, lambda r, p: 100.0 + 900.0 * r)
        mpi = (res.p2p_ns + res.collective_ns).sum()
        assert 0.0 < mpi < res.n_ranks * res.total_ns

    def test_application_skeleton_replays(self, net):
        """A real app-model trace (halos + allreduce) replays cleanly."""
        from repro.apps import get_app

        from repro.apps import grid_neighbors, rank_grid_dims

        t = get_app("lulesh").burst_trace(n_ranks=8, n_iterations=2)
        res = replay(t, net, const_duration(10_000.0))
        assert res.n_ranks == 8
        # In a 2x2x2 periodic grid +1/-1 neighbours coincide: 3 per rank.
        n_nb = len(grid_neighbors(0, rank_grid_dims(8)))
        assert res.n_messages == 8 * n_nb * 3 * 2  # ranks x nbrs x phases x iters
        assert res.total_ns > 0


class TestFiniteBuses:
    def test_bus_pool_serializes_global_transfers(self):
        """With one bus, disjoint pairs' transfers serialize."""
        slow = NetworkConfig(latency_us=0.0001, bandwidth_gbs=1.0,
                             cpu_overhead_us=0.0001, n_buses=1)
        size = 1024 * 1024
        t = trace([
            [Call(kind="isend", peer=2, size_bytes=size, request=0),
             Call(kind="wait", request=0)],
            [Call(kind="isend", peer=3, size_bytes=size, request=0),
             Call(kind="wait", request=0)],
            [Call(kind="recv", peer=0, size_bytes=size)],
            [Call(kind="recv", peer=1, size_bytes=size)],
        ])
        res1 = replay(t, slow, const_duration(0.0))
        free = NetworkConfig(latency_us=0.0001, bandwidth_gbs=1.0,
                             cpu_overhead_us=0.0001, n_buses=0)
        res_inf = replay(t, free, const_duration(0.0))
        assert res1.total_ns > res_inf.total_ns * 1.7

    def test_many_buses_equal_unlimited(self):
        busy = NetworkConfig(latency_us=1.0, bandwidth_gbs=10.0,
                             cpu_overhead_us=0.1, n_buses=1000)
        free = NetworkConfig(latency_us=1.0, bandwidth_gbs=10.0,
                             cpu_overhead_us=0.1, n_buses=0)
        from repro.apps import get_app

        t = get_app("hydro").burst_trace(n_ranks=8, n_iterations=1)
        a = replay(t, busy, const_duration(1000.0)).total_ns
        b = replay(t, free, const_duration(1000.0)).total_ns
        assert a == pytest.approx(b, rel=1e-9)

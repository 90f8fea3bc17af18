"""Tests for burst-trace event records."""

import numpy as np
import pytest

from repro.trace import BurstTrace, ComputePhase, TaskRecord
from repro.trace.burst import FIRST_COLLECTIVE, KINDS

from .encode import Call, burst, columns_from_ranks


class TestTaskRecord:
    def test_basic(self):
        t = TaskRecord(kernel="k", duration_ns=100.0, deps=(0, 1),
                       work_units=2.0)
        assert t.kernel == "k"
        assert t.deps == (0, 1)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            TaskRecord(kernel="k", duration_ns=-1.0)

    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            TaskRecord(kernel="k", duration_ns=1.0, work_units=-1.0)

    @pytest.mark.parametrize("field", ["duration_ns", "work_units"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_rejects_non_finite(self, field, bad):
        kw = {"duration_ns": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TaskRecord(kernel="k", **kw)

    def test_zero_work_allowed(self):
        # Empty partitions of an irregular decomposition are legal.
        t = TaskRecord(kernel="k", duration_ns=1.0, work_units=0.0)
        assert t.work_units == 0.0

    def test_rejects_negative_dep(self):
        with pytest.raises(ValueError):
            TaskRecord(kernel="k", duration_ns=1.0, deps=(-1,))


class TestComputePhase:
    def _tasks(self, n, deps=None):
        return tuple(
            TaskRecord(kernel="k", duration_ns=10.0,
                       deps=deps[i] if deps else ())
            for i in range(n)
        )

    def test_totals(self):
        p = ComputePhase(phase_id=0, tasks=self._tasks(4))
        assert p.total_task_ns == pytest.approx(40.0)
        assert p.n_tasks == 4

    def test_valid_backward_deps(self):
        deps = [(), (0,), (0, 1), (2,)]
        p = ComputePhase(phase_id=0, tasks=self._tasks(4, deps))
        assert p.tasks[3].deps == (2,)

    def test_rejects_forward_dep(self):
        deps = [(1,), ()]
        with pytest.raises(ValueError, match="earlier tasks"):
            ComputePhase(phase_id=0, tasks=self._tasks(2, deps))

    def test_rejects_self_dep(self):
        deps = [(0,)]
        with pytest.raises(ValueError):
            ComputePhase(phase_id=0, tasks=self._tasks(1, deps))

    def test_rejects_negative_overheads(self):
        with pytest.raises(ValueError):
            ComputePhase(phase_id=0, tasks=self._tasks(1), serial_ns=-1.0)

    @pytest.mark.parametrize("field",
                             ["serial_ns", "creation_ns", "critical_ns"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), -1.0])
    def test_rejects_non_finite_overheads(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ComputePhase(phase_id=0, tasks=self._tasks(2), **{field: bad})

    def test_nan_overheads_cannot_reach_the_scheduler(self):
        # Accepted, they made simulate_phase return a NaN makespan.
        with pytest.raises(ValueError, match="finite"):
            ComputePhase(phase_id=0, tasks=self._tasks(2),
                         serial_ns=float("nan"), creation_ns=float("inf"))

    def test_empty_phase_allowed(self):
        p = ComputePhase(phase_id=0, tasks=(), serial_ns=100.0)
        assert p.total_task_ns == 0.0


class TestMpiCall:
    """An MPI call is a row of the trace's columns: the trace's row
    checks accept or reject it."""

    def test_p2p_requires_peer(self):
        with pytest.raises(ValueError, match="requires a peer"):
            burst([[Call(kind="send", size_bytes=10)]])

    def test_nonblocking_requires_request(self):
        with pytest.raises(ValueError, match="request"):
            burst([[Call(kind="isend", peer=1, size_bytes=10)], []])

    def test_wait_requires_request(self):
        with pytest.raises(ValueError, match="wait requires a request id"):
            burst([[Call(kind="wait")]])

    def test_unknown_kind(self):
        # Kinds are codes into KINDS; a code past its end is no call.
        cols, _ = columns_from_ranks([[Call(kind="barrier")]])
        with pytest.raises(ValueError,
                           match="unknown event kind code 12"):
            BurstTrace("x", cols._replace(kind=np.array([len(KINDS)])), ())

    def test_collective_flag(self):
        assert set(KINDS[1:FIRST_COLLECTIVE]) == {
            "send", "recv", "isend", "irecv", "wait"}
        assert set(KINDS[FIRST_COLLECTIVE:]) == {
            "barrier", "allreduce", "reduce", "bcast", "alltoall",
            "allgather"}

    def test_barrier_zero_payload(self):
        c = burst([[Call(kind="barrier")]]).columns
        assert (c.size.tolist(), c.peer.tolist(), c.request.tolist()) == (
            [0], [-1], [-1])

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="size_bytes must be"):
            burst([[Call(kind="bcast", size_bytes=-1)]])

    def test_rejects_negative_peer(self):
        # -1 encodes "no peer"; below it is a bad rank.
        with pytest.raises(ValueError, match="peer must be"):
            burst([[Call(kind="send", peer=-2, size_bytes=8)]])

    def test_rejects_negative_request(self):
        with pytest.raises(ValueError, match="request id must be"):
            burst([[Call(kind="isend", peer=0, size_bytes=8, request=-2)]])

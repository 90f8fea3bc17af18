"""Tests for burst-trace event records."""

import pytest

from repro.trace import ComputePhase, MpiCall, TaskRecord


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
    def test_p2p_requires_peer(self):
        with pytest.raises(ValueError, match="requires a peer"):
            MpiCall(kind="send", size_bytes=10)

    def test_nonblocking_requires_request(self):
        with pytest.raises(ValueError, match="request"):
            MpiCall(kind="isend", peer=1, size_bytes=10)

    def test_wait_requires_request(self):
        with pytest.raises(ValueError):
            MpiCall(kind="wait")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown MPI call"):
            MpiCall(kind="sendrecv", peer=1)

    def test_collective_flag(self):
        assert MpiCall(kind="allreduce", size_bytes=8).is_collective
        assert not MpiCall(kind="send", peer=0, size_bytes=8).is_collective

    def test_barrier_zero_payload(self):
        b = MpiCall(kind="barrier")
        assert b.size_bytes == 0

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            MpiCall(kind="bcast", size_bytes=-1)

    def test_rejects_negative_peer(self):
        with pytest.raises(ValueError, match="peer must be"):
            MpiCall(kind="send", peer=-1, size_bytes=8)

    def test_rejects_negative_request(self):
        with pytest.raises(ValueError, match="request id must be"):
            MpiCall(kind="isend", peer=1, size_bytes=8, request=-1)

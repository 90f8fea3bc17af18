"""Tests for burst trace containers."""

import pytest

from repro.trace import BurstTrace, ComputePhase, MpiCall, RankTrace, TaskRecord


def _phase(n_tasks=2, phase_id=0):
    return ComputePhase(
        phase_id=phase_id,
        tasks=tuple(TaskRecord(kernel="k", duration_ns=10.0)
                    for _ in range(n_tasks)),
    )


class TestRankTrace:
    def test_partitions_events(self):
        rt = RankTrace(rank=0, period=(
            _phase(), MpiCall(kind="barrier"), _phase(phase_id=1),
        ))
        assert len(rt.compute_phases()) == 2
        assert len(rt.mpi_calls()) == 1

    def test_total_compute(self):
        rt = RankTrace(rank=0, period=(_phase(3),))
        assert rt.total_compute_ns == pytest.approx(30.0)

    def test_bytes_counts_sends_only(self):
        rt = RankTrace(rank=0, period=(
            MpiCall(kind="isend", peer=1, size_bytes=100, request=0),
            MpiCall(kind="irecv", peer=1, size_bytes=999, request=1),
            MpiCall(kind="wait", request=0),
            MpiCall(kind="wait", request=1),
        ))
        assert rt.total_mpi_bytes == 100

    def test_rejects_unwaited_request(self):
        with pytest.raises(ValueError, match="unwaited"):
            RankTrace(rank=0, period=(
                MpiCall(kind="isend", peer=1, size_bytes=1, request=0),
            ))

    def test_rejects_wait_on_unknown_request(self):
        with pytest.raises(ValueError, match="unknown request"):
            RankTrace(rank=0, period=(MpiCall(kind="wait", request=5),))

    def test_rejects_request_reuse_before_wait(self):
        with pytest.raises(ValueError, match="reused"):
            RankTrace(rank=0, period=(
                MpiCall(kind="isend", peer=1, size_bytes=1, request=0),
                MpiCall(kind="irecv", peer=1, size_bytes=1, request=0),
            ))

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError):
            RankTrace(rank=-1, period=())


class TestBurstTrace:
    def _trace(self, n_ranks=2):
        ranks = tuple(
            RankTrace(rank=r, period=(_phase(), MpiCall(kind="barrier")))
            for r in range(n_ranks)
        )
        return BurstTrace(app="test", ranks=ranks)

    def test_basic(self):
        t = self._trace(4)
        assert t.n_ranks == 4
        assert t.kernel_names() == ["k"]
        assert t.phase_counts() == (4, 4)

    def test_rejects_sparse_ranks(self):
        ranks = (RankTrace(rank=0, period=()), RankTrace(rank=2, period=()))
        with pytest.raises(ValueError, match="dense"):
            BurstTrace(app="x", ranks=ranks)

    def test_rejects_out_of_range_peer(self):
        ranks = (
            RankTrace(rank=0, period=(
                MpiCall(kind="isend", peer=5, size_bytes=1, request=0),
                MpiCall(kind="wait", request=0),
            )),
        )
        with pytest.raises(ValueError, match="peer"):
            BurstTrace(app="x", ranks=ranks)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BurstTrace(app="x", ranks=())

    def test_iteration(self):
        t = self._trace(3)
        assert [rt.rank for rt in t] == [0, 1, 2]

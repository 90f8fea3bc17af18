"""Tests for burst trace containers."""

from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import BurstTrace, ComputePhase, MpiCall, RankTrace, TaskRecord
from repro.trace.burst import KINDS, _columns_from_ranks


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
        def rank(r):
            return RankTrace(rank=r, period=(
                MpiCall(kind="isend", peer=1 - r, size_bytes=100, request=0),
                MpiCall(kind="irecv", peer=1 - r, size_bytes=100, request=1),
                MpiCall(kind="wait", request=0),
                MpiCall(kind="wait", request=1),
            ))
        t = BurstTrace(app="x", ranks=(rank(0), rank(1)))
        sends = t.columns.kind == KINDS.index("isend")
        assert int(t.columns.size[sends].sum()) == 200

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
        assert [len(rt.compute_phases()) for rt in t] == [1] * 4
        assert [len(rt.mpi_calls()) for rt in t] == [1] * 4

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


class TestColumns:
    """The columns are the trace; the event objects are a view of them."""

    def _period(self):
        return (MpiCall(kind="irecv", peer=1, size_bytes=8, tag=2,
                        request=4),
                _phase(),
                MpiCall(kind="send", peer=1, size_bytes=40_000),
                MpiCall(kind="wait", request=4),
                MpiCall(kind="allreduce", size_bytes=8))

    def test_rank_view_round_trips_through_columns(self):
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),
                                       RankTrace(rank=1,
                                                 period=self._period())))
        again = BurstTrace.from_columns("x", t.columns, t.phases)
        assert "ranks" not in vars(again)
        assert [rt.period for rt in again.ranks] == [(), self._period()]
        assert again.ranks[1].period[1] is t.phases[0]
        assert again.columns.kind.tolist() == t.columns.kind.tolist()
        assert len(t.columns.kind) == 5
        assert again.kernel_names() == ["k"]

    def test_columns_are_read_only(self):
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),
                                       RankTrace(rank=1,
                                                 period=self._period())))
        with pytest.raises(ValueError):
            t.columns.peer[0] = 0

    def test_from_columns_rejects_out_of_range_peer(self):
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),
                                       RankTrace(rank=1,
                                                 period=self._period())))
        peer = np.array(t.columns.peer)
        peer[0] = 5
        with pytest.raises(ValueError, match="rank 1: peer 5 out of range"):
            BurstTrace.from_columns("x", t.columns._replace(peer=peer),
                                    t.phases)

    # Rank 1's rows 0..4: irecv, phase, send, wait, allreduce.
    @pytest.mark.parametrize("column,row,value,message", [
        ("kind", 4, 99, "event 4: unknown event kind code 99"),
        ("kind", 4, -1, "event 4: unknown event kind code -1"),
        ("size", 2, -1, "event 2: size_bytes must be non-negative"),
        ("peer", 4, -2, "event 4: peer must be a non-negative rank"),
        ("peer", 2, -1, "event 2: send requires a peer rank"),
        ("peer", 0, -1, "event 0: irecv requires a peer rank"),
        ("request", 3, -2, "event 3: request id must be non-negative"),
        ("request", 0, -1, "event 0: irecv requires a request id"),
        ("phase", 1, 1, r"event 1: phase index 1 out of range 0\.\.0"),
        ("phase", 1, -1, r"event 1: phase index -1 out of range 0\.\.0"),
        ("phase", 4, 0, "event 4: allreduce row carries phase index 0"),
    ])
    def test_from_columns_rejects_bad_rows(self, column, row, value,
                                           message):
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),
                                       RankTrace(rank=1,
                                                 period=self._period())))
        bad = np.array(getattr(t.columns, column))
        bad[row] = value
        with pytest.raises(ValueError, match=f"rank 1, {message}"):
            BurstTrace.from_columns(
                "x", t.columns._replace(**{column: bad}), t.phases)

    def test_from_columns_rejects_bad_shapes(self):
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),
                                       RankTrace(rank=1,
                                                 period=self._period())))
        with pytest.raises(ValueError, match="offsets must rise"):
            BurstTrace.from_columns(
                "x", t.columns._replace(offsets=np.array([0, 3, 2])),
                t.phases)
        with pytest.raises(ValueError, match="offsets must rise"):
            BurstTrace.from_columns(
                "x", t.columns._replace(offsets=np.array([0, 0, 4])), t.phases)
        with pytest.raises(ValueError, match="one entry per row"):
            BurstTrace.from_columns(
                "x", t.columns._replace(tag=t.columns.tag[:4]), t.phases)

    def test_attributes_are_read_only(self):
        # Cached replay tapes are keyed on the trace object: its fields
        # must not change under them.
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),
                                       RankTrace(rank=1,
                                                 period=self._period())))
        for name, value in (("repeats", 2), ("phases", ()), ("app", "y"),
                            ("n_iterations", 3), ("columns", None),
                            ("ranks", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert t.repeats == 1 and t.app == "x" and len(t.ranks) == 2

    def test_from_columns_rejects_bad_counts(self):
        t = BurstTrace(app="x", ranks=(RankTrace(rank=0, period=()),))
        with pytest.raises(ValueError, match="repeats"):
            BurstTrace.from_columns("x", t.columns, (), repeats=0)
        with pytest.raises(ValueError, match="n_iterations"):
            BurstTrace.from_columns("x", t.columns, (), n_iterations=0)
        empty = t.columns._replace(offsets=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="at least one rank"):
            BurstTrace.from_columns("x", empty, ())


#: Request-carrying calls over a tiny id space, so reuse, unknown waits
#: and unwaited requests all occur.
_CALLS = st.one_of(
    st.tuples(st.sampled_from(["isend", "irecv", "wait"]),
              st.integers(0, 2)),
    st.just(("barrier", None)))


def _event(kind, request):
    if kind == "barrier":
        return MpiCall(kind="barrier")
    if kind == "wait":
        return MpiCall(kind="wait", request=request)
    return MpiCall(kind=kind, peer=0, size_bytes=8, request=request)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CALLS, max_size=6), min_size=1, max_size=3))
def test_column_checks_raise_the_event_checks_errors(periods):
    # The event path validates rank by rank, event by event; the array
    # checks must accept the same periods and name the same first fault.
    periods = [tuple(_event(*c) for c in p) for p in periods]
    want = None
    try:
        for r, p in enumerate(periods):
            RankTrace(rank=r, period=p)
    except ValueError as exc:
        want = str(exc)
    cols, phases = _columns_from_ranks(
        [SimpleNamespace(period=p) for p in periods])
    if want is None:
        BurstTrace.from_columns("x", cols, phases)
    else:
        with pytest.raises(ValueError) as info:
            BurstTrace.from_columns("x", cols, phases)
        assert str(info.value) == want

"""Tests for burst trace containers."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import marenostrum4_network, replay
from repro.trace import BurstTrace, ComputePhase, TaskRecord
from repro.trace.burst import KINDS, PHASE

from .encode import (Call, burst, columns_from_ranks, rank_events,
                     request_scan)


def _phase(n_tasks=2, phase_id=0):
    return ComputePhase(
        phase_id=phase_id,
        tasks=tuple(TaskRecord(kernel="k", duration_ns=10.0)
                    for _ in range(n_tasks)),
    )


class TestRankTrace:
    """A rank's period: its rows of the columns."""

    def test_partitions_events(self):
        t = burst([(_phase(), Call(kind="barrier"), _phase(phase_id=1))])
        assert (t.columns.kind == PHASE).sum() == 2
        assert (t.columns.kind != PHASE).sum() == 1
        assert len(t.phases) == 2

    def test_total_compute(self):
        t = burst([(_phase(3),)])
        res = replay(t, marenostrum4_network(),
                     lambda r, p: p.total_task_ns + p.serial_ns)
        assert res.compute_ns[0] == pytest.approx(30.0)

    def test_bytes_counts_sends_only(self):
        def rank(r):
            return (
                Call(kind="isend", peer=1 - r, size_bytes=100, request=0),
                Call(kind="irecv", peer=1 - r, size_bytes=100, request=1),
                Call(kind="wait", request=0),
                Call(kind="wait", request=1),
            )
        t = burst([rank(0), rank(1)], app="x")
        sends = t.columns.kind == KINDS.index("isend")
        assert int(t.columns.size[sends].sum()) == 200

    def test_rejects_unwaited_request(self):
        with pytest.raises(ValueError, match="unwaited"):
            burst([(Call(kind="isend", peer=1, size_bytes=1, request=0),),
                   ()])

    def test_rejects_wait_on_unknown_request(self):
        with pytest.raises(ValueError, match="unknown request"):
            burst([(Call(kind="wait", request=5),)])

    def test_rejects_request_reuse_before_wait(self):
        with pytest.raises(ValueError, match="reused"):
            burst([(Call(kind="isend", peer=1, size_bytes=1, request=0),
                    Call(kind="irecv", peer=1, size_bytes=1, request=0)),
                   ()])


class TestBurstTrace:
    def _trace(self, n_ranks=2):
        return burst([(_phase(), Call(kind="barrier"))] * n_ranks,
                     app="test")

    def test_basic(self):
        t = self._trace(4)
        assert t.n_ranks == 4
        assert t.kernel_names() == ["k"]
        assert np.diff(t.columns.offsets).tolist() == [2] * 4
        assert (t.columns.kind == PHASE).sum() == 4

    def test_rejects_out_of_range_peer(self):
        with pytest.raises(ValueError, match="peer"):
            burst([(Call(kind="isend", peer=5, size_bytes=1, request=0),
                    Call(kind="wait", request=0))])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            burst([])

    def test_iteration(self):
        t = self._trace(3)
        assert t.columns.event_ranks().tolist() == [0, 0, 1, 1, 2, 2]


class TestColumns:
    """The columns are the trace."""

    def _period(self):
        return (Call(kind="irecv", peer=1, size_bytes=8, tag=2, request=4),
                _phase(),
                Call(kind="send", peer=1, size_bytes=40_000),
                Call(kind="wait", request=4),
                Call(kind="allreduce", size_bytes=8))

    def _trace(self):
        return burst([(), self._period()], app="x")

    def test_rank_view_round_trips_through_columns(self):
        t = self._trace()
        again = BurstTrace("x", t.columns, t.phases)
        assert rank_events(again) == [[], list(self._period())]
        assert rank_events(again)[1][1] is t.phases[0]
        assert again.columns.kind.tolist() == t.columns.kind.tolist()
        assert len(t.columns.kind) == 5
        assert again.kernel_names() == ["k"]

    def test_columns_are_read_only(self):
        t = self._trace()
        with pytest.raises(ValueError):
            t.columns.peer[0] = 0

    def test_from_columns_rejects_out_of_range_peer(self):
        t = self._trace()
        peer = np.array(t.columns.peer)
        peer[0] = 5
        with pytest.raises(ValueError, match="rank 1: peer 5 out of range"):
            BurstTrace("x", t.columns._replace(peer=peer), t.phases)

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
        ("request", 3, -1, "event 3: wait requires a request id"),
        ("phase", 1, 1, r"event 1: phase index 1 out of range 0\.\.0"),
        ("phase", 1, -1, r"event 1: phase index -1 out of range 0\.\.0"),
        ("phase", 4, 0, "event 4: allreduce row carries phase index 0"),
    ])
    def test_from_columns_rejects_bad_rows(self, column, row, value,
                                           message):
        t = self._trace()
        bad = np.array(getattr(t.columns, column))
        bad[row] = value
        with pytest.raises(ValueError, match=f"rank 1, {message}"):
            BurstTrace("x", t.columns._replace(**{column: bad}), t.phases)

    # Rank 1's period, whose requests the column checks reject.
    @pytest.mark.parametrize("period,message", [
        ((Call(kind="isend", peer=0, size_bytes=1, request=0),),
         r"unwaited requests \[0\]"),
        ((Call(kind="wait", request=5),), "wait on unknown request 5"),
        ((Call(kind="isend", peer=0, size_bytes=1, request=0),
          Call(kind="irecv", peer=0, size_bytes=1, request=0)),
         "request 0 reused before being waited on"),
        ((Call(kind="irecv", peer=0, size_bytes=1, request=3),
          Call(kind="wait", request=3), Call(kind="wait", request=3)),
         "wait on unknown request 3"),
    ], ids=["unwaited", "unknown", "reused", "waited-twice"])
    def test_from_columns_rejects_bad_requests(self, period, message):
        cols, phases = columns_from_ranks([(), period])
        with pytest.raises(ValueError, match=f"rank 1: {message}"):
            BurstTrace("x", cols, phases)

    def test_from_columns_rejects_bad_shapes(self):
        t = self._trace()
        with pytest.raises(ValueError, match="offsets must rise"):
            BurstTrace("x", t.columns._replace(offsets=np.array([0, 3, 2])),
                       t.phases)
        with pytest.raises(ValueError, match="offsets must rise"):
            BurstTrace("x", t.columns._replace(offsets=np.array([0, 0, 4])),
                       t.phases)
        with pytest.raises(ValueError, match="one entry per row"):
            BurstTrace("x", t.columns._replace(tag=t.columns.tag[:4]),
                       t.phases)

    def test_attributes_are_read_only(self):
        # Cached replay tapes are keyed on the trace object: its fields
        # must not change under them.
        t = self._trace()
        for name, value in (("repeats", 2), ("phases", ()), ("app", "y"),
                            ("n_iterations", 3), ("columns", None)):
            with pytest.raises(FrozenInstanceError):
                setattr(t, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(t, name)
        assert t.repeats == 1 and t.app == "x" and t.n_ranks == 2

    def test_from_columns_rejects_bad_counts(self):
        t = burst([()], app="x")
        with pytest.raises(ValueError, match="repeats"):
            BurstTrace("x", t.columns, (), repeats=0)
        with pytest.raises(ValueError, match="n_iterations"):
            BurstTrace("x", t.columns, (), n_iterations=0)
        empty = t.columns._replace(offsets=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="at least one rank"):
            BurstTrace("x", empty, ())


#: Request-carrying calls over a tiny id space, so reuse, unknown waits
#: and unwaited requests all occur.
_CALLS = st.one_of(
    st.tuples(st.sampled_from(["isend", "irecv", "wait"]),
              st.integers(0, 2)),
    st.just(("barrier", None)))


def _event(kind, request):
    if kind == "barrier":
        return Call(kind="barrier")
    if kind == "wait":
        return Call(kind="wait", request=request)
    return Call(kind=kind, peer=0, size_bytes=8, request=request)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_CALLS, max_size=6), min_size=1, max_size=3))
def test_column_checks_raise_the_event_checks_errors(periods):
    # The oracle validates rank by rank, event by event; the array
    # checks must accept the same periods and name the same first fault.
    periods = [tuple(_event(*c) for c in p) for p in periods]
    want = None
    try:
        request_scan(periods)
    except ValueError as exc:
        want = str(exc)
    cols, phases = columns_from_ranks(periods)
    if want is None:
        BurstTrace("x", cols, phases)
    else:
        with pytest.raises(ValueError) as info:
            BurstTrace("x", cols, phases)
        assert str(info.value) == want

"""Period-form burst traces ≡ the flat traces they stand for.

The generator stores one iteration per rank plus a repeat count.  The
oracle below is the flat builder it replaced: every iteration written
out, request ids numbered across iterations.  The test-side flat stream
(:func:`~tests.trace.encode.rank_events`) and the batched replay's flat
columns must equal it event for event (phases as the very same
objects), the trace must serialize to the same dict, and the scalar
replay, which walks the period ``repeats`` times with the period's own
request ids, must replay it bit for bit.
"""

from typing import List

import numpy as np
import pytest

from repro.apps import APP_NAMES, get_app
from repro.apps.base import grid_neighbors, rank_grid_dims
from repro.config.space import smoke_design_space
from repro.core import Musa
from repro.core.batch import BatchEvaluator
from repro.network import marenostrum4_network, replay
from repro.network.replay_batch import _flat_columns, _tape_for
from repro.obs import get_metrics
from repro.trace import BurstTrace

from .burst_dict import burst_to_dict
from .encode import Call, burst, rank_events


def oracle_burst_trace(app, n_ranks: int, n_iter: int) -> BurstTrace:
    """Reference builder: ``n_iter`` iterations written out flat."""
    dims = rank_grid_dims(n_ranks)
    phases = app.canonical_phases()
    ranks = []
    for r in range(n_ranks):
        neighbours = grid_neighbors(r, dims)
        events: List = []
        req = 0
        for _ in range(n_iter):
            for phase in phases:
                reqs: List[int] = []
                for nb in neighbours:
                    events.append(Call(kind="irecv", peer=nb,
                                       size_bytes=app.halo_bytes,
                                       tag=0, request=req))
                    reqs.append(req)
                    req += 1
                for nb in neighbours:
                    events.append(Call(kind="isend", peer=nb,
                                       size_bytes=app.halo_bytes,
                                       tag=0, request=req))
                    reqs.append(req)
                    req += 1
                for rq in reqs:
                    events.append(Call(kind="wait", request=rq))
                events.append(phase)
            for _ in range(app.allreduce_per_iter):
                events.append(Call(kind="allreduce", size_bytes=8))
        ranks.append(events)
    return burst(ranks, app=app.name, n_iterations=n_iter)


CASES = [(name, n) for name in APP_NAMES for n in (16, 64)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def pair(request):
    name, n_ranks = request.param
    app = get_app(name)
    return (app.burst_trace(n_ranks),
            oracle_burst_trace(app, n_ranks, app.default_iterations))


def _rows(trace: BurstTrace, rank: int) -> np.ndarray:
    """``rank``'s rows of the columns, one (kind, peer, tag, size) row
    per event."""
    c = trace.columns
    lo, hi = c.offsets[rank], c.offsets[rank + 1]
    return np.stack([c.kind, c.peer, c.tag, c.size], axis=1)[lo:hi]


class TestFlatView:
    def test_generator_stores_one_period(self, pair):
        t, ref = pair
        assert t.repeats == t.n_iterations == ref.n_iterations > 1
        assert np.array_equal(np.diff(t.columns.offsets) * t.repeats,
                              np.diff(ref.columns.offsets))

    def test_summaries_equal_oracle_without_flat_view(self, pair):
        # The period's rows and phases, tiled ``repeats`` times, are the
        # oracle's: no flat stream is needed to read them.
        t, ref = pair
        assert t.kernel_names() == ref.kernel_names()
        for r in range(t.n_ranks):
            assert np.array_equal(np.tile(_rows(t, r), (t.repeats, 1)),
                                  _rows(ref, r))
        phases = [t.phases[i] for i in t.columns.phase[:t.columns.offsets[1]]
                  if i >= 0]
        assert ([ref.phases[i] for i in ref.columns.phase if i >= 0]
                == phases * t.repeats * t.n_ranks)

    def test_events_equal_oracle(self, pair):
        t, ref = pair
        for got, want in zip(rank_events(t), rank_events(ref)):
            assert got == want
            assert all(a is b for a, b in zip(got, want)
                       if not isinstance(b, Call))

    def test_serialized_dict_equals_oracle(self, pair):
        t, ref = pair
        assert burst_to_dict(t) == burst_to_dict(ref)

    def test_flat_view_is_cached(self, pair):
        # A replay's only flat form is its tape: one per trace, cached,
        # covering one period of a generated trace.
        t = pair[0]
        net = marenostrum4_network()
        assert _tape_for(t, net) is _tape_for(t, net)
        assert _tape_for(t, net).reps == t.repeats

    def test_flat_columns_equal_oracle(self, pair):
        # The columns the batched replay tapes for a period that is not
        # message-balanced: the period tiled, request ids offset.
        t, ref = pair
        for got, want in zip(_flat_columns(t), ref.columns):
            assert np.array_equal(got, want)

    def test_scalar_replay_equals_flat_replay(self, pair):
        # The scalar replay walks the period ``repeats`` times reusing
        # its request ids; the oracle numbers them across iterations.
        t, ref = pair
        net = marenostrum4_network()

        def duration(rank, phase):
            return (phase.total_task_ns + phase.serial_ns) * (1 + rank / 7)

        a, b = replay(t, net, duration), replay(ref, net, duration)
        assert a.total_ns == b.total_ns
        for field in ("compute_ns", "p2p_ns", "collective_ns"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.n_messages, a.bytes_sent) == (b.n_messages, b.bytes_sent)


def test_single_repeat_view_is_the_period():
    t = burst([(Call(kind="irecv", peer=0, size_bytes=8, request=3),
                Call(kind="wait", request=3))])
    for got, want in zip(_flat_columns(t), t.columns):
        assert np.array_equal(got, want)
    assert rank_events(t) == [[Call(kind="irecv", peer=0, size_bytes=8,
                                    request=3), Call(kind="wait",
                                                     request=3)]]


def test_rejects_nonpositive_repeats():
    with pytest.raises(ValueError, match="repeats"):
        burst([()], repeats=0)


@pytest.mark.parametrize("name", ["spmz", "lulesh"])
def test_replay_batch_never_builds_the_flat_view(name):
    musa = Musa(get_app(name))
    frame = BatchEvaluator(musa).evaluate_frame(
        smoke_design_space().configs(), n_ranks=16, mode="replay")
    assert len(frame) == len(smoke_design_space())
    trace = musa._burst_trace(16, None)
    assert trace.repeats > 1
    assert _tape_for(trace, musa.network).reps == trace.repeats


@pytest.mark.parametrize("name", APP_NAMES)
def test_replay_frame_never_builds_the_rank_view(name):
    # The generator emits columns and the batched replay tapes them: no
    # rank's events are walked one by one on the way.
    musa = Musa(get_app(name))
    reg = get_metrics()
    scalar = reg.counter("replay.batch.driver.scalar")
    array = reg.counter("replay.batch.driver.array")
    frame = BatchEvaluator(musa).evaluate_frame(
        smoke_design_space().configs(), n_ranks=16, mode="replay")
    assert len(frame) == len(smoke_design_space())
    assert reg.counter("replay.batch.driver.scalar") == scalar
    assert reg.counter("replay.batch.driver.array") > array

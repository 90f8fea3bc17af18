"""Period-form burst traces ≡ the flat traces they stand for.

The generator stores one iteration per rank plus a repeat count.  The
oracle below is the flat builder it replaced: every iteration written
out, request ids numbered across iterations.  The flat view must equal
it event for event (phases as the very same objects), serialize to the
same dict, and the summaries must give its values without building the
flat view.
"""

from typing import List

import pytest

from repro.apps import APP_NAMES, get_app
from repro.apps.base import grid_neighbors, rank_grid_dims
from repro.config.space import smoke_design_space
from repro.core import Musa
from repro.core.batch import BatchEvaluator
from repro.trace import BurstTrace, MpiCall, RankTrace

from .burst_dict import burst_to_dict


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
                    events.append(MpiCall(kind="irecv", peer=nb,
                                          size_bytes=app.halo_bytes,
                                          tag=0, request=req))
                    reqs.append(req)
                    req += 1
                for nb in neighbours:
                    events.append(MpiCall(kind="isend", peer=nb,
                                          size_bytes=app.halo_bytes,
                                          tag=0, request=req))
                    reqs.append(req)
                    req += 1
                for rq in reqs:
                    events.append(MpiCall(kind="wait", request=rq))
                events.append(phase)
            for _ in range(app.allreduce_per_iter):
                events.append(MpiCall(kind="allreduce", size_bytes=8))
        ranks.append(RankTrace(rank=r, period=tuple(events)))
    return BurstTrace(app=app.name, ranks=tuple(ranks), n_iterations=n_iter)


CASES = [(name, n) for name in APP_NAMES for n in (16, 64)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def pair(request):
    name, n_ranks = request.param
    app = get_app(name)
    return (app.burst_trace(n_ranks),
            oracle_burst_trace(app, n_ranks, app.default_iterations))


class TestFlatView:
    def test_generator_stores_one_period(self, pair):
        t, ref = pair
        assert t.repeats == t.n_iterations == ref.n_iterations > 1
        for rt, rr in zip(t.ranks, ref.ranks):
            assert len(rt.period) * rt.repeats == len(rr.events)

    def test_summaries_equal_oracle_without_flat_view(self, pair):
        t, ref = pair
        t = BurstTrace(app=t.app, n_iterations=t.n_iterations, ranks=tuple(
            RankTrace(rank=rt.rank, period=rt.period, repeats=rt.repeats)
            for rt in t.ranks))   # fresh: no flat view cached yet
        assert t.kernel_names() == ref.kernel_names()
        assert ([len(rt.compute_phases()) * rt.repeats for rt in t.ranks]
                == [len(rr.compute_phases()) * rr.repeats
                    for rr in ref.ranks])
        for rt, rr in zip(t.ranks, ref.ranks):
            calls = [(c.kind, c.peer, c.size_bytes, c.tag)
                     for c in rt.mpi_calls()]
            assert calls * rt.repeats == [(c.kind, c.peer, c.size_bytes,
                                           c.tag) for c in rr.mpi_calls()]
        for rt, rr in zip(t.ranks, ref.ranks):
            assert rt.total_compute_ns == rr.total_compute_ns
        assert not any("events" in rt.__dict__ for rt in t.ranks)

    def test_events_equal_oracle(self, pair):
        t, ref = pair
        for rt, rr in zip(t.ranks, ref.ranks):
            assert len(rt.events) == len(rr.events)
            for a, b in zip(rt.events, rr.events):
                if isinstance(b, MpiCall):
                    assert type(a) is MpiCall
                    assert (a.kind, a.peer, a.size_bytes, a.tag,
                            a.request) == (b.kind, b.peer, b.size_bytes,
                                           b.tag, b.request)
                else:
                    assert a is b

    def test_serialized_dict_equals_oracle(self, pair):
        t, ref = pair
        assert burst_to_dict(t) == burst_to_dict(ref)

    def test_flat_view_is_cached(self, pair):
        rt = pair[0].ranks[3]
        assert rt.events is rt.events


def test_single_repeat_view_is_the_period():
    rt = RankTrace(rank=0, period=(
        MpiCall(kind="irecv", peer=1, size_bytes=8, request=3),
        MpiCall(kind="wait", request=3)))
    assert all(a is b for a, b in zip(rt.events, rt.period))
    assert len(rt.events) == len(rt.period)


def test_rejects_nonpositive_repeats():
    with pytest.raises(ValueError, match="repeats"):
        RankTrace(rank=0, period=(), repeats=0)


def test_rejects_ranks_with_different_repeats():
    ranks = (RankTrace(rank=0, period=(), repeats=2),
             RankTrace(rank=1, period=(), repeats=3))
    with pytest.raises(ValueError, match="repeat"):
        BurstTrace(app="x", ranks=ranks)


@pytest.mark.parametrize("name", ["spmz", "lulesh"])
def test_replay_batch_never_builds_the_flat_view(name):
    musa = Musa(get_app(name))
    frame = BatchEvaluator(musa).evaluate_frame(
        smoke_design_space().configs(), n_ranks=16, mode="replay")
    assert len(frame) == len(smoke_design_space())
    trace = musa._burst_trace(16, None)
    assert trace.repeats > 1
    assert not any("events" in rt.__dict__ for rt in trace.ranks)


@pytest.mark.parametrize("name", APP_NAMES)
def test_replay_frame_never_builds_the_rank_view(name):
    # The generator emits columns and the batched replay tapes them:
    # no event object of the trace is built on the way.
    musa = Musa(get_app(name))
    frame = BatchEvaluator(musa).evaluate_frame(
        smoke_design_space().configs(), n_ranks=16, mode="replay")
    assert len(frame) == len(smoke_design_space())
    trace = musa._burst_trace(16, None)
    assert "ranks" not in vars(trace)

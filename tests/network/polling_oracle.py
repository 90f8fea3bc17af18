"""Polling reference engine for the scalar event replay (test-only oracle).

Drives the same :class:`repro.network.replay._ReplayCore` as
:func:`repro.network.replay`, but re-scans every unfinished rank per
step for the runnable one with the smallest ``(clock, rank)`` key
instead of keeping a ready-heap and wake lists.  It executes the
identical step sequence, so its results are bit-identical to the event
engine's; it pays an O(ranks) scan per event, which is why it lives
here and not in the production package.
"""

from typing import Optional, Sequence

from repro.network.replay import ReplayResult, _ReplayCore


def _run_polling(core: _ReplayCore, order: Sequence[int]) -> None:
    states = core.states
    n_events = core.n_events
    active = []
    for r in order:
        if n_events[r]:
            active.append(r)
        else:
            states[r].done = True

    while active:
        best = -1
        best_clock = 0.0
        for r in active:
            st = states[r]
            if st.blocked:
                continue
            if best < 0 or (st.clock, r) < (best_clock, best):
                best, best_clock = r, st.clock
        if best < 0:
            raise core.deadlock_error()
        st = states[best]
        if core.step(best):
            if st.cursor >= n_events[best]:
                st.done = True
                active.remove(best)
        else:
            st.blocked = True


def polling_replay(trace, net, phase_duration, collect_segments=False,
                   rank_order: Optional[Sequence[int]] = None
                   ) -> ReplayResult:
    """:func:`repro.network.replay` on the polling engine."""
    order = range(trace.n_ranks) if rank_order is None else list(rank_order)
    core = _ReplayCore(trace, net, phase_duration, collect_segments)
    _run_polling(core, order)
    return core.result()

"""Figs. 3 and 4: execution timelines.

Fig. 3 — Specfem3D task starvation: few threads busy on a 64-core node.
Fig. 4 — LULESH rank imbalance turning MPI collectives into idle time.

Paraver renders these as pixel timelines; we regenerate the quantitative
content (occupancy / barrier statistics) plus an ASCII rendering.
"""

import pytest
from conftest import write_figure

from repro.analysis import (
    occupancy_stats,
    rank_activity_stats,
    render_core_timeline,
    render_rank_timeline,
)
from repro.apps import get_app
from repro.core import Musa


def test_fig3_specfem_starvation(benchmark, output_dir):
    musa = Musa(get_app("spec3d"))
    phase = musa.app.representative_phase()

    def schedule_with_spans():
        return musa.burst_phase(phase, 64, collect_spans=True)

    result = benchmark(schedule_with_spans)
    stats = occupancy_stats(result)

    # Paper: "most tasks are scheduled only in few of the threads while
    # the rest remain idle".
    assert stats.starved
    assert stats.active_cores < 48

    art = render_core_timeline(result.spans, 64, result.makespan_ns,
                               width=72, max_cores=48)
    text = (
        f"Fig. 3 — Specfem3D representative phase on 64 cores\n"
        f"occupancy: {stats.busy_fraction:.2f}   "
        f"active cores: {stats.active_cores}/64   "
        f"idle-core fraction: {stats.idle_core_fraction:.2f}\n\n" + art
    )
    write_figure(output_dir, "fig3_spec3d_timeline.txt", text)


#: Fig. 4's rank count (DESIGN.md's experiment index): LULESH's
#: collective fraction is 0.155 here, 0.131 at 32 ranks.
FIG4_RANKS = 256


def test_fig4_lulesh_barriers(benchmark, output_dir):
    musa = Musa(get_app("lulesh"))

    def replay_with_segments():
        return musa.simulate_burst_full(n_cores=64, n_ranks=FIG4_RANKS,
                                        n_iterations=2,
                                        collect_segments=True)

    res = benchmark.pedantic(replay_with_segments, rounds=2, iterations=1)
    stats = rank_activity_stats(res)

    # Paper: "significant unnecessary time is spent in MPI barriers due
    # to load imbalance in LULESH".
    assert stats.mean_collective_fraction > 0.15

    hydro_stats = rank_activity_stats(
        Musa(get_app("hydro")).simulate_burst_full(
            n_cores=64, n_ranks=FIG4_RANKS, n_iterations=2))
    assert (hydro_stats.mean_collective_fraction
            < stats.mean_collective_fraction)

    art = render_rank_timeline(res.segments, FIG4_RANKS, res.total_ns,
                               width=72, max_ranks=24)
    text = (
        f"Fig. 4 — LULESH full-app replay, {FIG4_RANKS} ranks x 64 cores\n"
        f"mean collective (barrier-wait) fraction: "
        f"{stats.mean_collective_fraction:.2f}   "
        f"mean p2p fraction: {stats.p2p_fraction.mean():.3f}\n"
        f"(hydro comparison: {hydro_stats.mean_collective_fraction:.2f})\n\n"
        "legend: '#' compute, 'B' collective, '-' p2p, 'w' wait\n\n" + art
    )
    write_figure(output_dir, "fig4_lulesh_timeline.txt", text)

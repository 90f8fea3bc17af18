"""``mode='replay'`` threaded through the sweep engine.

Replay-mode campaigns must journal and resume exactly like fast-mode
ones, produce results identical to per-config scalar simulation and
across worker counts, and surface the replay activity counters in
the campaign metrics.
"""

import json

import pytest

from repro.apps import get_app
from repro.config import DesignSpace
from repro.core import FailNTimes, Musa, SweepAbort, run_sweep
from repro.obs import MetricsRegistry, summarize

APPS = ["spmz"]
SPACE = DesignSpace(core_labels=("medium", "high"),
                    cache_labels=("64M:512K",),
                    memory_labels=("4chDDR4",),
                    frequencies=(2.0,), vector_widths=(128,),
                    core_counts=(64,))  # 2 configurations
N_RANKS = 8


def canon(rs):
    return json.dumps(list(rs), sort_keys=True)


@pytest.fixture(scope="module")
def replay_reference():
    return canon(run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                           mode="replay"))


class TestMode:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                      mode="detailed")

    def test_replay_differs_from_fast(self, replay_reference):
        fast = run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                         mode="fast")
        assert canon(fast) != replay_reference

    def test_batched_equals_scalar(self, replay_reference):
        scalar = [Musa(get_app(app)).simulate_node(
                      node, n_ranks=N_RANKS, mode="replay").record()
                  for app in APPS for node in SPACE]
        assert canon(scalar) == replay_reference

    def test_pooled_equals_inline(self, replay_reference):
        pooled = run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=2,
                           mode="replay")
        assert canon(pooled) == replay_reference


class TestMetrics:
    def test_replay_counters_in_summary(self):
        reg = MetricsRegistry()
        run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                  mode="replay", metrics=reg)
        d = summarize(reg.snapshot())["derived"]
        assert d["replay_events"] > 0
        assert d["replay_messages"] > 0

    def test_pooled_counters_reach_parent(self):
        reg = MetricsRegistry()
        run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=2,
                  mode="replay", metrics=reg)
        assert reg.counter("replay.events") > 0

    def test_fast_mode_has_no_replay_counters(self):
        reg = MetricsRegistry()
        run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                  mode="fast", metrics=reg)
        assert reg.counter("replay.events") == 0


class TestJournalResume:
    def test_abort_then_resume_is_identical(self, tmp_path,
                                            replay_reference):
        journal = tmp_path / "replay.jsonl"
        victim = list(SPACE)[1].label
        with pytest.raises(SweepAbort):
            run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                      mode="replay", resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim, app=APPS[0]))
        n_journaled = sum(1 for _ in journal.open())
        assert 0 < n_journaled < len(SPACE)

        reg = MetricsRegistry()
        resumed = run_sweep(APPS, SPACE, n_ranks=N_RANKS, processes=1,
                            mode="replay", resume=journal, metrics=reg)
        assert reg.counter("sweep.tasks.skipped") == n_journaled
        assert canon(resumed) == replay_reference

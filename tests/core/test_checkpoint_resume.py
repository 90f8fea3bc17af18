"""Interrupt/resume tests for journaled sweeps.

A sweep killed mid-run (injected fatal fault) and resumed from its
journal must produce a ResultSet bit-identical to an uninterrupted
run, without re-simulating any journaled task (verified through the
obs counters).
"""

import json

import pytest

from repro.config import DesignSpace
from repro.core import (
    FailNTimes,
    SweepAbort,
    replay_journal,
    run_sweep,
)
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def space():
    return DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                       memory_labels=("4chDDR4", "8chDDR4"),
                       frequencies=(2.0,), vector_widths=(128, 512),
                       core_counts=(64,))


@pytest.fixture(scope="module")
def cold_run(space):
    return run_sweep(["spmz"], space, processes=1)


class TestResume:
    def test_killed_sweep_resumes_bit_identical(self, space, cold_run,
                                                tmp_path):
        journal = tmp_path / "sweep.jsonl"
        # Kill the campaign at the third task: two records journaled.
        victim = list(space)[2].label
        with pytest.raises(SweepAbort):
            run_sweep(["spmz"], space, processes=1, resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim))
        assert len(replay_journal(journal).results) == 2

        reg = MetricsRegistry()
        resumed = run_sweep(["spmz"], space, processes=1, resume=journal,
                            metrics=reg)
        # No journaled task was re-simulated.
        assert reg.counter("sweep.tasks.skipped") == 2
        assert reg.counter("sweep.tasks.completed") == 2
        assert reg.counter("musa.simulate_node") == 2
        # Bit-identical to the uninterrupted run, including order.
        assert resumed == cold_run
        assert (json.dumps(list(resumed), sort_keys=True)
                == json.dumps(list(cold_run), sort_keys=True))

    def test_fully_resumed_sweep_simulates_nothing(self, space, cold_run,
                                                   tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(["spmz"], space, processes=1, resume=journal)
        size = journal.stat().st_size
        reg = MetricsRegistry()
        again = run_sweep(["spmz"], space, processes=1, resume=journal,
                          metrics=reg)
        assert reg.counter("sweep.tasks.completed") == 0
        assert reg.counter("musa.simulate_node") == 0
        assert reg.counter("sweep.tasks.skipped") == 4
        assert journal.stat().st_size == size  # nothing appended
        assert again == cold_run

    def test_parallel_resume_matches_cold_run(self, space, cold_run,
                                              tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(["spmz"], space, processes=1, resume=journal)
        # Keep only the first journal record (simulated crash), then
        # resume across a worker pool.
        lines = journal.read_text().strip().splitlines()
        journal.write_text(lines[0] + "\n")
        resumed = run_sweep(["spmz"], space, processes=2, batch_size=1,
                            resume=journal)
        assert (json.dumps(list(resumed), sort_keys=True)
                == json.dumps(list(cold_run), sort_keys=True))

    def test_journaled_failure_stub_is_retried_on_resume(self, space,
                                                         cold_run,
                                                         tmp_path):
        journal = tmp_path / "sweep.jsonl"
        victim = list(space)[1].label
        rs = run_sweep(["spmz"], space, processes=1, resume=journal,
                       fault_hook=FailNTimes(times=99, label=victim),
                       max_retries=0, retry_backoff_s=0.0)
        assert len(rs.failures()) == 1
        replayed = replay_journal(journal)
        assert len(replayed.failed) == 1
        assert len(replayed.results) == 3

        reg = MetricsRegistry()
        healed = run_sweep(["spmz"], space, processes=1, resume=journal,
                           metrics=reg)
        # Only the previously-failed task is simulated.
        assert reg.counter("sweep.tasks.completed") == 1
        assert reg.counter("sweep.tasks.skipped") == 3
        assert len(healed.failures()) == 0
        assert healed == cold_run

    def test_resume_ignores_foreign_records(self, space, cold_run,
                                            tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(["hydro"], space, processes=1, resume=journal)
        # A different app's journal must not satisfy spmz's tasks.
        reg = MetricsRegistry()
        rs = run_sweep(["spmz"], space, processes=1, resume=journal,
                       metrics=reg)
        assert reg.counter("sweep.tasks.skipped") == 0
        assert rs == cold_run

"""Crash-injection tests for the fault-tolerant sweep engine.

A deterministic fault hook kills chosen attempts of chosen tasks; the
sweep must retry, complete, and produce a ResultSet identical to an
uninterrupted run — or, once retries are exhausted, degrade gracefully
to a failed-task stub instead of aborting the campaign.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import DesignSpace
from repro.core import (
    FailNTimes,
    SweepAbort,
    run_sweep,
)
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def tiny_space():
    """A 2x2 slice of the full space (vector x memory)."""
    return DesignSpace(
        core_labels=("medium",),
        cache_labels=("64M:512K",),
        memory_labels=("4chDDR4", "8chDDR4"),
        frequencies=(2.0,),
        vector_widths=(128, 512),
        core_counts=(64,),
    )


@pytest.fixture(scope="module")
def clean_run(tiny_space):
    """The uninterrupted reference sweep."""
    return run_sweep(["spmz"], tiny_space, processes=1)


class _SleepHook:
    """Fault hook that stalls every first attempt past the task budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self, app_name, node, attempt):
        if attempt == 0:
            time.sleep(self.seconds)


class TestInjectedFaults:
    def test_every_task_failing_once_still_completes(self, tiny_space,
                                                     clean_run):
        reg = MetricsRegistry()
        rs = run_sweep(["spmz"], tiny_space, processes=1,
                       fault_hook=FailNTimes(times=1),
                       retry_backoff_s=0.0, metrics=reg)
        assert rs == clean_run
        assert reg.counter("sweep.faults") == 4
        assert reg.counter("sweep.retries") == 4
        assert reg.counter("sweep.tasks.failed") == 0
        assert reg.counter("sweep.tasks.completed") == 4

    def test_single_task_fault_in_worker_pool(self, tiny_space, clean_run):
        victim = list(tiny_space)[1].label
        reg = MetricsRegistry()
        rs = run_sweep(["spmz"], tiny_space, processes=2, batch_size=1,
                       fault_hook=FailNTimes(times=1, app="spmz",
                                             label=victim),
                       retry_backoff_s=0.0, metrics=reg)
        assert rs == clean_run
        assert reg.counter("sweep.retries") == 1
        assert reg.counter("sweep.tasks.failed") == 0

    def test_exhausted_retries_record_failure_stub(self, tiny_space,
                                                   clean_run):
        victim = list(tiny_space)[2].label
        reg = MetricsRegistry()
        rs = run_sweep(["spmz"], tiny_space, processes=1,
                       fault_hook=FailNTimes(times=99, label=victim),
                       max_retries=1, retry_backoff_s=0.0, metrics=reg)
        assert len(rs) == 4  # campaign completed despite the bad point
        stubs = list(rs.failures())
        assert len(stubs) == 1
        stub = stubs[0]
        assert stub["failed"] is True
        assert "InjectedFault" in stub["error"]
        assert stub["attempts"] == 2  # first try + one retry
        assert reg.counter("sweep.tasks.failed") == 1
        assert reg.counter("sweep.tasks.completed") == 3
        # Surviving records are bit-identical to the clean run.
        for rec in rs.filter(lambda r: not r.get("failed")):
            cfg = {k: rec[k] for k in ("app", "core", "cache", "memory",
                                       "frequency", "vector", "cores")}
            assert clean_run.lookup(**cfg) == rec

    def test_per_task_timeout_enters_retry_path(self):
        space = DesignSpace(core_labels=("medium",),
                            cache_labels=("64M:512K",),
                            memory_labels=("4chDDR4",), frequencies=(2.0,),
                            vector_widths=(128,), core_counts=(64,))
        reg = MetricsRegistry()
        rs = run_sweep(["spmz"], space, processes=1,
                       fault_hook=_SleepHook(0.5), timeout_s=0.05,
                       max_retries=1, retry_backoff_s=0.0, metrics=reg)
        # Attempt 0 times out, attempt 1 (hook passive) succeeds.
        assert len(rs.failures()) == 0
        assert reg.counter("sweep.retries") == 1
        snap = reg.snapshot()
        assert "TaskTimeout" not in str(list(rs))  # retried, not stubbed
        assert snap["counters"]["sweep.faults"] == 1

    def test_fatal_fault_aborts_campaign(self, tiny_space):
        victim = list(tiny_space)[0].label
        with pytest.raises(SweepAbort):
            run_sweep(["spmz"], tiny_space, processes=1,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim))

    def test_backoff_delays_retries(self, tiny_space):
        t0 = time.perf_counter()
        rs = run_sweep(["spmz"],
                       DesignSpace(core_labels=("medium",),
                                   cache_labels=("64M:512K",),
                                   memory_labels=("4chDDR4",),
                                   frequencies=(2.0,), vector_widths=(128,),
                                   core_counts=(64,)),
                       processes=1, fault_hook=FailNTimes(times=2),
                       max_retries=2, retry_backoff_s=0.1)
        elapsed = time.perf_counter() - t0
        assert len(rs.failures()) == 0
        # Two retries with exponential backoff: >= 0.1 + 0.2 seconds.
        assert elapsed >= 0.3


class TestAbortDrainsCompletedWork:
    """Regression: an abort surfacing from one pool chunk used to throw
    away every *other* ready chunk's finished results and metrics."""

    def test_drain_ready_records_siblings_before_raising(self):
        from repro.core.sweep import _drain_ready, _pack_outcomes

        class _FakeSched:
            def __init__(self):
                self.reg = MetricsRegistry()
                self.recorded = []

            def record_outcomes(self, outcomes):
                self.recorded.extend(outcomes)

        delta = {"counters": {"sweep.tasks.completed": 1}, "timers": {}}
        sched = _FakeSched()
        ready = {
            0: ("ok", (*_pack_outcomes([(0, 0, True, {"r": 0})]), delta,
                       None)),
            1: ("ok", (*_pack_outcomes([]), {}, "injected")),
            2: ("ok", (*_pack_outcomes([(2, 0, True, {"r": 2})]), delta,
                       None)),
        }
        with pytest.raises(SweepAbort):
            _drain_ready(sched, ready)
        # Both sibling shards were recorded and their metrics merged
        # before the abort surfaced; every message was consumed.
        assert sorted(o[0] for o in sched.recorded) == [0, 2]
        assert sched.reg.counter("sweep.tasks.completed") == 2
        assert ready == {}

    def test_pooled_abort_preserves_journal(self, tmp_path):
        from repro.core import replay_journal

        space = DesignSpace(core_labels=("medium",),
                            cache_labels=("64M:512K",),
                            memory_labels=("4chDDR4", "8chDDR4"),
                            frequencies=(2.0,), vector_widths=(128, 512),
                            core_counts=(32, 64))
        victim = list(space)[-1].label
        journal = tmp_path / "abort.jsonl"
        with pytest.raises(SweepAbort):
            run_sweep(["spmz"], space, processes=2, batch_size=1,
                      resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim))
        # The victim shard is queued last and only dispatched once
        # fewer than 2 x processes shards are in flight, so at least 4
        # of the other 7 shards were drained — and journaled — before
        # the abort.
        rs = replay_journal(journal).results
        assert len(rs) >= 4
        assert all(not r.get("failed") for r in rs)

    def test_pooled_abort_journals_the_shards_cleared_members(self,
                                                              tmp_path):
        from repro.config import smoke_design_space
        from repro.core import replay_journal
        from repro.core.checkpoint import task_key

        # 32 tasks over 2 workers make 4-task shards: tasks 0-3 share
        # one, and the abort fires on task 2 after 0 and 1 cleared.
        apps = ["spmz", "hydro", "btmz", "spec3d"]
        nodes = list(smoke_design_space())
        journal = tmp_path / "abort.jsonl"
        with pytest.raises(SweepAbort):
            run_sweep(apps, smoke_design_space(), processes=2,
                      batch_size=4, resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True, app="spmz",
                                            label=nodes[2].label))
        keys = {task_key(r) for r in replay_journal(journal).results}

        def key(i):
            return task_key({"app": "spmz", **nodes[i].axis_values()})

        assert {key(0), key(1)} <= keys
        assert key(2) not in keys

    def test_inline_batched_abort_preserves_journal(self, tiny_space,
                                                    tmp_path):
        from repro.core import replay_journal

        victim = list(tiny_space)[-1].label
        journal = tmp_path / "abort.jsonl"
        with pytest.raises(SweepAbort):
            run_sweep(["spmz"], tiny_space, processes=1, batch_size=8,
                      resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim))
        # Members of the aborted batch that cleared their hooks before
        # the victim are evaluated and journaled, so a resumed campaign
        # only redoes the victim.
        rs = replay_journal(journal).results
        assert len(rs) == 3


def _children(pid):
    """Pids whose parent is ``pid``, read from ``/proc``."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # exited meanwhile
            continue
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def _running(pid):
    """True while ``pid`` exists and has not exited (zombies count as
    exited: only their parent's reaping is left)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_after_parent_sigkill(self, tmp_path):
        import repro

        journal = tmp_path / "j.jsonl"
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--apps", "lulesh",
             "--mode", "replay", "--ranks", "256", "--batch-size", "1",
             "--processes", "2", "--resume", str(journal),
             "--out", str(tmp_path / "out.json")],
            env=env, stdout=subprocess.DEVNULL)
        workers = []
        try:
            while parent.poll() is None and not (
                    journal.exists() and journal.stat().st_size):
                time.sleep(0.005)
            workers = _children(parent.pid)
            parent.kill()
            parent.wait()
            assert len(workers) == 2, "campaign ended before the kill"
            deadline = time.monotonic() + 5.0
            while (any(map(_running, workers))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            survivors = [pid for pid in workers if _running(pid)]
            assert not survivors, "workers outlived their SIGKILLed parent"
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


class TestTimeoutDegradation:
    """A requested timeout that cannot be armed (no SIGALRM, or not on
    the main thread) must degrade to an unbudgeted run — warn + count —
    instead of raising."""

    def test_deadline_on_worker_thread_degrades(self):
        import threading

        from repro.core.sweep import _deadline
        from repro.obs import get_metrics

        reg = get_metrics()
        before = reg.counter("sweep.timeout_unavailable")
        ran = []

        def body():
            with _deadline(0.5):
                ran.append(True)

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert ran == [True]
        assert reg.counter("sweep.timeout_unavailable") - before == 1

    def test_deadline_without_sigalrm_degrades(self, monkeypatch):
        import signal

        from repro.core.sweep import _deadline
        from repro.obs import get_metrics

        monkeypatch.delattr(signal, "SIGALRM")
        reg = get_metrics()
        before = reg.counter("sweep.timeout_unavailable")
        with _deadline(0.5):
            pass
        assert reg.counter("sweep.timeout_unavailable") - before == 1

    def test_no_timeout_requested_is_silent(self):
        from repro.core.sweep import _deadline
        from repro.obs import get_metrics

        reg = get_metrics()
        before = reg.counter("sweep.timeout_unavailable")
        with _deadline(None):
            pass
        assert reg.counter("sweep.timeout_unavailable") == before

    def test_sweep_from_worker_thread_completes(self):
        import threading

        space = DesignSpace(core_labels=("medium",),
                            cache_labels=("64M:512K",),
                            memory_labels=("4chDDR4",), frequencies=(2.0,),
                            vector_widths=(128,), core_counts=(64,))
        reg = MetricsRegistry()
        out = {}

        def body():
            out["rs"] = run_sweep(["spmz"], space, processes=1,
                                  timeout_s=30.0, metrics=reg)

        t = threading.Thread(target=body)
        t.start()
        t.join()
        assert len(out["rs"].failures()) == 0
        assert reg.counter("sweep.timeout_unavailable") >= 1

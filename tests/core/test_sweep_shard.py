"""Sharded campaigns: K/N partitioning, journal merge, the pooled shard
queue and the spawn-context fallback.

The multi-host contract: N invocations with ``shard="K/N"`` and
separate journals, merged with :func:`merge_journal`, must resume into
the single-process ResultSet **byte-for-byte with zero re-evaluation**
— regardless of shard count or merge input order.
"""

import json
import os
import tempfile
import time
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import DesignSpace, smoke_design_space
from repro.core import merge_journal, run_sweep
from repro.core import sweep as sweep_mod
from repro.core.checkpoint import replay_journal
from repro.obs import MetricsRegistry

APPS = ["spmz"]
SPACE = smoke_design_space()  # 8 configurations


@pytest.fixture(scope="module")
def reference():
    """Canonical single-process result, JSON-serialized for bytewise
    comparison (also warms the in-process Musa/evaluator caches, so
    the sharded runs below are cheap)."""
    rs = run_sweep(APPS, SPACE, processes=1)
    return json.dumps(list(rs), sort_keys=True)


class TestShardParsing:
    @pytest.mark.parametrize("bad", ["2/2", "3/2", "-1/2", "0/0", "abc",
                                     "1//2", (2, 2), (-1, 3)])
    def test_invalid_shards_rejected(self, bad, reference):
        with pytest.raises(ValueError):
            run_sweep(APPS, SPACE, processes=1, shard=bad)

    def test_string_and_tuple_equivalent(self, reference):
        s = run_sweep(APPS, SPACE, processes=1, shard="1/3")
        t = run_sweep(APPS, SPACE, processes=1, shard=(1, 3))
        assert list(s) == list(t)


class TestShardPartition:
    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    def test_shards_are_a_disjoint_cover(self, n_shards, reference):
        parts = [run_sweep(APPS, SPACE, processes=1, shard=(k, n_shards))
                 for k in range(n_shards)]
        assert sum(len(p) for p in parts) == len(APPS) * len(SPACE)
        union = sorted(
            (json.dumps(r, sort_keys=True) for p in parts for r in p))
        assert union == sorted(json.dumps(r, sort_keys=True)
                               for r in json.loads(reference))

    def test_shard_meta_line_journaled(self, reference, tmp_path):
        journal = tmp_path / "s1.jsonl"
        run_sweep(APPS, SPACE, processes=1, shard="1/2", resume=journal)
        replay = replay_journal(journal)
        assert {"shard": 1, "of": 2, "tasks": 4} in replay.meta


class TestMergeInvariance:
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n_shards=st.integers(1, 4), order_seed=st.randoms())
    def test_merged_shards_resume_bit_identical(self, reference, n_shards,
                                                order_seed):
        with tempfile.TemporaryDirectory() as tmp:
            journals = []
            for k in range(n_shards):
                path = Path(tmp) / f"s{k}.jsonl"
                run_sweep(APPS, SPACE, processes=1, shard=(k, n_shards),
                          resume=path)
                journals.append(path)
            merged = Path(tmp) / "merged.jsonl"
            shuffled = list(journals)
            order_seed.shuffle(shuffled)
            merge_journal(shuffled, merged)
            canonical = merge_journal(journals, Path(tmp) / "m2.jsonl")
            assert merged.read_bytes() \
                == (Path(tmp) / "m2.jsonl").read_bytes(), \
                "merged journal depends on shard input order"
            assert len(canonical.results) == len(APPS) * len(SPACE)

            reg = MetricsRegistry()
            resumed = run_sweep(APPS, SPACE, processes=1, resume=merged,
                                metrics=reg)
            assert reg.counter("sweep.tasks.completed") == 0, \
                "resume from merged shards re-evaluated tasks"
            assert reg.counter("sweep.tasks.skipped") \
                == len(APPS) * len(SPACE)
            assert json.dumps(list(resumed), sort_keys=True) == reference

    def test_partial_shard_set_resumes_the_remainder(self, reference,
                                                     tmp_path):
        # Only shard 0/2 ran before the merge: resuming evaluates just
        # the missing half and still lands on the canonical ResultSet.
        s0 = tmp_path / "s0.jsonl"
        run_sweep(APPS, SPACE, processes=1, shard="0/2", resume=s0)
        merged = tmp_path / "merged.jsonl"
        merge_journal([s0], merged)
        reg = MetricsRegistry()
        resumed = run_sweep(APPS, SPACE, processes=1, resume=merged,
                            metrics=reg)
        assert reg.counter("sweep.tasks.skipped") == 4
        assert reg.counter("sweep.tasks.completed") == 4
        assert json.dumps(list(resumed), sort_keys=True) == reference


@dataclass(frozen=True)
class SleepOn:
    """Fault hook that logs which process evaluates each task and stalls
    (without failing) one task, so the worker that drew it falls
    behind."""

    label: str
    log: str
    seconds: float = 1.0

    def __call__(self, app_name, node, attempt):
        with open(self.log, "a") as f:
            f.write(f"{node.label} {os.getpid()}\n")
        if node.label == self.label:
            time.sleep(self.seconds)


@dataclass(frozen=True)
class DieOn:
    """Fault hook that kills the worker process on the first attempt of
    one task."""

    label: str

    def __call__(self, app_name, node, attempt):
        if node.label == self.label and attempt == 0:
            os._exit(1)


class TestShardQueue:
    def test_stalled_worker_holds_at_most_two_shards(self, reference,
                                                     tmp_path):
        victim = list(SPACE)[0].label
        log = tmp_path / "pids.log"
        reg = MetricsRegistry()
        rs = run_sweep(APPS, SPACE, processes=2, batch_size=1,
                       fault_hook=SleepOn(victim, str(log)), metrics=reg)
        assert reg.counter("sweep.shards") == len(APPS) * len(SPACE)
        pid_of = dict(line.split() for line in log.read_text().splitlines())
        assert len(pid_of) == len(SPACE)
        stalled = pid_of[victim]
        held = [label for label, pid in pid_of.items() if pid == stalled]
        # The stalled worker keeps only the shard it is stuck in and the
        # one buffered behind it; the other worker takes every other.
        assert victim in held and len(held) <= 2, held
        assert len(set(pid_of.values())) == 2
        assert json.dumps(list(rs), sort_keys=True) == reference

    def test_dead_worker_shards_are_retried(self, reference):
        # The victim's worker dies in its first shard, holding that
        # shard and one buffered behind it: both go back through the
        # retry path to the surviving worker.
        victim = list(SPACE)[0].label
        reg = MetricsRegistry()
        rs = run_sweep(APPS, SPACE, processes=2, batch_size=1,
                       fault_hook=DieOn(victim), retry_backoff_s=0.0,
                       metrics=reg)
        assert reg.counter("sweep.worker.lost") == 1
        assert reg.counter("sweep.retries") == 2
        assert reg.counter("sweep.tasks.failed") == 0
        assert json.dumps(list(rs), sort_keys=True) == reference

    def test_pooled_counts_shards(self):
        # 32 tasks over 2 workers: ~4 shards per worker, so shards of 4
        # tasks (the batch-size cap), one app each.
        apps = ["spmz", "hydro", "btmz", "spec3d"]
        reg = MetricsRegistry()
        rs = run_sweep(apps, SPACE, processes=2, batch_size=4, metrics=reg)
        assert reg.counter("sweep.shards") == 8
        assert reg.counter("sweep.batch.configs") == len(apps) * len(SPACE)
        assert list(rs) == list(run_sweep(apps, SPACE, processes=1))


class TestParentConfigBuilds:
    """The parent schedules task indices; workers build the configs."""

    @pytest.fixture
    def config_at_calls(self, monkeypatch):
        calls = []
        config_at = DesignSpace.config_at

        def counted(space, index):
            calls.append(index)
            return config_at(space, index)

        monkeypatch.setattr(DesignSpace, "config_at", counted)
        return calls

    def test_fresh_pooled_campaign_builds_nothing_in_parent(
            self, reference, config_at_calls, tmp_path):
        rs = run_sweep(APPS, SPACE, processes=2,
                       resume=tmp_path / "j.jsonl")
        assert config_at_calls == []
        assert json.dumps(list(rs), sort_keys=True) == reference

    def test_full_resume_builds_nothing_in_parent(self, reference,
                                                  config_at_calls, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_sweep(APPS, SPACE, processes=2, resume=journal)
        del config_at_calls[:]
        reg = MetricsRegistry()
        rs = run_sweep(APPS, SPACE, processes=2, resume=journal,
                       metrics=reg)
        assert reg.counter("sweep.tasks.skipped") == len(SPACE)
        assert config_at_calls == []
        assert json.dumps(list(rs), sort_keys=True) == reference


class TestSpawnFallback:
    def test_fork_unavailable_degrades_to_spawn(self, reference,
                                                monkeypatch):
        def no_fork(method=None):
            if method == "fork":
                raise ValueError("fork not available on this platform")
            return get_context(method)

        monkeypatch.setattr(sweep_mod, "get_context", no_fork)
        reg = MetricsRegistry()
        rs = run_sweep(APPS, SPACE, processes=2, metrics=reg)
        assert reg.counter("sweep.ctx.spawn") == 1
        assert json.dumps(list(rs), sort_keys=True) == reference

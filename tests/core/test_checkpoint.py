"""Tests for journaled (resumable) sweeps."""

import json
import logging
import subprocess
import sys

import pytest

from repro.config import DesignSpace
from repro.core import Journal, replay_journal, run_sweep
from repro.obs import get_metrics


@pytest.fixture
def tiny_space():
    return DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                       memory_labels=("4chDDR4",), frequencies=(2.0,),
                       vector_widths=(128, 256), core_counts=(64,))


class TestCheckpointedSweep:
    def test_fresh_run_completes(self, tiny_space, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        rs = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        assert len(rs) == 2
        assert path.exists()
        # The columnar data plane journals one block line per shard;
        # replaying it recovers every record.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        replayed = replay_journal(path)
        assert len(replayed.results) == 2

    def test_resume_skips_done_work(self, tiny_space, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        first = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        size_before = path.stat().st_size
        again = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        # Nothing re-simulated: file unchanged, results identical.
        assert path.stat().st_size == size_before
        assert len(again) == len(first)

    def test_partial_checkpoint_resumes_rest(self, tiny_space, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        full = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        # Truncate to one record (simulated crash after the first sim).
        lines = path.read_text().strip().splitlines()
        path.write_text(lines[0] + "\n")
        resumed = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        assert len(resumed) == len(full)

    def test_truncated_tail_tolerated(self, tiny_space, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        # Per-record lines, the form failure stubs and merged journals
        # use.
        with Journal(path) as journal:
            for rec in run_sweep(["spmz"], tiny_space, processes=1):
                journal.append(rec)
        # Corrupt the last line mid-JSON (torn write).
        content = path.read_text()
        path.write_text(content[:-20])
        rs = replay_journal(path).results
        assert len(rs) == 1  # the intact record survives
        resumed = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        assert len(resumed) == 2

    def test_truncated_block_tail_tolerated(self, tiny_space, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        # A torn block line drops the whole block; the resumed run
        # redoes its records rather than trusting a partial shard.
        content = path.read_text()
        path.write_text(content[:-20])
        assert len(replay_journal(path).results) == 0
        resumed = run_sweep(["spmz"], tiny_space, processes=1, resume=path)
        assert len(resumed) == 2

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert len(replay_journal(tmp_path / "nope.jsonl").results) == 0

    def test_results_match_plain_sweep(self, tiny_space, tmp_path):
        ckpt = run_sweep(["btmz"], tiny_space, processes=1,
                         resume=tmp_path / "c.jsonl")
        plain = run_sweep(["btmz"], tiny_space, processes=1)
        for rec in plain:
            cfg = {k: rec[k] for k in ("app", "core", "cache", "memory",
                                       "frequency", "vector", "cores")}
            assert ckpt.lookup(**cfg)["time_ns"] == pytest.approx(
                rec["time_ns"], rel=1e-9)

    def test_rejects_bad_flush(self, tiny_space, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(["spmz"], tiny_space, processes=1,
                      resume=tmp_path / "x.jsonl", fsync_every=0)


def _record(vector=128, time_ns=1.0):
    return {"app": "spmz", "core": "medium", "cache": "64M:512K",
            "memory": "4chDDR4", "frequency": 2.0, "vector": vector,
            "cores": 64, "time_ns": time_ns}


class TestDuplicateHandling:
    def test_duplicates_keep_first_and_warn(self, tmp_path, caplog):
        path = tmp_path / "dup.jsonl"
        lines = [_record(128, 1.0), _record(128, 999.0), _record(256, 2.0)]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        before = get_metrics().counter("checkpoint.duplicates_dropped")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            rs = replay_journal(path).results
        assert len(rs) == 2
        # First occurrence wins.
        assert rs.lookup(**{k: _record(128)[k]
                            for k in ("app", "core", "cache", "memory",
                                      "frequency", "vector",
                                      "cores")})["time_ns"] == 1.0
        # The silent drop is now observable: counter + warning.
        assert get_metrics().counter(
            "checkpoint.duplicates_dropped") == before + 1
        assert any("duplicate" in rec.message for rec in caplog.records)

    def test_replay_counts_duplicates(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        rec = _record()
        path.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n"
                        + json.dumps(rec) + "\n")
        replayed = replay_journal(path)
        assert len(replayed.results) == 1
        assert replayed.duplicates == 2

    def test_failed_stub_excluded_from_checkpoint(self, tmp_path):
        path = tmp_path / "stub.jsonl"
        stub = {**_record(), "failed": True, "error": "boom", "attempts": 3}
        del stub["time_ns"]
        path.write_text(json.dumps(stub) + "\n"
                        + json.dumps(_record(256)) + "\n")
        rs = replay_journal(path).results
        assert len(rs) == 1  # the stub is retryable, not done
        replayed = replay_journal(path)
        assert len(replayed.failed) == 1


def _stub(vector=128, attempts=1, error="boom"):
    s = {**_record(vector), "failed": True, "error": error,
         "attempts": attempts}
    del s["time_ns"]
    return s


class TestStubDedupe:
    """Regression: a task failing across N resumed runs appends N stubs;
    replay must collapse them to one entry reflecting the latest run."""

    def test_repeated_stubs_collapse_to_latest(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [_stub(128, attempts=1, error="first"),
                 _record(256),
                 _stub(128, attempts=2, error="second")]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        replayed = replay_journal(path)
        assert len(replayed.failed) == 1
        assert replayed.failed[0]["attempts"] == 2
        assert replayed.failed[0]["error"] == "second"
        assert replayed.duplicates == 0  # stubs are not duplicates

    def test_stub_then_success_drops_stub(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [_stub(128, attempts=1), _record(128)]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        replayed = replay_journal(path)
        assert replayed.failed == []
        assert len(replayed.results) == 1

    def test_distinct_tasks_keep_distinct_stubs(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [_stub(128, attempts=1), _stub(256, attempts=3)]
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        replayed = replay_journal(path)
        assert len(replayed.failed) == 2
        assert sorted(s["attempts"] for s in replayed.failed) == [1, 3]


class TestStreamingMergeMemory:
    """``merge_journal`` is a two-pass stream: pass 1 records byte
    offsets, pass 2 fetches one line at a time — peak RSS must stay far
    below the journal size, or range-space shard merges stop scaling."""

    N_PER_SHARD = 1200
    PAD = 8192

    def _write_shard(self, path, lo, hi):
        pad = "x" * self.PAD
        with open(path, "w") as fh:
            for i in range(lo, hi):
                fh.write(json.dumps(
                    {"app": "spmz", "core": "medium", "cache": "64M:512K",
                     "memory": "4chDDR4", "frequency": 2.0, "vector": i,
                     "cores": 64, "time_ns": float(i),
                     "pad": pad + str(i)}) + "\n")

    def test_merge_peak_rss_bounded(self, tmp_path):
        shards = [tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"]
        self._write_shard(shards[0], 0, self.N_PER_SHARD)
        self._write_shard(shards[1], self.N_PER_SHARD,
                          2 * self.N_PER_SHARD)
        total = sum(p.stat().st_size for p in shards)
        merged = tmp_path / "merged.jsonl"
        prog = (
            "import json, resource, sys\n"
            "from repro.core import merge_journal\n"
            "merge_journal([sys.argv[1], sys.argv[2]], sys.argv[3],\n"
            "              collect=False)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        base = subprocess.run(
            [sys.executable, "-c",
             "import resource\n"
             "from repro.core import merge_journal\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"],
            capture_output=True, text=True, check=True)
        run = subprocess.run(
            [sys.executable, "-c", prog, str(shards[0]), str(shards[1]),
             str(merged)], capture_output=True, text=True, check=True)
        delta_bytes = (int(run.stdout) - int(base.stdout)) * 1024
        # A materializing merge holds every parsed record (> journal
        # size); the streaming one needs only refs + one line in flight.
        assert delta_bytes < 0.4 * total, (
            f"merge peak RSS grew {delta_bytes / 1e6:.1f} MB on a "
            f"{total / 1e6:.1f} MB journal — not streaming")
        out_lines = merged.read_text().splitlines()
        assert len(out_lines) == 2 * self.N_PER_SHARD
        vectors = [json.loads(l)["vector"] for l in out_lines]
        assert vectors == sorted(vectors)

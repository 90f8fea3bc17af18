"""The line log under the sweep journal and the result store: torn-tail
repair, the fsync budget, and the atomic rewrite (temp file truncated,
fsynced, renamed, directory fsynced)."""

import os
import stat

import pytest

from repro.core.checkpoint import Journal, merge_journal
from repro.core.linelog import LineLog, LineScan
from repro.core.store import ResultStore
from repro.obs import MetricsRegistry, set_metrics

from .reference import frame_from_records


def _record(vector):
    return {"app": "spmz", "core": "medium", "cache": "64M:512K",
            "memory": "4chDDR4", "frequency": 2.0, "vector": vector,
            "cores": 64, "time_ns": float(vector)}


def _journal(path, vectors):
    with Journal(path) as j:
        for v in vectors:
            j.append(_record(v))
    return path


@pytest.fixture
def repairs():
    """Read the ``linelog.tail_repaired`` counter of a fresh registry."""
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    try:
        yield lambda: reg.counter("linelog.tail_repaired")
    finally:
        set_metrics(prev)


@pytest.fixture
def sync_log(monkeypatch):
    """Record every ``os.fsync`` (as "file" or "dir") and
    ``os.replace`` in call order."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(kind)
        real_fsync(fd)

    def replace(src, dst):
        events.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


class TestTailRepair:
    def test_clean_file_untouched(self, tmp_path, repairs):
        path = _journal(tmp_path / "j.jsonl", [128, 256])
        before = path.read_bytes()
        LineLog(path).close()
        assert path.read_bytes() == before
        assert repairs() == 0

    def test_undecodable_tail_cut_off(self, tmp_path, repairs):
        path = _journal(tmp_path / "j.jsonl", [128, 256])
        whole = path.read_bytes()
        path.write_bytes(whole[:-10])
        LineLog(path).close()
        assert path.read_bytes() == whole[:whole.index(b"\n") + 1]
        assert repairs() == 1

    def test_decodable_tail_gets_its_newline(self, tmp_path, repairs):
        path = _journal(tmp_path / "j.jsonl", [128, 256])
        whole = path.read_bytes()
        path.write_bytes(whole[:-1])  # crash between record and newline
        with Journal(path) as j:
            j.append(_record(512))
        values = [v["vector"] for _, v in LineScan(path)]
        assert values == [128, 256, 512]
        assert repairs() == 1

    def test_scan_offsets_and_corrupt_count(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a":1}\n\nnot json\n[2]\n')
        lines = LineScan(path)
        assert list(lines) == [(0, {"a": 1}), (18, [2])]
        assert lines.corrupt == 1


def test_fsync_budget_counts_records(tmp_path, sync_log):
    with LineLog(tmp_path / "j.jsonl", fsync_every=4) as log:
        log.write("1")
        log.write("2", n=2)
        assert sync_log == []
        log.write("3")  # four records: the budget is spent
        assert sync_log == ["file"]


def test_merge_truncates_stale_temp_file(tmp_path):
    shard = _journal(tmp_path / "s.jsonl", [512, 128, 256])
    clean = tmp_path / "clean.jsonl"
    merge_journal([shard], clean)
    out = tmp_path / "out.jsonl"
    # A crashed merge left a partial temp file behind.
    text = clean.read_text()
    (tmp_path / "out.jsonl.tmp").write_text(text[:text.index("\n") + 40])
    merge_journal([shard], out)
    assert out.read_bytes() == clean.read_bytes()


def test_merge_fsyncs_directory_after_rename(tmp_path, sync_log):
    shard = _journal(tmp_path / "s.jsonl", [128, 256])
    del sync_log[:]
    merge_journal([shard], tmp_path / "out.jsonl")
    assert sync_log == ["file", "replace", "dir"]


def test_store_compaction_fsyncs_directory_after_rename(tmp_path, sync_log):
    config = {"core": "medium", "cache": "64M:512K", "memory": "4chDDR4",
              "frequency": 2.0, "vector": 128, "cores": 64}
    prov = {"engine": "batch", "created_s": 0.0, "obs": {}}
    frame = frame_from_records(
        [dict(config, app=app, time_ns=1.0) for app in ("lulesh", "spmz")])
    with ResultStore(tmp_path / "s.jsonl") as store:
        store.put_frame(frame, "fast", 256, "v", prov)
        del sync_log[:]
        assert store.invalidate(app="lulesh") == 1
        assert sync_log == ["file", "replace", "dir"]

"""Content-addressed result store: keys, persistence, invalidation.

The store is the serve layer's memory: a hit must never touch the
engine, so its contracts — key stability, crash-tolerant load,
first-wins duplicates, counted hits/misses, selective invalidation —
are pinned here at the unit level.
"""

import json
import threading

import pytest

from repro.apps import get_app
from repro.config import smoke_design_space
from repro.core.batch import BatchEvaluator
from repro.core.canon import canonical_dumps, canonical_loads
from repro.core.checkpoint import Journal, merge_journal
from repro.core.musa import Musa
from repro.core.store import (
    STORE_BLOCK_KEY,
    ResultStore,
    store_keys_batch,
    store_keys_frame,
)
from repro.obs import MetricsRegistry, set_metrics

from .reference import frame_from_records, store_key


CONFIG = {"core": "medium", "cache": "64M:512K", "memory": "4chDDR4",
          "frequency": 2.0, "vector": 128, "cores": 64}
PROV = {"engine": "batch", "created_s": 0.0, "obs": {}}


@pytest.fixture
def fresh_metrics():
    reg = MetricsRegistry()
    prev = set_metrics(reg)
    try:
        yield reg
    finally:
        set_metrics(prev)


def _record(i=0, app="lulesh", **axes):
    rec = dict(CONFIG, **axes)
    rec.update({"app": app, "time_ns": 1.0e9 + i, "energy_j": 40.0})
    return rec


def _inputs(rec, code_version="abc1234"):
    return {"app": rec["app"], "config": {k: rec[k] for k in CONFIG},
            "mode": "fast", "ranks": 256, "code_version": code_version}


def _put(store, *records, code_version="abc1234"):
    """Store ``records`` as one block line; returns their keys."""
    return store.put_frame(frame_from_records(records), "fast", 256,
                           code_version, PROV)


def _legacy_line(rec, code_version="abc1234"):
    """One scalar entry line, as stores wrote them before block lines."""
    inputs = _inputs(rec, code_version)
    key = store_key(rec["app"], inputs["config"], "fast", 256, code_version)
    return canonical_dumps({"key": key, "inputs": inputs, "record": rec,
                            "provenance": PROV})


class TestStoreKey:
    def test_key_order_invariant(self):
        shuffled = dict(reversed(list(CONFIG.items())))
        assert store_key("lulesh", CONFIG, "fast", 256, "v1") == \
            store_key("lulesh", shuffled, "fast", 256, "v1")

    def test_every_input_is_keyed(self):
        base = store_key("lulesh", CONFIG, "fast", 256, "v1")
        assert store_key("spmz", CONFIG, "fast", 256, "v1") != base
        assert store_key("lulesh", CONFIG, "replay", 256, "v1") != base
        assert store_key("lulesh", CONFIG, "fast", 128, "v1") != base
        assert store_key("lulesh", CONFIG, "fast", 256, "v2") != base
        other = dict(CONFIG, vector=512)
        assert store_key("lulesh", other, "fast", 256, "v1") != base

    def test_batch_and_frame_keys_match_store_key_across_types(self):
        # 4 cores at 4.0 GHz: an int and a float axis value that hash
        # alike but render differently ("4" vs "4.0").
        records = [_record(0, cores=4, frequency=4.0),
                   _record(1, app="spmz", cores=8, frequency=4.0),
                   _record(2, cores=4, frequency=8.0, vector=4)]
        want = [store_key(r["app"], _inputs(r)["config"], "fast", 256, "v")
                for r in records]
        frame = frame_from_records(records)
        assert store_keys_frame(frame, "fast", 256, "v") == want
        for rec, key in zip(records, want):
            assert store_keys_batch(rec["app"], [_inputs(rec)["config"]],
                                    "fast", 256, "v") == [key]
        lulesh = [r for r in records if r["app"] == "lulesh"]
        assert store_keys_batch(
            "lulesh", [_inputs(r)["config"] for r in lulesh], "fast", 256,
            "v") == [w for r, w in zip(records, want)
                     if r["app"] == "lulesh"]

    def test_batch_keys_separate_signed_zeros(self):
        # 0.0 == -0.0 hash alike but render "0.0" vs "-0.0": a memo
        # keyed on (type, value) handed the second the first's text.
        configs = [dict(CONFIG, frequency=0.0), dict(CONFIG, frequency=-0.0)]
        want = [store_key("lulesh", c, "fast", 256, "v") for c in configs]
        assert want[0] != want[1]
        assert store_keys_batch("lulesh", configs, "fast", 256, "v") == want


class TestPersistence:
    def test_round_trip(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        rec = _record()
        with ResultStore(path) as store:
            [key] = _put(store, rec)
        with ResultStore(path) as store:
            assert len(store) == 1
            entry = store.get(key)
        assert entry["record"] == rec
        assert entry["inputs"] == _inputs(rec)
        assert entry["provenance"]["engine"] == "batch"

    def test_file_is_strict_json(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        rec = _record()
        rec["time_ns"] = float("inf")
        with ResultStore(path) as store:
            _put(store, rec)
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=lambda tok: pytest.fail(
                f"non-JSON token {tok!r} in store file"))

    def test_torn_tail_tolerated_and_counted(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            [key] = _put(store, _record())
        with path.open("a") as fh:
            fh.write('{"__block__": {"torn')  # crashed writer mid-line
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.get(key) is not None
            # The reopen cut the torn line off, so this write starts a
            # line of its own and survives the next open.
            [key2] = _put(store, _record(app="spmz"))
        with ResultStore(path) as store:
            assert store.get(key) is not None
            assert store.get(key2) is not None
        assert fresh_metrics.counter("store.corrupt_lines") == 1
        assert fresh_metrics.counter("linelog.tail_repaired") == 1

    def test_duplicate_keys_first_wins(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        rec = _record(0)
        with ResultStore(path) as store:
            first = _put(store, rec)
            again = _put(store, _record(1))  # same point, other record
            assert again == first
            assert store.get(first[0])["record"] == rec
        assert len(path.read_text().splitlines()) == 1
        # A duplicate line on disk (e.g. two appenders) also keeps the
        # first occurrence.
        altered = canonical_loads(path.read_text().splitlines()[0])
        altered[STORE_BLOCK_KEY]["frame"]["cols"]["time_ns"] = [9.9e9]
        with path.open("a") as fh:
            fh.write(canonical_dumps(altered) + "\n")
        with ResultStore(path) as store:
            assert store.get(first[0])["record"] == rec
        assert fresh_metrics.counter("store.duplicates_dropped") == 1


class TestLegacyScalarLines:
    """Stores written before block lines hold one entry dict per line:
    they still load, serve, invalidate and compact."""

    def test_load_serve_and_mix_with_blocks(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        old = [_record(0), _record(1, app="spmz")]
        path.write_text("".join(_legacy_line(r) + "\n" for r in old))
        with ResultStore(path) as store:
            assert len(store) == 2
            # A block row for a point already held as a scalar line is
            # a duplicate: the scalar line came first and wins.
            keys = _put(store, _record(5), _record(2, app="hydro"))
            assert len(store) == 3
        with ResultStore(path) as store:
            assert store.get(keys[0])["record"] == old[0]
            entry = store.get(keys[1])
            assert entry["record"] == _record(2, app="hydro")
            for rec in old:
                key = store_key(rec["app"], CONFIG, "fast", 256, "abc1234")
                assert store.get(key) == canonical_loads(_legacy_line(rec))
        assert fresh_metrics.counter("store.put") == 1

    def test_invalidate_compacts_scalar_lines(self, tmp_path, fresh_metrics):
        path = tmp_path / "store.jsonl"
        lines = [_legacy_line(_record(0, app=app), code_version=ver)
                 for app, ver in (("lulesh", "old"), ("spmz", "cur"),
                                  ("hydro", "old"))]
        path.write_text("".join(line + "\n" for line in lines))
        with ResultStore(path) as store:
            [key] = _put(store, _record(0, app="btmz"), code_version="cur")
            assert store.invalidate_stale("cur") == 2
        # Survivors keep their bytes: the scalar line as written, the
        # block as a block.
        kept = path.read_text().splitlines()
        assert kept[0] == lines[1]
        assert STORE_BLOCK_KEY in canonical_loads(kept[1])
        with ResultStore(path) as store:
            assert len(store) == 2
            assert store.get(key)["inputs"]["app"] == "btmz"
            assert store.invalidate(app="spmz") == 1
        assert len(path.read_text().splitlines()) == 1
        assert fresh_metrics.counter("store.invalidated") == 3


class TestCounters:
    def test_hit_and_miss_counted(self, tmp_path, fresh_metrics):
        rec = _record()
        key = store_key("lulesh", CONFIG, "fast", 256, "abc1234")
        with ResultStore(tmp_path / "s.jsonl") as store:
            assert store.get(key) is None
            assert _put(store, rec) == [key]
            assert store.get(key) is not None
            assert store.get(key) is not None
        assert fresh_metrics.counter("store.miss") == 1
        assert fresh_metrics.counter("store.hit") == 2
        assert fresh_metrics.counter("store.put") == 1


class TestInvalidation:
    def test_invalidate_by_input_field(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            _put(store, _record(app="lulesh"), _record(app="spmz"))
            assert store.invalidate(app="lulesh") == 1
            assert len(store) == 1
        # Compaction persisted: the removed entry stays gone on reload.
        with ResultStore(path) as store:
            assert len(store) == 1
            assert store.entries()[0]["inputs"]["app"] == "spmz"
        assert fresh_metrics.counter("store.invalidated") == 1

    def test_invalidate_stale_code_versions(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            for ver in ("old1", "old2", "cur"):
                _put(store, _record(), code_version=ver)
            assert store.invalidate_stale("cur") == 2
            assert len(store) == 1
            assert store.entries()[0]["inputs"]["code_version"] == "cur"

    def test_invalidate_nothing_matches(self, tmp_path, fresh_metrics):
        with ResultStore(tmp_path / "s.jsonl") as store:
            _put(store, _record())
            assert store.invalidate(app="nonesuch") == 0
            assert len(store) == 1
        assert fresh_metrics.counter("store.invalidated") == 0

    def test_invalidate_all(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        with ResultStore(path) as store:
            _put(store, _record())
            assert store.invalidate() == 1
        with ResultStore(path) as store:
            assert len(store) == 0


class TestThreadSafety:
    def test_concurrent_puts_unique_keys(self, tmp_path, fresh_metrics):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path, fsync_every=64)
        errors = []

        def work(tid):
            try:
                for i in range(20):
                    rec = _record(i, frequency=2.0 + tid, vector=128 + i)
                    [key] = _put(store, rec, code_version="v1")
                    assert store.get(key) is not None
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        store.close()
        with ResultStore(path) as again:
            assert len(again) == 80


class TestResultPlane:
    """The columnar plane (one frame, one block line) serves the same
    content as per-record lines of the scalar reference's records."""

    MODE, RANKS, CV = "fast", 256, "plane"
    PROV = {"engine": "plane"}

    @pytest.fixture(scope="class")
    def plane(self):
        nodes = list(smoke_design_space())
        musa = Musa(get_app("lulesh"))
        frame = BatchEvaluator(musa).evaluate_frame(nodes)
        records = [musa.simulate_node(n, n_ranks=self.RANKS,
                                      mode=self.MODE).record()
                   for n in nodes]
        return nodes, frame, records

    def _ref_keys(self, nodes):
        return [store_key("lulesh", n.axis_values(), self.MODE, self.RANKS,
                          self.CV) for n in nodes]

    def test_put_frame_keys_match_store_key(self, tmp_path, plane):
        nodes, frame, _ = plane
        with ResultStore(tmp_path / "s.jsonl") as store:
            keys = store.put_frame(frame, self.MODE, self.RANKS, self.CV,
                                   self.PROV)
        assert keys == self._ref_keys(nodes)

    def test_block_entries_equal_per_record_puts(self, tmp_path, plane):
        # The reference store holds one scalar entry line per record,
        # the format stores were written in before block lines.
        nodes, frame, records = plane
        keys = self._ref_keys(nodes)
        (tmp_path / "ref.jsonl").write_text("".join(
            canonical_dumps({"key": key, "inputs": {
                "app": "lulesh", "config": node.axis_values(),
                "mode": self.MODE, "ranks": self.RANKS,
                "code_version": self.CV},
                "record": rec, "provenance": self.PROV}) + "\n"
            for node, key, rec in zip(nodes, keys, records)))
        with ResultStore(tmp_path / "col.jsonl") as col:
            col.put_frame(frame, self.MODE, self.RANKS, self.CV, self.PROV)
        # Reopened from disk: the block line round-trips too.
        with ResultStore(tmp_path / "ref.jsonl") as ref, \
                ResultStore(tmp_path / "col.jsonl") as col:
            for key in keys:
                assert canonical_dumps(col.get(key)) == \
                    canonical_dumps(ref.get(key))

    def test_block_and_per_record_journals_merge_identically(
            self, tmp_path, plane):
        _, frame, records = plane
        with Journal(tmp_path / "col.jsonl") as j:
            j.append_frame(frame)
        with Journal(tmp_path / "ref.jsonl") as j:
            for rec in records:
                j.append(rec)
        merged = []
        for name in ("col", "ref"):
            out = tmp_path / f"{name}.merged"
            merge_journal([tmp_path / f"{name}.jsonl"], out, collect=False)
            merged.append(out.read_bytes())
        assert merged[0] and merged[0] == merged[1]

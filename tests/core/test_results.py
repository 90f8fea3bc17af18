"""Tests for the ResultSet container."""

import math

import pytest

from repro.core import ResultSet
from repro.core.results import CONFIG_KEYS

from .reference import frame_from_records


def rec(app="a", core="medium", cache="64M:512K", memory="4chDDR4",
        frequency=2.0, vector=128, cores=64, **extra):
    base = dict(app=app, core=core, cache=cache, memory=memory,
                frequency=frequency, vector=vector, cores=cores)
    base.update(extra)
    return base


class TestBasics:
    def test_add_and_len(self):
        rs = ResultSet()
        rs.add(rec(time_ns=1.0))
        assert len(rs) == 1

    def test_duplicate_config_rejected(self):
        rs = ResultSet([rec()])
        with pytest.raises(ValueError, match="duplicate"):
            rs.add(rec())

    def test_missing_config_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ResultSet([{"app": "a"}])

    def test_lookup(self):
        rs = ResultSet([rec(vector=128, time_ns=1.0),
                        rec(vector=256, time_ns=2.0)])
        assert rs.lookup(**rec(vector=256))["time_ns"] == 2.0

    def test_lookup_missing(self):
        rs = ResultSet([rec()])
        with pytest.raises(KeyError):
            rs.lookup(**rec(vector=512))


class TestAddCopySemantics:
    """Regression for the PR 10 data-plane fix: ``add`` copied every
    record unconditionally; trusted paths (load, frame rows, journal
    replay) now skip the defensive copy."""

    def test_default_add_copies(self):
        r = rec(time_ns=1.0)
        rs = ResultSet()
        rs.add(r)
        r["time_ns"] = 999.0  # caller mutates after insert
        assert rs.lookup(**rec())["time_ns"] == 1.0

    def test_trusted_add_adopts_the_record(self):
        r = rec(time_ns=1.0)
        rs = ResultSet()
        rs.add(r, copy=False)
        assert rs.lookup(**rec()) is r

    def test_frame_rows_are_never_copied(self):

        frame = frame_from_records([rec(time_ns=1.0)])
        rs = ResultSet()
        rs.add(frame.row(0))
        entry = next(rs.lazy())
        assert entry.frame is frame  # still the lazy view, not a dict

    def test_load_round_trip_unchanged(self, tmp_path):
        rs = ResultSet([rec(vector=128, time_ns=1.0),
                        rec(vector=256, time_ns=2.0)])
        rs.save(tmp_path / "r.json")
        assert ResultSet.load(tmp_path / "r.json") == rs


class TestPartner:
    def test_partner_pairs_on_other_axes(self):
        rs = ResultSet([
            rec(vector=128, frequency=2.0, time_ns=10.0),
            rec(vector=512, frequency=2.0, time_ns=5.0),
            rec(vector=128, frequency=3.0, time_ns=8.0),
            rec(vector=512, frequency=3.0, time_ns=4.0),
        ])
        sample = rs.lookup(**rec(vector=512, frequency=3.0))
        base = rs.partner(sample, vector=128)
        assert base["frequency"] == 3.0
        assert base["time_ns"] == 8.0


class TestQueries:
    def _rs(self):
        return ResultSet([
            rec(app="a", vector=128, time_ns=10.0, energy_j=1.0),
            rec(app="a", vector=256, time_ns=8.0, energy_j=None),
            rec(app="b", vector=128, time_ns=20.0, energy_j=3.0),
        ])

    def test_filter_equality(self):
        assert len(self._rs().filter(app="a")) == 2

    def test_filter_predicate(self):
        rs = self._rs().filter(predicate=lambda r: r["time_ns"] < 15)
        assert len(rs) == 2

    def test_values_none_becomes_nan(self):
        vals = self._rs().values("energy_j")
        assert math.isnan(vals[1])
        assert vals[0] == 1.0

    def test_unique(self):
        assert self._rs().unique("app") == ["a", "b"]

    def test_group_mean_skips_none(self):
        means = self._rs().group_mean(["app"], "energy_j")
        assert means[("a",)] == pytest.approx(1.0)
        assert means[("b",)] == pytest.approx(3.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rs = ResultSet([rec(time_ns=1.5, energy_j=None)])
        path = tmp_path / "results.json"
        rs.save(path)
        back = ResultSet.load(path)
        assert len(back) == 1
        assert back.lookup(**rec())["energy_j"] is None


class TestLazyIndex:
    """A sweep's ResultSet builds its key index on the first keyed
    access; lookups, pairing, filtering and duplicate rejection behave
    as on an eagerly indexed set."""

    @pytest.fixture(scope="class")
    def space(self):
        from repro.config import DesignSpace

        return DesignSpace(
            core_labels=("medium",), cache_labels=("64M:512K",),
            memory_labels=("4chDDR4", "8chDDR4"), frequencies=(2.0,),
            vector_widths=(128, 512), core_counts=(64,))

    @pytest.fixture(params=["campaign", "resume"])
    def swept(self, request, space, tmp_path):
        from repro.core import run_sweep

        journal = tmp_path / "j.jsonl"
        # One frame (shard, journal block) per app.
        rs = run_sweep(["spmz", "hydro"], space, processes=1, resume=journal,
                       batch_size=4)
        if request.param == "resume":
            rs = run_sweep(["spmz", "hydro"], space, processes=1,
                           resume=journal, batch_size=4)
        return rs

    @staticmethod
    def _cfg(r):
        return {k: r[k] for k in CONFIG_KEYS}

    def test_lookup_builds_the_index_once(self, swept):
        assert swept._index is None
        for r in swept.lazy():
            assert swept.lookup(**self._cfg(r)) is r
        assert swept._keyed() is swept._index
        assert len(swept._index) == len(swept) == 8
        with pytest.raises(KeyError):
            swept.lookup(**dict(self._cfg(next(swept.lazy())), vector=256))

    def test_partner_and_filter(self, swept):
        r = swept.lookup(app="hydro", core="medium", cache="64M:512K",
                         memory="8chDDR4", frequency=2.0, vector=512,
                         cores=64)
        base = swept.partner(r, vector=128)
        assert (base["vector"], base["memory"]) == (128, "8chDDR4")
        hydro = swept.filter(app="hydro")
        # One frame backs ``hydro``: its filter runs column-wise.
        sub = hydro.filter(vector=512)
        assert len(sub) == 2 and sub._index is None
        assert sub.lookup(**self._cfg(r)) is r
        assert sub.partner(r, memory="4chDDR4")["memory"] == "4chDDR4"
        picked = swept.filter(predicate=lambda e: e["memory"] == "4chDDR4")
        assert len(picked) == 4
        assert picked.partner(base, memory="4chDDR4")["vector"] == 128

    def test_add_after_lazy_build(self, swept):
        r = next(swept.lazy())
        with pytest.raises(ValueError, match="duplicate"):
            swept.add(r.to_dict())
        with pytest.raises(ValueError, match="duplicate"):
            swept._add_keyed(ResultSet._key(r), r)
        swept.add(rec(app="other", time_ns=1.0))
        assert swept.lookup(**rec(app="other"))["time_ns"] == 1.0
        assert len(swept) == 9

    def test_mixed_entries_index_like_eager_adds(self):

        frames = [frame_from_records(
            [rec(app=app, vector=v, cores=c, time_ns=float(v))
             for v in (128, 256) for c in (32, 64)])
            for app in ("a", "b")]
        entries = [frames[1].row(3), rec(app="stub", failed=True),
                   frames[0].row(0), frames[0].row(1), frames[1].row(0),
                   frames[0].row(3), frames[0].row(2)]
        lazy = ResultSet._of_distinct(entries)
        eager = ResultSet()
        for e in entries:
            eager.add(e, copy=False)
        assert lazy._keyed() == eager._index
        assert lazy == eager

    def test_duplicate_raises_on_first_keyed_access(self):
        rs = ResultSet._of_distinct([rec(time_ns=1.0), rec(time_ns=2.0)])
        assert len(rs) == 2
        with pytest.raises(ValueError, match="duplicate"):
            rs.lookup(**rec())

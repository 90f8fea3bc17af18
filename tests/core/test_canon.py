"""Canonical-serializer contract: valid JSON, stable digests, exact
non-finite round-trips.

PR 8 regression pins: journal/ResultSet/store persistence used bare
``json.dumps``, which (a) emits non-JSON ``NaN``/``Infinity`` tokens
and (b) serializes equal dicts to different bytes depending on key
insertion order — both fatal for a content-addressed store.
"""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.canon import (
    NONFINITE_KEY,
    canonical_dumps,
    canonical_loads,
    content_digest,
)
from repro.core.checkpoint import Journal, replay_journal
from repro.core.results import ResultSet


def _sample_record(**overrides):
    rec = {
        "app": "lulesh", "core": "medium", "cache": "64M:512K",
        "memory": "4chDDR4", "frequency": 2.0, "vector": 128, "cores": 64,
        "time_ns": 1.25e9, "energy_j": None,
    }
    rec.update(overrides)
    return rec


class TestValidJson:
    def test_nan_inf_emit_valid_interchange_json(self):
        text = canonical_dumps({"a": math.nan, "b": math.inf,
                                "c": -math.inf})
        # Parsable by a strict reader that rejects NaN/Infinity tokens.
        json.loads(text, parse_constant=lambda tok: pytest.fail(
            f"non-JSON token {tok!r} in canonical output"))

    def test_bare_dumps_would_not_be_valid(self):
        # The defect being fixed: stdlib default emits a NaN token.
        assert "NaN" in json.dumps({"a": math.nan})

    def test_reserved_key_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps({NONFINITE_KEY: "nan"})


class TestRoundTrip:
    def test_nonfinite_round_trip_exact(self):
        obj = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf,
               "nested": [1.5, {"x": math.nan}], "none": None}
        back = canonical_loads(canonical_dumps(obj))
        assert math.isnan(back["nan"])
        assert back["inf"] == math.inf
        assert back["ninf"] == -math.inf
        assert back["nested"][0] == 1.5
        assert math.isnan(back["nested"][1]["x"])
        assert back["none"] is None

    def test_legacy_tokens_still_load(self):
        # Pre-PR 8 journals carry bare NaN/Infinity tokens; the loader
        # must keep reading them.
        back = canonical_loads('{"a": NaN, "b": Infinity}')
        assert math.isnan(back["a"]) and back["b"] == math.inf

    def test_invalid_sentinel_rejected(self):
        with pytest.raises(ValueError):
            canonical_loads('{"__nonfinite__": "bogus"}')

    def test_reserved_key_rejected(self):
        # A user mapping may never use the sentinel key, else decoding
        # would be ambiguous with the non-finite float encoding.
        with pytest.raises(ValueError):
            canonical_dumps({NONFINITE_KEY: "nan"})

    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-2**53, 2**53)
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
        # The sentinel key is reserved: canonical_dumps rejects maps
        # containing it (pinned by test_reserved_key_rejected below).
        lambda leaf: st.lists(leaf, max_size=4)
        | st.dictionaries(st.text().filter(lambda k: k != NONFINITE_KEY),
                          leaf, max_size=4),
        max_leaves=16))
    def test_round_trip_property(self, obj):
        back = canonical_loads(canonical_dumps(obj))
        # NaN != NaN, so compare via a NaN-stable canonical re-dump.
        assert canonical_dumps(back) == canonical_dumps(obj)


def _elementwise_dumps(obj):
    """The canonical text built without the numeric-list fast path:
    every element of every list visited, non-finite floats replaced."""
    def enc(v):
        if isinstance(v, float) and not math.isfinite(v):
            return {NONFINITE_KEY: "nan" if math.isnan(v)
                    else ("inf" if v > 0 else "-inf")}
        if isinstance(v, dict):
            return {k: enc(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return v
    return json.dumps(enc(obj), sort_keys=True, allow_nan=False,
                      separators=(",", ":"))


class TestNumericListFastPath:
    """A list of finite numbers is written as is; every other list is
    still visited element by element.  Both give the same bytes."""

    @pytest.mark.parametrize("obj", [
        [1.5, -0.0, 2, True, 1e-300],
        (1.0, 2.0),
        [],
        [1e308, 1e308],             # finite values, overflowing sum
        [10 ** 400, 1.0],           # an int too large for a float
        [1.0, math.nan], [math.inf, -math.inf], [-math.inf],
        [1.0, None], ["a", 1.0], [[1.0, math.nan]], [{"x": math.inf}],
    ])
    def test_same_bytes_as_elementwise(self, obj):
        assert canonical_dumps({"col": obj}) == _elementwise_dumps({"col": obj})

    @given(st.lists(st.none() | st.integers(-2**60, 2**60)
                    | st.floats(allow_nan=True, allow_infinity=True),
                    max_size=12))
    def test_same_bytes_property(self, values):
        assert canonical_dumps(values) == _elementwise_dumps(values)

    def test_reserved_key_inside_list_rejected(self):
        with pytest.raises(ValueError):
            canonical_dumps([{NONFINITE_KEY: "nan"}])


class TestDigestStability:
    def test_key_order_invariant(self):
        a = {"x": 1, "y": [2.5, {"p": 1, "q": 2}]}
        b = {"y": [2.5, {"q": 2, "p": 1}], "x": 1}
        assert content_digest(a) == content_digest(b)

    def test_digest_stable_across_serialize_parse_cycle(self):
        obj = _sample_record(time_ns=math.inf, bw_utilization=math.nan)
        once = content_digest(obj)
        again = content_digest(canonical_loads(canonical_dumps(obj)))
        assert once == again

    def test_distinct_values_distinct_digests(self):
        assert content_digest({"a": 1}) != content_digest({"a": 2})
        assert content_digest({"a": math.nan}) != content_digest({"a": None})


class TestPersistenceRoutesThroughCanon:
    def test_journal_round_trips_nonfinite_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        rec = _sample_record(time_ns=math.inf, mpki_l1=math.nan)
        with Journal(path) as j:
            j.append(rec)
        # The file itself is strict interchange JSON...
        line = path.read_text().strip()
        json.loads(line, parse_constant=lambda tok: pytest.fail(
            f"non-JSON token {tok!r} in journal"))
        # ...and replays to the exact same floats.
        out = replay_journal(path)
        (got,) = list(out.results)
        assert got["time_ns"] == math.inf
        assert math.isnan(got["mpki_l1"])

    def test_resultset_save_is_byte_stable(self, tmp_path):
        rec = _sample_record()
        shuffled = dict(reversed(list(rec.items())))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ResultSet([rec]).save(a)
        ResultSet([shuffled]).save(b)
        assert a.read_bytes() == b.read_bytes()
        assert ResultSet.load(a) == ResultSet.load(b)

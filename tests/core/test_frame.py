"""Property tests for the columnar result frame (DESIGN §10).

The frame's whole contract is *byte* equivalence with the dict path:
for any uniform-schema records, ``canonical_lines`` must match
``canonical_dumps`` (and so ``content_digest``) of the equivalent
dicts exactly — including NaN/inf sentinels, None cells, booleans
(failure stubs) and nested values — and the journal/store block form
plus the worker IPC wire must round-trip without perturbing a byte.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.canon import canonical_dumps, canonical_loads, content_digest
from repro.core.frame import (
    BLOCK_KEY,
    FrameRow,
    ResultFrame,
    pack_frame,
    row_keys,
    scalar_fragment,
    unpack_frame,
)

from .reference import frame_from_records

_KEYS = st.text(
    st.characters(min_codepoint=32, max_codepoint=0x2FF),
    min_size=1, max_size=8,
).filter(lambda k: not k.startswith("__"))

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=3),
)


@st.composite
def record_batches(draw):
    """A list of records sharing one schema, arbitrary column shapes."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=6, unique=True))
    n = draw(st.integers(min_value=1, max_value=8))
    cols = {k: draw(st.lists(_SCALARS, min_size=n, max_size=n))
            for k in keys}
    return [{k: cols[k][i] for k in keys} for i in range(n)]


class TestFrameEqualsDictPath:
    @settings(max_examples=120, deadline=None)
    @given(records=record_batches())
    @example(records=[{"0": False}, {"0": 0.0}, {"0": -0.0}])
    @example(records=[{"0": (0.0,)}, {"0": (-0.0,)}, {"0": (1,)},
                      {"0": (True,)}])
    def test_canonical_lines_and_digests_bit_identical(self, records):
        frame = frame_from_records(records)
        assert frame.canonical_lines() == \
            [canonical_dumps(r) for r in records]
        assert [hashlib.sha256(line.encode("utf-8")).hexdigest()
                for line in frame.canonical_lines()] == \
            [content_digest(r) for r in records]
        # FrameRow is a Mapping: canon encodes it like the dict itself.
        assert [canonical_dumps(row) for row in frame.rows()] == \
            frame.canonical_lines()

    @settings(max_examples=80, deadline=None)
    @given(records=record_batches())
    def test_block_form_round_trips(self, records):
        frame = frame_from_records(records)
        line = frame.to_block_line()
        payload = canonical_loads(line)[BLOCK_KEY]
        back = ResultFrame.from_block_payload(payload)
        # The decoded frame re-renders the exact same bytes, so resume
        # from a block journal can never drift from the dict path.
        assert back.canonical_lines() == frame.canonical_lines()
        assert back.keys == frame.keys

    @settings(max_examples=40, deadline=None)
    @given(records=record_batches())
    def test_ipc_transports_round_trip(self, records):
        frame = frame_from_records(records)
        back = unpack_frame(pack_frame(frame))
        assert back.canonical_lines() == frame.canonical_lines()

    def test_pack_frame_round_trips_masked_and_object_columns(self):
        cfg = np.empty(3, dtype=object)
        cfg[:] = ["medium", "high", "medium"]
        frame = ResultFrame.from_columns(
            ("core", "power_w", "tags", "cores"),
            {"core": cfg,
             "power_w": (np.array([1.5, 0.0, 2.5]),
                         np.array([False, True, False])),
             "tags": [[1, 2], {"a": None}, True],
             "cores": np.array([32, 64, 128], dtype=np.int64)})
        assert [frame.column_kind(k) for k in frame.keys] == \
            ["obj", "f8", "obj", "i8"]
        data = pack_frame(frame)
        assert type(data) is bytes
        back = unpack_frame(data)
        assert back == frame
        assert back.cell("power_w", 1) is None
        assert back.canonical_lines() == frame.canonical_lines()

    @settings(max_examples=60, deadline=None)
    @given(records=record_batches(),
           data=st.data())
    def test_select_preserves_bytes(self, records, data):
        frame = frame_from_records(records)
        idx = data.draw(st.lists(
            st.integers(0, len(records) - 1), max_size=len(records)))
        sub = frame.select(idx)
        assert sub.canonical_lines() == \
            [frame.canonical_lines()[i] for i in idx]

    @settings(max_examples=60, deadline=None)
    @given(records=record_batches())
    def test_row_materialization_matches_records(self, records):
        frame = frame_from_records(records)
        got = frame.to_records()
        # NaN breaks dict ==; compare through canonical bytes instead.
        assert [canonical_dumps(r) for r in got] == \
            [canonical_dumps(r) for r in records]


class TestFailureStubs:
    def test_stub_frame_round_trips(self):
        stubs = [{"app": "spmz", "core": "medium", "cache": "64M:512K",
                  "memory": "4chDDR4", "frequency": 2.0, "vector": v,
                  "cores": 64, "failed": True, "error": "boom",
                  "attempts": a}
                 for v, a in ((128, 1), (256, 3))]
        frame = frame_from_records(stubs)
        assert frame.column_kind("failed") == "obj"  # bools stay bools
        assert frame.to_records() == stubs
        assert frame.canonical_lines() == \
            [canonical_dumps(s) for s in stubs]
        back = ResultFrame.from_block_payload(
            canonical_loads(frame.to_block_line())[BLOCK_KEY])
        assert back.to_records() == stubs

    def test_none_and_nonfinite_sentinels(self):
        recs = [{"x": None, "y": float("nan"), "z": 1.5},
                {"x": 2.0, "y": float("inf"), "z": float("-inf")}]
        frame = frame_from_records(recs)
        lines = frame.canonical_lines()
        assert lines[0] == ('{"x":null,"y":{"__nonfinite__":"nan"},'
                            '"z":1.5}')
        assert lines[1] == ('{"x":2.0,"y":{"__nonfinite__":"inf"},'
                            '"z":{"__nonfinite__":"-inf"}}')
        assert frame.cell("x", 0) is None
        back = ResultFrame.from_block_payload(
            canonical_loads(frame.to_block_line())[BLOCK_KEY])
        assert back.canonical_lines() == lines

    def test_masked_and_unmasked_f8_columns_round_trip(self):
        # The decoder masks an f8 column only when a cell is None: "x"
        # decodes with a mask, "z" (finite and non-finite floats)
        # without one.
        recs = [{"x": None, "z": 1.5}, {"x": 2.0, "z": float("-inf")},
                {"x": None, "z": 0.0}]
        frame = frame_from_records(recs)
        back = ResultFrame.from_block_payload(
            canonical_loads(frame.to_block_line())[BLOCK_KEY])
        assert [back.column_kind(k) for k in ("x", "z")] == ["f8", "f8"]
        assert back._cols["x"][2].tolist() == [True, False, True]
        assert back._cols["z"][2] is None
        assert [back.cell("x", i) for i in range(3)] == [None, 2.0, None]
        assert back.column("z").tolist() == [1.5, float("-inf"), 0.0]
        assert back.canonical_lines() == frame.canonical_lines()


class TestBlockDecode:
    def test_equal_strings_shared_and_list_cells_kept(self):
        recs = [{"core": c, "tags": t, "mix": m}
                for c, t, m in (("medium", ["a", "b"], "x"),
                                ("high", ["a", "b"], ["x"]),
                                ("medium", [], 3),
                                ("medium", ["a"], "x"))]
        frame = frame_from_records(recs)
        back = ResultFrame.from_block_payload(
            canonical_loads(frame.to_block_line())[BLOCK_KEY])
        assert back.to_records() == recs
        assert back.canonical_lines() == frame.canonical_lines()
        # One str object per distinct label, not one per decoded cell.
        core = back.column("core")
        assert core[0] is core[2] is core[3]
        mix = back.column("mix")
        assert mix[0] is mix[3]
        # List cells stay distinct lists, even when equal.
        tags = back.column("tags")
        assert type(tags[0]) is list and tags[0] == tags[1]
        assert tags[0] is not tags[1]


class TestRowKeys:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_per_row_reads(self, data):
        # Rows of two frames, in any order and with repeats, including
        # a masked f8 column whose None cells must not read as NaN.
        frames = [frame_from_records(
            [{"a": f"f{f}", "x": None if i % 3 == 0 else float(i),
              "n": i} for i in range(size)])
            for f, size in enumerate((5, 7))]
        rows = data.draw(st.lists(
            st.sampled_from([fr.row(i) for fr in frames
                             for i in range(len(fr))]), max_size=20))
        rows += [frames[1].row(i) for i in range(2, 6)]  # a slice run
        keys = ("n", "x", "a")
        assert row_keys(rows, keys) == \
            [tuple(r[k] for k in keys) for r in rows]


class TestFrameBasics:
    def test_unknown_block_schema_rejected(self):
        frame = frame_from_records([{"a": 1}])
        payload = dict(frame.to_block_payload())
        payload["schema"] = 99
        with pytest.raises(ValueError):
            ResultFrame.from_block_payload(payload)

    def test_frame_row_is_lazy_mapping(self):
        frame = frame_from_records([{"a": 1, "b": 2.5}])
        row = frame.row(0)
        assert isinstance(row, FrameRow)
        assert row == {"a": 1, "b": 2.5}
        assert row["a"] == 1 and type(row["a"]) is int
        assert row["b"] == 2.5 and type(row["b"]) is float
        assert json.dumps(row.to_dict(), sort_keys=True) == \
            '{"a": 1, "b": 2.5}'

    @settings(max_examples=60, deadline=None)
    @given(v=_SCALARS)
    def test_scalar_fragment_matches_canonical_dumps(self, v):
        assert scalar_fragment(v) == canonical_dumps(v)

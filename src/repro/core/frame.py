"""Columnar result frames: the SoA result data plane.

The compute kernels have been config-vectorized since PR 2, but results
still round-tripped through per-record Python dicts: the batch
evaluator spliced its column arrays into N dicts, workers pickled lists
of dicts, the journal/store serialized and hashed one record at a time,
and ``ResultSet`` copied every dict on insert.  At range-space scale
(PR 9) that dict-shaped plane dominates the wall clock — the paper's
own "data movement dominates" lesson, applied to the simulator itself.

:class:`ResultFrame` keeps a sweep's records as typed NumPy columns
plus a small schema header and makes the *canonical bytes* of each
record available without materializing dicts:

* ``canonical_lines()`` renders, column-at-a-time, the exact text
  ``canonical_dumps(record)`` would produce for each row — same key
  sort, same float ``repr``, same non-finite sentinel objects — so
  journal lines, store keys and golden digests are bit-identical to
  per-record serialization by construction;
* ``to_block()``/``from_block()`` give the journal and the store a
  schema-versioned one-line-per-shard representation;
* :class:`FrameRow` is a ``Mapping`` view of one row — consumers that
  genuinely need a record see one materialized lazily, on access.

Column typing is inferred, not declared: a column holding only
(non-bool) ints becomes ``i8``, only floats/None becomes ``f8`` with a
None mask, anything else stays an object column rendered through
:func:`canonical_dumps` per distinct value.  The inference is exact —
JSON preserves the int/float distinction both ways (``2`` vs ``2.0``)
— which is what lets a frame round-trip through its block form and
re-render byte-identical lines.
"""

from __future__ import annotations

import json
import math
import pickle
from collections.abc import Mapping
from itertools import compress, islice
from operator import attrgetter, is_not
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .canon import canonical_dumps

__all__ = ["ResultFrame", "FrameRow", "BLOCK_KEY", "BLOCK_SCHEMA",
           "pack_frame", "unpack_frame", "scalar_fragment",
           "memoizable_fragment", "row_keys"]

#: Reserved top-level key marking a columnar block line in a journal or
#: store file.  Like ``NONFINITE_KEY`` it may not appear in user
#: records, so a reader can never confuse a block with a record.
BLOCK_KEY = "__frame__"

#: Version of the block payload layout.  Bump on any change to the
#: column encoding; readers reject versions they do not understand
#: rather than misparse them.
BLOCK_SCHEMA = 1


def _infer_column(values: Sequence[Any]) -> Tuple[str, Any, Any]:
    """Classify one column; returns ``(kind, array, none_mask)``.

    ``bool`` is excluded from ``i8`` (it is an ``int`` subclass but
    canonically renders ``true``/``false``), and ints beyond 2**63-1
    fall back to the object column rather than overflow.
    """
    all_int = True
    all_float = True
    has_none = False
    for v in values:
        if type(v) is int and -(2 ** 63) <= v < 2 ** 63:
            all_float = False
        elif type(v) is float:
            all_int = False
        elif v is None:
            all_int = False
            has_none = True
        else:
            all_int = all_float = False
            break
    if values and all_int:
        return "i8", np.array(values, dtype=np.int64), None
    if values and all_float:
        if has_none:
            mask = np.array([v is None for v in values], dtype=bool)
            arr = np.array([0.0 if v is None else v for v in values],
                           dtype=np.float64)
            return "f8", arr, mask
        return "f8", np.array(values, dtype=np.float64), None
    return "obj", _object_array(values), None


def _object_array(values: Sequence[Any]) -> np.ndarray:
    """A 1-D object array holding ``values`` as-is.

    ``np.array(values, dtype=object)`` auto-nests equal-length sequence
    cells into a 2-D array, corrupting list-valued cells; element-wise
    assignment keeps every cell the original Python object.
    """
    arr = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        arr[i] = v
    return arr


def _shared_cells(values: Sequence[Any]) -> List[Any]:
    """``values`` with equal ``str`` cells made one object.

    A decoded block holds one fresh ``str`` per label cell, although a
    column repeats a handful of labels; sharing them keeps a resumed
    frame as small as the one a worker shipped.  Other cells (numbers,
    lists) are kept as they are.
    """
    seen: Dict[str, str] = {}
    return [seen.setdefault(v, v) if type(v) is str else v for v in values]


def memoizable_fragment(v: Any) -> bool:
    """Whether a fragment memo keyed on ``(type(v), v)`` may keep the
    text of ``v``: equal keys must render alike.

    The type separates ``False == 0`` and ``1 == 1.0``.  Float zeros are
    never kept (``0.0 == -0.0``), nor containers, whose equal items may
    differ in type or sign.  Checked on a miss only, so hits cost
    nothing.
    """
    if type(v) is float:
        return v != 0.0
    return v is None or type(v) in (str, int, bool)


def _float_fragment(x: float) -> str:
    """Canonical JSON text of one float (matches ``canonical_dumps``)."""
    if math.isnan(x):
        return '{"__nonfinite__":"nan"}'
    if math.isinf(x):
        return ('{"__nonfinite__":"inf"}' if x > 0
                else '{"__nonfinite__":"-inf"}')
    return repr(x)


def scalar_fragment(v: Any) -> str:
    """Canonical JSON text of one scalar value.

    Byte-identical to ``canonical_dumps(v)`` — this is the splice
    primitive for hand-rendered canonical text (store keys, canonical
    lines) that must hash like ``canonical_dumps`` of a record dict.
    """
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if type(v) is int:
        return str(v)
    if type(v) is float:
        return _float_fragment(v)
    return canonical_dumps(v)


class FrameRow(Mapping):
    """Read-only ``Mapping`` view of one frame row.

    Scalars materialize on key access (``int``/``float``/``None`` with
    the exact Python types ``RunResult.record()`` produces).  ``Mapping``
    equality makes ``row == record_dict`` hold both ways, so existing
    consumers that compare records keep working unchanged.
    """

    __slots__ = ("_frame", "_i")

    def __init__(self, frame: "ResultFrame", i: int):
        self._frame = frame
        self._i = i

    def __getitem__(self, key: str) -> Any:
        return self._frame.cell(key, self._i)

    def __iter__(self) -> Iterator[str]:
        return iter(self._frame.keys)

    def __len__(self) -> int:
        return len(self._frame.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrameRow({dict(self)!r})"

    @property
    def frame(self) -> "ResultFrame":
        return self._frame

    @property
    def index(self) -> int:
        return self._i

    def to_dict(self) -> Dict[str, Any]:
        """Materialize the row as a plain record dict (schema order)."""
        return {k: self._frame.cell(k, self._i) for k in self._frame.keys}


_FRAME_OF = attrgetter("_frame")
_ROW_OF = attrgetter("_i")


def row_keys(rows: Sequence[FrameRow], keys: Sequence[str]) -> List[Tuple]:
    """``tuple(row[k] for k in keys)`` of each row, read column-wise.

    Consecutive rows of one frame form a run, read with one column
    gather per key; a run at consecutive indices (a shard's rows, in
    order) gathers by slice.
    """
    n = len(rows)
    if not n:
        return []
    frames = list(map(_FRAME_OF, rows))
    at = list(map(_ROW_OF, rows))
    cuts = list(compress(range(1, n),
                         map(is_not, frames, islice(frames, 1, None))))
    out: List[Tuple] = []
    for a, b in zip([0] + cuts, cuts + [n]):
        run: Any = slice(at[a], at[a] + b - a)
        if at[a:b] != list(range(run.start, run.stop)):
            run = at[a:b]
        out.extend(zip(*[frames[a].cells(k, run) for k in keys]))
    return out


class ResultFrame:
    """Immutable columnar batch of result records with one schema.

    Construct via :meth:`from_columns` or :meth:`from_block_payload`; rows
    are exposed as :class:`FrameRow` views through :meth:`row`.
    """

    __slots__ = ("keys", "_cols", "_n", "_lines")

    def __init__(self, keys: Tuple[str, ...],
                 cols: Dict[str, Tuple[str, Any, Any]], n: int):
        self.keys = keys
        self._cols = cols          # key -> (kind, array, none_mask|None)
        self._n = n
        self._lines: Optional[List[str]] = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_columns(cls, keys: Sequence[str],
                     columns: Mapping[str, Any]) -> "ResultFrame":
        """Build a frame from ready-made columns.

        Each column is an ``np.int64`` array, an ``np.float64`` array
        (optionally a ``(values, none_mask)`` pair), an object array,
        or a plain list, whose kind is inferred from its values.  This is
        the zero-copy path the batch evaluator uses: float64 columns it
        computed are adopted as-is.
        """
        keys = tuple(keys)
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys")
        cols: Dict[str, Tuple[str, Any, Any]] = {}
        n = None
        for k in keys:
            col = columns[k]
            mask = None
            if isinstance(col, tuple):
                col, mask = col
            if isinstance(col, np.ndarray):
                if col.dtype == np.int64:
                    kind = "i8"
                elif col.dtype == np.float64:
                    kind = "f8"
                elif col.dtype == object:
                    kind = "obj"
                else:
                    raise ValueError(
                        f"column {k!r}: unsupported dtype {col.dtype}")
                if mask is not None:
                    if kind != "f8":
                        raise ValueError(
                            f"column {k!r}: none-mask on non-f8 column")
                    mask = np.asarray(mask, dtype=bool)
                cols[k] = (kind, col, mask)
            else:
                cols[k] = _infer_column(list(col))
            m = len(cols[k][1])
            if n is None:
                n = m
            elif m != n:
                raise ValueError(
                    f"column {k!r}: length {m} != {n}")
        return cls(keys, cols, n or 0)

    # -- basic access --------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def row(self, i: int) -> FrameRow:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return FrameRow(self, i)

    def rows(self) -> Iterator[FrameRow]:
        return (FrameRow(self, i) for i in range(self._n))

    def cell(self, key: str, i: int) -> Any:
        kind, arr, mask = self._cols[key]
        if kind == "i8":
            return int(arr[i])
        if kind == "f8":
            if mask is not None and mask[i]:
                return None
            return float(arr[i])
        return arr[i]

    def cells(self, key: str, indices: Any) -> List[Any]:
        """``[self.cell(key, i) for i in indices]``, read column-wise
        (``indices`` is an index array or a slice)."""
        kind, arr, mask = self._cols[key]
        vals = arr[indices].tolist()
        if mask is not None:
            return [None if m else v
                    for v, m in zip(vals, mask[indices].tolist())]
        return vals

    def column(self, key: str) -> Any:
        """The raw column array (f8 columns: None cells read as NaN)."""
        kind, arr, mask = self._cols[key]
        if kind == "f8" and mask is not None:
            arr = np.where(mask, np.nan, arr)
        return arr

    def column_kind(self, key: str) -> str:
        return self._cols[key][0]

    def to_records(self) -> List[Dict[str, Any]]:
        return [self.row(i).to_dict() for i in range(self._n)]

    def select(self, indices: Sequence[int]) -> "ResultFrame":
        """New frame holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        cols = {}
        for k, (kind, arr, mask) in self._cols.items():
            cols[k] = (kind, arr[idx],
                       None if mask is None else mask[idx])
        out = ResultFrame(self.keys, cols, len(idx))
        if self._lines is not None:
            out._lines = [self._lines[i] for i in idx]
        return out

    # -- canonical rendering -------------------------------------------

    def _fragments(self, key: str) -> List[str]:
        kind, arr, mask = self._cols[key]
        if kind == "i8":
            return [str(v) for v in arr.tolist()]
        if kind == "f8":
            vals = arr.tolist()
            if mask is None:
                return [_float_fragment(v) for v in vals]
            return ["null" if m else _float_fragment(v)
                    for v, m in zip(vals, mask.tolist())]
        # Object column: full canonical encoding, memoized per distinct
        # value (axis labels repeat heavily across a sweep).
        memo: Dict[Any, str] = {}
        out = []
        for v in arr.tolist():
            try:
                frag = memo.get((type(v), v))
            except TypeError:        # unhashable (nested list/dict)
                out.append(canonical_dumps(v))
                continue
            if frag is None:
                frag = canonical_dumps(v)
                if memoizable_fragment(v):
                    memo[(type(v), v)] = frag
            out.append(frag)
        return out

    def canonical_lines(self) -> List[str]:
        """Per-row canonical JSON, bit-identical to per-record dumps.

        Row ``i``'s text equals ``canonical_dumps(self.row(i).to_dict())``
        — same sorted keys, compact separators, float ``repr`` and
        non-finite sentinels — because every fragment renderer mirrors
        one ``json.dumps`` rule exactly.  Cached: the journal and the
        store reuse one rendering.
        """
        if self._lines is None:
            if self._n == 0:
                self._lines = []
            else:
                skeys = sorted(self.keys)
                heads = [("{" if j == 0 else ",") + json.dumps(k) + ":"
                         for j, k in enumerate(skeys)]
                frag_cols = [self._fragments(k) for k in skeys]
                lines = []
                for i in range(self._n):
                    parts: List[str] = []
                    for head, frags in zip(heads, frag_cols):
                        parts.append(head)
                        parts.append(frags[i])
                    parts.append("}")
                    lines.append("".join(parts))
                self._lines = lines
        return self._lines

    # -- block (journal / store) form ----------------------------------

    def to_block_payload(self) -> Dict[str, Any]:
        """The schema-versioned column payload of a block line."""
        cols: Dict[str, Any] = {}
        kinds: Dict[str, str] = {}
        for k in self.keys:
            kind, arr, mask = self._cols[k]
            kinds[k] = kind
            if kind == "f8" and mask is not None:
                vals = arr.tolist()
                cols[k] = [None if m else v
                           for v, m in zip(vals, mask.tolist())]
            else:
                cols[k] = arr.tolist()
        return {"schema": BLOCK_SCHEMA, "n": self._n,
                "keys": list(self.keys), "kinds": kinds, "cols": cols}

    def to_block_line(self) -> str:
        """One canonical JSONL line carrying the whole frame."""
        return canonical_dumps({BLOCK_KEY: self.to_block_payload()})

    @classmethod
    def from_block_payload(cls, payload: Mapping[str, Any]) -> "ResultFrame":
        schema = payload.get("schema")
        if schema != BLOCK_SCHEMA:
            raise ValueError(f"unsupported frame block schema: {schema!r}")
        keys = tuple(payload["keys"])
        n = int(payload["n"])
        kinds = payload["kinds"]
        cols: Dict[str, Tuple[str, Any, Any]] = {}
        for k in keys:
            kind = kinds[k]
            vals = payload["cols"][k]
            if len(vals) != n:
                raise ValueError(f"column {k!r}: length {len(vals)} != {n}")
            if kind == "i8":
                cols[k] = ("i8", np.array(vals, dtype=np.int64), None)
            elif kind == "f8":
                if None in vals:
                    mask = np.array([v is None for v in vals], dtype=bool)
                    arr = np.array([0.0 if v is None else v for v in vals],
                                   dtype=np.float64)
                    cols[k] = ("f8", arr, mask)
                else:
                    cols[k] = ("f8", np.array(vals, dtype=np.float64), None)
            elif kind == "obj":
                cols[k] = ("obj", _object_array(_shared_cells(vals)), None)
            else:
                raise ValueError(f"column {k!r}: unknown kind {kind!r}")
        return cls(keys, cols, n)

    # -- equality (testing aid) ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultFrame):
            return NotImplemented
        return (self.keys == other.keys
                and len(self) == len(other)
                and self.to_records() == other.to_records())

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("ResultFrame is unhashable")


# -- worker IPC packing ------------------------------------------------------


def pack_frame(frame: ResultFrame) -> bytes:
    """The pickle bytes a sweep worker puts on the results queue.

    The parent decodes them with :func:`unpack_frame`, so the frame's
    decode is one call on the parent side rather than hidden inside the
    queue's own unpickle.
    """
    return pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_frame(data: bytes) -> ResultFrame:
    """Reconstruct a frame shipped by :func:`pack_frame`."""
    return pickle.loads(data)

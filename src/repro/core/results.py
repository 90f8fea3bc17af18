"""Result container for design-space sweeps.

A :class:`ResultSet` holds one flat record per (application, node
configuration) simulation, with JSON round-trip, filtering and grouping
helpers used by the normalization layer and the benchmark reports.

Since the columnar data plane (DESIGN §10) an entry is either a plain
dict or a :class:`~repro.core.frame.FrameRow` — a lazy ``Mapping`` view
into a :class:`~repro.core.frame.ResultFrame` that only materializes
scalars on key access.  Both shapes compare equal field-for-field, so
``__eq__``/iteration/lookup semantics are unchanged; ``save`` renders
frame-backed entries from the frame's cached canonical lines without
ever building their dicts, and ``values`` reads whole columns when the
set is backed by a single frame.
"""

from __future__ import annotations

from itertools import groupby
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .canon import canonical_dumps, canonical_loads
from .frame import FrameRow, ResultFrame, row_keys

__all__ = ["ResultSet", "CONFIG_KEYS"]

#: Fields that identify one design point (with 'app').
CONFIG_KEYS: Tuple[str, ...] = (
    "app", "core", "cache", "memory", "frequency", "vector", "cores",
)

Record = Mapping[str, Any]


class ResultSet:
    """An append-only collection of sweep records.

    The config-key index behind lookups may be unbuilt (``None``) on a
    set made by :meth:`_of_distinct`; every keyed access builds it
    first, through :meth:`_keyed`.
    """

    def __init__(self, records: Optional[Sequence[Record]] = None):
        self._records: List[Record] = []
        self._index: Optional[Dict[Tuple, int]] = {}
        for r in records or ():
            self.add(r)

    # -- construction ---------------------------------------------------------

    @classmethod
    def _of_distinct(cls, records: Sequence[Record]) -> "ResultSet":
        """Trusted constructor over records with distinct config keys.

        The caller guarantees every record carries every config key and
        no two share one (a sweep's tasks, a subset of a set).  The key
        index is built on the first keyed access, so a set that is only
        iterated or saved never holds one key tuple per record.
        """
        out = cls()
        out._records = list(records)
        out._index = None
        return out

    def _keyed(self) -> Dict[Tuple, int]:
        """The config-key index, built on first use.

        Runs of frame rows are keyed column-wise
        (:func:`~repro.core.frame.row_keys`) rather than one cell read
        per record per field.
        """
        if self._index is not None:
            return self._index
        try:
            keys = row_keys(self._records, CONFIG_KEYS)
        except AttributeError:      # plain dicts (failure stubs) as well
            keys = []
            for kind, run in groupby(self._records, key=type):
                run = list(run)
                keys.extend(row_keys(run, CONFIG_KEYS) if kind is FrameRow
                            else map(self._key, run))
        index = dict(zip(keys, range(len(keys))))
        if len(index) != len(keys):
            seen: set = set()
            for key in keys:
                if key in seen:
                    raise ValueError(f"duplicate record for config {key}")
                seen.add(key)
        self._index = index
        return index

    def add(self, record: Record, copy: bool = True) -> None:
        """Insert one record.

        ``copy=False`` is the trusted-internal-path fast lane: callers
        that hand over a record they will never mutate again (a freshly
        parsed load, a frame row) skip the defensive ``dict()`` copy.
        Frame rows are immutable views and are never copied.
        """
        missing = [k for k in CONFIG_KEYS if k not in record]
        if missing:
            raise ValueError(f"record missing config keys: {missing}")
        if copy and type(record) is dict:
            record = dict(record)
        self._add_keyed(self._key(record), record)

    def _add_keyed(self, key: Tuple, record: Record) -> None:
        """Trusted insert: the caller guarantees ``key == _key(record)``
        and that the record carries every config key."""
        index = self._keyed()
        if key in index:
            raise ValueError(f"duplicate record for config {key}")
        index[key] = len(self._records)
        self._records.append(record)

    def _get_keyed(self, key: Tuple) -> Optional[Record]:
        """The entry stored under ``key`` (a :meth:`_key` tuple), or
        None: the lookup behind resume, without per-field kwargs."""
        j = self._keyed().get(key)
        return None if j is None else self._records[j]

    @staticmethod
    def _key(record: Record) -> Tuple:
        return tuple(record[k] for k in CONFIG_KEYS)

    def extend(self, records: Sequence[Record]) -> None:
        for r in records:
            self.add(r)

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        """Iterate records, materializing frame-backed entries.

        ``list(rs)`` must keep yielding plain dicts — bare
        ``json.dumps(list(rs))`` is the golden-digest contract — so
        lazy rows materialize here, on access.  Internal columnar
        paths use :meth:`lazy` instead.
        """
        for r in self._records:
            yield r.to_dict() if isinstance(r, FrameRow) else r

    def lazy(self) -> Iterator[Record]:
        """Iterate entries as stored — frame rows stay lazy views."""
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        """Record-by-record equality, in order (bitwise field values)."""
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self._records == other._records

    def _backing_frame(self) -> Optional[Tuple[ResultFrame, np.ndarray]]:
        """``(frame, row_indices)`` when every entry is a row of one
        frame — the column fast path for ``values``/``save``."""
        if not self._records:
            return None
        first = self._records[0]
        if not isinstance(first, FrameRow):
            return None
        frame = first.frame
        idx = np.empty(len(self._records), dtype=np.intp)
        for j, e in enumerate(self._records):
            if not isinstance(e, FrameRow) or e.frame is not frame:
                return None
            idx[j] = e.index
        return frame, idx

    def failures(self) -> "ResultSet":
        """Failed-task stubs recorded by the fault-tolerant sweep."""
        return self.filter(lambda r: bool(r.get("failed")))

    def lookup(self, **config) -> Record:
        """Exact-match lookup by full config key."""
        missing = [k for k in CONFIG_KEYS if k not in config]
        if missing:
            raise ValueError(f"lookup needs all config keys; missing {missing}")
        key = tuple(config[k] for k in CONFIG_KEYS)
        try:
            return self._records[self._keyed()[key]]
        except KeyError:
            raise KeyError(f"no record for config {key}") from None

    def partner(self, record: Record, **overrides) -> Record:
        """The record sharing every config key except the overridden ones.

        This implements the paper's pairing: a 256-bit sample's partner
        is the 128-bit configuration with all other parameters equal.
        """
        cfg = {k: record[k] for k in CONFIG_KEYS}
        cfg.update(overrides)
        return self.lookup(**cfg)

    def filter(self, predicate: Optional[Callable[[Record], bool]] = None,
               **equals) -> "ResultSet":
        """Sub-set by field equality and/or a predicate.

        Equality-only filters over a frame-backed set run column-wise:
        one vectorized mask per field instead of one cell access per
        record per field; the surviving rows, a subset of distinct
        ones, are indexed on their first keyed access.
        """
        backing = (self._backing_frame()
                   if predicate is None and equals else None)
        if backing is not None and all(k in backing[0].keys for k in equals):
            frame, idx = backing
            keep = np.ones(len(idx), dtype=bool)
            for k, v in equals.items():
                col = frame.column(k)[idx]
                if frame.column_kind(k) == "obj":
                    keep &= np.fromiter((c == v for c in col.tolist()),
                                        dtype=bool, count=len(col))
                else:
                    keep &= col == v
            return ResultSet._of_distinct(
                [self._records[j] for j in np.nonzero(keep)[0].tolist()])
        out = ResultSet()
        for r in self._records:
            if any(r.get(k) != v for k, v in equals.items()):
                continue
            if predicate is not None and not predicate(r):
                continue
            out.add(r)
        return out

    def values(self, field: str) -> np.ndarray:
        """Field values as an array (None/missing -> nan).

        Frame-backed sets slice the column directly — no per-record
        materialization on the warm analysis path.
        """
        backing = self._backing_frame()
        if backing is not None:
            frame, idx = backing
            if field in frame.keys and frame.column_kind(field) != "obj":
                return frame.column(field)[idx].astype(np.float64)
        vals = [r.get(field) for r in self._records]
        return np.array([np.nan if v is None else v for v in vals],
                        dtype=np.float64)

    def unique(self, field: str) -> List:
        seen: List = []
        for r in self._records:
            v = r.get(field)
            if v not in seen:
                seen.append(v)
        return seen

    def group_mean(self, by: Sequence[str], field: str) -> Dict[Tuple, float]:
        """Mean of ``field`` grouped by the ``by`` fields (nan-aware)."""
        groups: Dict[Tuple, List[float]] = {}
        for r in self._records:
            v = r.get(field)
            if v is None:
                continue
            groups.setdefault(tuple(r[k] for k in by), []).append(float(v))
        return {k: float(np.mean(v)) for k, v in groups.items()}

    # -- persistence ----------------------------------------------------------

    def canonical_text(self) -> str:
        """The canonical JSON text of the whole set.

        Byte-identical to ``canonical_dumps({"records": [...]})`` over
        materialized records; frame-backed entries splice the frame's
        cached canonical line instead of re-encoding a dict.
        """
        parts: List[str] = []
        for r in self._records:
            if isinstance(r, FrameRow):
                parts.append(r.frame.canonical_lines()[r.index])
            else:
                parts.append(canonical_dumps(r))
        return '{"records":[' + ",".join(parts) + "]}"

    def save(self, path: Union[str, Path]) -> None:
        """Write canonical JSON: key-sorted, non-finite floats sentinel-
        encoded — equal ResultSets produce byte-identical files."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.canonical_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResultSet":
        data = canonical_loads(Path(path).read_text(encoding="utf-8"))
        out = cls()
        for r in data["records"]:
            # Freshly parsed records are owned by this set: adding them
            # without the defensive copy halves load's allocation cost.
            out.add(r, copy=False)
        return out

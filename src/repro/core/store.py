"""Content-addressed, persistent store of design-point results.

The unit of storage is one evaluated design point: the flat record of
one ``(app, configuration, mode, ranks)`` simulation under one code
version.  The key is the SHA-256 of the canonical serialization
(:mod:`repro.core.canon`) of exactly those inputs, so

* equal queries hash to equal keys regardless of dict ordering or the
  process that computed them;
* a model change (new :func:`code_version`: the git revision, unless
  ``REPRO_CODE_VERSION`` overrides it) can never silently serve stale
  results — old entries simply stop matching, and can be audited or
  bulk-invalidated by their recorded provenance.

Entries carry **provenance**: the inputs themselves (auditable without
re-hashing), the code version, creation time, the engine that produced
the record, and the engine's :mod:`repro.obs` counter deltas for the
evaluation that filled them.

Persistence is an append-only JSONL file on the same line log as the
sweep journal (:mod:`repro.core.linelog`): a line that does not decode
(a torn final write) is dropped and counted, reopening repairs a torn
final line so the next write is readable, duplicate keys keep their
first occurrence, and :meth:`ResultStore.invalidate` compacts by the
log's atomic rewrite (temp file, fsync, rename, directory fsync).  The
store itself only decides what a line means.  All operations are
thread-safe — the serve worker pool calls into one shared store.

The store writes **block** lines only (DESIGN §10):
:meth:`ResultStore.put_frame` appends one ``{"__block__": ...}`` JSONL
line carrying a whole :class:`~repro.core.frame.ResultFrame` of records
that share one ``(mode, ranks, code_version)`` identity, plus their
per-record keys and a common provenance.  Per-record keys are computed
from the frame's columns (:func:`store_keys_frame`): each is the
SHA-256 of the canonical JSON (:func:`~repro.core.canon.content_digest`)
of the point's keyed inputs (schema, app, six-axis config, mode, ranks,
code version).  Entries loaded
from a block stay columnar: ``get`` materializes a thin entry dict
whose ``record`` is a lazy ``FrameRow`` view.  Stores written before
the block format hold one scalar entry dict per line; the loader still
reads those, ``get`` serves them and ``invalidate`` compacts them.

Observability: ``store.hit`` / ``store.miss`` / ``store.put`` /
``store.invalidated`` / ``store.corrupt_lines``, plus
``store.block.put`` / ``store.block.records`` / ``store.block.loaded``
for the columnar plane, surfaced by :func:`repro.obs.summarize`.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import threading
import time
from itertools import groupby, repeat
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import get_metrics
from .canon import canonical_dumps
from .frame import ResultFrame, memoizable_fragment, scalar_fragment
from .linelog import LineLog, LineScan

__all__ = ["ResultStore", "code_version", "make_provenance",
           "store_keys_batch", "store_keys_frame",
           "STORE_KEY_SCHEMA", "STORE_BLOCK_KEY", "STORE_BLOCK_SCHEMA"]

#: Version tag of the key schema.  Bump when the keyed-input structure
#: changes so old entries can never alias new keys.
STORE_KEY_SCHEMA = 1


def code_version(root: Optional[Path] = None) -> str:
    """Short git revision of the working tree (or ``unknown``)."""
    env = os.environ.get("REPRO_CODE_VERSION")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root or Path(__file__).resolve().parents[3],
            capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


#: Reserved top-level key marking a columnar block line in the store
#: file (one frame of records + per-record keys + shared provenance).
STORE_BLOCK_KEY = "__block__"

#: Version of the store block layout; readers reject versions they do
#: not understand rather than misparse them.
STORE_BLOCK_SCHEMA = 1

#: The six config axes, in canonical (sorted) key order — the order
#: their fragments appear in a rendered key text.
_AXIS_KEYS_SORTED: Tuple[str, ...] = (
    "cache", "core", "cores", "frequency", "memory", "vector")

#: The text before each axis value in a rendered config object.
_AXIS_HEADS: Tuple[str, ...] = tuple(
    ("{" if j == 0 else ",") + json.dumps(k) + ":"
    for j, k in enumerate(_AXIS_KEYS_SORTED))


def _render_keys(apps: Iterable[str], rows: Iterable[Sequence[Any]],
                 mode: str, ranks: int, code_version: str) -> List[str]:
    """Store key of each ``(app, row)`` pair, by fragment splicing.

    A row holds one value per axis, in :data:`_AXIS_KEYS_SORTED` order.
    Each key text is spliced from memoized fragments (a space reuses a
    handful of labels and numbers) instead of building and canonically
    serializing one dict per point; the splice reproduces
    ``canonical_dumps`` of the keyed-input dict byte-for-byte (sorted
    top-level keys: app, code_version, config, mode, ranks, schema).
    The memo keys on ``(type, value)`` and keeps only what
    :func:`~repro.core.frame.memoizable_fragment` allows: ``4`` and
    ``4.0``, or ``0.0`` and ``-0.0``, hash alike but render differently.
    """
    cv = json.dumps(code_version)
    tail = ('},"mode":' + json.dumps(mode) + ',"ranks":' + str(int(ranks))
            + ',"schema":' + str(STORE_KEY_SCHEMA) + "}")
    heads: Dict[str, str] = {}
    memo: Dict[Tuple[type, Any], str] = {}
    sha = hashlib.sha256
    keys = []
    for app, row in zip(apps, rows):
        head = heads.get(app)
        if head is None:
            head = heads[app] = ('{"app":' + json.dumps(app)
                                 + ',"code_version":' + cv + ',"config":')
        text = [head]
        for axis_head, v in zip(_AXIS_HEADS, row):
            frag = memo.get((type(v), v))
            if frag is None:
                frag = scalar_fragment(v)
                if memoizable_fragment(v):
                    memo[(type(v), v)] = frag
            text.append(axis_head)
            text.append(frag)
        text.append(tail)
        keys.append(sha("".join(text).encode("utf-8")).hexdigest())
    return keys


def store_keys_batch(app: str, configs: Sequence[Mapping[str, Any]],
                     mode: str, ranks: int,
                     code_version: str) -> List[str]:
    """Store keys of one app's config sequence.

    Each config is the six-axis mapping of
    :meth:`repro.config.node.NodeConfig.axis_values`; its key is the
    content digest of ``{"schema": STORE_KEY_SCHEMA, "app": app,
    "config": config, "mode": mode, "ranks": ranks, "code_version":
    code_version}``.
    """
    rows = ([cfg[k] for k in _AXIS_KEYS_SORTED] for cfg in configs)
    return _render_keys(repeat(app), rows, mode, ranks, code_version)


def store_keys_frame(frame: ResultFrame, mode: str, ranks: int,
                     code_version: str) -> List[str]:
    """Per-row store keys of a result frame, from its columns.

    The frame's config columns carry exactly the values
    ``NodeConfig.axis_values()`` reports (labels and axis scalars), so
    the keys are bit-identical to :func:`store_keys_batch` over the same
    points — pinned by the store tests.
    """
    cols = [frame.column(k).tolist() for k in _AXIS_KEYS_SORTED]
    return _render_keys(frame.column("app").tolist(), zip(*cols), mode,
                        ranks, code_version)


class _Block:
    """One loaded/written store block: a frame plus shared identity.

    Entries materialize lazily per row — a thin dict whose ``record``
    is a :class:`~repro.core.frame.FrameRow` view, so serving a warm
    query never rebuilds record dicts.
    """

    __slots__ = ("frame", "keys", "mode", "ranks", "code_version",
                 "provenance")

    def __init__(self, frame: ResultFrame, keys: Sequence[str], mode: str,
                 ranks: int, code_version: str, provenance: Dict) -> None:
        self.frame = frame
        self.keys = list(keys)
        self.mode = mode
        self.ranks = ranks
        self.code_version = code_version
        self.provenance = provenance

    def entry(self, i: int) -> Dict:
        row = self.frame.row(i)
        inputs = {"app": row["app"],
                  "config": {k: row[k] for k in
                             ("core", "cache", "memory", "frequency",
                              "vector", "cores")},
                  "mode": self.mode, "ranks": self.ranks,
                  "code_version": self.code_version}
        return {"key": self.keys[i], "inputs": inputs, "record": row,
                "provenance": self.provenance}

    def payload(self, rows: Optional[Sequence[int]] = None) -> Dict:
        """The block-line payload covering ``rows`` (default: all)."""
        if rows is None or len(rows) == len(self.keys):
            frame, keys = self.frame, self.keys
        else:
            frame = self.frame.select(rows)
            keys = [self.keys[i] for i in rows]
        return {STORE_BLOCK_KEY: {
            "schema": STORE_BLOCK_SCHEMA,
            "mode": self.mode, "ranks": self.ranks,
            "code_version": self.code_version,
            "keys": keys, "provenance": self.provenance,
            "frame": frame.to_block_payload(),
        }}


#: Internal entry slot: a materialized entry dict (scalar line) or a
#: ``(block, row)`` reference into a columnar block.
_Slot = Union[Dict, Tuple[_Block, int]]


class ResultStore:
    """Persistent ``key -> entry`` map, content-addressed and audited.

    An entry is a plain dict::

        {
          "key": <sha256 hex>,
          "inputs": {"app", "config": {...}, "mode", "ranks",
                     "code_version"},
          "record": {<flat ResultSet record>},
          "provenance": {"engine", "created_s", "obs": {counter: delta}},
        }

    ``get`` counts hits/misses; ``put_frame`` appends a block (first
    occurrence wins, consistent with the journal); ``invalidate``
    removes matching entries and compacts the file atomically.
    """

    def __init__(self, path: Union[str, Path], fsync_every: int = 1) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: Dict[str, _Slot] = {}
        self._load()
        self._log = LineLog(self.path, fsync_every)

    # -- loading --------------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        obs = get_metrics()
        duplicates = blocks = 0
        lines = LineScan(self.path)
        for _, entry in lines:
            try:
                if isinstance(entry, dict) and STORE_BLOCK_KEY in entry:
                    block = self._decode_block(entry[STORE_BLOCK_KEY])
                    blocks += 1
                    for j, key in enumerate(block.keys):
                        if key in self._entries:
                            duplicates += 1
                            continue
                        self._entries[key] = (block, j)
                    continue
                key = entry["key"]
            except (ValueError, KeyError, TypeError):
                lines.corrupt += 1
                continue
            if key in self._entries:
                duplicates += 1
                continue
            self._entries[key] = entry
        if lines.corrupt:
            obs.inc("store.corrupt_lines", lines.corrupt)
        if duplicates:
            obs.inc("store.duplicates_dropped", duplicates)
        if blocks:
            obs.inc("store.block.loaded", blocks)
        obs.inc("store.entries_loaded", len(self._entries))

    @staticmethod
    def _decode_block(b: Dict) -> _Block:
        if b.get("schema") != STORE_BLOCK_SCHEMA:
            raise ValueError(
                f"unsupported store block schema: {b.get('schema')!r}")
        frame = ResultFrame.from_block_payload(b["frame"])
        keys = list(b["keys"])
        if len(keys) != len(frame):
            raise ValueError(
                f"store block: {len(keys)} keys != {len(frame)} rows")
        return _Block(frame, keys, b["mode"], int(b["ranks"]),
                      b["code_version"], b["provenance"])

    @staticmethod
    def _materialize(slot: _Slot) -> Dict:
        if type(slot) is tuple:
            block, j = slot
            return block.entry(j)
        return slot

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def entries(self) -> List[Dict]:
        """Snapshot of every entry (insertion order)."""
        with self._lock:
            return [self._materialize(s) for s in self._entries.values()]

    def get(self, key: str) -> Optional[Dict]:
        """The stored entry for ``key``, counting the hit or miss.

        Block-backed entries materialize a thin dict whose ``record``
        is a lazy ``FrameRow`` view of the stored frame.
        """
        with self._lock:
            slot = self._entries.get(key)
        get_metrics().inc("store.hit" if slot is not None else "store.miss")
        return None if slot is None else self._materialize(slot)

    def put_frame(self, frame: ResultFrame, mode: str, ranks: int,
                  code_version: str, provenance: Dict) -> List[str]:
        """Store every row of a frame as one columnar block line.

        Keys are computed vectorized from the frame's columns
        (as :func:`store_keys_batch` renders them); rows whose key is
        already present are skipped: the first occurrence wins, and
        content addressing makes a repeat byte-equivalent anyway.  One
        line, one write, at most one fsync — this is the store's only
        write path.  Returns the per-row keys for *all* rows, stored or
        pre-existing.
        """
        keys = store_keys_frame(frame, mode, ranks, code_version)
        with self._lock:
            fresh = [i for i, k in enumerate(keys)
                     if k not in self._entries]
            if not fresh:
                return keys
            block = _Block(
                frame if len(fresh) == len(keys) else frame.select(fresh),
                [keys[i] for i in fresh], mode, int(ranks), code_version,
                provenance)
            for j, k in enumerate(block.keys):
                self._entries[k] = (block, j)
            self._log.write(canonical_dumps(block.payload()),
                            n=len(block.keys))
        obs = get_metrics()
        obs.inc("store.put", len(fresh))
        obs.inc("store.block.put")
        obs.inc("store.block.records", len(fresh))
        return keys

    # -- invalidation ---------------------------------------------------------

    def invalidate(
        self,
        predicate: Optional[Callable[[Dict], bool]] = None,
        **input_equals: Any,
    ) -> int:
        """Remove entries whose ``inputs`` match and compact the file.

        Selection: every ``input_equals`` field must equal the entry's
        corresponding ``inputs`` field (``code_version=...``,
        ``app=...``, ``mode=...``), and ``predicate(entry)``, when
        given, must hold.  With neither, *everything* is invalidated.
        Returns the number of entries removed (counted under
        ``store.invalidated``).
        """
        def matches(entry: Dict) -> bool:
            inputs = entry.get("inputs", {})
            if any(inputs.get(k) != v for k, v in input_equals.items()):
                return False
            return predicate(entry) if predicate is not None else True

        with self._lock:
            keep = {k: s for k, s in self._entries.items()
                    if not matches(self._materialize(s))}
            removed = len(self._entries) - len(keep)
            if removed:
                self._entries = keep
                self._log.rewrite(self._lines_locked())
        if removed:
            get_metrics().inc("store.invalidated", removed)
        return removed

    def invalidate_stale(self, current_code_version: str) -> int:
        """Drop every entry produced by a different code version."""
        return self.invalidate(
            lambda e: e.get("inputs", {}).get("code_version")
            != current_code_version)

    def _lines_locked(self) -> Iterator[str]:
        """The store's content as log lines, streamed for compaction:
        one line per scalar entry and one (row-subset) block line per
        run of a block's surviving rows, so memory stays bounded by
        one block."""
        for block, slots in groupby(
                self._entries.values(),
                key=lambda s: s[0] if type(s) is tuple else None):
            if block is None:
                yield from (canonical_dumps(entry) for entry in slots)
            else:
                yield canonical_dumps(block.payload([j for _, j in slots]))

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            self._log.flush()

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_provenance(engine: str, obs_delta: Dict[str, float]) -> Dict:
    """Provenance block for a freshly evaluated entry."""
    return {
        "engine": engine,
        "created_s": time.time(),
        "obs": dict(obs_delta),
    }

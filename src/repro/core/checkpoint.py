"""Append-only sweep journal: crash-safe record of completed work.

A full campaign is 4,320 simulations; interrupting one (timeout,
preemption, crash) should not discard completed work.  The sweep engine
appends each finished record to a JSONL journal as it completes and, on
resume, skips every (app, configuration) pair already present — the
same amortization discipline MUSA applies to its traces.

Journal format: one JSON object per line.

* **result records** — flat :class:`~repro.core.results.ResultSet`
  dicts, exactly what ``RunResult.record()`` produces;
* **failure stubs** — result-shaped dicts with ``"failed": true`` plus
  ``"error"``/``"attempts"``; these are *not* treated as done on
  resume, so a later run retries them;
* **block lines** — ``{"__frame__": {...}}`` columnar
  :class:`~repro.core.frame.ResultFrame` payloads covering N records in
  one line (DESIGN §10); replay expands them through the exact same
  dedup rules as N scalar lines, so a journal written by the columnar
  path resumes byte-for-byte like its per-record equivalent;
* a truncated final line (the torn-write crash case) is tolerated and
  dropped.

Duplicate keys keep their first occurrence; every dropped duplicate is
counted (``checkpoint.duplicates_dropped``) and logged through
:mod:`repro.obs` so silent journal corruption is visible.

Sharded campaigns add two pieces on top of this format:

* **meta lines** — ``{"__meta__": {...}}`` provenance headers (shard
  index, shard count) appended by ``repro sweep --shard K/N``; replay
  collects them but they never affect resume decisions, so a journal
  with meta lines resumes identically to one without;
* :func:`merge_journal` — unions K partial journals into one, first
  occurrence per task key winning, records written in canonical
  task-key order.  Resuming from the merged journal is byte-identical
  to resuming from a single-process journal of the same campaign.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..obs import inc as obs_inc
from ..obs import warn as obs_warn
from .canon import canonical_dumps, canonical_loads
from .frame import BLOCK_KEY, ResultFrame
from .results import CONFIG_KEYS, ResultSet

__all__ = [
    "Journal",
    "JournalReplay",
    "META_KEY",
    "merge_journal",
    "replay_journal",
    "task_key",
]

#: Field marking a journal line as shard/provenance metadata rather
#: than a task record.
META_KEY = "__meta__"


def task_key(record: Dict) -> Tuple:
    """The (app, axis...) identity of one design point."""
    return tuple(record[k] for k in CONFIG_KEYS)


class Journal:
    """Append-only JSONL writer with a bounded-loss fsync policy.

    ``fsync_every=1`` (the default) makes every record durable before
    the next task starts; larger values trade at most that many records
    of loss for fewer synchronous flushes on large campaigns.
    """

    def __init__(self, path: Union[str, Path], fsync_every: int = 1) -> None:
        if fsync_every <= 0:
            raise ValueError("fsync_every must be positive")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        self._since_sync = 0

    def append(self, record: Dict) -> None:
        # Canonical serialization: valid interchange JSON even for
        # non-finite floats (sentinel-encoded, never bare NaN tokens),
        # key-sorted so identical records are byte-identical lines.
        self.append_rendered(canonical_dumps(record))

    def append_rendered(self, line: str, n: int = 1) -> None:
        """Append a pre-rendered canonical JSON line covering ``n``
        records (no trailing newline in ``line``)."""
        self._fh.write(line + "\n")
        self._since_sync += n
        if self._since_sync >= self.fsync_every:
            self.flush()

    def append_frame(self, frame: ResultFrame) -> None:
        """Append one columnar block line covering ``len(frame)``
        records.

        The block counts as its record count toward the fsync budget,
        so ``fsync_every`` keeps its bounded-loss meaning; one block is
        still one write + at most one fsync, which is where the
        columnar journal path earns its throughput.
        """
        if len(frame):
            self.append_rendered(frame.to_block_line(), n=len(frame))

    def append_meta(self, meta: Dict) -> None:
        """Append a provenance header (shard identity etc.).

        Meta lines are collected by :func:`replay_journal` but ignored
        by resume logic, so they may appear anywhere in the file.
        """
        self.append({META_KEY: dict(meta)})

    def flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._since_sync = 0

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class JournalReplay:
    """Everything a resuming sweep needs to know about a journal."""

    results: ResultSet = field(default_factory=ResultSet)
    done: Set[Tuple] = field(default_factory=set)
    failed: List[Dict] = field(default_factory=list)
    duplicates: int = 0
    corrupt_lines: int = 0
    meta: List[Dict] = field(default_factory=list)


def _frame_task_keys(frame: ResultFrame) -> List[Tuple]:
    """Per-row task keys from a block frame's columns.

    Raises ``KeyError`` when a config key column is missing, which the
    callers treat as a corrupt block line.
    """
    cols = [frame.column(k).tolist() for k in CONFIG_KEYS]
    return list(zip(*cols))


def _frame_failed_flags(frame: ResultFrame) -> Optional[List[bool]]:
    if "failed" not in frame.keys:
        return None
    return [bool(v) for v in frame.column("failed").tolist()]


def replay_journal(path: Union[str, Path]) -> JournalReplay:
    """Replay a (possibly partial) journal.

    Successful records land in ``results``/``done``; failure stubs are
    collected separately so the caller can retry them; duplicates keep
    their first occurrence and are counted, as are undecodable lines.

    Failure stubs are deduplicated by task key across the whole journal
    (a task that fails on N resumed runs appends N stubs); the *latest*
    stub wins, so ``attempts`` reflects the most recent run.  A stub for
    a task that later succeeded is dropped entirely.
    """
    out = JournalReplay()
    p = Path(path)
    if not p.exists():
        return out
    stubs: Dict[Tuple, Dict] = {}
    with p.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = canonical_loads(line)
            except (json.JSONDecodeError, ValueError):
                out.corrupt_lines += 1  # truncated tail of a crashed run
                continue
            if not isinstance(record, dict):
                out.corrupt_lines += 1
                continue
            if META_KEY in record:
                out.meta.append(record[META_KEY])
                continue
            if BLOCK_KEY in record:
                # Columnar block line: expand rows through the exact
                # same dedup rules as N scalar lines (first success
                # wins, latest stub wins, stubs dropped on success).
                try:
                    frame = ResultFrame.from_block_payload(record[BLOCK_KEY])
                    keys = _frame_task_keys(frame)
                except (KeyError, ValueError, TypeError):
                    out.corrupt_lines += 1
                    continue
                failed = _frame_failed_flags(frame)
                for i, key in enumerate(keys):
                    if key in out.done:
                        out.duplicates += 1
                        continue
                    if failed is not None and failed[i]:
                        stubs[key] = frame.row(i).to_dict()
                        continue
                    out.done.add(key)
                    out.results._add_keyed(key, frame.row(i))
                    stubs.pop(key, None)
                continue
            try:
                key = task_key(record)
            except KeyError:
                out.corrupt_lines += 1  # record missing config keys
                continue
            if key in out.done:
                out.duplicates += 1
                continue
            if record.get("failed"):
                stubs[key] = record  # latest stub wins
                continue
            out.done.add(key)
            out.results.add(record, copy=False)  # freshly parsed: owned
            stubs.pop(key, None)  # the task eventually succeeded
    out.failed.extend(stubs.values())
    if out.duplicates:
        obs_inc("checkpoint.duplicates_dropped", out.duplicates)
        obs_warn(
            "journal %s: dropped %d duplicate record(s), keeping first "
            "occurrences", p, out.duplicates)
    if out.corrupt_lines:
        obs_inc("checkpoint.corrupt_lines", out.corrupt_lines)
    obs_inc("checkpoint.records_loaded", len(out.results))
    return out


#: Merge pass-1 line reference: (path index, byte offset, row).
#: ``row == -1`` marks a scalar line; ``row >= 0`` indexes into a
#: columnar block line.
_LineRef = Tuple[int, int, int]


def _scan_journal(
    pi: int, p: Path,
) -> Tuple[Dict[Tuple, _LineRef], Dict[Tuple, _LineRef], int, int, List[Dict]]:
    """Streaming single-journal replay recording line references.

    Mirrors :func:`replay_journal`'s dedup/tolerance rules exactly but
    keeps only ``(path, offset, row)`` per surviving key, so merge's
    peak memory is bounded by the key index, not the record payloads.
    Returns ``(results, stubs, duplicates, corrupt_lines, meta)``.
    """
    results: Dict[Tuple, _LineRef] = {}
    stubs: Dict[Tuple, _LineRef] = {}
    done: Set[Tuple] = set()
    duplicates = corrupt = 0
    meta: List[Dict] = []
    if not p.exists():
        return results, stubs, duplicates, corrupt, meta
    with p.open("rb") as fh:
        offset = 0
        for raw in fh:
            line_off = offset
            offset += len(raw)
            line = raw.strip()
            if not line:
                continue
            try:
                record = canonical_loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError, ValueError):
                corrupt += 1
                continue
            if not isinstance(record, dict):
                corrupt += 1
                continue
            if META_KEY in record:
                meta.append(record[META_KEY])
                continue
            if BLOCK_KEY in record:
                try:
                    frame = ResultFrame.from_block_payload(record[BLOCK_KEY])
                    keys = _frame_task_keys(frame)
                except (KeyError, ValueError, TypeError):
                    corrupt += 1
                    continue
                failed = _frame_failed_flags(frame)
                for i, key in enumerate(keys):
                    if key in done:
                        duplicates += 1
                        continue
                    if failed is not None and failed[i]:
                        stubs[key] = (pi, line_off, i)
                        continue
                    done.add(key)
                    results[key] = (pi, line_off, i)
                    stubs.pop(key, None)
                continue
            try:
                key = task_key(record)
            except KeyError:
                corrupt += 1
                continue
            if key in done:
                duplicates += 1
                continue
            if record.get("failed"):
                stubs[key] = (pi, line_off, -1)
                continue
            done.add(key)
            results[key] = (pi, line_off, -1)
            stubs.pop(key, None)
    return results, stubs, duplicates, corrupt, meta


class _LineFetcher:
    """Random access to journal lines by byte offset (merge pass 2),
    with a small LRU of decoded block frames so a block is not
    re-parsed once per row."""

    def __init__(self, paths: Sequence[Path], cache_blocks: int = 16) -> None:
        self._paths = list(paths)
        self._handles: Dict[int, BinaryIO] = {}
        self._blocks: "OrderedDict[Tuple[int, int], ResultFrame]" = OrderedDict()
        self._cache_blocks = cache_blocks

    def _line(self, pi: int, offset: int) -> str:
        fh = self._handles.get(pi)
        if fh is None:
            fh = self._paths[pi].open("rb")
            self._handles[pi] = fh
        fh.seek(offset)
        return fh.readline().decode("utf-8").strip()

    def _frame(self, pi: int, offset: int) -> ResultFrame:
        key = (pi, offset)
        frame = self._blocks.get(key)
        if frame is not None:
            self._blocks.move_to_end(key)
            return frame
        payload = canonical_loads(self._line(pi, offset))
        frame = ResultFrame.from_block_payload(payload[BLOCK_KEY])
        self._blocks[key] = frame
        while len(self._blocks) > self._cache_blocks:
            self._blocks.popitem(last=False)
        return frame

    def canonical_line(self, ref: _LineRef) -> str:
        """The referenced record's canonical JSON line, byte-exact."""
        pi, offset, row = ref
        if row < 0:
            # Scalar lines may predate canonical form; re-render like
            # Journal.append always has.
            return canonical_dumps(canonical_loads(self._line(pi, offset)))
        return self._frame(pi, offset).canonical_lines()[row]

    def record(self, ref: _LineRef) -> Mapping[str, Any]:
        pi, offset, row = ref
        if row < 0:
            return canonical_loads(self._line(pi, offset))
        return self._frame(pi, offset).row(row)

    def close(self) -> None:
        for fh in self._handles.values():
            fh.close()
        self._handles.clear()


def merge_journal(
    paths: Sequence[Union[str, Path]],
    out_path: Union[str, Path],
    fsync_every: int = 64,
    collect: bool = True,
) -> JournalReplay:
    """Union K partial journals into one canonical resume journal.

    Each input is replayed with the usual tolerance (torn tails,
    duplicates, meta lines, columnar block lines); across inputs the
    **first occurrence** of a task key wins, consistent with
    single-journal dedup.  A failure stub survives only if no input
    holds a success for the same key (the latest stub wins, mirroring
    :func:`replay_journal`).  Output records are written sorted by task
    key as per-record canonical lines, so merging the same shard set in
    any path order — and any mix of block/scalar inputs — produces a
    byte-identical file, and resuming from it is byte-identical to
    resuming a single-process journal.

    The merge streams: pass 1 scans each input line-at-a-time keeping
    only ``(path, offset, row)`` references per surviving key; pass 2
    re-reads just the winning lines in key order.  Peak memory is
    bounded by the key index plus one cached block, independent of
    record payload size.

    Returns the replay of the merged content (results + surviving
    stubs); counts land under ``checkpoint.merged_*``.  With
    ``collect=False`` the returned replay carries ``done`` keys and
    counts but leaves ``results``/``failed`` empty, keeping the merge
    itself O(keys) in memory for very large campaigns.
    """
    if not paths:
        raise ValueError("merge_journal needs at least one input journal")
    path_objs = [Path(p) for p in paths]
    records: Dict[Tuple, _LineRef] = {}
    stubs: Dict[Tuple, _LineRef] = {}
    merged = JournalReplay()
    for pi, p in enumerate(path_objs):
        res_j, stubs_j, dups, corrupt, meta = _scan_journal(pi, p)
        merged.duplicates += dups
        merged.corrupt_lines += corrupt
        merged.meta.extend(meta)
        for key, ref in res_j.items():
            records.setdefault(key, ref)  # first occurrence wins
        for key, ref in stubs_j.items():
            stubs[key] = ref  # latest stub wins
    for key in records:
        stubs.pop(key, None)  # a shard eventually succeeded

    fetch = _LineFetcher(path_objs)
    try:
        out = Path(out_path)
        tmp = out.with_suffix(out.suffix + ".tmp")
        with Journal(tmp, fsync_every=fsync_every) as journal:
            for key in sorted(records):
                journal.append_rendered(fetch.canonical_line(records[key]))
            for key in sorted(stubs):
                journal.append_rendered(fetch.canonical_line(stubs[key]))
        os.replace(tmp, out)

        merged.done.update(records)
        if collect:
            for key in sorted(records):
                merged.results._add_keyed(key, fetch.record(records[key]))
            merged.failed.extend(
                dict(fetch.record(stubs[key])) for key in sorted(stubs))
    finally:
        fetch.close()
    if merged.duplicates:
        obs_inc("checkpoint.duplicates_dropped", merged.duplicates)
        obs_warn(
            "merge: dropped %d duplicate record(s), keeping first "
            "occurrences", merged.duplicates)
    if merged.corrupt_lines:
        obs_inc("checkpoint.corrupt_lines", merged.corrupt_lines)
    obs_inc("checkpoint.merged_journals", len(paths))
    obs_inc("checkpoint.merged_records", len(records))
    return merged

"""Append-only sweep journal: crash-safe record of completed work.

A full campaign is 4,320 simulations; interrupting one (timeout,
preemption, crash) should not discard completed work.  The sweep engine
appends each finished record to a JSONL journal as it completes and, on
resume, skips every (app, configuration) pair already present — the
same amortization discipline MUSA applies to its traces.

The journal is a format layer over :mod:`repro.core.linelog`, which
owns the file: the ``fsync_every`` budget, the line scan, and the
repair of a torn final line on reopen, so the first record appended
after a crash is readable.

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
* a line that does not decode (a torn final write) is dropped and
  counted.

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
  task-key order by one atomic rewrite.  Resuming from the merged
  journal is byte-identical to resuming from a single-process journal
  of the same campaign.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

from ..obs import inc as obs_inc
from ..obs import warn as obs_warn
from .canon import canonical_dumps
from .frame import BLOCK_KEY, ResultFrame
from .linelog import LineLog, LineReader, LineScan, rewrite
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


class Journal(LineLog):
    """Append-only JSONL journal writer (``fsync_every`` as in
    :class:`~repro.core.linelog.LineLog`)."""

    def append(self, record: Dict) -> None:
        # Canonical serialization: valid interchange JSON even for
        # non-finite floats (sentinel-encoded, never bare NaN tokens),
        # key-sorted so identical records are byte-identical lines.
        self.write(canonical_dumps(record))

    def append_frame(self, frame: ResultFrame) -> None:
        """Append one columnar block line covering ``len(frame)``
        records.

        The block counts as its record count toward the fsync budget,
        so ``fsync_every`` keeps its bounded-loss meaning; one block is
        still one write + at most one fsync, which is where the
        columnar journal path earns its throughput.
        """
        if len(frame):
            self.write(frame.to_block_line(), n=len(frame))

    def append_meta(self, meta: Dict) -> None:
        """Append a provenance header (shard identity etc.).

        Meta lines are collected by :func:`replay_journal` but ignored
        by resume logic, so they may appear anywhere in the file.
        """
        self.append({META_KEY: dict(meta)})


@dataclass
class JournalReplay:
    """Everything a resuming sweep needs to know about a journal."""

    results: ResultSet = field(default_factory=ResultSet)
    failed: List[Dict] = field(default_factory=list)
    duplicates: int = 0
    corrupt_lines: int = 0
    meta: List[Dict] = field(default_factory=list)


def _frame_task_keys(frame: ResultFrame) -> List[Tuple]:
    """Per-row task keys from a block frame's columns.

    Raises ``KeyError`` when a config key column is missing, which the
    caller treats as a corrupt block line.
    """
    cols = [frame.column(k).tolist() for k in CONFIG_KEYS]
    return list(zip(*cols))


def _frame_failed_flags(frame: ResultFrame) -> List[bool]:
    if "failed" not in frame.keys:
        return [False] * len(frame)
    return [bool(v) for v in frame.column("failed").tolist()]


def _scan_journal(path: Path, keep: Callable[[int, int, Any], Any],
                  out: JournalReplay
                  ) -> Tuple[Dict[Tuple, Any], Dict[Tuple, Any]]:
    """The journal's dedup rules, in one pass over one file.

    First success per task key wins, the latest failure stub wins, and
    a stub is dropped once its task succeeds; block rows follow the
    same rules as scalar lines.  Returns ``(results, stubs)`` mapping
    each surviving key, in first-seen order, to ``keep(offset, row,
    source)``: the line's byte offset, the block row (``-1`` for a
    scalar line), and the record dict or block frame.  Duplicates,
    corrupt lines and meta accumulate into ``out``.
    """
    results: Dict[Tuple, Any] = {}
    stubs: Dict[Tuple, Any] = {}
    lines = LineScan(path)
    for offset, record in lines:
        if not isinstance(record, dict):
            lines.corrupt += 1
            continue
        if META_KEY in record:
            out.meta.append(record[META_KEY])
            continue
        try:
            if BLOCK_KEY in record:
                source: Any = ResultFrame.from_block_payload(record[BLOCK_KEY])
                keys = _frame_task_keys(source)
                failed = _frame_failed_flags(source)
                rows = range(len(keys))
            else:
                source, keys = record, [task_key(record)]
                failed, rows = [bool(record.get("failed"))], (-1,)
        except (KeyError, ValueError, TypeError):
            lines.corrupt += 1  # block or record missing config keys
            continue
        for key, stub, row in zip(keys, failed, rows):
            if key in results:
                out.duplicates += 1
            elif stub:
                stubs[key] = keep(offset, row, source)
            else:
                results[key] = keep(offset, row, source)
                stubs.pop(key, None)  # the task eventually succeeded
    out.corrupt_lines += lines.corrupt
    return results, stubs


def _keep_record(offset: int, row: int, source: Any) -> Mapping[str, Any]:
    return source if row < 0 else source.row(row)


def _count_drops(out: JournalReplay, what: Any) -> None:
    if out.duplicates:
        obs_inc("checkpoint.duplicates_dropped", out.duplicates)
        obs_warn("%s: dropped %d duplicate record(s), keeping first "
                 "occurrences", what, out.duplicates)
    if out.corrupt_lines:
        obs_inc("checkpoint.corrupt_lines", out.corrupt_lines)


def replay_journal(path: Union[str, Path]) -> JournalReplay:
    """Replay a (possibly partial) journal in one pass.

    Successful records land in ``results``; failure stubs are
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
    results, stubs = _scan_journal(p, _keep_record, out)
    for key, record in results.items():
        out.results._add_keyed(key, record)
    out.failed.extend(s if type(s) is dict else s.to_dict()
                      for s in stubs.values())
    _count_drops(out, f"journal {p}")
    obs_inc("checkpoint.records_loaded", len(out.results))
    return out


#: Merge pass-1 line reference: (path index, byte offset, row).
#: ``row == -1`` marks a scalar line; ``row >= 0`` indexes into a
#: columnar block line.
_LineRef = Tuple[int, int, int]


class _LineFetcher:
    """Random access to journal lines by byte offset (merge pass 2),
    with a small LRU of decoded block frames so a block is not
    re-parsed once per row."""

    def __init__(self, paths: Sequence[Path], cache_blocks: int = 16) -> None:
        self._readers = [LineReader(p) for p in paths]
        self._blocks: "OrderedDict[Tuple[int, int], ResultFrame]" = OrderedDict()
        self._cache_blocks = cache_blocks

    def _frame(self, pi: int, offset: int) -> ResultFrame:
        key = (pi, offset)
        frame = self._blocks.get(key)
        if frame is not None:
            self._blocks.move_to_end(key)
            return frame
        payload = self._readers[pi].read(offset)
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
            return canonical_dumps(self._readers[pi].read(offset))
        return self._frame(pi, offset).canonical_lines()[row]

    def record(self, ref: _LineRef) -> Mapping[str, Any]:
        pi, offset, row = ref
        if row < 0:
            return self._readers[pi].read(offset)
        return self._frame(pi, offset).row(row)

    def close(self) -> None:
        for reader in self._readers:
            reader.close()


def merge_journal(
    paths: Sequence[Union[str, Path]],
    out_path: Union[str, Path],
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

    The merge streams: pass 1 keeps only ``(path, offset, row)`` per
    surviving key; pass 2 re-reads the winning lines in key order into
    one atomic rewrite of ``out_path``.  Peak memory is the key index
    plus a few cached blocks, independent of record payload size.

    Returns the replay of the merged content (results + surviving
    stubs); counts land under ``checkpoint.merged_*``.  With
    ``collect=False`` the returned replay carries only the counts
    (``duplicates``, ``corrupt_lines``, ``meta``) and leaves
    ``results``/``failed`` empty, keeping the merge itself O(keys) in
    memory for very large campaigns.
    """
    if not paths:
        raise ValueError("merge_journal needs at least one input journal")
    path_objs = [Path(p) for p in paths]
    records: Dict[Tuple, _LineRef] = {}
    stubs: Dict[Tuple, _LineRef] = {}
    merged = JournalReplay()
    for pi, p in enumerate(path_objs):
        res_j, stubs_j = _scan_journal(
            p, lambda offset, row, _, pi=pi: (pi, offset, row), merged)
        for key, ref in res_j.items():
            records.setdefault(key, ref)  # first occurrence wins
        stubs.update(stubs_j)  # latest stub wins
    for key in records:
        stubs.pop(key, None)  # a shard eventually succeeded

    fetch = _LineFetcher(path_objs)
    try:
        rewrite(out_path, (fetch.canonical_line(refs[key])
                           for refs in (records, stubs)
                           for key in sorted(refs)))
        if collect:
            for key in sorted(records):
                merged.results._add_keyed(key, fetch.record(records[key]))
            merged.failed.extend(
                dict(fetch.record(stubs[key])) for key in sorted(stubs))
    finally:
        fetch.close()
    _count_drops(merged, "merge")
    obs_inc("checkpoint.merged_journals", len(paths))
    obs_inc("checkpoint.merged_records", len(records))
    return merged

"""Append-only line log: the one file layer under the sweep journal
(:mod:`repro.core.checkpoint`) and the result store
(:mod:`repro.core.store`), which only decide what a line means.

A log is a file of newline-terminated UTF-8 lines, one JSON value each.
:class:`LineLog` appends under a bounded-loss fsync budget and, on
open, repairs a torn final line (one a crashed writer left without its
newline): a tail that decodes gets its newline, any other tail is cut
off, so the next append starts a line of its own.  Repairs count as
``linelog.tail_repaired``; they assume one writer per file.
:class:`LineScan` reads a log in one pass as ``(byte offset, value)``
pairs, :class:`LineReader` re-reads a line by offset, and
:func:`rewrite` replaces a file atomically (truncated temp file, fsync,
rename, directory fsync): a crash leaves the old file or the new one.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Optional, Tuple, Union

from ..obs import inc as obs_inc
from .canon import canonical_loads

__all__ = ["LineLog", "LineReader", "LineScan", "rewrite"]

PathLike = Union[str, Path]


def _decode(raw: bytes) -> Any:
    """The JSON value of one line; ``ValueError`` when there is none."""
    return canonical_loads(raw.decode("utf-8"))


def _repair_tail(path: Path) -> None:
    """Terminate or cut off a torn final line, if there is one."""
    if not path.exists():
        return
    with path.open("r+b") as fh:
        start = end = fh.seek(0, os.SEEK_END)
        while start > 0:  # back up to the byte after the last newline
            step = min(start, 1 << 16)
            fh.seek(start - step)
            nl = fh.read(step).rfind(b"\n")
            start -= step
            if nl >= 0:
                start += nl + 1
                break
        if start == end:
            return  # empty, or the last line is whole
        fh.seek(start)
        try:
            _decode(fh.read())
            fh.write(b"\n")
        except ValueError:
            fh.truncate(start)
    obs_inc("linelog.tail_repaired")


class LineLog:
    """Append handle on one log file.  ``fsync_every=1`` (the default)
    makes every record durable before the next is written; larger
    values trade at most that many records of loss (a line may carry
    several) for fewer synchronous flushes."""

    def __init__(self, path: PathLike, fsync_every: int = 1) -> None:
        if fsync_every <= 0:
            raise ValueError("fsync_every must be positive")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _repair_tail(self.path)
        self._fh = self.path.open("a", encoding="utf-8")
        self._since_sync = 0

    def write(self, line: str, n: int = 1) -> None:
        """Append one line (given without its newline) that counts as
        ``n`` records toward the fsync budget."""
        self._fh.write(line + "\n")
        self._since_sync += n
        if self._since_sync >= self.fsync_every:
            self.flush()

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._since_sync = 0

    def rewrite(self, lines: Iterable[str]) -> None:
        """Atomically replace the log's content with ``lines`` and keep
        appending to the new file."""
        rewrite(self.path, lines)
        self._fh.close()
        self._fh = self.path.open("a", encoding="utf-8")
        self._since_sync = 0

    def close(self) -> None:
        self.flush()
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class LineScan:
    """One pass over a log as ``(byte offset, value)`` pairs; a missing
    file reads as empty.  ``corrupt`` counts undecodable lines, and
    format layers add the lines they reject."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.corrupt = 0

    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        if not self.path.exists():
            return
        with self.path.open("rb") as fh:
            offset = 0
            for raw in fh:
                start, offset = offset, offset + len(raw)
                if raw.isspace():
                    continue
                try:
                    value = _decode(raw)
                except ValueError:
                    self.corrupt += 1  # torn tail of a crashed writer
                    continue
                yield start, value


class LineReader:
    """Random access to one log's lines by scan offset."""

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._fh: Optional[BinaryIO] = None

    def read(self, offset: int) -> Any:
        if self._fh is None:
            self._fh = self.path.open("rb")
        self._fh.seek(offset)
        return _decode(self._fh.readline())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def rewrite(path: PathLike, lines: Iterable[str]) -> None:
    """Atomically replace ``path`` with ``lines`` (each given without
    its newline), streaming them through a truncated temp file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

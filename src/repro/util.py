"""Small shared utilities with no domain dependencies.

Kept import-light (stdlib + :mod:`repro.obs` only) so every layer —
trace models, the runtime scheduler, the MUSA facade — can use it
without cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional

__all__ = ["LruDict"]

#: Lazily-resolved :func:`repro.obs.get_metrics`.  The import runs once
#: per process (on the first eviction) instead of once per evicted
#: entry: even a cached ``import`` statement is an import-machinery
#: round-trip (sys.modules lookup, lock, attribute fetch), which used
#: to sit inside the per-entry eviction loop of a hot memo path.
_get_metrics: Optional[Callable] = None


def _metrics():
    global _get_metrics
    if _get_metrics is None:
        # Deferred: repro.obs imports nothing from this module, but
        # keeping util importable before obs avoids any cycle.
        from .obs import get_metrics
        _get_metrics = get_metrics
    return _get_metrics()


def _nbytes(value) -> int:
    """A value's size for a byte budget: ``nbytes``, else ``len()``."""
    size = getattr(value, "nbytes", None)
    return len(value) if size is None else int(size)


class LruDict(OrderedDict):
    """A memo dict bounded to ``maxsize`` entries, ``max_bytes`` bytes,
    or both.

    Reads refresh recency; an insert past a bound evicts
    least-recently-used entries until it holds, and counts them under
    the obs counter named by ``eviction_counter`` (a name listed in
    :mod:`repro.obs.catalog`).  Quacks like the plain dicts it replaces
    (``in`` / ``[]`` / ``[]=`` / ``.get`` / ``clear``), so callers that
    receive the cache as an argument need no changes.

    Unlike a wipe-at-capacity cache, eviction is per-entry: the hot
    working set stays resident and cold entries (and whatever their
    values pin — e.g. phase objects held to guard against recycled
    ``id()`` keys) are released incrementally.

    With ``max_bytes``, each value is sized by its ``nbytes`` (arrays)
    or else ``len()`` (bytes, str), and ``nbytes`` is the sum resident.
    A value larger than the whole budget is not kept: it is dropped at
    once (with any value its key held) and counted as an eviction.
    """

    def __init__(self, maxsize: Optional[int] = None, *,
                 eviction_counter: str,
                 max_bytes: Optional[int] = None) -> None:
        if maxsize is None and max_bytes is None:
            raise ValueError("give maxsize, max_bytes or both")
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        super().__init__()
        self.maxsize = maxsize
        self.max_bytes = max_bytes
        self.nbytes = 0
        self.eviction_counter = eviction_counter

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.move_to_end(key)
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __setitem__(self, key, value) -> None:
        if self.max_bytes is not None:
            self._set_sized(key, value)
            return
        super().__setitem__(key, value)
        self.move_to_end(key)
        evicted = 0
        while len(self) > self.maxsize:
            super().popitem(last=False)
            evicted += 1
        if evicted:
            _metrics().inc(self.eviction_counter, evicted)

    def _set_sized(self, key, value) -> None:
        if key in self:
            del self[key]
        size = _nbytes(value)
        if size > self.max_bytes:
            _metrics().inc(self.eviction_counter)
            return
        super().__setitem__(key, value)
        self.nbytes += size
        evicted = 0
        while self.nbytes > self.max_bytes or (
                self.maxsize is not None and len(self) > self.maxsize):
            self.nbytes -= _nbytes(super().popitem(last=False)[1])
            evicted += 1
        if evicted:
            _metrics().inc(self.eviction_counter, evicted)

    # The C ``OrderedDict`` deletes without calling back into a
    # subclass, so each way out keeps ``nbytes`` itself.
    def __delitem__(self, key) -> None:
        self.pop(key)

    def pop(self, key, *default):
        if self.max_bytes is not None and key in self:
            self.nbytes -= _nbytes(dict.__getitem__(self, key))
        return super().pop(key, *default)

    def popitem(self, last: bool = True):
        key, value = super().popitem(last)
        if self.max_bytes is not None:
            self.nbytes -= _nbytes(value)
        return key, value

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0

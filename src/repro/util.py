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


class LruDict(OrderedDict):
    """A memo dict bounded to ``maxsize`` entries.

    Reads refresh recency; an insert past the cap evicts the
    least-recently-used entry and counts it under the obs counter named
    by ``eviction_counter`` (a name listed in :mod:`repro.obs.catalog`).
    Quacks like the plain dicts it replaces (``in`` / ``[]`` / ``[]=`` /
    ``.get`` / ``clear``), so callers that receive the cache as an
    argument need no changes.

    Unlike a wipe-at-capacity cache, eviction is per-entry: the hot
    working set stays resident and cold entries (and whatever their
    values pin — e.g. phase objects held to guard against recycled
    ``id()`` keys) are released incrementally.
    """

    def __init__(self, maxsize: int, *, eviction_counter: str) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        super().__init__()
        self.maxsize = maxsize
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
        super().__setitem__(key, value)
        self.move_to_end(key)
        evicted = 0
        while len(self) > self.maxsize:
            self.popitem(last=False)
            evicted += 1
        if evicted:
            _metrics().inc(self.eviction_counter, evicted)

"""Canonical JSON serialization and content addressing.

Everything this repository persists or hashes — sweep journals,
ResultSet files, the content-addressed result store — goes through one
serializer so that

* **the bytes are valid interchange JSON**: bare ``json.dumps`` emits
  the non-standard ``NaN`` / ``Infinity`` tokens under its default
  ``allow_nan=True``, which many readers reject and others silently
  rewrite to ``null`` — poison for a content-addressed store (the
  stored bytes and the re-serialized parse no longer hash alike);
* **equal values serialize to equal bytes**: keys are sorted and the
  separators fixed, so a SHA-256 of the text is a stable content
  address independent of dict construction order;
* **non-finite floats round-trip exactly**: they are encoded as an
  explicit sentinel object ``{"__nonfinite__": "nan" | "inf" |
  "-inf"}`` and decoded back to the same float, instead of relying on
  non-JSON tokens.

The sentinel key is reserved: serializing a mapping that already
contains ``"__nonfinite__"`` raises, so decoding is never ambiguous.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Mapping
from typing import Any, Optional

__all__ = ["canonical_dumps", "canonical_loads", "content_digest",
           "NONFINITE_KEY"]

#: Reserved object key marking an encoded non-finite float.
NONFINITE_KEY = "__nonfinite__"

_ENCODE = {math.inf: "inf", -math.inf: "-inf"}
_DECODE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _encode(obj: Any) -> Any:
    """Recursively replace non-finite floats with sentinel objects."""
    if isinstance(obj, float):
        # Covers numpy scalar subclasses of float as well.
        if math.isnan(obj):
            return {NONFINITE_KEY: "nan"}
        if math.isinf(obj):
            return {NONFINITE_KEY: _ENCODE[obj]}
        return obj
    if isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, Mapping):
        # dicts and read-only views alike (e.g. a columnar FrameRow):
        # both serialize to the same key-sorted canonical bytes.
        if NONFINITE_KEY in obj:
            raise ValueError(
                f"mapping uses the reserved key {NONFINITE_KEY!r}")
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # A list of finite numbers (a result column) has nothing to
        # replace: its sum is finite only if every element is a finite
        # number, and anything else (a non-finite float, None, a string,
        # a container) makes the sum raise or come out non-finite.
        try:
            if math.isfinite(sum(obj)):
                return obj
        except (TypeError, ValueError, OverflowError):
            pass
        return [_encode(v) for v in obj]
    return obj


def _decode_hook(obj: dict) -> Any:
    if len(obj) == 1 and NONFINITE_KEY in obj:
        try:
            return _DECODE[obj[NONFINITE_KEY]]
        except (KeyError, TypeError):
            raise ValueError(
                f"invalid non-finite sentinel: {obj[NONFINITE_KEY]!r}")
    return obj


def canonical_dumps(obj: Any, indent: Optional[int] = None) -> str:
    """Serialize to canonical JSON text.

    Keys sorted, compact separators (or ``indent`` for human-facing
    files), ``allow_nan=False`` — with non-finite floats carried by the
    sentinel encoding so the strictness can never raise for them.
    Equal values produce equal text, making ``sha256(text)`` a content
    address.
    """
    separators = (",", ": ") if indent is not None else (",", ":")
    return json.dumps(_encode(obj), sort_keys=True, allow_nan=False,
                      separators=separators, indent=indent)


def canonical_loads(text: str) -> Any:
    """Parse canonical JSON text, decoding non-finite sentinels.

    Also accepts historical pre-canonical output: plain JSON parses
    unchanged, and the legacy ``NaN``/``Infinity`` tokens (written by
    bare ``json.dumps`` before PR 8) still decode, so old journals and
    result files remain readable.
    """
    return json.loads(text, object_hook=_decode_hook)


def content_digest(obj: Any) -> str:
    """Hex SHA-256 of the canonical serialization of ``obj``."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()

"""Test-side references for the result store and frames.

:func:`store_key` is the scalar definition of a store key, which the
store's fragment-spliced renderers must reproduce byte for byte.
:func:`frame_from_records` builds a :class:`ResultFrame` from record
dicts, inferring each column the way ``ResultFrame.from_columns`` does
for a plain list.
"""

from typing import Any, Dict, Mapping, Sequence

from repro.core.canon import content_digest
from repro.core.frame import ResultFrame
from repro.core.store import STORE_KEY_SCHEMA


def store_key(app: str, config: Dict[str, Any], mode: str, ranks: int,
              code_version: str) -> str:
    """Canonical SHA-256 content address of one design-point query.

    ``config`` is the six-axis mapping produced by
    :meth:`repro.config.node.NodeConfig.axis_values`.
    """
    return content_digest({
        "schema": STORE_KEY_SCHEMA,
        "app": app,
        "config": dict(config),
        "mode": mode,
        "ranks": int(ranks),
        "code_version": code_version,
    })


def frame_from_records(records: Sequence[Mapping]) -> ResultFrame:
    """A frame holding ``records``, which share the first one's keys."""
    records = list(records)
    keys = tuple(records[0]) if records else ()
    return ResultFrame.from_columns(
        keys, {k: [r[k] for r in records] for k in keys})

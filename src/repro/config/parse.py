"""Compact node-specification strings.

``parse_node("aggressive/96M:1M/8chDDR4/2.0GHz/512b/64c")`` builds the
corresponding :class:`~repro.config.node.NodeConfig`; fields may appear
in any order, and omitted fields fall back to the Fig. 1 baseline.
Used by the CLI and handy in notebooks.
"""

from __future__ import annotations

import re
from typing import Optional

from .cache import CACHE_PRESETS, cache_preset
from .core import CORE_PRESETS, core_preset
from .memory import MEMORY_PRESETS, memory_preset
from .node import NodeConfig, baseline_node

__all__ = ["parse_node"]

_FREQ_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*ghz$", re.IGNORECASE)
_VEC_RE = re.compile(r"^(\d+)\s*b(?:its?)?$", re.IGNORECASE)
_CORES_RE = re.compile(r"^(\d+)\s*c(?:ores?)?$", re.IGNORECASE)


def parse_node(spec: str, base: Optional[NodeConfig] = None) -> NodeConfig:
    """Parse a ``/``-separated node spec into a configuration.

    Recognized field formats (case-insensitive, any order):

    * core class: ``lowend`` / ``medium`` / ``high`` / ``aggressive``
    * cache label: ``32M:256K`` / ``64M:512K`` / ``96M:1M``
    * memory label: ``4chDDR4`` / ``8chDDR4`` / ``16chDDR4`` / ``16chHBM``
    * frequency: ``2.5GHz``
    * vector width: ``512b``
    * core count: ``64c``
    """
    node = base or baseline_node()
    if not spec.strip():
        raise ValueError("empty node spec")
    for raw in spec.split("/"):
        field = raw.strip()
        if not field:
            continue
        low = field.lower()
        if low in CORE_PRESETS:
            node = node.with_(core=core_preset(low))
            continue
        cache_match = next((k for k in CACHE_PRESETS
                            if k.lower() == low), None)
        if cache_match:
            node = node.with_(cache=cache_preset(cache_match))
            continue
        mem_match = next((k for k in MEMORY_PRESETS
                          if k.lower() == low), None)
        if mem_match:
            node = node.with_(memory=memory_preset(mem_match))
            continue
        m = _FREQ_RE.match(field)
        if m:
            node = node.with_(frequency_ghz=float(m.group(1)))
            continue
        m = _VEC_RE.match(field)
        if m:
            node = node.with_(vector_bits=int(m.group(1)))
            continue
        m = _CORES_RE.match(field)
        if m:
            node = node.with_(n_cores=int(m.group(1)))
            continue
        raise ValueError(
            f"unrecognized node-spec field {field!r} "
            "(expected a core/cache/memory label, '<f>GHz', '<n>b', or "
            "'<n>c')"
        )
    return node

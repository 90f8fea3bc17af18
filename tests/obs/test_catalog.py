"""The metric catalog is the one list of emitted names.

Every name the package passes to ``inc``/``span``/``observe`` (or
counts evictions under) must resolve to a catalog entry, and every
keyed entry must surface under its ``derived`` key.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.obs import MetricsRegistry, summarize
from repro.obs.catalog import CATALOG, DERIVED, lookup

_EMITTERS = {"inc", "obs_inc", "span", "observe"}


def _literal_names(node):
    """String constants anywhere under ``node``; an f-string yields its
    literal prefix (``""`` if it has none)."""
    if isinstance(node, ast.JoinedStr):
        head = node.values[0] if node.values else None
        yield head.value if isinstance(head, ast.Constant) else ""
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            yield node.value
    else:
        for child in ast.iter_child_nodes(node):
            yield from _literal_names(child)


def _emitted_names():
    """(module, name) for every literal metric name in ``src/repro``."""
    root = Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            fname = getattr(func, "attr", getattr(func, "id", None))
            args = [node.args[0]] if fname in _EMITTERS and node.args else []
            args += [kw.value for kw in node.keywords
                     if kw.arg == "eviction_counter"]
            for arg in args:
                for name in _literal_names(arg):
                    yield path.relative_to(root).as_posix(), name


def test_every_emitted_name_is_catalogued():
    emitted = list(_emitted_names())
    # Guard against a walk that silently finds nothing.
    assert len({name for _, name in emitted}) > 60
    missing = [(mod, name) for mod, name in emitted if lookup(name) is None]
    assert not missing, f"uncatalogued metric names: {missing}"
    # ... and the catalog lists nothing the package no longer emits.
    used = {lookup(name).name for _, name in emitted}
    assert {m.name for m in CATALOG if m.name} == used


def test_catalog_is_well_formed():
    names = [m.name for m in CATALOG if m.name]
    keys = [m.key for m in DERIVED]
    assert len(names) == len(set(names))
    assert len(keys) == len(set(keys))
    for m in CATALOG:
        assert m.help
        assert m.label is None or m.key, f"{m.label!r} row has no key"
        assert not m.label or m.sparse or m.group, f"{m.label!r} no group"
    assert next(m for m in CATALOG if m.label).group == "run"


def test_lookup_resolves_families():
    assert lookup("sweep.ipc.shm").name == "sweep.ipc.*"
    assert lookup("serve.query.best").name == "serve.query.*"
    assert lookup("sweep.shards").name == "sweep.shards"
    assert lookup("sweep.ipc") is None
    assert lookup("no.such.counter") is None


@pytest.mark.parametrize("metric", [m for m in DERIVED if m.name],
                         ids=lambda m: m.name)
def test_summarize_maps_catalog_counters(metric):
    reg = MetricsRegistry()
    reg.inc(metric.name, 7)
    derived = summarize(reg.snapshot())["derived"]
    assert list(derived) == [m.key for m in DERIVED]
    assert derived[metric.key] == 7, f"{metric.name} not surfaced"
    # No other counter-backed key picks the value up.
    moved = [m.key for m in DERIVED if m.name and derived[m.key]]
    assert moved == [metric.key]

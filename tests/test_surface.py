"""Guard against test-only surface in ``src/``.

Every ``def`` and ``class`` name in ``src/`` must have a reader in the
code that runs: ``src/``, ``benchmarks/``, ``perf/``, ``scripts/`` or
``examples/``.  A reader is any whole-word occurrence beyond the name's
own definitions.  A name only tests read is either given a production
reader or deleted, with its checks moved to code that remains; the
exceptions are listed in :data:`ALLOWED` with their reasons.

Dunder methods are called implicitly and are not checked.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
READER_DIRS = ("src", "benchmarks", "perf", "scripts", "examples")

_WORD = re.compile(r"[A-Za-z_]\w*")
_DEF = re.compile(r"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+([A-Za-z_]\w*)",
                  re.M)

#: Names kept without a production reader: name -> (reason, ROADMAP item).
#: Entries that are fields or parameters rather than ``def`` names are
#: recorded for the same decision; the scan itself checks only ``def``
#: and ``class`` names, but every entry must still exist in ``src/``.
ALLOWED = {
    "total_compute_ns": (
        "RankTrace's reference compute time; the physics invariants "
        "check replay against it",
        "Physics invariants and query fuzzing"),
    "mpi_fraction": (
        "ReplayResult's communication share, to be reported next to "
        "the fast/replay claim table",
        "1(b)"),
    "evaluate": (
        "BatchEvaluator's scalar reference; perf's _verify_fronts "
        "reads it until that check calls Musa.simulate_node",
        "Benchmark change: perf compares two trees itself"),
    "capacity_gbs": (
        "contention result field; its tests check that achieved "
        "bandwidth never exceeds the derated capacity",
        "Physics invariants and query fuzzing"),
    "mem_stall_multiplier": (
        "contention result field; its tests check that one core runs "
        "unthrottled and a saturated node stalls",
        "Physics invariants and query fuzzing"),
    "n_busy_cores": (
        "PhaseDetail's effective concurrency; its tests bound it by "
        "the node's cores and the phase's tasks",
        "Physics invariants and query fuzzing"),
    "collect_spans": (
        "simulate_phase_detailed's span switch; its test checks the "
        "detailed schedule's spans",
        "Physics invariants and query fuzzing"),
    "n_refine": (
        "simulate_phase_detailed's refine count; its tests check that "
        "the contention fixed point converges",
        "Physics invariants and query fuzzing"),
}


def _scan():
    words = Counter()
    defs = Counter()
    where = {}
    src_words = Counter()
    for d in READER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            found = _WORD.findall(text)
            words.update(found)
            if d == "src":
                src_words.update(found)
                for m in _DEF.finditer(text):
                    defs[m.group(1)] += 1
                    where.setdefault(m.group(1),
                                     str(path.relative_to(ROOT)))
    return words, defs, where, src_words


@pytest.fixture(scope="module")
def scan():
    return _scan()


def test_every_src_name_has_a_reader(scan):
    words, defs, where, _ = scan
    unread = sorted(
        f"{name} ({where[name]})" for name, n in defs.items()
        if words[name] <= n and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__")))
    assert not unread, (
        "names with no reader outside tests/ (give each a production "
        "reader or delete it): " + ", ".join(unread))


def test_allowlist_names_exist(scan):
    _, _, _, src_words = scan
    assert sorted(n for n in ALLOWED if not src_words[n]) == []

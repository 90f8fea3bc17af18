"""Shared fixtures for the figure-regeneration benchmarks.

The full 864-point sweep of all five applications is computed once per
session (parallel across processes) and cached on disk; every figure
benchmark derives its panel from it, exactly as the paper derives every
bar chart from the same simulation campaign.  The cache is reused only
while a digest of the package's sources, written beside it, still
matches, so an edit (committed or not) recomputes the sweep.

Each ``bench_figN_*.py`` writes its regenerated figure/table to
``benchmarks/output/`` and asserts the paper's qualitative shape.

Environment knobs:

* ``REPRO_BENCH_PROCS``  — sweep worker processes (default: cpu count, max 8)
* ``REPRO_BENCH_FRESH=1`` — ignore the on-disk sweep cache
"""

import hashlib
import os
from pathlib import Path

import pytest

import repro
from repro.apps import APP_NAMES
from repro.config import full_design_space
from repro.core import ResultSet, run_sweep

OUTPUT_DIR = Path(__file__).parent / "output"
_CACHE = Path(__file__).parent / ".cache" / "full_sweep.json"
_JOURNAL = Path(__file__).parent / ".cache" / "full_sweep.jsonl"
_DIGEST = Path(__file__).parent / ".cache" / "full_sweep.src-sha256"


def _source_digest() -> str:
    """SHA-256 of the ``repro`` package's ``*.py`` sources: their sorted
    relative paths and bytes."""
    root = Path(repro.__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                 .encode())
        h.update(data)
    return h.hexdigest()


@pytest.fixture(scope="session")
def output_dir():
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def full_sweep():
    """All 864 configurations x 5 applications (4320 simulations)."""
    digest = _source_digest()
    fresh = (os.environ.get("REPRO_BENCH_FRESH") == "1"
             or not _DIGEST.exists() or _DIGEST.read_text() != digest)
    if fresh:
        _JOURNAL.unlink(missing_ok=True)
        _CACHE.unlink(missing_ok=True)
    if _CACHE.exists():
        rs = ResultSet.load(_CACHE)
        if len(rs) == 864 * 5:
            return rs
    procs = int(os.environ.get("REPRO_BENCH_PROCS",
                               min(os.cpu_count() or 1, 8)))
    # Journal every record so an interrupted benchmark session resumes
    # instead of recomputing the 4,320-simulation campaign; the digest,
    # written first, ties the journal and the cache to these sources.
    _CACHE.parent.mkdir(parents=True, exist_ok=True)
    _DIGEST.write_text(digest)
    rs = run_sweep(APP_NAMES, full_design_space(), processes=procs,
                   resume=_JOURNAL, fsync_every=64)
    rs.save(_CACHE)
    _JOURNAL.unlink(missing_ok=True)
    return rs


def write_figure(output_dir: Path, name: str, text: str) -> None:
    """Persist a regenerated figure and echo it to the terminal."""
    path = output_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n[{name}]\n{text}")

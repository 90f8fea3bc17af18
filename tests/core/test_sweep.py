"""Tests for the design-space sweep driver (reduced spaces for speed)."""

import gc
import tracemalloc

import pytest

from repro.apps import APP_NAMES
from repro.config import DesignSpace
from repro.config.space import range_design_space
from repro.core import normalize_axis, run_sweep
from repro.core.sweep import _TaskTable


@pytest.fixture(scope="module")
def tiny_space():
    """A 2x2 slice of the full space (vector x memory)."""
    return DesignSpace(
        core_labels=("medium",),
        cache_labels=("64M:512K",),
        memory_labels=("4chDDR4", "8chDDR4"),
        frequencies=(2.0,),
        vector_widths=(128, 512),
        core_counts=(64,),
    )


class TestSweep:
    def test_inline_sweep_completeness(self, tiny_space):
        rs = run_sweep(["spmz"], tiny_space, processes=1)
        assert len(rs) == 4
        assert set(rs.unique("vector")) == {128, 512}
        assert set(rs.unique("memory")) == {"4chDDR4", "8chDDR4"}

    def test_multiple_apps(self, tiny_space):
        rs = run_sweep(["hydro", "lulesh"], tiny_space, processes=1)
        assert len(rs) == 8
        assert set(rs.unique("app")) == {"hydro", "lulesh"}

    def test_results_normalizable(self, tiny_space):
        rs = run_sweep(["spmz"], tiny_space, processes=1)
        bars = normalize_axis(rs, "vector", 128, "time_ns")
        b512 = [b for b in bars if b.value == 512][0]
        assert b512.mean > 1.2  # spmz vectorizes well

    def test_parallel_matches_inline(self, tiny_space):
        inline = run_sweep(["btmz"], tiny_space, processes=1)
        parallel = run_sweep(["btmz"], tiny_space, processes=2)
        for rec in inline:
            cfg = {k: rec[k] for k in
                   ("app", "core", "cache", "memory", "frequency", "vector",
                    "cores")}
            other = parallel.lookup(**cfg)
            assert other["time_ns"] == pytest.approx(rec["time_ns"],
                                                     rel=1e-9)

    def test_sweep_configs_ordering(self, tiny_space):
        tasks = list(_TaskTable(["a", "b"], tiny_space))
        assert len(tasks) == 8
        assert tasks[0][0] == "a" and tasks[-1][0] == "b"


def _retained_bytes(fn):
    """``(fn(), bytes allocated during the call and still held)``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestResultMemory:
    def test_campaign_and_resume_hold_little_per_record(self, tmp_path):
        # A result holds its frames: no key tuple per record until a
        # keyed access, and one str per distinct label of a decoded
        # journal block.  Eagerly indexed, with one str per label cell,
        # these sets held about 420 and 635 B per record.
        space = range_design_space(frequencies=(2.0,), core_counts=(32, 64))
        run_sweep(APP_NAMES, space, processes=1)  # warm the model caches
        journal = tmp_path / "j.jsonl"
        for kind in ("campaign", "resume"):
            rs, held = _retained_bytes(lambda: run_sweep(
                APP_NAMES, space, processes=1, resume=journal))
            assert len(rs) == 720
            assert held / len(rs) <= 300, (kind, held / len(rs))

"""Tests for synthetic address stream generators."""

import numpy as np
import pytest

from repro.trace.streams import (
    interleave,
    random_uniform,
    sequential_sweep,
    stencil1d,
)


class TestSequentialSweep:
    def test_shape_and_range(self):
        s = sequential_sweep(ws_bytes=800, n_sweeps=3, elem_bytes=8)
        assert len(s) == 300
        assert s.min() == 0 and s.max() == 792

    def test_repeats_exactly(self):
        s = sequential_sweep(ws_bytes=160, n_sweeps=2, elem_bytes=8)
        np.testing.assert_array_equal(s[:20], s[20:])

    def test_base_offset(self):
        s = sequential_sweep(ws_bytes=80, n_sweeps=1, base=1 << 20)
        assert s.min() == 1 << 20


class TestRandomAndZipf:
    def test_random_deterministic_by_seed(self):
        a = random_uniform(ws_bytes=1 << 16, n_accesses=100, seed=7)
        b = random_uniform(ws_bytes=1 << 16, n_accesses=100, seed=7)
        np.testing.assert_array_equal(a, b)
        c = random_uniform(ws_bytes=1 << 16, n_accesses=100, seed=8)
        assert not np.array_equal(a, c)

    def test_random_within_working_set(self):
        s = random_uniform(ws_bytes=1024, n_accesses=500, seed=0)
        assert s.max() < 1024 and s.min() >= 0


class TestStencil:
    def test_touches_neighbours(self):
        s = stencil1d(n_points=4, radius=1, n_iters=1)
        # per point: 3 reads + 1 write = 4 accesses
        assert len(s) == 16

    def test_write_array_disjoint(self):
        s = stencil1d(n_points=10, radius=1, n_iters=1)
        reads = s.reshape(-1, 4)[:, :3]
        writes = s.reshape(-1, 4)[:, 3]
        assert writes.min() > reads.max()

    def test_rejects_single_array(self):
        with pytest.raises(ValueError):
            stencil1d(n_points=4, n_arrays=1)


class TestInterleave:
    def test_preserves_order_within_stream(self):
        a = np.arange(50, dtype=np.int64) * 8
        b = np.arange(30, dtype=np.int64) * 8
        out = interleave([a, b], seed=0)
        assert len(out) == 80
        # Recover stream-a elements (disjoint region) and check order.
        a_vals = out[out < 400]
        np.testing.assert_array_equal(a_vals, a)

    def test_disjoint_regions(self):
        a = np.zeros(10, dtype=np.int64)
        b = np.zeros(10, dtype=np.int64)
        out = interleave([a, b], seed=1)
        assert len(set(out)) == 2  # relocated to two distinct bases

    def test_rejects_empty_list(self):
        with pytest.raises(ValueError):
            interleave([])

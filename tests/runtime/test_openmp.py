"""Tests for OpenMP/OmpSs construct builders."""

import numpy as np
import pytest

from repro.runtime import (
    imbalanced_durations,
    parallel_for,
    simulate_phase,
    task_phase,
)

from .deps import pipeline_deps, wavefront_deps


class TestImbalancedDurations:
    def test_zero_imbalance_uniform(self):
        d = imbalanced_durations(10, 5.0, 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(d, 5.0)

    def test_target_max_over_mean(self):
        rng = np.random.default_rng(1)
        d = imbalanced_durations(200, 10.0, 0.5, rng)
        assert d.max() / d.mean() - 1 == pytest.approx(0.5, abs=0.08)
        assert d.mean() == pytest.approx(10.0, rel=1e-6)

    def test_all_positive(self):
        rng = np.random.default_rng(2)
        d = imbalanced_durations(100, 1.0, 2.0, rng)
        assert (d > 0).all()

    def test_rejects_negative_imbalance(self):
        with pytest.raises(ValueError):
            imbalanced_durations(4, 1.0, -0.1, np.random.default_rng(0))


class TestParallelFor:
    def test_default_chunking_uses_traced_threads(self):
        p = parallel_for(0, "k", n_iterations=480, iter_ns=10.0,
                         n_threads_traced=48)
        assert p.n_tasks == 48

    def test_explicit_chunk(self):
        p = parallel_for(0, "k", n_iterations=100, iter_ns=10.0, chunk=1)
        assert p.n_tasks == 100
        assert all(t.work_units == 1.0 for t in p.tasks)

    def test_remainder_chunk_smaller(self):
        p = parallel_for(0, "k", n_iterations=10, iter_ns=1.0, chunk=4)
        assert p.n_tasks == 3
        assert p.tasks[-1].work_units == 2.0

    def test_work_conserved(self):
        p = parallel_for(0, "k", n_iterations=77, iter_ns=3.0, chunk=5)
        assert sum(t.work_units for t in p.tasks) == 77

    def test_deterministic_given_rng(self):
        a = parallel_for(0, "k", 100, 10.0, chunk=1, imbalance=0.3,
                         rng=np.random.default_rng(5))
        b = parallel_for(0, "k", 100, 10.0, chunk=1, imbalance=0.3,
                         rng=np.random.default_rng(5))
        assert [t.duration_ns for t in a.tasks] == \
               [t.duration_ns for t in b.tasks]


class TestTaskPhase:
    def test_plain(self):
        p = task_phase(0, "k", n_tasks=10, task_ns=100.0)
        assert p.n_tasks == 10

    def test_serial_task_prepended(self):
        p = task_phase(0, "k", n_tasks=4, task_ns=100.0,
                       serial_task_ns=50.0)
        assert p.n_tasks == 5
        assert p.tasks[0].duration_ns == pytest.approx(50.0)
        assert all(t.deps == (0,) for t in p.tasks[1:])

    def test_serial_task_gates_schedule(self):
        p = task_phase(0, "k", n_tasks=8, task_ns=100.0,
                       serial_task_ns=300.0, creation_ns=0.0)
        r = simulate_phase(p, n_cores=8)
        assert r.makespan_ns >= 400.0  # serial + one task wave

    def test_explicit_deps_shifted_past_serial_task(self):
        deps = [(), (0,)]
        p = task_phase(0, "k", n_tasks=2, task_ns=10.0, deps=deps,
                       serial_task_ns=5.0)
        # Task 2 (second real task) depends on task 1 (first real task).
        assert p.tasks[2].deps == (1,)

    def test_deps_length_check(self):
        with pytest.raises(ValueError):
            task_phase(0, "k", n_tasks=3, task_ns=1.0, deps=[()])


class TestDepTopologies:
    def test_pipeline(self):
        deps = pipeline_deps(n_stages=3, width=2)
        assert len(deps) == 6
        assert deps[0] == () and deps[1] == ()
        assert deps[2] == (0,) and deps[3] == (1,)
        assert deps[4] == (2,)

    def test_wavefront_parallelism_capped(self):
        deps = wavefront_deps(4, 4)
        p = task_phase(0, "k", n_tasks=16, task_ns=10.0, deps=list(deps),
                       creation_ns=0.0)
        r = simulate_phase(p, n_cores=16)
        # Critical path of a 4x4 wavefront = 7 anti-diagonals.
        assert r.makespan_ns == pytest.approx(70.0)

    def test_wavefront_corner_deps(self):
        deps = wavefront_deps(3, 3)
        assert deps[0] == ()
        assert deps[4] == (1, 3)  # (1,1) waits on (0,1) and (1,0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            wavefront_deps(0, 3)
        with pytest.raises(ValueError):
            pipeline_deps(2, 0)

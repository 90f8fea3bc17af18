"""Tests for detailed phase simulation."""

import pytest

from repro.apps import get_app
from repro.core import simulate_phase_detailed


@pytest.fixture(scope="module")
def spmz():
    app = get_app("spmz")
    return app, app.detailed_trace(), app.iteration_phases()


@pytest.fixture
def d(spmz, node64):
    """SP-MZ's first phase on the baseline 64-core node."""
    app, detailed, phases = spmz
    return simulate_phase_detailed(phases[0], detailed, node64)


class TestSimulatePhaseDetailed:
    def test_basic_outputs(self, d):
        assert d.makespan_ns > 0
        assert d.busy_core_ns > 0
        assert 1 <= d.n_busy_cores <= 64
        assert d.instructions > 0
        assert 0 < d.occupancy <= 1.0

    def test_event_totals_scale_with_tasks(self, spmz, d):
        app, detailed, phases = spmz
        sig = detailed["sp_solve"]
        work = sum(t.work_units for t in phases[0].tasks)
        # Instruction totals = per-unit fused instructions x total work.
        from repro.uarch import vectorize

        expected = sig.instr_per_unit * vectorize(sig, 128).instr_scale * work
        assert d.instructions == pytest.approx(expected, rel=1e-6)

    def test_concurrency_capped_by_tasks(self, spmz, d):
        assert d.n_busy_cores <= spmz[2][0].n_tasks

    def test_imbalance_preserved(self, spmz, d):
        """Trace-level intra-phase imbalance survives re-timing.  Each of
        the phase's tasks runs alone on one of cores 1..n (core 0 hands
        them out), so those cores' busy times are the task durations."""
        busy = d.schedule.busy_ns[1:]
        ran = busy[busy > 0]
        assert len(ran) == spmz[2][0].n_tasks
        assert ran.max() / ran.mean() > 1.05

    def test_store_fraction_sane(self, d):
        assert 0.0 <= d.store_fraction <= 1.0

    def test_row_hit_weighted(self, spmz, d):
        detailed = spmz[1]
        rhs = [detailed[k].row_hit_rate for k in detailed.names()]
        assert min(rhs) - 1e-9 <= d.row_hit_rate <= max(rhs) + 1e-9

    def test_faster_node_shorter_makespan(self, spmz):
        from repro.config import baseline_node

        app, detailed, phases = spmz
        slow = simulate_phase_detailed(phases[0], detailed,
                                       baseline_node(64).with_(core="lowend"))
        fast = simulate_phase_detailed(
            phases[0], detailed,
            baseline_node(64).with_(core="aggressive", vector_bits=512))
        assert fast.makespan_ns < slow.makespan_ns

    def test_empty_phase(self, node64):
        from repro.trace import ComputePhase, DetailedTrace

        app = get_app("hydro")
        empty = ComputePhase(phase_id=0, tasks=(), serial_ns=500.0)
        d = simulate_phase_detailed(empty, app.detailed_trace(), node64)
        assert d.makespan_ns == pytest.approx(500.0)
        assert d.instructions == 0.0

    def test_refinement_converges(self, spmz, node64, monkeypatch):
        from repro.core import phase_sim

        app, detailed, phases = spmz
        makespans = []
        for n_refine in (1, 4):
            monkeypatch.setattr(phase_sim, "N_REFINE", n_refine)
            makespans.append(simulate_phase_detailed(
                phases[0], detailed, node64).makespan_ns)
        assert makespans[1] == pytest.approx(makespans[0], rel=0.25)


class TestTimingCacheKey:
    def test_same_label_different_config_not_conflated(self, spmz, node64):
        """Regression: the kernel-timing memo must key on the *full*
        node configuration, not its label.

        Two nodes whose cores share the label ``medium`` but differ in
        every pipeline parameter used to collide in a shared
        ``timing_cache``, silently reusing whichever node was simulated
        first.
        """
        from dataclasses import replace

        from repro.config import core_preset

        app, detailed, phases = spmz
        weak_core = replace(core_preset("medium"), rob_size=40,
                            issue_width=2, n_fpu=1)
        assert weak_core.label == node64.core.label
        weak = node64.with_(core=weak_core)

        cache = {}
        d_strong = simulate_phase_detailed(phases[0], detailed, node64,
                                           timing_cache=cache)
        d_weak = simulate_phase_detailed(phases[0], detailed, weak,
                                         timing_cache=cache)
        # Fresh caches give the ground truth for each node.
        t_strong = simulate_phase_detailed(phases[0], detailed, node64)
        t_weak = simulate_phase_detailed(phases[0], detailed, weak)
        assert d_strong.makespan_ns == t_strong.makespan_ns
        assert d_weak.makespan_ns == t_weak.makespan_ns
        assert d_weak.makespan_ns != d_strong.makespan_ns


class TestZeroWorkTasks:
    def _phase_with_empty_partition(self, detailed):
        from repro.trace import ComputePhase, TaskRecord

        kernel = next(iter(detailed.names()))
        tasks = tuple(
            TaskRecord(kernel=kernel, duration_ns=d, work_units=w)
            for d, w in ((1000.0, 2.0), (0.0, 0.0), (1500.0, 3.0))
        )
        return ComputePhase(phase_id=0, tasks=tasks)

    def test_zero_work_task_simulates(self, spmz, node64):
        """Regression: a zero-work task (an empty partition of an
        irregular decomposition) raised ZeroDivisionError in
        ``_imbalance_factors``."""
        app, detailed, phases = spmz
        phase = self._phase_with_empty_partition(detailed)
        d = simulate_phase_detailed(phase, detailed, node64)
        assert d.makespan_ns > 0

    def test_zero_work_factor_is_neutral(self, spmz):
        from repro.core.phase_sim import _imbalance_factors

        app, detailed, phases = spmz
        phase = self._phase_with_empty_partition(detailed)
        factors = _imbalance_factors(phase)
        assert factors[1] == 1.0
        # Siblings keep their relative per-unit imbalance (500 vs 500).
        assert factors[0] == pytest.approx(factors[2])

    def test_zero_work_contributes_no_events(self, spmz, node64):
        app, detailed, phases = spmz
        phase = self._phase_with_empty_partition(detailed)
        with_zero = simulate_phase_detailed(phase, detailed, node64)
        from repro.trace import ComputePhase

        trimmed = ComputePhase(phase_id=0, tasks=(phase.tasks[0],
                                                  phase.tasks[2]))
        without = simulate_phase_detailed(trimmed, detailed, node64)
        assert with_zero.instructions == pytest.approx(without.instructions)

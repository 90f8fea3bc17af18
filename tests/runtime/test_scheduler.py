"""Tests for the discrete-event runtime scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import simulate_phase
from repro.trace import ComputePhase, TaskRecord


def make_phase(durations, deps=None, serial=0.0, creation=0.0, critical=0.0):
    tasks = tuple(
        TaskRecord(kernel="k", duration_ns=float(d),
                   deps=tuple(deps[i]) if deps else ())
        for i, d in enumerate(durations)
    )
    return ComputePhase(phase_id=0, tasks=tasks, serial_ns=serial,
                        creation_ns=creation, critical_ns=critical)


class TestBasicScheduling:
    def test_single_core_serializes(self):
        r = simulate_phase(make_phase([10, 20, 30]), n_cores=1)
        assert r.makespan_ns == pytest.approx(60.0)

    def test_enough_cores_runs_longest_task(self):
        r = simulate_phase(make_phase([10, 20, 30]), n_cores=8)
        assert r.makespan_ns == pytest.approx(30.0)

    def test_two_cores_pack(self):
        # 30 on one core; 20+10 on the other -> makespan 30.
        r = simulate_phase(make_phase([30, 20, 10]), n_cores=2)
        assert r.makespan_ns == pytest.approx(30.0)

    def test_busy_conservation(self):
        phase = make_phase([13, 7, 29, 11])
        for cores in (1, 2, 4, 8):
            r = simulate_phase(phase, cores)
            assert r.busy_ns.sum() == pytest.approx(60.0)

    def test_empty_phase(self):
        r = simulate_phase(make_phase([]), n_cores=4)
        assert r.makespan_ns == 0.0
        assert r.n_tasks == 0


class TestOverheads:
    def test_serial_section_delays_everything(self):
        r = simulate_phase(make_phase([10, 10], serial=100.0), n_cores=2)
        assert r.makespan_ns == pytest.approx(110.0)

    def test_creation_serializes_task_starts(self):
        # Task i ready at serial + (i+1)*creation; last at 3*5=15, +10 dur.
        r = simulate_phase(make_phase([10, 10, 10], creation=5.0), n_cores=8)
        assert r.makespan_ns == pytest.approx(25.0)

    def test_creation_bottleneck_dominates_small_tasks(self):
        # 100 tiny tasks, huge creation cost: makespan ~ creation-bound.
        r = simulate_phase(make_phase([1.0] * 100, creation=50.0), n_cores=64)
        assert r.makespan_ns == pytest.approx(100 * 50.0 + 1.0)

    def test_critical_sections_lower_bound(self):
        r = simulate_phase(make_phase([10, 10], critical=500.0), n_cores=2)
        assert r.makespan_ns == pytest.approx(500.0)

    def test_overhead_scale_applies_to_runtime_only(self):
        phase = make_phase([10, 10], serial=100.0)
        r1 = simulate_phase(phase, 2, overhead_scale=1.0)
        r2 = simulate_phase(phase, 2, overhead_scale=2.0)
        assert r2.makespan_ns - r1.makespan_ns == pytest.approx(100.0)

    def test_duration_scale(self):
        # Re-timed tasks arrive as explicit durations; overheads do not
        # follow them.
        phase = make_phase([10, 20])
        r1 = simulate_phase(phase, 1)
        r2 = simulate_phase(phase, 1, task_durations_ns=[30.0, 60.0])
        assert r2.makespan_ns == pytest.approx(3 * r1.makespan_ns)


class TestDependencies:
    def test_chain_serializes(self):
        deps = [(), (0,), (1,), (2,)]
        r = simulate_phase(make_phase([10] * 4, deps=deps), n_cores=8)
        assert r.makespan_ns == pytest.approx(40.0)

    def test_serial_task_gates_parallel_work(self):
        # Task 0 is a serialized segment; 4 dependents then run in parallel.
        deps = [(), (0,), (0,), (0,), (0,)]
        r = simulate_phase(make_phase([100, 10, 10, 10, 10], deps=deps),
                           n_cores=4)
        assert r.makespan_ns == pytest.approx(110.0)

    def test_diamond(self):
        #   0
        #  / \
        # 1   2
        #  \ /
        #   3
        deps = [(), (0,), (0,), (1, 2)]
        r = simulate_phase(make_phase([5, 10, 20, 5], deps=deps), n_cores=4)
        assert r.makespan_ns == pytest.approx(5 + 20 + 5)


class TestExplicitDurations:
    def test_override(self):
        phase = make_phase([10, 10])
        r = simulate_phase(phase, 1, task_durations_ns=[100, 200])
        assert r.makespan_ns == pytest.approx(300.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="durations"):
            simulate_phase(make_phase([10]), 1, task_durations_ns=[1, 2])

    @pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan"),
                                     float("inf"), float("-inf")])
    def test_rejects_negative_or_non_finite(self, bad):
        phase = make_phase([10, 10])
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_phase(phase, 2, task_durations_ns=[1.0, bad])
        # Validation runs before scheduling anything, spans or not.
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_phase(phase, 2, task_durations_ns=[bad, 1.0],
                           collect_spans=True)

    def test_rejects_a_scale_that_overflows(self):
        # A caller's re-timing scale that overflows a duration to inf.
        scaled = [d * 1e10 for d in (1.0, 1e300)]
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_phase(make_phase([1.0, 1e300]), 1,
                           task_durations_ns=scaled)


class TestSpans:
    def test_spans_cover_tasks(self):
        r = simulate_phase(make_phase([10, 20, 30]), 2, collect_spans=True)
        assert len(r.spans) == 3
        total = sum(s.duration_ns for s in r.spans)
        assert total == pytest.approx(60.0)

    def test_spans_disjoint_per_core(self):
        r = simulate_phase(make_phase([7, 11, 13, 5, 9]), 2,
                           collect_spans=True)
        by_core = {}
        for s in r.spans:
            by_core.setdefault(s.core, []).append((s.start_ns, s.end_ns))
        for spans in by_core.values():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-9

    def test_spans_off_by_default(self):
        assert simulate_phase(make_phase([1]), 1).spans is None


class TestMetrics:
    def test_occupancy_bounds(self):
        r = simulate_phase(make_phase([10] * 7), 4)
        assert 0.0 < r.occupancy <= 1.0

    def test_busy_is_task_time(self):
        r = simulate_phase(make_phase([13, 5, 8]), 4)
        assert r.busy_ns.sum() == pytest.approx(26.0)
        assert r.busy_ns.sum() <= 4 * r.makespan_ns


class TestProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1,
                 max_size=40),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounds(self, durations, n_cores):
        """Greedy schedule: max(work/p, longest) <= makespan <= 2*opt bound."""
        r = simulate_phase(make_phase(durations), n_cores)
        total = sum(durations)
        longest = max(durations)
        lower = max(total / n_cores, longest)
        assert r.makespan_ns >= lower - 1e-6
        # Graham bound for list scheduling (no deps, no overheads).
        assert r.makespan_ns <= total / n_cores + longest + 1e-6

    @given(
        st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1,
                 max_size=30),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_more_cores_never_slower(self, durations, n_cores):
        phase = make_phase(durations)
        a = simulate_phase(phase, n_cores).makespan_ns
        b = simulate_phase(phase, n_cores * 2).makespan_ns
        assert b <= a + 1e-6

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simulate_phase(make_phase([1]), 0)
        with pytest.raises(ValueError):
            simulate_phase(make_phase([1]), 1, overhead_scale=0.0)


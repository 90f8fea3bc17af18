"""Tests for the config-vectorized phase scheduler.

The contract is bitwise: ``simulate_phase_batch`` must return, for
every config column, exactly the floats the scalar ``simulate_phase``
call produces — the batch axis may never perturb a makespan or a busy
vector in the last ulp.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import get_metrics
from repro.runtime import simulate_phase
from repro.runtime.scheduler import (_STRUCTURE_CACHE, _structure_of,
                                     simulate_phase_batch)
from repro.trace import ComputePhase, TaskRecord


def make_phase(durations, deps=None, serial=0.0, creation=0.0, critical=0.0):
    tasks = tuple(
        TaskRecord(kernel="k", duration_ns=float(d),
                   deps=tuple(deps[i]) if deps else ())
        for i, d in enumerate(durations)
    )
    return ComputePhase(phase_id=0, tasks=tasks, serial_ns=serial,
                        creation_ns=creation, critical_ns=critical)


def trace_durations(phases):
    """The ``(rows, lanes)`` matrix of the lanes' trace durations; rows
    past a lane's task count are NaN, which the scheduler must never
    read."""
    rows = max((len(p.tasks) for p in phases), default=0)
    mat = np.full((rows, len(phases)), np.nan)
    for k, p in enumerate(phases):
        mat[:len(p.tasks), k] = [t.duration_ns for t in p.tasks]
    return mat


def assert_batch_matches_scalar(phase, n_cores, task_durations_ns=None):
    """Run ``phase`` once per core count on both engines and require
    bitwise-equal results per lane; ``task_durations_ns`` is an optional
    ``(tasks, lanes)`` matrix of explicit durations."""
    lanes = [phase] * len(n_cores)
    mat = (trace_durations(lanes) if task_durations_ns is None
           else task_durations_ns)
    batch = simulate_phase_batch(lanes, n_cores, mat)
    n_cfg = len(n_cores)
    assert batch.busy_ns.shape == (n_cfg, max(n_cores))
    for k in range(n_cfg):
        col = (None if task_durations_ns is None
               else task_durations_ns[:, k].tolist())
        ref = simulate_phase(phase, int(n_cores[k]), task_durations_ns=col)
        c = ref.n_cores
        assert batch.makespan_ns[k] == ref.makespan_ns, k
        assert batch.n_tasks[k] == ref.n_tasks
        assert batch.serial_ns[k] == ref.serial_ns
        assert np.array_equal(batch.busy_ns[k, :c], ref.busy_ns), k
        assert not batch.busy_ns[k, c:].any(), k  # padding tail is zero
        assert batch.busy_sum_ns[k] == float(ref.busy_ns.sum()), k
    return batch


def scaled(durations, scale):
    return [d * scale for d in durations]


durations_st = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=0, max_size=24)
scale_st = st.floats(min_value=0.05, max_value=20.0, allow_nan=False,
                     allow_infinity=False)


class TestBatchEqualsScalarBitwise:
    # The re-timing scales a caller applies are drawn into the phase
    # itself: scaled durations and scaled overheads.

    @settings(max_examples=150, deadline=None)
    @given(durations=durations_st,
           cores=st.lists(st.integers(min_value=1, max_value=300),
                          min_size=1, max_size=6),
           scale=scale_st,
           serial=st.floats(min_value=0.0, max_value=1e4),
           creation=st.floats(min_value=0.0, max_value=1e3),
           critical=st.floats(min_value=0.0, max_value=1e4))
    def test_nodeps_property(self, durations, cores, scale, serial,
                             creation, critical):
        phase = make_phase(scaled(durations, scale), serial=serial * scale,
                           creation=creation * scale,
                           critical=critical * scale)
        assert_batch_matches_scalar(phase, cores)

    @settings(max_examples=100, deadline=None)
    @given(durations=st.lists(st.floats(min_value=0.0, max_value=1e6),
                              min_size=2, max_size=24),
           cores=st.lists(st.integers(min_value=1, max_value=300),
                          min_size=1, max_size=6),
           scale=scale_st,
           creation=st.floats(min_value=0.0, max_value=1e3))
    def test_fanout0_property(self, durations, cores, scale, creation):
        deps = [()] + [(0,)] * (len(durations) - 1)
        phase = make_phase(scaled(durations, scale), deps=deps,
                           creation=creation * scale)
        assert _structure_of(phase) == "fanout0"
        assert_batch_matches_scalar(phase, cores)

    @settings(max_examples=75, deadline=None)
    @given(durations=st.lists(st.floats(min_value=0.0, max_value=1e6),
                              min_size=1, max_size=16),
           cores=st.lists(st.integers(min_value=1, max_value=300),
                          min_size=1, max_size=5),
           data=st.data())
    def test_per_config_duration_matrix(self, durations, cores, data):
        phase = make_phase(durations)
        mat = np.array([
            data.draw(st.lists(st.floats(min_value=0.0, max_value=1e6),
                               min_size=len(cores), max_size=len(cores)))
            for _ in durations
        ], dtype=np.float64)
        assert_batch_matches_scalar(phase, cores, task_durations_ns=mat)

    @settings(max_examples=60, deadline=None)
    @given(durations=durations_st,
           cores=st.lists(st.integers(min_value=1, max_value=32),
                          min_size=1, max_size=5),
           dscale=scale_st, oscale=scale_st)
    def test_unequal_scales_match(self, durations, cores, dscale, oscale):
        # Durations and overheads re-timed by different factors are one
        # more phase to the batch: vectorized, no fallback.
        phase = make_phase(scaled(durations, dscale), serial=7.0 * oscale,
                           creation=3.0 * oscale)
        reg = get_metrics()
        fb0 = reg.counter("sched.batch.fallbacks")
        assert_batch_matches_scalar(phase, cores)
        assert reg.counter("sched.batch.fallbacks") == fb0


class TestBatchRegressions:
    def test_zero_duration_tasks(self):
        phase = make_phase([0.0, 0.0, 5.0, 0.0], creation=2.0)
        assert_batch_matches_scalar(phase, [1, 2, 8])

    def test_single_core(self):
        phase = make_phase([3.0, 1.0, 4.0, 1.0, 5.0])
        assert_batch_matches_scalar(phase, [1])

    def test_empty_phase_all_columns(self):
        phase = make_phase([], serial=22.0, critical=8.0)
        batch = assert_batch_matches_scalar(phase, [1, 4])
        assert batch.makespan_ns[0] == pytest.approx(30.0)

    def test_general_dag_falls_back(self):
        # A chain dependency is neither nodeps nor fanout0.
        phase = make_phase([10.0, 20.0, 30.0], deps=[(), (0,), (1,)])
        assert _structure_of(phase) is None
        reg = get_metrics()
        fb0 = reg.counter("sched.batch.fallbacks")
        assert_batch_matches_scalar(phase, [2, 4])
        assert reg.counter("sched.batch.fallbacks") - fb0 == 2

    def test_counters_split_fast_and_fallback(self):
        phase = make_phase([5.0, 6.0], serial=1.0)
        dag = make_phase([5.0, 6.0, 7.0], deps=[(), (0,), (1,)])
        reg = get_metrics()
        fast0 = reg.counter("sched.batch.fast")
        fb0 = reg.counter("sched.batch.fallbacks")
        lanes = [phase, phase]
        simulate_phase_batch(lanes, [2, 4], trace_durations(lanes))
        assert reg.counter("sched.batch.fast") - fast0 == 2
        assert reg.counter("sched.batch.fallbacks") == fb0
        lanes = [phase, dag]
        simulate_phase_batch(lanes, [2, 4], trace_durations(lanes))
        # Lane 0 is nodeps (fast); lane 1 is a chain (fallback).
        assert reg.counter("sched.batch.fast") - fast0 == 3
        assert reg.counter("sched.batch.fallbacks") - fb0 == 1

    def test_mixed_core_counts_group_correctly(self):
        phase = make_phase([9.0, 1.0, 7.0, 3.0, 2.0], creation=0.5)
        assert_batch_matches_scalar(phase, [4, 2, 4, 1, 2, 8])

    def test_busy_sums_over_real_cores_only(self):
        # Dense busy rows at core counts that are not multiples of 8 or
        # exceed 128: NumPy's pairwise summation tree depends on the row
        # length, so summing the zero-padded row would differ in the
        # last ulp from the scalar busy_ns.sum().
        rng = np.random.default_rng(7)
        durations = rng.uniform(1.0, 1e4, size=2000)
        phase = make_phase(durations, creation=0.37)
        assert_batch_matches_scalar(phase, [1, 3, 7, 9, 129, 200, 252, 300])

    def test_input_validation(self):
        phase = make_phase([1.0])
        one = np.ones((1, 1))
        with pytest.raises(ValueError):
            simulate_phase_batch([phase], [0], one)
        with pytest.raises(ValueError):
            simulate_phase_batch([phase], [[2]], one)
        with pytest.raises(ValueError):
            simulate_phase_batch([phase], [2], np.zeros((3, 2)))
        # One column per lane: a 1-D duration list is not a matrix.
        with pytest.raises(ValueError):
            simulate_phase_batch([phase], [2], np.ones(1))


def phase_of(shape, durations, serial=0.0, creation=0.0, critical=0.0):
    """A phase of the given dependency shape: ``"dag"`` is a general DAG
    (task i >= 2 waits on tasks i-2 and i-1) that takes the fallback."""
    n = len(durations)
    if shape == "nodeps":
        deps = None
    elif shape == "fanout0":
        deps = [()] + [(0,)] * (n - 1)
    else:
        deps = [()] + [tuple(range(max(0, i - 2), i)) for i in range(1, n)]
    return make_phase(durations, deps=deps, serial=serial,
                      creation=creation, critical=critical)


#: Few distinct values, so ties between tasks, cores and ready times are
#: common; 0.0 makes zero-duration tasks.
tie_st = st.sampled_from([0.0, 1.0, 2.5, 350.0, 1000.0])
#: (serial, creation): (0, 0) must not take the first wave.
overhead_st = st.one_of(
    st.just((0.0, 0.0)), st.just((0.0, 350.0)), st.just((4000.0, 200.0)),
    st.just((5.0, 0.0)),
    st.tuples(st.floats(0.0, 1e4), st.floats(0.0, 1e3)))


@st.composite
def lane_calls(draw):
    """Phases of unequal task counts and shapes, and lanes over them whose
    core counts straddle each lane's task count.  Every phase's durations
    and overheads are re-timed by one drawn scale, also returned."""
    scale = draw(st.sampled_from([1.0, 0.5, 3.0]))
    phases = []
    for _ in range(draw(st.integers(1, 4))):
        shape = draw(st.sampled_from(["nodeps", "fanout0", "dag"]))
        n = draw(st.integers(3 if shape == "dag" else 0, 14))
        durations = draw(st.lists(st.one_of(tie_st, st.floats(0.0, 1e6)),
                                  min_size=n, max_size=n))
        serial, creation = draw(overhead_st)
        critical = draw(st.sampled_from([0.0, 50.0, 1e5]))
        phases.append((shape, phase_of(shape, scaled(durations, scale),
                                       serial * scale, creation * scale,
                                       critical * scale)))
    lanes = []
    for _ in range(draw(st.integers(1, 12))):
        j = draw(st.integers(0, len(phases) - 1))
        n = len(phases[j][1].tasks)
        nc = draw(st.sampled_from([1, n - 1, n, n + 1, n + 7, 3 * n + 2]))
        lanes.append((j, max(1, nc)))
    return phases, lanes, scale


class TestMultiPhaseLanes:
    @settings(max_examples=200, deadline=None)
    @given(call=lane_calls(), explicit=st.booleans(), data=st.data())
    def test_matches_per_lane_scalar_bitwise(self, call, explicit, data):
        phases, lanes, scale = call
        lane_phase = [phases[j][1] for j, _ in lanes]
        n_cores = [nc for _, nc in lanes]
        durations = trace_durations(lane_phase)
        if explicit:
            # Per-lane durations; the padding stays NaN.
            for k, p in enumerate(lane_phase):
                n = len(p.tasks)
                durations[:n, k] = scaled(data.draw(st.lists(
                    st.one_of(tie_st, st.floats(0.0, 1e6)),
                    min_size=n, max_size=n)), scale)
        reg = get_metrics()
        fb0 = reg.counter("sched.batch.fallbacks")
        batch = simulate_phase_batch(lane_phase, n_cores, durations)
        dags = sum(phases[j][0] == "dag" for j, _ in lanes)
        assert reg.counter("sched.batch.fallbacks") - fb0 == dags
        assert batch.busy_ns.shape == (len(lanes), max(n_cores))
        for k, (p, nc) in enumerate(zip(lane_phase, n_cores)):
            n = len(p.tasks)
            col = durations[:n, k].tolist() if explicit else None
            ref = simulate_phase(p, nc, task_durations_ns=col)
            assert batch.makespan_ns[k] == ref.makespan_ns, k
            assert batch.busy_sum_ns[k] == float(ref.busy_ns.sum()), k
            assert np.array_equal(batch.busy_ns[k, :nc], ref.busy_ns), k
            assert not batch.busy_ns[k, nc:].any(), k
            assert batch.serial_ns[k] == ref.serial_ns
            assert batch.n_tasks[k] == ref.n_tasks

    def test_first_wave_boundary(self):
        # Core counts n - 1, n and n + 1 put the last task just inside,
        # at and past the first wave; a 0/0 overhead phase never uses it.
        for serial, creation in ((0.0, 350.0), (0.0, 0.0)):
            phases = [phase_of("fanout0", [5.0, 1.0, 2.0, 2.0, 9.0],
                               serial, creation),
                      phase_of("nodeps", [3.0, 0.0, 3.0], serial, creation)]
            lanes = [(p, nc) for p in phases
                     for nc in range(1, len(p.tasks) + 3)]
            lane_phase = [p for p, _ in lanes]
            batch = simulate_phase_batch(lane_phase, [nc for _, nc in lanes],
                                         trace_durations(lane_phase))
            for k, (p, nc) in enumerate(lanes):
                ref = simulate_phase(p, nc)
                assert batch.makespan_ns[k] == ref.makespan_ns, (k, nc)
                assert np.array_equal(batch.busy_ns[k, :nc], ref.busy_ns)

    def test_phase_count_must_match_lanes(self):
        phase = make_phase([1.0])
        with pytest.raises(ValueError, match="phases"):
            simulate_phase_batch([phase, phase], [2], np.ones((1, 1)))


class TestDurationValidation:
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite(self, bad):
        phase = make_phase([1.0, 2.0])
        mat = np.array([[1.0, 1.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_phase_batch([phase, phase], [2, 3], mat)
        # Also on a lane that would fall back to the scalar scheduler.
        dag = phase_of("dag", [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_phase_batch([dag], [2], np.array([[1.0], [bad], [1.0]]))

    def test_rejects_a_scale_that_overflows(self):
        # A caller's per-lane re-timing scale that overflows to inf.
        phase = make_phase([1e300])
        with np.errstate(over="ignore"):
            mat = np.array([[1e300, 1e300]]) * np.array([1.0, 1e10])
        with pytest.raises(ValueError, match="finite and non-negative"):
            simulate_phase_batch([phase, phase], [1, 2], mat)


class TestStructureCacheLru:
    def test_cache_is_lru_not_wipe_at_capacity(self):
        # Churn far past capacity: the cache must stay bounded and keep
        # serving the *hot* phase without evicting it.
        hot = make_phase([1.0, 2.0])
        assert _structure_of(hot) == "nodeps"
        for _ in range(_STRUCTURE_CACHE.maxsize + 50):
            cold = make_phase([3.0], deps=[()])
            _structure_of(cold)
            # Touch the hot phase each round: LRU keeps it resident.
            assert id(hot) in _STRUCTURE_CACHE
            assert _structure_of(hot) == "nodeps"
        assert len(_STRUCTURE_CACHE) <= _STRUCTURE_CACHE.maxsize

    def test_recycled_id_does_not_alias(self):
        # A dead phase's id() may be recycled; the cache keeps the phase
        # object alive in the value and re-checks identity on hit, so a
        # new phase with the same id cannot inherit a stale structure.
        phase = make_phase([1.0], deps=[()])
        assert _structure_of(phase) == "nodeps"
        key = id(phase)
        hit = _STRUCTURE_CACHE.get(key)
        assert hit is not None and hit[1] is phase

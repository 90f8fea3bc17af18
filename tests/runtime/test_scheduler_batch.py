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


def assert_batch_matches_scalar(phase, n_cores, duration_scale=1.0,
                                overhead_scale=1.0, task_durations_ns=None):
    """Run both engines and require bitwise-equal results per column."""
    batch = simulate_phase_batch(phase, n_cores,
                                 duration_scale=duration_scale,
                                 overhead_scale=overhead_scale,
                                 task_durations_ns=task_durations_ns)
    n_cfg = len(n_cores)
    ds = np.broadcast_to(np.asarray(duration_scale, dtype=np.float64),
                         (n_cfg,))
    os_ = np.broadcast_to(np.asarray(overhead_scale, dtype=np.float64),
                          (n_cfg,))
    assert batch.busy_ns.shape == (n_cfg, max(n_cores))
    for k in range(n_cfg):
        if task_durations_ns is None:
            col = None
        else:
            arr = np.asarray(task_durations_ns, dtype=np.float64)
            col = (arr if arr.ndim == 1 else arr[:, k]).tolist()
        ref = simulate_phase(phase, int(n_cores[k]),
                             duration_scale=float(ds[k]),
                             overhead_scale=float(os_[k]),
                             task_durations_ns=col)
        c = ref.n_cores
        assert batch.makespan_ns[k] == ref.makespan_ns, k
        assert batch.n_tasks == ref.n_tasks
        assert batch.serial_ns[k] == ref.serial_ns
        assert batch.creation_ns_total[k] == ref.creation_ns_total
        assert np.array_equal(batch.busy_ns[k, :c], ref.busy_ns), k
        assert not batch.busy_ns[k, c:].any(), k  # padding tail is zero
        assert batch.busy_sum_ns[k] == float(ref.busy_ns.sum()), k
    return batch


durations_st = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
    min_size=0, max_size=24)
scale_st = st.floats(min_value=0.05, max_value=20.0, allow_nan=False,
                     allow_infinity=False)


class TestBatchEqualsScalarBitwise:
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
        phase = make_phase(durations, serial=serial, creation=creation,
                           critical=critical)
        assert_batch_matches_scalar(phase, cores, duration_scale=scale,
                                    overhead_scale=scale)

    @settings(max_examples=100, deadline=None)
    @given(durations=st.lists(st.floats(min_value=0.0, max_value=1e6),
                              min_size=2, max_size=24),
           cores=st.lists(st.integers(min_value=1, max_value=300),
                          min_size=1, max_size=6),
           scale=scale_st,
           creation=st.floats(min_value=0.0, max_value=1e3))
    def test_fanout0_property(self, durations, cores, scale, creation):
        deps = [()] + [(0,)] * (len(durations) - 1)
        phase = make_phase(durations, deps=deps, creation=creation)
        assert _structure_of(phase) == "fanout0"
        assert_batch_matches_scalar(phase, cores, duration_scale=scale,
                                    overhead_scale=scale)

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
    def test_unequal_scales_fall_back_and_still_match(self, durations,
                                                      cores, dscale, oscale):
        # overhead_scale != duration_scale is outside the vectorized
        # contract; it must fall back per config and still match.
        phase = make_phase(durations, serial=7.0, creation=3.0)
        assert_batch_matches_scalar(phase, cores, duration_scale=dscale,
                                    overhead_scale=oscale)


class TestBatchRegressions:
    def test_zero_duration_tasks(self):
        phase = make_phase([0.0, 0.0, 5.0, 0.0], creation=2.0)
        assert_batch_matches_scalar(phase, [1, 2, 8])

    def test_single_core(self):
        phase = make_phase([3.0, 1.0, 4.0, 1.0, 5.0])
        assert_batch_matches_scalar(phase, [1])

    def test_empty_phase_all_columns(self):
        phase = make_phase([], serial=11.0, critical=4.0)
        batch = assert_batch_matches_scalar(phase, [1, 4], overhead_scale=2.0)
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
        reg = get_metrics()
        fast0 = reg.counter("sched.batch.fast")
        fb0 = reg.counter("sched.batch.fallbacks")
        simulate_phase_batch(phase, [2, 4], duration_scale=1.0,
                             overhead_scale=1.0)
        assert reg.counter("sched.batch.fast") - fast0 == 2
        assert reg.counter("sched.batch.fallbacks") == fb0
        simulate_phase_batch(phase, [2, 4],
                             duration_scale=[1.0, 2.0],
                             overhead_scale=[1.0, 3.0])
        # Column 0 has equal scales (fast); column 1 does not (fallback).
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
        with pytest.raises(ValueError):
            simulate_phase_batch(phase, [0])
        with pytest.raises(ValueError):
            simulate_phase_batch(phase, [2], duration_scale=0.0)
        with pytest.raises(ValueError):
            simulate_phase_batch(phase, [[2]])
        with pytest.raises(ValueError):
            simulate_phase_batch(phase, [2],
                                 task_durations_ns=np.zeros((3, 2)))


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

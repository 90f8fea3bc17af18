"""Tests for the batched config-major evaluation engine.

The contract under test is strong: the column-wise batched evaluator
must be *bitwise* identical to per-config ``Musa.simulate_node`` —
every float in every record — so the batch axis never perturbs science
results, only throughput.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.batch as batch_mod
import repro.uarch.batch as uarch_batch
from repro.apps import APP_NAMES, get_app
from repro.config import DesignSpace, axis_range, range_design_space
from repro.core import BatchEvaluator, run_sweep
from repro.core.batch import BatchEvaluator as _BE
from repro.core.musa import Musa
from repro.core.phase_sim import N_REFINE
from repro.obs import get_metrics


@pytest.fixture(scope="module")
def full_space():
    return list(DesignSpace())


@pytest.fixture(scope="module")
def tiny_space():
    return DesignSpace(
        core_labels=("medium", "lowend"),
        cache_labels=("64M:512K",),
        memory_labels=("4chDDR4", "16chHBM"),
        frequencies=(2.0,),
        vector_widths=(128, 512),
        core_counts=(64,),
    )


def _scalar_records(app_name, nodes):
    m = Musa(get_app(app_name))
    return [m.simulate_node(n).record() for n in nodes]


def _batched_records(app_name, nodes):
    ev = BatchEvaluator(Musa(get_app(app_name)))
    return ev.evaluate_frame(list(nodes)).to_records()


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_bitwise_equal_on_space_slice(self, app_name, full_space):
        # A stratified slice of the 864-point space: every 37th point
        # walks all six axes out of phase with each other.
        nodes = full_space[::37]
        assert _batched_records(app_name, nodes) == \
            _scalar_records(app_name, nodes)

    @settings(max_examples=15, deadline=None)
    @given(app_name=st.sampled_from(APP_NAMES),
           idx=st.lists(st.integers(0, 863), min_size=1, max_size=6,
                        unique=True))
    def test_bitwise_equal_property(self, app_name, idx, full_space):
        nodes = [full_space[i] for i in idx]
        assert _batched_records(app_name, nodes) == \
            _scalar_records(app_name, nodes)

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_bitwise_equal_on_odd_core_counts(self, app_name):
        # The scheduler pads every core-count group to one matrix; the
        # Table I slices above only use multiples of 8 up to 128, so
        # this space mixes core counts that are not multiples of 8 or
        # exceed 128 in one batch.
        space = DesignSpace(
            core_labels=("medium",),
            cache_labels=("64M:512K", "32M:256K"),
            memory_labels=("4chDDR4",),
            frequencies=(2.0,),
            vector_widths=(128, 512),
            core_counts=(1, 3, 4, 7, 9, 12, 100, 129, 132, 200, 252),
        )
        nodes = space.configs()
        assert _batched_records(app_name, nodes) == \
            _scalar_records(app_name, nodes)

    def test_batch_size_invariance(self, full_space):
        """Splitting one batch arbitrarily cannot change any result."""
        nodes = full_space[::101]
        whole = _batched_records("lulesh", nodes)
        ev = BatchEvaluator(Musa(get_app("lulesh")))
        halves = [rec
                  for part in (nodes[:len(nodes) // 2],
                               nodes[len(nodes) // 2:])
                  for rec in ev.evaluate_frame(part).to_records()]
        singles = _batched_records("lulesh", [nodes[0]])
        assert whole == halves
        assert whole[0] == singles[0]

    def test_counter_parity(self, tiny_space):
        """Batched evaluation counts one musa.simulate_node per config,
        exactly like the scalar path (resume tests depend on this)."""
        nodes = list(tiny_space)
        reg = get_metrics()
        before = reg.counter("musa.simulate_node")
        _batched_records("spmz", nodes)
        assert reg.counter("musa.simulate_node") - before == len(nodes)


class TestSweepBatching:
    def test_batched_sweep_equals_scalar_sweep(self, tiny_space):
        batched = run_sweep(["spmz", "hydro"], tiny_space, processes=1,
                            batch_size=8)
        scalar = (_scalar_records("spmz", tiny_space)
                  + _scalar_records("hydro", tiny_space))
        assert list(batched) == scalar

    def test_pooled_batched_sweep_equals_scalar(self, tiny_space):
        batched = run_sweep(["btmz"], tiny_space, processes=2,
                            batch_size=4)
        assert list(batched) == _scalar_records("btmz", tiny_space)

    def test_batch_counters_surface_in_metrics(self, tiny_space):
        reg = get_metrics()
        before = reg.counter("sweep.batch.configs")
        run_sweep(["spmz"], tiny_space, processes=1, batch_size=8)
        assert reg.counter("sweep.batch.configs") - before == 8

    def test_evaluator_failure_falls_back_to_scalar(self, tiny_space,
                                                    monkeypatch):
        """A broken batched evaluator degrades throughput, not coverage:
        the batch re-runs per-config and still completes bit-identically."""
        def boom(self, nodes, **kw):
            raise RuntimeError("injected evaluator bug")

        monkeypatch.setattr(_BE, "evaluate_frame", boom)
        reg = get_metrics()
        before = reg.counter("sweep.batch.fallback")
        rs = run_sweep(["spmz"], tiny_space, processes=1, batch_size=8)
        assert reg.counter("sweep.batch.fallback") - before >= 1
        monkeypatch.undo()
        assert list(rs) == _scalar_records("spmz", tiny_space)

    def test_batch_size_validation(self, tiny_space):
        with pytest.raises(ValueError):
            run_sweep(["spmz"], tiny_space, batch_size=0)


class TestStackedKernelLayer:
    """Each refine iteration times all of its kernel-memo misses in one
    ``time_kernel_batch`` call, which reads the miss tables in one
    ``hierarchy_miss_profile_batch`` call."""

    @pytest.mark.parametrize("app_name", APP_NAMES)
    def test_one_kernel_and_miss_call_per_refine_iteration(
            self, app_name, monkeypatch):
        calls = {"time": 0, "miss": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(batch_mod, "time_kernel_batch", counted(
            "time", uarch_batch.time_kernel_batch))
        monkeypatch.setattr(uarch_batch, "hierarchy_miss_profile_batch",
                            counted("miss",
                                    uarch_batch.hierarchy_miss_profile_batch))
        # 16 core counts, so phases converge to many share columns.
        nodes = list(range_design_space(
            frequencies=(2.0,), core_counts=axis_range(8, 128, 8)))[::5]
        ev = BatchEvaluator(Musa(get_app(app_name)))
        for frame in range(2):
            before = dict(calls)
            ev.evaluate_frame(nodes[frame::2])
            assert 1 <= calls["time"] - before["time"] <= N_REFINE
            assert calls["miss"] - before["miss"] == \
                calls["time"] - before["time"]


class TestMixedKernelPhase:
    """A phase whose tasks alternate between two kernels: neither
    kernel's task rows are contiguous, so their durations are scattered
    rather than written as one block.  No bundled app has such a
    phase."""

    def test_bitwise_equal_on_interleaved_kernels(self, tiny_space):
        spmz = type(get_app("spmz"))

        class Mixed(spmz):
            name = "spmz_mixed"

            def iteration_phases(self):
                first, *rest = super().iteration_phases()
                names = sorted(self.kernels())
                tasks = tuple(replace(t, kernel=names[i % 2])
                              for i, t in enumerate(first.tasks))
                return (replace(first, tasks=tasks), *rest)

        musa = Musa(Mixed())
        ev = BatchEvaluator(musa)
        assert any(not isinstance(r, slice) for r in ev._app.slot_rows)
        nodes = list(tiny_space)
        assert ev.evaluate_frame(nodes).to_records() == \
            [musa.simulate_node(n).record() for n in nodes]


class TestBoundedMemos:
    """PR 8 regression: the evaluator's miss/vec memos were the last
    unbounded plain dicts — a leak in any long-lived process.  The SIMD
    memo is LRU-bounded; the miss table is bounded by its axes."""

    def test_small_cap_evicts_and_stays_bounded(self, tiny_space):
        reg = get_metrics()
        before = reg.counter("batch.memo.evictions")
        ev = BatchEvaluator(Musa(get_app("spmz")), memo_cap=2)
        nodes = list(tiny_space)
        res = ev.evaluate_frame(nodes).to_records()
        assert len(ev._vec_memo) <= 2
        # The app's kernels x the space's hierarchies x one 64-share
        # block per 64 cores, each cell one float (plus L1 and L2).
        n_k = len(ev.musa.detailed.kernels)
        n_h = len({n.cache for n in nodes})
        n_s = -(-(max(n.n_cores for n in nodes) + 1) // 64) * 64
        table = ev._miss_table
        assert table._l3.nbytes + table._l12.nbytes \
            <= n_k * n_h * (n_s + 2) * 8
        assert reg.counter("batch.memo.evictions") > before
        # Eviction changes memory behaviour only, never results.
        assert res == _batched_records("spmz", nodes)

    def test_default_cap_never_evicts_on_tiny_space(self, tiny_space):
        reg = get_metrics()
        before = reg.counter("batch.memo.evictions")
        BatchEvaluator(Musa(get_app("spmz"))).evaluate_frame(
            list(tiny_space))
        assert reg.counter("batch.memo.evictions") == before

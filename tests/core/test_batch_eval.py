"""Tests for the batched config-major evaluation engine.

The contract under test is strong: the column-wise batched evaluator
must be *bitwise* identical to per-config ``Musa.simulate_node`` —
every float in every record — so the batch axis never perturbs science
results, only throughput.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import APP_NAMES, get_app
from repro.config import DesignSpace
from repro.core import BatchEvaluator, run_sweep
from repro.core.batch import BatchEvaluator as _BE
from repro.core.musa import Musa
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


class TestBoundedMemos:
    """PR 8 regression: the evaluator's miss/vec memos were the last
    unbounded plain dicts — a leak in any long-lived process."""

    def test_small_cap_evicts_and_stays_bounded(self, tiny_space):
        reg = get_metrics()
        before = reg.counter("batch.memo.evictions")
        ev = BatchEvaluator(Musa(get_app("spmz")), memo_cap=2)
        nodes = list(tiny_space)
        res = ev.evaluate_frame(nodes).to_records()
        assert len(ev._miss_memo) <= 2
        assert len(ev._vec_memo) <= 2
        assert reg.counter("batch.memo.evictions") > before
        # Eviction changes memory behaviour only, never results.
        assert res == _batched_records("spmz", nodes)

    def test_default_cap_never_evicts_on_tiny_space(self, tiny_space):
        reg = get_metrics()
        before = reg.counter("batch.memo.evictions")
        BatchEvaluator(Musa(get_app("spmz"))).evaluate_frame(
            list(tiny_space))
        assert reg.counter("batch.memo.evictions") == before

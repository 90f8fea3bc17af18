"""Active-search properties: exact front recovery, budgets, streaming.

The headline contract (also gated by the ``macro.search_dse``
benchmark): run to convergence on the full 864-point paper space, the
search's front is **exactly** the exhaustive sweep's Pareto front —
same (x, y) values, same configs, same order — while evaluating a
strict subset of the space.  Every evaluated point goes through the
same batched evaluator the exhaustive sweep uses, so equality here is
bitwise, not approximate.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import pareto_front, search_front
from repro.apps import get_app
from repro.config import DesignSpace, axis_linspace, axis_range, \
    full_design_space
from repro.core import ResultSet
from repro.core.batch import BatchEvaluator
from repro.core.musa import Musa
from repro.core.store import ResultStore, store_keys_batch
from repro.obs import MetricsRegistry

from ..core.reference import frame_from_records, store_key

APP = "lulesh"
FULL = full_design_space()

#: Small space for cheap behavioral tests: 1 core x 1 cache x 2
#: memories x 2 freqs x 2 vectors x 2 counts = 16 points.
SMALL = DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                    frequencies=(1.5, 2.5), vector_widths=(128, 512),
                    core_counts=(32, 64))

#: Range-axis space (64 points) with enough numeric density for the
#: surrogate to have something to fit.
RANGY = DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                    memory_labels=("4chDDR4",),
                    frequencies=axis_linspace(1.0, 4.0, 8),
                    vector_widths=(256,),
                    core_counts=axis_range(8, 64, 8))


@pytest.fixture(scope="module")
def evaluator():
    """One warmed evaluator shared by every search in this module."""
    return BatchEvaluator(Musa(get_app(APP)))


@pytest.fixture(scope="module")
def exhaustive_front(evaluator):
    records = evaluator.evaluate_frame(FULL.configs()).to_records()
    return pareto_front(ResultSet(records), APP, cores=None)


def _as_tuples(front):
    return [(p.x, p.y, tuple(sorted(p.config.items()))) for p in front]


class TestExactFrontRecovery:
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 16))
    def test_converged_search_equals_exhaustive_front(
            self, evaluator, exhaustive_front, seed):
        res = search_front(APP, FULL, max_evals=len(FULL), patience=2,
                           seed=seed, evaluator=evaluator,
                           metrics=MetricsRegistry())
        assert res.converged, "search hit the budget before closure"
        assert res.n_evaluated < len(FULL), \
            "search degenerated into the exhaustive sweep"
        assert _as_tuples(res.front) == _as_tuples(exhaustive_front)

    def test_counters_and_bookkeeping(self, evaluator, exhaustive_front):
        reg = MetricsRegistry()
        res = search_front(APP, FULL, max_evals=len(FULL), patience=2,
                           evaluator=evaluator, metrics=reg)
        assert reg.counter("search.evaluated") == res.n_evaluated
        assert reg.counter("search.rounds") == res.rounds > 0
        assert reg.counter("search.front_size") == len(res.front) \
            == len(exhaustive_front)
        assert len(res.results) == res.n_evaluated
        assert 0 < res.evaluated_fraction < 1


class TestBudget:
    def test_budget_is_a_hard_cap(self, evaluator):
        res = search_front(APP, RANGY, max_evals=17, evaluator=evaluator,
                           metrics=MetricsRegistry())
        assert res.n_evaluated <= 17
        assert not res.converged or res.n_evaluated == len(RANGY)

    def test_budget_frac_default(self, evaluator):
        res = search_front(APP, RANGY, budget_frac=0.25,
                           evaluator=evaluator, metrics=MetricsRegistry())
        assert res.n_evaluated <= -(-len(RANGY) * 25 // 100)  # ceil

    def test_full_budget_without_patience_exhausts_space(self, evaluator):
        res = search_front(APP, SMALL, max_evals=len(SMALL), patience=None,
                           evaluator=evaluator, metrics=MetricsRegistry())
        assert res.n_evaluated == len(SMALL) == 16
        assert res.converged
        # With everything evaluated the front is the exhaustive one.
        records = evaluator.evaluate_frame(SMALL.configs()).to_records()
        ref = pareto_front(ResultSet(records), APP, cores=None)
        assert _as_tuples(res.front) == _as_tuples(ref)


class TestStoreStreaming:
    def test_second_search_runs_entirely_from_store(self, evaluator,
                                                    tmp_path):
        path = tmp_path / "store.jsonl"

        class CountingEvaluator:
            batches = 0

            def evaluate_frame(self, nodes, **kw):
                CountingEvaluator.batches += 1
                return evaluator.evaluate_frame(nodes, **kw)

        with ResultStore(path) as store:
            first = search_front(APP, SMALL, max_evals=len(SMALL),
                                 patience=None,
                                 evaluator=CountingEvaluator(),
                                 store=store, code_version="test",
                                 metrics=MetricsRegistry())
            assert len(store) == first.n_evaluated
        # One columnar block line per evaluated batch, not per point.
        assert CountingEvaluator.batches > 0
        assert len(path.read_text().splitlines()) == \
            CountingEvaluator.batches

        class ExplodingEvaluator:
            def evaluate_frame(self, *a, **k):
                raise AssertionError("engine touched despite warm store")

        reg = MetricsRegistry()
        with ResultStore(path) as store:
            again = search_front(APP, SMALL, max_evals=len(SMALL),
                                 patience=None,
                                 evaluator=ExplodingEvaluator(),
                                 store=store, code_version="test",
                                 metrics=reg)
            assert len(store) == first.n_evaluated  # nothing re-put
        assert reg.counter("musa.simulate_node") == 0
        assert reg.counter("store.miss") == 0
        assert reg.counter("store.hit") == first.n_evaluated
        assert _as_tuples(again.front) == _as_tuples(first.front)
        assert list(again.results) == list(first.results)


    def test_search_keys_are_store_keys(self, evaluator, tmp_path):
        batches = []

        class RecordingEvaluator:
            def evaluate_frame(self, nodes, **kw):
                batches.append(list(nodes))
                return evaluator.evaluate_frame(nodes, **kw)

        with ResultStore(tmp_path / "store.jsonl") as store:
            search_front(APP, SMALL, max_evals=len(SMALL), patience=None,
                         evaluator=RecordingEvaluator(), store=store,
                         code_version="test", metrics=MetricsRegistry())
            configs = [node.axis_values() for node in batches[0]]
            keys = store_keys_batch(APP, configs, "fast", 256, "test")
            assert keys == [store_key(APP, c, "fast", 256, "test")
                            for c in configs]
            assert all(key in store for key in keys)


class TestFrontTies:
    """A tie in (x, y) goes to the lowest space index."""

    #: Seeds visit index 0, then 2, then 1: the tied pair (1, 2) is
    #: acquired out of index order.
    LINE = DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                       memory_labels=("4chDDR4",), frequencies=(2.0,),
                       vector_widths=(256,), core_counts=(32, 64, 96))

    class TiedEvaluator:
        METRICS = {32: (2.0, 1.0), 64: (1.0, 2.0), 96: (1.0, 2.0)}

        def evaluate_frame(self, nodes, **kw):
            records = []
            for node in nodes:
                x, y = self.METRICS[node.n_cores]
                records.append({"app": APP, **node.axis_values(),
                                "time_ns": x, "power_total_w": y})
            return frame_from_records(records)

    def test_tie_goes_to_lowest_index(self):
        space = self.LINE
        res = search_front(APP, space, max_evals=len(space), patience=None,
                           evaluator=self.TiedEvaluator(),
                           metrics=MetricsRegistry())
        assert res.n_evaluated == len(space)
        assert sorted(p.config["cores"] for p in res.front) == [32, 64]
        ref = pareto_front(res.results, APP, cores=None)
        assert _as_tuples(res.front) == _as_tuples(ref)


class TestSurrogate:
    def test_surrogate_ranking_runs_and_is_counted(self, evaluator):
        reg = MetricsRegistry()
        res = search_front(APP, RANGY, max_evals=len(RANGY), patience=None,
                           batch_size=8, surrogate=True,
                           evaluator=evaluator, metrics=reg)
        assert reg.counter("search.surrogate_rank_calls") >= 1
        assert res.front

    def test_surrogate_does_not_change_the_converged_front(self, evaluator):
        plain = search_front(APP, RANGY, max_evals=len(RANGY),
                             patience=None, evaluator=evaluator,
                             metrics=MetricsRegistry())
        ranked = search_front(APP, RANGY, max_evals=len(RANGY),
                              patience=None, batch_size=8, surrogate=True,
                              evaluator=evaluator,
                              metrics=MetricsRegistry())
        assert _as_tuples(ranked.front) == _as_tuples(plain.front)


class TestValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            search_front(APP, SMALL, epsilon=1.5)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            search_front(APP, SMALL, mode="exact")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            search_front(APP, SMALL, batch_size=0)

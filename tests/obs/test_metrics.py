"""Unit tests for the execution-metrics registry and progress meter."""

import io

import pytest

from repro.obs import MetricsRegistry, ProgressMeter, summarize


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("t", 1.0)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "timers": {}}


class TestTimers:
    def test_observe_accumulates(self):
        reg = MetricsRegistry()
        reg.observe("t", 0.5)
        reg.observe("t", 1.5)
        t = reg.snapshot()["timers"]["t"]
        assert t["count"] == 2
        assert t["total_s"] == pytest.approx(2.0)
        assert t["max_s"] == pytest.approx(1.5)

    def test_span_times_block(self):
        reg = MetricsRegistry()
        with reg.span("s"):
            pass
        t = reg.snapshot()["timers"]["s"]
        assert t["count"] == 1
        assert t["total_s"] >= 0.0

    def test_span_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("s"):
                raise RuntimeError("boom")
        assert reg.snapshot()["timers"]["s"]["count"] == 1


class TestMergeDelta:
    def test_delta_then_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.inc("tasks", 2)
        worker.observe("sim", 1.0)
        before = worker.snapshot()
        worker.inc("tasks", 3)
        worker.observe("sim", 0.25)
        delta = MetricsRegistry.delta(before, worker.snapshot())
        assert delta["counters"] == {"tasks": 3}
        assert delta["timers"]["sim"]["count"] == 1
        assert delta["timers"]["sim"]["total_s"] == pytest.approx(0.25)

        parent = MetricsRegistry()
        parent.inc("tasks", 10)
        parent.merge(delta)
        assert parent.counter("tasks") == 13
        assert parent.snapshot()["timers"]["sim"]["count"] == 1

    def test_delta_omits_unchanged(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("t", 1.0)
        snap = reg.snapshot()
        assert MetricsRegistry.delta(snap, snap) \
            == {"counters": {}, "timers": {}}


class TestDeltaIntervalMax:
    """``delta`` reports the interval's contribution to the running
    maximum, not the all-time maximum (which inflated parent-merged
    worker spans across resumed sweeps)."""

    def test_interval_without_new_max_reports_zero(self):
        reg = MetricsRegistry()
        reg.observe("sim", 10.0)
        before = reg.snapshot()
        reg.observe("sim", 1.0)
        d = MetricsRegistry.delta(before, reg.snapshot())
        assert d["timers"]["sim"]["count"] == 1
        assert d["timers"]["sim"]["total_s"] == pytest.approx(1.0)
        assert d["timers"]["sim"]["max_s"] == 0.0

    def test_interval_with_new_max_reports_it(self):
        reg = MetricsRegistry()
        reg.observe("sim", 1.0)
        before = reg.snapshot()
        reg.observe("sim", 5.0)
        d = MetricsRegistry.delta(before, reg.snapshot())
        assert d["timers"]["sim"]["max_s"] == pytest.approx(5.0)

    def test_merged_delta_does_not_inflate_parent_max(self):
        # A worker's slow first interval must not leak into the max of
        # a later interval merged on its own (the resumed-sweep case).
        worker = MetricsRegistry()
        worker.observe("sim", 10.0)         # interval 1 (discarded)
        before = worker.snapshot()
        worker.observe("sim", 1.0)          # interval 2
        worker.observe("sim", 2.0)
        parent = MetricsRegistry()
        parent.merge(MetricsRegistry.delta(before, worker.snapshot()))
        t = parent.snapshot()["timers"]["sim"]
        assert t["count"] == 2
        assert t["max_s"] == pytest.approx(0.0)  # 10.0 was pre-interval

    def test_merging_every_delta_reconstructs_true_max(self):
        worker = MetricsRegistry()
        parent = MetricsRegistry()
        snap = worker.snapshot()
        for interval in ([1.0, 7.0], [2.0], [3.0, 0.5]):
            for s in interval:
                worker.observe("sim", s)
            after = worker.snapshot()
            parent.merge(MetricsRegistry.delta(snap, after))
            snap = after
        t = parent.snapshot()["timers"]["sim"]
        assert t["count"] == 5
        assert t["total_s"] == pytest.approx(13.5)
        assert t["max_s"] == pytest.approx(7.0)


class TestSummarize:
    def test_derived_fields(self):
        reg = MetricsRegistry()
        reg.inc("sweep.tasks.completed", 8)
        reg.inc("sweep.retries", 2)
        reg.inc("musa.phase_detail.hit", 3)
        reg.inc("musa.phase_detail.miss", 1)
        reg.inc("phase_sim.kernel_memo.hit", 2)
        reg.inc("phase_sim.kernel_memo.miss", 2)
        reg.observe("sweep.run", 4.0)
        d = summarize(reg.snapshot())["derived"]
        assert d["tasks_completed"] == 8
        assert d["retries"] == 2
        assert d["tasks_per_second"] == pytest.approx(2.0)
        assert d["phase_memo_hit_rate"] == pytest.approx(0.75)
        assert d["kernel_memo_hit_rate"] == pytest.approx(0.5)
        assert d["memo_hit_rate"] == pytest.approx(5 / 8)

    def test_empty_rates_are_none(self):
        d = summarize(MetricsRegistry().snapshot())["derived"]
        assert d["memo_hit_rate"] is None
        assert d["tasks_per_second"] is None


class TestProgressMeter:
    def test_rate_and_eta(self):
        clock = iter([0.0, 10.0, 10.0]).__next__
        stream = io.StringIO()
        meter = ProgressMeter(100, every_n=1, min_interval_s=0.0,
                              stream=stream, clock=clock)
        meter.update(20)
        out = stream.getvalue()
        assert "20/100" in out
        assert "2.0 tasks/s" in out
        assert "eta 0:40" in out

    def test_throttled_by_stride(self):
        stream = io.StringIO()
        meter = ProgressMeter(1000, every_n=200, min_interval_s=0.0,
                              stream=stream)
        for _ in range(199):
            meter.update()
        assert stream.getvalue() == ""
        meter.update()
        assert "200/1000" in stream.getvalue()

    def test_final_update_always_prints(self):
        stream = io.StringIO()
        meter = ProgressMeter(3, every_n=200, min_interval_s=60.0,
                              stream=stream)
        meter.update(3)
        assert "3/3" in stream.getvalue()

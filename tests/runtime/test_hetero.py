"""Tests for heterogeneous (big.LITTLE) scheduling."""

import numpy as np
import pytest

from repro.config import baseline_node
from repro.runtime import (
    HeteroMix,
    area_matched_mix,
    simulate_phase,
    simulate_phase_hetero,
)

from .test_scheduler import make_phase


class TestHeteroScheduler:
    def test_uniform_speeds_match_homogeneous(self):
        # Unit speeds run the scalar reference's loop: bit for bit, on
        # nodeps, fanout0 and general-DAG phases.
        for deps in (None, [(), (0,), (0,), (0,), (0,), (0,)],
                     [(), (0,), (0,), (1, 2), (3,), (1,)]):
            phase = make_phase([10, 20, 30, 40, 7, 13], deps=deps,
                               serial=3.0, creation=1.0, critical=5.0)
            for cores in (1, 2, 4, 9):
                homo = simulate_phase(phase, cores, collect_spans=True)
                het = simulate_phase_hetero(phase, [1.0] * cores,
                                            collect_spans=True)
                assert het.makespan_ns == homo.makespan_ns
                assert het.busy_ns.tobytes() == homo.busy_ns.tobytes()
                assert het.spans == homo.spans

    def test_slow_cores_slow_tasks(self):
        phase = make_phase([100.0])
        r = simulate_phase_hetero(phase, [0.5])
        assert r.makespan_ns == pytest.approx(200.0)

    def test_fast_core_preferred(self):
        # One task, two idle cores: it must land on the fast one.
        phase = make_phase([100.0])
        r = simulate_phase_hetero(phase, [1.0, 0.25], collect_spans=True)
        assert r.spans[0].core == 0
        assert r.makespan_ns == pytest.approx(100.0)

    def test_adding_little_cores_never_hurts_wide_phases(self):
        phase = make_phase([50.0] * 64)
        few = simulate_phase_hetero(phase, [1.0] * 8)
        more = simulate_phase_hetero(phase, [1.0] * 8 + [0.5] * 32)
        assert more.makespan_ns <= few.makespan_ns + 1e-9

    def test_work_conservation_in_busy_time(self):
        # Busy time on a 0.5x core is 2x the task's reference duration.
        phase = make_phase([100.0])
        r = simulate_phase_hetero(phase, [0.5])
        assert r.busy_ns.sum() == pytest.approx(200.0)

    def test_dependencies_respected(self):
        deps = [(), (0,), (1,)]
        r = simulate_phase_hetero(make_phase([10] * 3, deps=deps),
                                  [1.0, 0.5])
        assert r.makespan_ns >= 30.0 - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_phase_hetero(make_phase([1]), [])
        with pytest.raises(ValueError):
            simulate_phase_hetero(make_phase([1]), [1.0, -1.0])

    @pytest.mark.parametrize("speeds", [
        [float("nan")], [float("inf")], [1.0, float("nan")]])
    def test_rejects_non_finite_speeds(self, speeds):
        # NaN made busy time NaN; inf made every task take 0 ns.
        with pytest.raises(ValueError, match="finite and positive"):
            simulate_phase_hetero(make_phase([10.0, 20.0]), speeds)


class TestHeteroMix:
    def test_speeds_layout(self):
        mix = HeteroMix(n_big=2, n_little=3, little_speed=0.6)
        np.testing.assert_allclose(mix.speeds(),
                                   [1.0, 1.0, 0.6, 0.6, 0.6])
        assert mix.n_cores == 5

    def test_area_matched_mix_conserves_silicon(self):
        from repro.power import AreaModel

        node = baseline_node(64).with_(core="aggressive")
        am = AreaModel()
        budget = am.core_mm2(node) * 64
        mix = area_matched_mix(node, n_big=8, little_speed=0.6)
        big = am.core_mm2(node.with_(core="aggressive"))
        little = am.core_mm2(node.with_(core="lowend"))
        spent = big * mix.n_big + little * mix.n_little
        assert spent <= budget
        # and nearly all of it is used (within one little core)
        assert budget - spent < little

    def test_little_cores_outnumber_big(self):
        node = baseline_node(64).with_(core="aggressive")
        mix = area_matched_mix(node, n_big=8, little_speed=0.6)
        assert mix.n_little > mix.n_big * 4

    def test_over_budget_rejected(self):
        node = baseline_node(8).with_(core="lowend")
        with pytest.raises(ValueError, match="area budget"):
            area_matched_mix(node, n_big=64, little_speed=0.5)


class TestCoDesignInsight:
    """The heterogeneity study reproduces the starvation logic: apps
    with abundant fine-grain parallelism tolerate little cores; starved
    apps need big ones."""

    def test_hydro_tolerates_littles(self):
        from repro.apps import get_app

        node = baseline_node(64).with_(core="aggressive")
        phase = get_app("hydro").representative_phase()
        homo = simulate_phase(phase, 64)
        mix = area_matched_mix(node, n_big=8, little_speed=0.6)
        het = simulate_phase_hetero(phase, mix.speeds())
        assert het.makespan_ns <= homo.makespan_ns * 1.05

    def test_spec3d_needs_bigs(self):
        from repro.apps import get_app

        node = baseline_node(64).with_(core="aggressive")
        phase = get_app("spec3d").representative_phase()
        homo = simulate_phase(phase, 64)
        mix = area_matched_mix(node, n_big=8, little_speed=0.6)
        het = simulate_phase_hetero(phase, mix.speeds())
        assert het.makespan_ns > homo.makespan_ns * 1.15

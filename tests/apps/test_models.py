"""Per-application structural tests."""

import pytest

from repro.apps import get_app


class TestHydro:
    def test_fine_grained_tasks(self):
        app = get_app("hydro")
        for phase in app.iteration_phases():
            assert phase.n_tasks >= 256  # fine loop chunks

    def test_low_task_imbalance(self):
        app = get_app("hydro")
        for phase in app.iteration_phases():
            durs = [t.duration_ns for t in phase.tasks]
            assert max(durs) / (sum(durs) / len(durs)) < 1.2


class TestSpMz:
    def test_zone_level_parallelism_only(self):
        app = get_app("spmz")
        for phase in app.iteration_phases():
            assert phase.n_tasks == app.n_zones  # no serial task, 1/zone

    def test_no_serialized_segments(self):
        # Paper Sec. V-A: all apps except SPMZ have serialized segments.
        app = get_app("spmz")
        for phase in app.iteration_phases():
            assert all(not t.deps for t in phase.tasks)
            assert phase.serial_ns == 0.0


class TestBtMz:
    def test_uneven_zones(self):
        app = get_app("btmz")
        phase = app.representative_phase()
        durs = [t.duration_ns for t in phase.tasks if t.deps]
        assert max(durs) / (sum(durs) / len(durs)) > 1.3

    def test_has_serialized_segment(self):
        app = get_app("btmz")
        phase = app.iteration_phases()[0]
        assert phase.tasks[1].deps == (0,)


class TestSpecfem3D:
    def test_few_coarse_tasks(self):
        app = get_app("spec3d")
        rep = app.representative_phase()
        # Far fewer tasks than a 64-core socket has cores (Fig. 3).
        assert rep.n_tasks <= 48

    def test_big_serial_segments(self):
        app = get_app("spec3d")
        rep = app.representative_phase()
        serial = rep.tasks[0].duration_ns
        mean = (rep.total_task_ns - serial) / (rep.n_tasks - 1)
        assert serial > 0.3 * mean  # serialized assembly is substantial


class TestLulesh:
    def test_multiple_reductions_per_step(self):
        assert get_app("lulesh").allreduce_per_iter >= 2

    def test_task_imbalance_pronounced(self):
        app = get_app("lulesh")
        rep = app.representative_phase()
        durs = [t.duration_ns for t in rep.tasks if t.deps]
        assert max(durs) / (sum(durs) / len(durs)) > 1.25


class TestDeterminism:
    @pytest.mark.parametrize("name", ["hydro", "spmz", "lulesh"])
    def test_phases_reproducible(self, name):
        a = get_app(name).iteration_phases()
        b = get_app(name).iteration_phases()
        for pa, pb in zip(a, b):
            assert [t.duration_ns for t in pa.tasks] == \
                   [t.duration_ns for t in pb.tasks]

    def test_traces_reproducible(self):
        a = get_app("btmz").burst_trace(4, 1)
        b = get_app("btmz").burst_trace(4, 1)
        assert a.columns.kind.tolist() == b.columns.kind.tolist()
        assert a.columns.phase.tolist() == b.columns.phase.tolist()
        assert ([p.total_task_ns + p.serial_ns for p in a.phases]
                == [p.total_task_ns + p.serial_ns for p in b.phases])

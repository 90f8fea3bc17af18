"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis import claims
from repro.apps import APP_NAMES, get_app
from repro.cli import build_parser, main
from repro.config import DesignSpace, smoke_design_space
from repro.core import Musa, ResultSet, run_sweep


def _reference(app, n_ranks=256, mode="fast"):
    """The smoke space through the scalar ``Musa.simulate_node``."""
    musa = Musa(get_app(app))
    rs = ResultSet()
    for node in smoke_design_space():
        rs.add(musa.simulate_node(node, n_ranks=n_ranks, mode=mode).record())
    return rs


@pytest.fixture(scope="module")
def plane_results(tmp_path_factory):
    """A small sweep persisted the way `repro sweep` writes it."""
    path = tmp_path_factory.mktemp("cli") / "results.json"
    space = DesignSpace(core_labels=("medium",), cache_labels=("64M:512K",),
                        frequencies=(2.0,), vector_widths=(128, 512),
                        core_counts=(64,))
    run_sweep(["spmz"], space, processes=1).save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "miniFE"])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "lulesh"])
        assert args.core == "medium"
        assert args.cores == 64


class TestCommands:
    def test_characterize(self, capsys):
        assert main(["characterize", "hydro", "--cores", "32"]) == 0
        out = capsys.readouterr().out
        assert "L1 MPKI" in out
        assert "node power" in out

    def test_simulate_with_overrides(self, capsys):
        rc = main(["simulate", "spmz", "--vector", "512",
                   "--core", "aggressive", "--memory", "8chDDR4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "aggressive" in out
        assert "512b" in out

    def test_figure_from_results(self, plane_results, capsys):
        rc = main(["figure", "vector", "--results", str(plane_results)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spmz" in out
        assert "mean" in out

    def test_figure_svg_output(self, plane_results, tmp_path, capsys):
        svg = tmp_path / "fig.svg"
        rc = main(["figure", "vector", "--results", str(plane_results),
                   "--svg", str(svg)])
        assert rc == 0
        assert svg.exists()
        assert svg.read_text().startswith("<svg")

    def test_figure_missing_results(self, tmp_path, capsys):
        rc = main(["figure", "vector", "--results",
                   str(tmp_path / "nope.json")])
        assert rc == 1
        assert "repro sweep" in capsys.readouterr().err

    def test_figure_wrong_cores(self, plane_results, capsys):
        rc = main(["figure", "vector", "--results", str(plane_results),
                   "--cores", "32"])
        assert rc == 1

    def test_scaling(self, capsys):
        assert main(["scaling", "spmz", "--ranks", "8"]) == 0
        out = capsys.readouterr().out
        assert "region eff" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "spec3d", "--ranks", "8",
                     "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "occupancy" in out
        assert "#" in out

    def test_sweep_writes_results(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "out.json"
        # Monkeypatch the sweep spaces down for test speed.  Note:
        # `repro.cli.main` the module is shadowed by the `main` function
        # on the package, so resolve it via importlib.
        import importlib

        cli_main = importlib.import_module("repro.cli.main")

        tiny = DesignSpace(core_labels=("medium",),
                           cache_labels=("64M:512K",), frequencies=(2.0,),
                           vector_widths=(128,), core_counts=(32, 64))
        monkeypatch.setattr(cli_main, "plane_design_space", lambda: tiny)
        rc = main(["sweep", "--apps", "hydro", "--plane",
                   "--out", str(out_path), "--processes", "1"])
        assert rc == 0
        back = ResultSet.load(out_path)
        # tiny space: 2 memory configs x 2 core counts
        assert len(back) == 4

    def test_sweep_batch_flags(self, tmp_path, capsys):
        """--batch-size caps the configs per batched evaluation; the
        results must equal per-config scalar simulation."""
        out_b = tmp_path / "batched.json"
        out_s = tmp_path / "scalar.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--batch-size", "4", "--out", str(out_b),
                   "--metrics-json", str(metrics)])
        assert rc == 0
        d = json.loads(metrics.read_text())["derived"]
        assert d["batched_configs"] == 8
        assert d["batch_fallbacks"] == 0
        assert d["sweep_shards"] == 2
        _reference("spmz").save(out_s)
        assert ResultSet.load(out_b) == ResultSet.load(out_s)

    def test_sweep_smoke_metrics_and_resume(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        metrics_path = tmp_path / "metrics.json"
        journal = tmp_path / "journal.jsonl"
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--out", str(out_path), "--metrics-json",
                   str(metrics_path), "--resume", str(journal)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sweep execution metrics" in out
        assert "memo hit rate" in out
        assert journal.exists()
        data = json.loads(metrics_path.read_text())
        d = data["derived"]
        assert d["tasks_completed"] == 8  # 8-config smoke space x 1 app
        assert d["tasks_per_second"] > 0
        assert d["memo_hit_rate"] is not None and d["memo_hit_rate"] > 0
        assert d["retries"] == 0

        # Re-invoking with the same journal skips all the work.
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--out", str(out_path), "--metrics-json",
                   str(metrics_path), "--resume", str(journal)])
        assert rc == 0
        d = json.loads(metrics_path.read_text())["derived"]
        assert d["tasks_completed"] == 0
        assert d["tasks_skipped"] == 8

    def test_sweep_mode_defaults_to_fast(self):
        args = build_parser().parse_args(["sweep"])
        assert args.mode == "fast"
        assert args.ranks == 256
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--mode", "detailed"])

    def test_sweep_replay_mode(self, tmp_path, capsys):
        """--mode replay runs the event-driven trace replay per point
        and reports the replay activity in the metrics summary."""
        out_fast = tmp_path / "fast.json"
        out_replay = tmp_path / "replay.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--ranks", "8", "--out", str(out_fast)])
        assert rc == 0
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--mode", "replay", "--ranks", "8",
                   "--out", str(out_replay), "--metrics-json", str(metrics)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay events processed" in out
        assert "replay tapes built" in out
        d = json.loads(metrics.read_text())["derived"]
        assert d["replay_events"] > 0
        assert d["replay_messages"] > 0
        fast = ResultSet.load(out_fast)
        rep = ResultSet.load(out_replay)
        assert len(rep) == len(fast) == 8
        assert rep != fast

    def test_sweep_replay_batched_matches_scalar(self, tmp_path, capsys):
        """The config-vectorized replay engine and per-config scalar
        simulation must write byte-identical ResultSets."""
        out_b = tmp_path / "batched.json"
        out_s = tmp_path / "scalar.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--mode", "replay", "--ranks", "8",
                   "--out", str(out_b), "--metrics-json", str(metrics)])
        assert rc == 0
        d = json.loads(metrics.read_text())["derived"]
        # The smoke network has an unlimited bus pool, so the order-free
        # path takes the array driver, never the scalar fallback.
        assert d["replay_array_events"] > 0
        assert json.loads(metrics.read_text())["counters"].get(
            "replay.batch.driver.scalar", 0) == 0
        _reference("spmz", n_ranks=8, mode="replay").save(out_s)
        assert out_b.read_bytes() == out_s.read_bytes()

    def test_sweep_profile(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--out", str(out_path), "--metrics-json", str(metrics),
                   "--profile", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "top 5 hotspots by cumulative time" in out
        assert "cumtime" in out  # pstats table actually printed
        prof = metrics.with_suffix(".prof")
        assert prof.exists() and prof.stat().st_size > 0
        assert ResultSet.load(out_path)  # results unaffected

    def test_sweep_profile_defaults_next_to_out(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        rc = main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                   "--out", str(out_path), "--profile", "3"])
        assert rc == 0
        assert (tmp_path / "results.prof").exists()

    def test_sweep_profile_rejects_nonpositive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--apps", "spmz", "--smoke", "--processes", "1",
                  "--out", str(tmp_path / "o.json"), "--profile", "0"])


class TestRecommendAndValidate:
    def test_recommend_from_results(self, plane_results, capsys):
        rc = main(["recommend", "--results", str(plane_results)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Co-design recommendations" in out

    def test_recommend_missing_results(self, tmp_path, capsys):
        rc = main(["recommend", "--results", str(tmp_path / "nope.json")])
        assert rc == 1

    def test_validate_passes(self, capsys):
        rc = main(["validate", "--apps", "hydro", "--accesses", "20000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_explain(self, capsys):
        rc = main(["explain", "spec3d", "element_kernel",
                   "--core", "lowend"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CPI stack" in out
        assert "bottleneck" in out

    def test_explain_default_kernel(self, capsys):
        assert main(["explain", "hydro"]) == 0
        assert "godunov" in capsys.readouterr().out

    def test_explain_unknown_kernel(self, capsys):
        assert main(["explain", "hydro", "nope"]) == 1

    def test_compare(self, capsys):
        rc = main(["compare", "medium/4chDDR4", "medium/8chDDR4",
                   "--apps", "lulesh"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GEOMEAN" in out

    def test_compare_bad_spec(self, capsys):
        rc = main(["compare", "medium", "warpdrive"])
        assert rc == 1

    def test_compare_same_node(self, capsys):
        rc = main(["compare", "medium", "medium"])
        assert rc == 1

    def test_roofline(self, capsys):
        assert main(["roofline", "lulesh"]) == 0
        out = capsys.readouterr().out
        assert "Roofline" in out
        assert "memory-bound" in out

    def test_tornado(self, capsys):
        assert main(["tornado", "btmz"]) == 0
        out = capsys.readouterr().out
        assert "Tornado" in out
        assert "frequency" in out

    def test_report(self, plane_results, tmp_path, capsys):
        out = tmp_path / "r.html"
        rc = main(["report", "--results", str(plane_results),
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "<svg" in out.read_text()

    def test_report_missing_results(self, tmp_path):
        rc = main(["report", "--results", str(tmp_path / "no.json")])
        assert rc == 1


@pytest.fixture(scope="module")
def claim_runs():
    """Both modes' claim fixtures, simulated once for the module."""
    return {mode: claims.claim_fixtures(mode) for mode in ("fast", "replay")}


class TestClaims:
    @pytest.fixture(autouse=True)
    def _simulate_once(self, claim_runs, monkeypatch):
        monkeypatch.setattr(claims, "claim_fixtures", claim_runs.__getitem__)

    def test_one_row_per_claim_with_both_modes(self, claim_runs, capsys):
        assert main(["claims"]) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        for claim in claims.CLAIMS:
            rows = [r for r in lines if r[:1] == [claim.name]]
            assert len(rows) == 1, claim.name
            fast = claim.check(claim_runs["fast"])
            replay = claim.check(claim_runs["replay"])
            assert rows[0][-4:] == [
                f"{fast.value:.3f}", "ok" if fast.holds else "FAIL",
                f"{replay.value:.3f}", "ok" if replay.holds else "FAIL"]
        shares = [r for r in lines if len(r) == 3 and r[0] in APP_NAMES]
        assert sorted((r[0], int(r[1])) for r in shares) == sorted(
            (a, c) for a in APP_NAMES for c in (32, 64))
        assert all(0.0 < float(r[2]) < 1.0 for r in shares)

    @pytest.mark.parametrize("holds_in, rc, row", [
        ("replay", 1, ["0.000", "FAIL", "1.000", "ok"]),
        ("fast", 0, ["1.000", "ok", "0.000", "FAIL"]),
    ], ids=["fast_failure_exits_1", "replay_failure_exits_0"])
    def test_only_fast_mode_sets_exit_code(self, holds_in, rc, row,
                                           claim_runs, monkeypatch, capsys):
        fake = claims.Claim("test.mode_dependent", "-", 0.5, None,
                            lambda fx: float(fx is claim_runs[holds_in]))
        monkeypatch.setattr(claims, "CLAIMS", claims.CLAIMS + (fake,))
        assert main(["claims"]) == rc
        rows = [line.split()[-4:] for line in
                capsys.readouterr().out.splitlines() if fake.name in line]
        assert rows == [row]

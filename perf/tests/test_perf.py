"""Self-tests of the benchmark (``--smoke`` sizes, well under 2 minutes).

Run from the checkout root: ``PYTHONPATH=src python -m pytest perf/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perf import ROOT, child_env
from perf.run import END_TO_END, per_layer_units
from perf.stream import query_stream

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, "-m", "perf", "run", *args],
                          cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, last, proc


def _declared(kind: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == END_TO_END
    assert _declared("per_layer") == per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "sweep_fast", "sweep_replay", "serve_mixed", "search_range"]


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, kind):
    code, last, proc = _run("--workload", "sweep_fast", "--smoke",
                            "--seed", "3", "--trace", trace)
    assert code == 0, proc.stderr
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    got = {name: m["unit"] for name, m in last["metrics"].items()}
    assert got == _declared(kind)


def test_a_tampered_golden_fails_the_run(tmp_path):
    golden = json.loads((ROOT / "perf" / "golden.json").read_text())
    digest = golden["smoke"]["sweep_fast"]["0"]
    golden["smoke"]["sweep_fast"]["0"] = digest[::-1]
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    code, last, proc = _run("--workload", "sweep_fast", "--smoke",
                            "--golden", str(bad))
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0
    assert "golden" in proc.stderr


def test_install_wraps_every_lookup_site():
    script = """
import sys
import perf.tracer as t
t.install()
import repro.core.batch, repro.core.sweep, repro.runtime.scheduler
assert t.is_wrapped(repro.core.batch.simulate_phase_batch)
assert repro.core.batch.simulate_phase_batch is \\
    repro.runtime.scheduler.simulate_phase_batch
assert t.is_wrapped(repro.core.sweep.unpack_frame)
originals = set()
for name, (module, qualname) in t.BOUNDARIES.items():
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert t.is_wrapped(obj), name
    originals.add(id(obj.__wrapped__))
stale = [f"{m}.{a}" for m, mod in list(sys.modules.items())
         if m.startswith("repro") and mod is not None
         for a, v in vars(mod).items() if id(v) in originals]
assert not stale, stale
t.install()  # idempotent: no double wrapping
assert not t.is_wrapped(repro.core.batch.simulate_phase_batch.__wrapped__)
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_two_seeds_give_different_streams_that_both_verify():
    assert query_stream(1, 40) == query_stream(1, 40)
    assert query_stream(1, 40) != query_stream(2, 40)
    for seed in ("1", "2"):
        code, last, proc = _run("--workload", "serve_mixed", "--smoke",
                                "--seed", seed)
        assert code == 0, proc.stderr
        assert last["correct"] is True and last["failed"] == 0


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--workload", "sweep_fast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

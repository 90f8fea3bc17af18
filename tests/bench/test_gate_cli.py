"""End-to-end regression-gate tests through the ``repro bench`` CLI.

Uses only the two cheapest micro benchmarks and a throwaway ledger so
the full append -> check -> inject cycle stays test-suite fast.  The
injected factor is deliberately enormous (20x) so the verdict cannot
hinge on machine noise.
"""

import json

import pytest

from repro.bench import Ledger
from repro.cli.main import main as repro_main

BENCH = ["--only", "micro.tape_replay", "--smoke",
         "--repeats", "2", "--warmup", "0", "--retries", "0"]


@pytest.fixture(scope="module")
def seeded_ledger(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "ledger.jsonl"
    rc = repro_main(["bench", *BENCH, "--append", "--ledger", str(path)])
    assert rc == 0
    led = Ledger.load(path)
    assert len(led) == 1
    entry = led.entries[0]
    assert entry["bench"] == "micro.tape_replay"
    assert entry["oracle_ok"] is True
    assert entry["inject_slowdown"] == 1.0
    return path


def test_check_passes_clean_with_loose_threshold(seeded_ledger):
    # A wide-open threshold isolates plumbing from machine noise.
    rc = repro_main(["bench", *BENCH, "--check", "--threshold", "10.0",
                     "--ledger", str(seeded_ledger)])
    assert rc == 0


def test_check_fails_on_injected_slowdown(seeded_ledger):
    rc = repro_main(["bench", *BENCH, "--check", "--threshold", "0.10",
                     "--inject-slowdown", "20.0",
                     "--ledger", str(seeded_ledger)])
    assert rc == 1


def test_injected_entries_never_become_baselines(seeded_ledger, tmp_path):
    path = tmp_path / "ledger.jsonl"
    rc = repro_main(["bench", *BENCH, "--append", "--inject-slowdown",
                     "20.0", "--ledger", str(path)])
    assert rc == 0
    led = Ledger.load(path)
    assert len(led) == 1
    assert led.baseline("micro.tape_replay", "smoke") is None


def test_json_report_written(seeded_ledger, tmp_path):
    out = tmp_path / "run.json"
    rc = repro_main(["bench", *BENCH, "--check", "--threshold", "10.0",
                     "--ledger", str(seeded_ledger), "--json", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["bench"] == "micro.tape_replay"
    assert payload["verdicts"][0]["status"] in ("ok", "no-baseline")
    assert payload["calib_s"] > 0


def test_trend_report_renders_from_ledger(seeded_ledger, tmp_path):
    out = tmp_path / "trend.html"
    rc = repro_main(["bench", "--report", str(out),
                     "--ledger", str(seeded_ledger)])
    assert rc == 0
    html = out.read_text()
    assert "micro.tape_replay" in html
    assert "<svg" in html


def test_merge_unions_ledgers(seeded_ledger, tmp_path):
    other = tmp_path / "other.jsonl"
    rc = repro_main(["bench", *BENCH, "--append", "--ledger", str(other)])
    assert rc == 0
    merged = tmp_path / "merged.jsonl"
    merged.write_text(seeded_ledger.read_text())
    rc = repro_main(["bench", "--merge", str(other),
                     "--ledger", str(merged)])
    assert rc == 0
    led = Ledger.load(merged)
    assert len(led) == 2
    # Merging again is a no-op (idempotent at the file level).
    rc = repro_main(["bench", "--merge", str(other),
                     "--ledger", str(merged)])
    assert rc == 0
    assert Ledger.load(merged) == led


def test_list_names_every_benchmark(capsys):
    rc = repro_main(["bench", "--list"])
    assert rc == 0
    out = capsys.readouterr().out
    for bid in ("micro.miss_model", "macro.campaign"):
        assert bid in out


def test_invalid_flags_rejected():
    assert repro_main(["bench", "--check", "--threshold", "-1"]) == 2
    assert repro_main(["bench", "--inject-slowdown", "0"]) == 2
    assert repro_main(["bench", "--retries", "-1"]) == 2

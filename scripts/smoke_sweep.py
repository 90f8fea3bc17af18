#!/usr/bin/env python
"""CI smoke sweep: 2 apps x 8 configs exercising fault injection,
journal resume, and the batched evaluation engine.

Asserts that a campaign killed mid-run by an injected fatal fault and
resumed from its journal is bit-identical to an uninterrupted run, that
retried faults leave no failure stubs, that the batched (config-major)
engine produces bit-identical results to scalar per-config evaluation
— in fast mode and in replay mode, where the config-vectorized replay
engine must match per-config scalar replay byte-for-byte — that a
campaign split into two K/N shards and merged back with merge_journal
resumes bit-identically with zero re-evaluation, that a `repro sweep
--resume J` process SIGKILLed mid-campaign resumes to output
byte-identical to an uninterrupted run — inline, and pooled with no
worker outliving the killed parent — and that the execution metrics
report throughput and memoization.
Exits non-zero on any violation.

Run from the repo root:  PYTHONPATH=src python scripts/smoke_sweep.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.apps import get_app
from repro.config import smoke_design_space
from repro.core import (FailNTimes, Musa, SweepAbort, merge_journal,
                        replay_journal, run_sweep)
from repro.obs import MetricsRegistry, set_metrics, summarize

APPS = ["spmz", "hydro"]
SPACE = smoke_design_space()  # 8 configurations
SRC = Path(__file__).resolve().parents[1] / "src"


def cli_sweep(*args, processes=1):
    """Start ``repro sweep`` over the smoke campaign, one config per
    journal line so the journal grows while the process runs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "--apps", *APPS,
         "--smoke", "--batch-size", "1", "--processes", str(processes),
         *args], env=env, stdout=subprocess.DEVNULL)


def children(pid):
    """Pids whose parent is ``pid``, read from ``/proc``."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # exited meanwhile
            continue
        if int(fields[1]) == pid:
            out.append(int(stat.parent.name))
    return out


def running(pid):
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


def kill_and_resume(tmp, processes):
    """SIGKILL a journaled CLI sweep once its journal is non-empty,
    resume it, and compare the output with an uninterrupted run byte
    for byte.  Returns ``(journaled records at the kill, pids of the
    killed run's children)``."""
    journal = Path(tmp) / f"kill{processes}.jsonl"
    ref, out = Path(tmp) / "ref.json", Path(tmp) / f"resumed{processes}.json"
    if not ref.exists():
        assert cli_sweep("--out", str(ref)).wait() == 0
    victim = cli_sweep("--resume", str(journal), processes=processes)
    while victim.poll() is None and not (
            journal.exists() and journal.stat().st_size):
        time.sleep(0.002)
    workers = children(victim.pid) if os.path.isdir("/proc") else []
    victim.kill()
    victim.wait()
    n_killed = len(replay_journal(journal).results)
    assert cli_sweep("--resume", str(journal), "--out", str(out),
                     processes=processes).wait() == 0
    assert out.read_bytes() == ref.read_bytes(), \
        "SIGKILLed and resumed CLI sweep differs from uninterrupted run"
    return n_killed, workers


def scalar_records(metrics, n_ranks=256, mode="fast"):
    """Per-config scalar ``Musa.simulate_node`` records in sweep order,
    reporting into ``metrics``."""
    prev = set_metrics(metrics)
    try:
        out = []
        for app in APPS:
            musa = Musa(get_app(app))
            out += [musa.simulate_node(node, n_ranks=n_ranks,
                                       mode=mode).record()
                    for node in SPACE]
        return out
    finally:
        set_metrics(prev)


def main() -> int:
    assert len(SPACE) == 8, f"smoke space drifted: {len(SPACE)} configs"
    print(f"smoke sweep: {len(APPS)} apps x {len(SPACE)} configs")

    # 0. Batched (default) vs scalar evaluation: bit-identical results.
    reg_b = MetricsRegistry()
    cold = run_sweep(APPS, SPACE, processes=1, metrics=reg_b)
    reference = json.dumps(list(cold), sort_keys=True)
    assert reg_b.counter("sweep.batch.configs") == len(APPS) * len(SPACE)
    assert reg_b.counter("sweep.batch.fallback") == 0
    assert reg_b.counter("miss.batch.geometries") > 0, \
        "batched sweep never used the vectorized miss model"
    assert reg_b.counter("sched.batch.fast") > 0, \
        "batched sweep never used the vectorized phase scheduler"

    reg_s = MetricsRegistry()
    scalar = scalar_records(reg_s)
    assert json.dumps(scalar, sort_keys=True) == reference, \
        "batched sweep differs from scalar simulate_node"
    print(f"  batched == scalar: {len(cold)} records bit-identical")

    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "smoke.jsonl"

        # 1. Kill the campaign partway through via an injected fatal
        #    fault, then resume from the journal.
        victim = list(SPACE)[5].label
        try:
            run_sweep(APPS, SPACE, processes=1, resume=journal,
                      fault_hook=FailNTimes(times=1, fatal=True,
                                            label=victim, app="spmz"))
            raise AssertionError("injected abort did not fire")
        except SweepAbort:
            pass
        # The columnar journal packs a whole shard into one block line,
        # so count replayed records, not lines.
        n_journaled = len(replay_journal(journal).results)
        assert 0 < n_journaled < len(APPS) * len(SPACE), n_journaled
        print(f"  killed mid-run after {n_journaled} journaled records")

        reg = MetricsRegistry()
        resumed = run_sweep(APPS, SPACE, processes=1, resume=journal,
                            metrics=reg)
        assert reg.counter("sweep.tasks.skipped") == n_journaled
        assert json.dumps(list(resumed), sort_keys=True) == reference, \
            "resumed sweep differs from uninterrupted run"
        print(f"  resume OK: skipped {n_journaled}, "
              f"simulated {int(reg.counter('sweep.tasks.completed'))}, "
              "results bit-identical")

    # 2. Transient faults on every task are retried to completion.
    reg = MetricsRegistry()
    faulty = run_sweep(APPS, SPACE, processes=1,
                       fault_hook=FailNTimes(times=1),
                       retry_backoff_s=0.0, metrics=reg)
    assert json.dumps(list(faulty), sort_keys=True) == reference
    assert len(faulty.failures()) == 0
    assert reg.counter("sweep.retries") == len(APPS) * len(SPACE)
    print(f"  fault injection OK: {int(reg.counter('sweep.retries'))} "
          "retries, zero stubs")

    # 3. Metrics report throughput and memoization.  The memoization
    #    check reads the *scalar* run's registry: the batched engine
    #    resolves kernel timings column-wise and barely touches the
    #    scalar kernel memo.
    d = summarize(reg.snapshot())["derived"]
    assert d["tasks_per_second"] and d["tasks_per_second"] > 0
    ds = summarize(reg_s.snapshot())["derived"]
    assert ds["memo_hit_rate"] is not None and ds["memo_hit_rate"] > 0
    print(f"  metrics OK: {d['tasks_per_second']:.1f} tasks/s, "
          f"scalar memo hit rate {ds['memo_hit_rate']:.2f}")

    # 4. Replay mode: event-driven MPI trace replay per point must give
    #    identical ResultSets across worker counts, differ from the
    #    analytic fast mode, and report replay activity.
    reg_r = MetricsRegistry()
    replay_1 = run_sweep(APPS, SPACE, n_ranks=16, processes=1,
                         mode="replay", metrics=reg_r)
    replay_ref = json.dumps(list(replay_1), sort_keys=True)
    replay_2 = run_sweep(APPS, SPACE, n_ranks=16, processes=2,
                         mode="replay")
    assert json.dumps(list(replay_2), sort_keys=True) == replay_ref, \
        "replay-mode sweep differs across worker counts"
    fast_16 = run_sweep(APPS, SPACE, n_ranks=16, processes=1)
    assert json.dumps(list(fast_16), sort_keys=True) != replay_ref, \
        "replay mode produced fast-mode results"
    dr = summarize(reg_r.snapshot())["derived"]
    assert dr["replay_events"] > 0 and dr["replay_messages"] > 0
    assert dr["replay_array_events"] > 0, \
        "batched replay sweep never priced an event on the array tape"
    print(f"  replay mode OK: {len(replay_1)} records identical across "
          f"1 and 2 workers, {int(dr['replay_events'])} events, "
          f"{int(dr['replay_messages'])} messages")

    # 5. Config-vectorized replay (the sweep above) vs per-config
    #    scalar replay through simulate_node: byte-for-byte identical.
    reg_rs = MetricsRegistry()
    replay_scalar = scalar_records(reg_rs, n_ranks=16, mode="replay")
    drs = summarize(reg_rs.snapshot())["derived"]
    assert drs["replay_events"] > 0 and drs["replay_array_events"] == 0
    assert json.dumps(replay_scalar, sort_keys=True) == replay_ref, \
        "config-vectorized replay differs from per-config replay"
    print(f"  replay batching OK: batched == per-config byte-for-byte, "
          f"{int(dr['replay_array_events'])} array events")

    # 6. Sharded campaign: two disjoint K/N shards journaled separately,
    #    merged with merge_journal, must resume into the canonical
    #    ResultSet byte-for-byte with zero re-evaluation — and the
    #    merged journal must be byte-stable regardless of input order.
    with tempfile.TemporaryDirectory() as tmp:
        s0 = Path(tmp) / "s0.jsonl"
        s1 = Path(tmp) / "s1.jsonl"
        part0 = run_sweep(APPS, SPACE, processes=1, resume=s0, shard="0/2")
        part1 = run_sweep(APPS, SPACE, processes=1, resume=s1, shard="1/2")
        assert len(part0) + len(part1) == len(APPS) * len(SPACE)
        m_ab = Path(tmp) / "m_ab.jsonl"
        m_ba = Path(tmp) / "m_ba.jsonl"
        merge_journal([s0, s1], m_ab)
        merge_journal([s1, s0], m_ba)
        assert m_ab.read_bytes() == m_ba.read_bytes(), \
            "merged journal depends on shard input order"
        reg_m = MetricsRegistry()
        merged_run = run_sweep(APPS, SPACE, processes=1, resume=m_ab,
                               metrics=reg_m)
        assert reg_m.counter("sweep.tasks.completed") == 0, \
            "resume from merged shards re-evaluated tasks"
        assert json.dumps(list(merged_run), sort_keys=True) == reference, \
            "merged 2-shard journals differ from the single-process sweep"
        print(f"  shard merge OK: {len(part0)}+{len(part1)} tasks from 2 "
              "shards, merged resume bit-identical, zero re-evaluations")

    # 7. SIGKILL a journaled CLI sweep once its journal is non-empty,
    #    resume it, and compare the output with an uninterrupted run
    #    byte for byte.  The kill may land mid-line, between lines or
    #    after the last one; the resumed output must match every time.
    #    Then the same with 2 workers, none of which may outlive the
    #    killed parent.
    with tempfile.TemporaryDirectory() as tmp:
        n_killed, _ = kill_and_resume(tmp, processes=1)
        print(f"  SIGKILL resume OK: killed with {n_killed} journaled "
              "records, resumed output byte-identical")
        n_killed, workers = kill_and_resume(tmp, processes=2)
        assert len(workers) == 2 or not os.path.isdir("/proc"), workers
        deadline = time.monotonic() + 5.0
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if running(pid)]
        assert not survivors, \
            f"workers {survivors} outlived their SIGKILLed parent"
        print(f"  pooled SIGKILL resume OK: killed with {n_killed} "
              f"journaled records, {len(workers)} workers exited, "
              "resumed output byte-identical")
    print("smoke sweep passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's one command: spawn, measure, check, report.

``python -m perf run [--workload W ...] [--seed S] [--seconds T]
[--trace [0|1]] [--smoke] [--repeat N] [--out FILE]``

Each run of a workload happens in a fresh ``python -m perf.child``
subprocess, so caches start cold the way a ``repro`` invocation does;
runs go one after another, never concurrently, and no run uses more than
two cores (two sweep workers, or one server and one client).

* ``--trace 0`` (default) prints the end-to-end metrics: the child's
  numbers plus ``setup_s``, the median of five cold spawns of the
  workload's set-up.
* ``--trace 1`` prints the per-layer metrics: the child runs with every
  layer boundary wrapped (:mod:`perf.tracer`), and an untraced child of
  the same plan runs first so ``trace_overhead_frac`` compares the two.

Every run writes one JSON line (to stdout, and appended to ``--out``)
carrying the host fingerprint and the load average before and after.
With ``--repeat N`` the workloads alternate, N rounds of all of them,
and a table of each metric's median and quartiles follows.  The last
line of stdout is always one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import ROOT, SRC, child_env, workloads
from .probe import Probe
from .tracer import BOUNDARIES, TIMER_PREFIX

GOLDEN = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SECONDS = 15
SETUP_SPAWNS = 5
CHILD_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 60

#: ``name -> unit`` of every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Obs counters read from outside, reported as counts.
COUNTERS = (
    "miss.batch.geometries", "sched.batch.fallbacks",
    "replay.batch.array_events", "replay.batch.driver.worklist",
    "replay.tape.builds", "replay.tape.evictions", "sweep.shards",
    "sweep.steals", "sweep.ipc.shm", "sweep.ipc.pickle", "sweep.retries",
    "serve.singleflight.coalesced", "search.evaluated", "search.rounds",
    "musa.memo.evictions", "batch.memo.evictions",
)
#: Hit ratios built from obs counter pairs: ``name -> (hits, misses)``.
RATIOS = {
    "phase_sim.kernel_memo.hit_ratio": ("phase_sim.kernel_memo.hit",
                                        "phase_sim.kernel_memo.miss"),
    "store.hit_ratio": ("store.hit", "store.miss"),
}
SIZES = ("core.journal_bytes", "core.store_bytes", "serve.response_bytes")


def per_layer_units() -> Dict[str, str]:
    """``name -> unit`` of every per-layer metric."""
    units: Dict[str, str] = {}
    for b in BOUNDARIES:
        units[f"{b}.calls"] = "count"
        units[f"{b}.self_frac"] = "frac"
    units.update({c: "count" for c in COUNTERS})
    units.update({r: "frac" for r in RATIOS})
    units.update({s: "bytes" for s in SIZES})
    units["unattributed_frac"] = "frac"
    units["trace_overhead_frac"] = "frac"
    return units


# ------------------------------------------------------------------ spawning

def _run_child(args: List[str], timeout: float) -> None:
    """Run ``python -m perf.child ARGS`` in its own session; on timeout
    the whole process group (workers, servers) is killed and reaped."""
    proc = subprocess.Popen([sys.executable, "-m", "perf.child", *args],
                            stdout=sys.stderr.fileno(), env=child_env(),
                            cwd=ROOT, start_new_session=True)
    # A blocking wait plus a watchdog, not wait(timeout=...): the latter
    # polls in sleeps of up to 50 ms, which would quantize setup_s.
    expired = threading.Event()

    def kill_group() -> None:
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # exited meanwhile
            pass

    watchdog = threading.Timer(timeout, kill_group)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    if expired.is_set():
        raise RuntimeError(f"perf.child {args[:2]} timed out after "
                           f"{timeout:.0f}s")
    if code != 0:
        raise RuntimeError(f"perf.child {args[:2]} exited with {code}")


def _measure(plan: workloads.Plan, work: Path, golden: Path,
             traced: bool) -> Dict:
    work = work / ("traced" if traced else "untraced")
    work.mkdir()
    result = work / "result.json"
    args = ["measure", plan.workload, "--seed", str(plan.seed),
            "--rounds", str(plan.rounds), "--work", str(work),
            "--golden", str(golden), "--result", str(result)]
    if plan.smoke:
        args.append("--smoke")
    if traced:
        args.append("--trace")
    _run_child(args, CHILD_TIMEOUT_S)
    return json.loads(result.read_text())


def _setup_s(workload: str, smoke: bool, work: Path) -> float:
    """Median of cold spawns of the workload's set-up, scaled by the
    probe like every other time; for serve, a fresh ``repro serve``
    until ``/health`` answers."""
    probe = Probe()
    raw = []
    for i in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        if workload == "serve_mixed":
            proc, _ = workloads.start_server(work / f"setup-{i}.jsonl", False)
            elapsed = time.perf_counter() - t0
            workloads.stop_server(proc)
        else:
            _run_child(["setup", workload] + (["--smoke"] if smoke else []),
                       SETUP_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
        probe.session()
        raw.append(elapsed)
    return statistics.median(raw) * probe.factor()


# ------------------------------------------------------------------ metrics

def end_to_end(m: Dict, setup_s: float) -> Dict[str, float]:
    return {"setup_s": setup_s,
            "work_per_s": m["work_per_s"],
            "latency_ms": m["latency_ms"],
            "peak_rss_mb": m["peak_rss_mb"]}


def per_layer(m: Dict, untraced: Dict) -> Dict[str, float]:
    """Per-layer metrics of a traced measurement.

    Shares are of ``root_s``, the busy time of every process in the
    timed region, so the boundary shares and ``unattributed_frac`` sum
    to one.
    """
    root = m["root_s"]
    out: Dict[str, float] = {}
    attributed = 0.0
    for b in BOUNDARIES:
        t = m["timers"].get(TIMER_PREFIX + b, {})
        out[f"{b}.calls"] = int(t.get("count", 0))
        out[f"{b}.self_frac"] = t.get("total_s", 0.0) / root
        attributed += t.get("total_s", 0.0)
    c = m["counters"]
    for name in COUNTERS:
        out[name] = int(c.get(name, 0))
    for name, (hit, miss) in RATIOS.items():
        out[name] = workloads.ratio(c, hit, miss)
    for name in SIZES:
        out[name] = int(m["sizes"].get(name, 0))
    out["unattributed_frac"] = 1.0 - attributed / root
    out["trace_overhead_frac"] = untraced["work_per_s"] / m["work_per_s"] - 1.0
    return out


def host_fingerprint() -> Dict[str, object]:
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version}


# ------------------------------------------------------------------ runs

def run_once(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool, golden: Path) -> Dict:
    """One measured run of one workload; returns its JSON record."""
    plan = workloads.make_plan(workload, seed, seconds, smoke)
    record: Dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "rounds": plan.rounds, "trace": trace, "smoke": smoke,
                    "host": host_fingerprint(),
                    "loadavg_before": os.getloadavg()}
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=workloads.work_root()) as tmp:
        work = Path(tmp)
        measured = [_measure(plan, work, golden, traced=False)]
        if trace:
            measured.append(_measure(plan, work, golden, traced=True))
            metrics = per_layer(measured[1], measured[0])
        else:
            metrics = end_to_end(measured[0], _setup_s(workload, smoke, work))
    attempted = sum(m["attempted"] for m in measured)
    failed = sum(m["failed"] for m in measured)
    mismatches = [x for m in measured for x in m["mismatches"]]
    if mismatches:
        failed = attempted
    record.update(correct=not mismatches and failed == 0,
                  attempted=attempted, failed=failed, metrics=metrics,
                  mismatches=mismatches, info=measured[-1]["info"],
                  wall_s=time.perf_counter() - t0,
                  loadavg_after=os.getloadavg())
    return record


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records: List[Dict], units: Dict[str, str]) -> Dict:
    """Medians across ``records``; the contract's last-line object.

    With one workload the metric names are as declared; with several
    they are ``name@workload``.
    """
    names = list(dict.fromkeys(r["workload"] for r in records))
    metrics = {}
    for w in names:
        runs = [r for r in records if r["workload"] == w]
        for name, unit in units.items():
            key = name if len(names) == 1 else f"{name}@{w}"
            metrics[key] = {"value": statistics.median(
                r["metrics"][name] for r in runs), "unit": unit}
    return {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def _table(records: List[Dict], units: Dict[str, str]) -> str:
    lines = [f"{'workload':<14} {'metric':<36} {'unit':<6} "
             f"{'q1':>12} {'median':>12} {'q3':>12} {'spread':>8}"]
    for w in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == w]
        for name, unit in units.items():
            q1, med, q3 = _quartiles([r["metrics"][name] for r in runs])
            spread = (q3 - q1) / abs(med) if med else 0.0
            lines.append(f"{w:<14} {name:<36} {unit:<6} {q1:>12.6g} "
                         f"{med:>12.6g} {q3:>12.6g} {spread:>8.1%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m perf run",
        description="Run the end-to-end benchmark (see perf/README.md).")
    p.add_argument("--workload", nargs="+", choices=workloads.NAMES,
                   default=list(workloads.NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measured seconds per run (sets the round count)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one round (self-tests)")
    p.add_argument("--repeat", type=int, default=1,
                   help="alternate the workloads N times")
    p.add_argument("--out", type=Path, help="append one JSON line per run")
    p.add_argument("--golden", type=Path, default=GOLDEN,
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeat < 1:
        p.error("--repeat must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    units = per_layer_units() if args.trace else END_TO_END
    records = []
    for _ in range(args.repeat):
        for w in args.workload:
            rec = run_once(w, args.seed, args.seconds, bool(args.trace),
                           args.smoke, args.golden)
            line = json.dumps(rec, sort_keys=True)
            print(line, flush=True)
            if args.out is not None:
                with args.out.open("a", encoding="utf-8") as fh:
                    fh.write(line + "\n")
            for msg in rec["mismatches"]:
                print(f"mismatch [{w}]: {msg}", file=sys.stderr)
            records.append(rec)
    if len(records) > 1:
        print(_table(records, units))
    summary = summarize(records, units)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1

"""The four workloads, run inside one fresh measuring subprocess.

Every workload is a number of identical-shape *rounds*; a run's
end-to-end numbers are medians over its rounds, so a burst of
contention from elsewhere on the host that spoils one round does not
move them, and every time is scaled by the host-speed probe of
:mod:`perf.probe`.  ``--seconds`` sets the number of rounds (``ROUND_S``
is a round's nominal length on a 2-vCPU host); the work inside a round
is fixed, so counts and digests repeat exactly between runs.

* ``sweep_fast`` — a journaled 2-worker ``run_sweep`` of all 5 apps in
  fast mode over one frequency slice of
  ``range_design_space(frequencies=axis_linspace(1.0, 4.0, 8),
  core_counts=axis_range(8, 128, 8))``: 1,152 configs, 5,760 tasks.
  Sixteen core counts make the phase scheduler and miss model do real
  work; replay does nothing.  Two resume passes over the finished
  journal follow (the journal's read side; they must evaluate nothing).
* ``sweep_replay`` — the same campaign shape in replay mode at 256
  ranks over an 8-frequency block of ``axis_linspace(1.0, 4.0, 64)`` and
  core counts (32, 64): 1,152 configs.  With two core counts the
  replay kernel, burst traces and tape builds dominate, so a replay
  change shows here and a scheduler change shows less.
* ``serve_mixed`` — a fresh ``repro serve`` (:mod:`perf.serve_boot`) on
  an empty store per round, one closed-loop client sending the seeded
  stream of :mod:`perf.stream` through ``ServeClient``.  Store reads and
  writes interleave, engine batches are tiny, replay tapes are rebuilt as
  the 10 replay traces cycle through the 8-entry tape cache.  The
  journal and sweep IPC are bypassed.  One client keeps the hit/miss
  sequence deterministic.
* ``search_range`` — ``search_front`` for lulesh, spmz and spec3d (one
  front each per round, seeds drawn from the run seed) on a 18,432-point
  range space.  Batched ``evaluate()`` plus the search and Pareto logic;
  journal, store, IPC and replay are bypassed.

The seed is unused by the sweeps: their campaigns are the inputs.
"""

from __future__ import annotations

import hashlib
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from . import CODE_VERSION, child_env
from .probe import Probe

__all__ = ["NAMES", "ROUND_S", "Plan", "make_plan", "measure", "set_up",
           "start_server", "stop_server", "golden_values"]

NAMES = ("sweep_fast", "sweep_replay", "serve_mixed", "search_range")

#: Nominal seconds one round takes on a quiet 2-vCPU host; a run of
#: ``--seconds T`` does ``round(T / ROUND_S)`` rounds (at least one).
ROUND_S = {"sweep_fast": 3.6, "sweep_replay": 5.5, "serve_mixed": 5.0,
           "search_range": 4.5}

SWEEP_PROCESSES = 2
RESUME_PASSES = 2
SEARCH_APPS = ("lulesh", "spmz", "spec3d")
#: Queries per serve round, and queries re-asked in-process to verify
#: the served answers.
SERVE_QUERIES = {False: 120, True: 20}
SERVE_VERIFY = {False: 50, True: 5}
SERVE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    rounds: int
    smoke: bool


def make_plan(workload: str, seed: int, seconds: float, smoke: bool) -> Plan:
    rounds = 1 if smoke else max(1, round(seconds / ROUND_S[workload]))
    return Plan(workload, seed, rounds, smoke)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ inputs

def sweep_space(workload: str, smoke: bool, r: int):
    """The design space of round ``r`` of a sweep workload."""
    from repro.config.space import axis_linspace, axis_range, range_design_space

    if smoke:
        f = axis_linspace(1.0, 4.0, 8)[r % 8]
        return range_design_space(
            core_labels=("medium", "high"), cache_labels=("64M:512K",),
            memory_labels=("8chDDR4",), frequencies=(f,),
            vector_widths=(128, 512), core_counts=(32, 64))
    if workload == "sweep_fast":
        f = axis_linspace(1.0, 4.0, 8)[r % 8]
        return range_design_space(frequencies=(f,),
                                  core_counts=axis_range(8, 128, 8))
    block = r % 8
    freqs = axis_linspace(1.0, 4.0, 64)[8 * block:8 * block + 8]
    return range_design_space(frequencies=freqs, core_counts=(32, 64))


def sweep_mode(workload: str) -> str:
    return "fast" if workload == "sweep_fast" else "replay"


def search_space():
    """The search space, smoke runs included: smaller spaces make the
    front too large a share of the space to converge within the default
    20% evaluation budget."""
    from repro.config.space import axis_linspace, axis_range, range_design_space

    return range_design_space(frequencies=axis_linspace(1.0, 4.0, 16),
                              core_counts=axis_range(8, 128, 8))


def search_seed(seed: int, r: int, j: int) -> int:
    """The ``search_front`` seed of app ``j`` in round ``r``."""
    return seed * 1000 + r * len(SEARCH_APPS) + j


def front_digest(front) -> str:
    from repro.core.canon import canonical_dumps

    return _digest(canonical_dumps([[p.config, p.x, p.y] for p in front]))


def set_up(workload: str, smoke: bool) -> None:
    """The set-up a cold spawn times for the sweeps and search: import
    the program and build the inputs.  (Serve's set-up is a server start,
    timed by the caller.)"""
    import repro.core.sweep  # noqa: F401 - the import is the set-up

    if workload == "search_range":
        import repro.analysis.search  # noqa: F401
        search_space()
    else:
        list(sweep_space(workload, smoke, 0))


# ------------------------------------------------------------------ results

@dataclass
class Measurement:
    """What one measuring subprocess reports back."""

    work_per_s: float = 0.0
    latency_ms: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)
    #: Busy time of every process in the timed region: the denominator
    #: of the per-layer shares.
    root_s: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    timers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    sizes: Dict[str, int] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def merge_registry(self, snap: Dict) -> None:
        for k, v in snap.get("counters", {}).items():
            self.counters[k] = self.counters.get(k, 0) + v
        for k, t in snap.get("timers", {}).items():
            mine = self.timers.setdefault(k, {"count": 0.0, "total_s": 0.0})
            mine["count"] += t["count"]
            mine["total_s"] += t["total_s"]


class _Timing:
    """A run's round rates and request latencies, and the host-speed
    probe (:mod:`perf.probe`) that scales them: take a probe session
    right after every measured interval."""

    def __init__(self) -> None:
        self.probe = Probe()
        self.rates: List[float] = []
        self.latencies: List[float] = []

    def report(self, m: "Measurement") -> None:
        f = self.probe.factor()
        raw_rate = statistics.median(self.rates)
        raw_latency = statistics.median(self.latencies)
        m.work_per_s = raw_rate / f
        m.latency_ms = raw_latency * f * 1e3
        m.info.update(raw_work_per_s=raw_rate,
                      raw_latency_ms=raw_latency * 1e3, probe_factor=f,
                      raw_round_rates=self.rates)


def ratio(counters: Dict[str, float], hit: str, miss: str) -> float:
    """``hit / (hit + miss)`` of two obs counters; 0 when neither ran."""
    total = counters.get(hit, 0) + counters.get(miss, 0)
    return counters.get(hit, 0) / total if total else 0.0


def _peak_rss_mb() -> float:
    """Largest single-process peak RSS so far: this process or any
    reaped descendant (sweep workers, servers)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ------------------------------------------------------------------ sweeps

def _measure_sweep(plan: Plan, work: Path, golden: Dict) -> Measurement:
    from repro.apps import APP_NAMES
    from repro.core import run_sweep
    from repro.obs import get_metrics

    m = Measurement()
    reg = get_metrics()
    mode = sweep_mode(plan.workload)
    clock = time.perf_counter
    timing = _Timing()
    timed_s = 0.0
    outputs = []
    for r in range(plan.rounds):
        space = sweep_space(plan.workload, plan.smoke, r)
        journal = work / f"{plan.workload}-{r}.jsonl"
        t0 = clock()
        results = run_sweep(APP_NAMES, space, n_ranks=256,
                            processes=SWEEP_PROCESSES, resume=journal,
                            mode=mode)
        dt = clock() - t0
        timing.probe.session()
        timing.rates.append(len(results) / dt)
        timed_s += dt
        for _ in range(RESUME_PASSES):
            done = reg.counter("sweep.tasks.completed")
            t0 = clock()
            again = run_sweep(APP_NAMES, space, n_ranks=256,
                              processes=SWEEP_PROCESSES, resume=journal,
                              mode=mode)
            dt = clock() - t0
            timing.probe.session()
            timing.latencies.append(dt)
            timed_s += dt
            evaluated = reg.counter("sweep.tasks.completed") - done
            outputs.append((r, "resume", again, evaluated))
        outputs.append((r, "campaign", results, len(results)))
        m.sizes["core.journal_bytes"] = (m.sizes.get("core.journal_bytes", 0)
                                         + journal.stat().st_size)
    m.peak_rss_mb = _peak_rss_mb()
    m.merge_registry(reg.snapshot())
    batch = m.timers.get("sweep.batch", {}).get("total_s", 0.0)
    m.root_s = timed_s + batch

    # -- correctness, outside the timed window
    want = golden.get(plan.workload, {})
    for r, kind, results, n in outputs:
        if kind == "campaign":
            m.attempted += n
            m.failed += sum(1 for rec in results.lazy() if rec.get("failed"))
        elif n:
            m.mismatches.append(f"round {r}: a resume pass evaluated {n} tasks")
        digest = _digest(results.canonical_text())
        expected = want.get(str(r % 8))
        if expected is None:
            m.mismatches.append(f"round {r}: no golden digest")
        elif digest != expected:
            m.mismatches.append(f"round {r} {kind}: digest {digest[:12]} "
                                f"!= golden {expected[:12]}")
    timing.report(m)
    m.info["tasks_per_round"] = m.attempted // plan.rounds
    return m


# ------------------------------------------------------------------ serve

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


def start_server(store: Path, traced: bool) -> Tuple[subprocess.Popen, int]:
    """Start ``repro serve`` (through :mod:`perf.serve_boot`) on an
    ephemeral port; returns once it answers ``/health``."""
    from repro.serve import ServeClient

    trace = ["--trace"] if traced else []
    proc = subprocess.Popen(
        [sys.executable, "-m", "perf.serve_boot", *trace, "serve",
         "--store", str(store), "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=child_env())
    watchdog = threading.Timer(SERVE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        port = None
        for line in proc.stdout:
            match = _LISTENING.search(line)
            if match:
                port = int(match.group(2))
                break
        if port is None:
            raise RuntimeError(f"server exited ({proc.wait()}) before "
                               "listening")
        ServeClient(port=port, timeout_s=SERVE_TIMEOUT_S).health()
    except BaseException:
        stop_server(proc)
        raise
    finally:
        watchdog.cancel()
    return proc, port


def stop_server(proc: subprocess.Popen) -> None:
    """SIGINT (the CLI's clean shutdown), then wait; kill if stuck."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _measure_serve(plan: Plan, work: Path, golden: Dict,
                   traced: bool) -> Measurement:
    from repro.core.canon import canonical_loads, content_digest
    from repro.serve import ServeClient

    from .stream import BLOCK, query_stream

    m = Measurement()
    queries = query_stream(plan.seed, SERVE_QUERIES[plan.smoke])
    clock = time.perf_counter
    timing = _Timing()
    rounds = []
    for r in range(plan.rounds):
        store = work / f"serve-{r}.jsonl"
        proc, port = start_server(store, traced)
        try:
            client = ServeClient(port=port, timeout_s=SERVE_TIMEOUT_S)
            bodies = []
            round_s = 0.0
            for b in range(0, len(queries), len(BLOCK)):
                t_block = clock()
                for q in queries[b:b + len(BLOCK)]:
                    t0 = clock()
                    bodies.append(client.raw_query(q))
                    timing.latencies.append(clock() - t0)
                round_s += clock() - t_block
                timing.probe.session()
            timing.rates.append(len(queries) / round_s)
            m.merge_registry(client.metrics())
        finally:
            stop_server(proc)
        rounds.append(bodies)
        m.sizes["core.store_bytes"] = (m.sizes.get("core.store_bytes", 0)
                                       + store.stat().st_size)
    m.peak_rss_mb = _peak_rss_mb()

    # -- correctness, outside the timed window
    digests = []
    for r, bodies in enumerate(rounds):
        got = []
        for status, body in bodies:
            m.attempted += 1
            m.sizes["serve.response_bytes"] = (
                m.sizes.get("serve.response_bytes", 0) + len(body))
            if status != 200:
                m.failed += 1
                got.append(None)
                continue
            got.append(content_digest(canonical_loads(body)["result"]))
        if r == 0:
            digests = got
        elif got != digests:
            m.mismatches.append(f"round {r} answers differ from round 0")
    stream_digest = _digest("".join(d or "-" for d in digests))
    want = golden.get("serve_mixed", {}).get(str(plan.seed))
    if want is not None and stream_digest != want:
        m.mismatches.append(f"stream digest {stream_digest[:12]} != golden "
                            f"{want[:12]} (seed {plan.seed})")
    m.mismatches.extend(_verify_in_process(plan, queries, digests, work))
    timing.report(m)
    m.root_s = sum(timing.latencies)
    lat = timing.latencies
    m.info.update(samples=len(lat), stream_digest=stream_digest,
                  store_hit_ratio=ratio(m.counters, "store.hit", "store.miss"))
    if len(lat) >= 100:
        # Scaled like latency_ms; informational (see README).
        m.info["p99_ms"] = (statistics.quantiles(lat, n=100)[98]
                            * m.info["probe_factor"] * 1e3)
    return m


def in_process_answers(queries: Sequence[Dict], store: Path) -> List[str]:
    """Result digests of ``queries`` answered by a fresh in-process
    :class:`ServeState` on an empty store."""
    from repro.core.canon import content_digest
    from repro.core.store import ResultStore
    from repro.serve import ServeState

    st = ServeState(ResultStore(store), code_version=CODE_VERSION)
    try:
        return [content_digest(st.handle(q)["result"]) for q in queries]
    finally:
        st.store.close()


def _verify_in_process(plan: Plan, queries, digests, work: Path) -> List[str]:
    """Re-ask a seeded sample of the stream; the served answers must
    equal :func:`in_process_answers`."""
    rng = random.Random(plan.seed)
    picks = sorted(rng.sample(range(len(queries)),
                              min(SERVE_VERIFY[plan.smoke], len(queries))))
    got = in_process_answers([queries[i] for i in picks],
                             work / "verify.jsonl")
    return [f"query {i}: served answer != in-process answer"
            for i, d in zip(picks, got) if d != digests[i]]


# ------------------------------------------------------------------ search

def _measure_search(plan: Plan, golden: Dict) -> Measurement:
    from repro.analysis.search import search_front
    from repro.obs import get_metrics

    m = Measurement()
    space = search_space()
    clock = time.perf_counter
    timing = _Timing()
    timed_s = 0.0
    fronts = []
    for r in range(plan.rounds):
        evaluated = 0
        round_s = 0.0
        for j, app in enumerate(SEARCH_APPS):
            s = search_seed(plan.seed, r, j)
            t0 = clock()
            res = search_front(app, space, seed=s)
            round_s += clock() - t0
            timing.probe.session()
            evaluated += res.n_evaluated
            fronts.append((app, s, res))
        timed_s += round_s
        timing.rates.append(evaluated / round_s)
        # Apps differ in cost, so a round's latency is its mean front.
        timing.latencies.append(round_s / len(SEARCH_APPS))
    m.peak_rss_mb = _peak_rss_mb()
    m.merge_registry(get_metrics().snapshot())
    m.root_s = timed_s

    # -- correctness, outside the timed window
    want = golden.get("search_range", {})
    for app, s, res in fronts:
        m.attempted += 1
        if not res.converged:
            m.failed += 1
        digest = front_digest(res.front)
        expected = want.get(f"{app}:{s}")
        if expected is not None and digest != expected:
            m.mismatches.append(f"{app} seed {s}: front digest "
                                f"{digest[:12]} != golden {expected[:12]}")
    m.mismatches.extend(_verify_fronts(space, fronts))
    timing.report(m)
    m.info["evaluated"] = int(m.counters.get("search.evaluated", 0))
    return m


def _verify_fronts(space, fronts) -> List[str]:
    """Every front point's coordinates must be what a fresh evaluator
    computes for that configuration alone (any seed, any front)."""
    from repro.apps.registry import get_app
    from repro.config.space import AXES
    from repro.core.batch import BatchEvaluator
    from repro.core.musa import Musa

    values = [space.axis_values(a) for a in AXES]
    points: Dict[str, Dict[Tuple, Tuple[float, float]]] = {}
    for app, _, res in fronts:
        for p in res.front:
            key = tuple(vals.index(p.config[a]) for a, vals in zip(AXES, values))
            points.setdefault(app, {})[key] = (p.x, p.y)
    bad = []
    for app, pts in points.items():
        coords = sorted(pts)
        fresh = BatchEvaluator(Musa(get_app(app))).evaluate(
            [space.config_at(space.index_of(c)) for c in coords])
        for c, res in zip(coords, fresh):
            if (res.time_ns, res.power.total_w) != pts[c]:
                bad.append(f"{app} {c}: front point != fresh evaluation")
    return bad


# ------------------------------------------------------------------ entry

def measure(plan: Plan, work: Path, golden: Dict,
            traced: bool) -> Measurement:
    """Run ``plan`` (tracing installed first when ``traced``)."""
    if traced and plan.workload != "serve_mixed":
        from .tracer import install
        install()
    if plan.workload in ("sweep_fast", "sweep_replay"):
        return _measure_sweep(plan, work, golden)
    if plan.workload == "serve_mixed":
        return _measure_serve(plan, work, golden, traced)
    return _measure_search(plan, golden)


def golden_values(smoke: bool, seed: int = 0,
                  search_rounds: int = 8) -> Dict[str, Dict[str, str]]:
    """Reference digests, computed in-process (inline sweeps, an
    in-process serve state): every sweep slice, the serve stream of
    ``seed`` and the first ``search_rounds`` rounds of fronts."""
    import tempfile

    from repro.analysis.search import search_front
    from repro.apps import APP_NAMES
    from repro.core import run_sweep

    out: Dict[str, Dict[str, str]] = {}
    for workload in ("sweep_fast", "sweep_replay"):
        out[workload] = {
            str(r): _digest(run_sweep(
                APP_NAMES, sweep_space(workload, smoke, r), n_ranks=256,
                processes=1, mode=sweep_mode(workload)).canonical_text())
            for r in range(8)}
    from .stream import query_stream
    with tempfile.TemporaryDirectory(dir=work_root()) as tmp:
        answers = in_process_answers(query_stream(seed, SERVE_QUERIES[smoke]),
                                     Path(tmp) / "s.jsonl")
        out["serve_mixed"] = {str(seed): _digest("".join(answers))}
    space = search_space()
    out["search_range"] = {}
    for r in range(1 if smoke else search_rounds):
        for j, app in enumerate(SEARCH_APPS):
            s = search_seed(seed, r, j)
            out["search_range"][f"{app}:{s}"] = front_digest(
                search_front(app, space, seed=s).front)
    return out


def work_root() -> Path:
    from . import WORK

    WORK.mkdir(exist_ok=True)
    return WORK

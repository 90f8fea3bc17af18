"""Fault-tolerant, resumable design-space sweep engine.

Runs the full (or a restricted) design space for a set of applications
as a chunked task schedule, inline or across worker processes.  Each
worker owns one lazily-built :class:`~repro.core.musa.Musa` instance
per application, so trace generation happens once per (worker, app) and
phase-detail memoization works across the configs the worker handles —
the same amortization MUSA gets from reusing one trace for the whole
campaign.

Since the batched engine landed, the unit of work is one app x
*config-batch*: consecutive same-app tasks are grouped (up to
``batch_size``) and evaluated column-wise by
:class:`~repro.core.batch.BatchEvaluator`, bitwise-identical to — and
several times faster than — per-config simulation.  Journal records,
retries, abort and resume semantics are all still per config; a batch
that fails to evaluate falls back to scalar per-config simulation.

Campaign-scale robustness, on top of the bare pool the first version
was:

* **journaling** — with ``resume=path`` every completed record is
  appended to a crash-safe :class:`~repro.core.checkpoint.Journal`
  and already-done tasks are skipped on the next invocation;
* **fault tolerance** — a failing task (exception or per-task
  ``timeout_s``) is retried up to ``max_retries`` times with
  exponential backoff, then recorded as a ``"failed": True`` stub so
  one bad point cannot abort a 4,320-simulation campaign;
* **fault injection** — ``fault_hook(app, node, attempt)`` runs before
  every simulation, letting tests kill precisely the Nth attempt of a
  chosen task (:class:`FailNTimes`) or abort the whole sweep
  (:class:`SweepAbort`);
* **metrics** — scheduler counters (completed / skipped / retries /
  failed) and worker-side spans are reported through
  :mod:`repro.obs`, with worker deltas merged back into the parent.

The returned :class:`~repro.core.results.ResultSet` is always in the
canonical ``sweep_configs`` order, independent of worker count, chunk
size and completion order.

Scaling to million-point range spaces (PR 9) changed the parallel
scheduler from static ``Pool`` chunking to a **work-stealing shard
scheduler**:

* tasks come from a lazy task table (``DesignSpace.config_at``) so the
  space is never materialized;
* the queued work is packed into app x config-batch *shards*
  (``sweep.shards`` counts them), dealt across per-worker deques; a
  worker that drains its deque steals the back half of the richest
  victim's deque (``sweep.steals``);
* workers are dedicated processes fed through per-worker inboxes, so
  shard ownership is real (Musa/evaluator caches stay hot per worker)
  and a dead worker's shards are requeued (``sweep.worker.lost``)
  instead of hanging the campaign;
* ``shard=(K, N)`` (CLI ``--shard K/N``) restricts one invocation to
  every Nth task, letting N hosts split a campaign; their journals
  merge with :func:`repro.core.checkpoint.merge_journal` into one
  bit-identical resume.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from multiprocessing import get_context
from pathlib import Path
from queue import Empty as _QueueEmpty
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..apps.registry import get_app
from ..config.node import NodeConfig
from ..config.space import DesignSpace
from ..obs import MetricsRegistry, ProgressMeter, get_metrics, set_metrics, warn
from .batch import BatchEvaluator
from .checkpoint import Journal, replay_journal, task_key
from .frame import FrameRow, pack_frame, unpack_frame
from .musa import Musa
from .results import ResultSet

__all__ = [
    "FailNTimes",
    "InjectedFault",
    "SweepAbort",
    "TaskTimeout",
    "run_sweep",
    "sweep_configs",
]


class SweepAbort(RuntimeError):
    """Fatal sweep error: never retried, aborts the whole campaign.

    Work journaled before the abort is preserved; ``resume=`` picks the
    campaign back up.
    """


class InjectedFault(RuntimeError):
    """Raised by test fault hooks to simulate a worker failure."""


class TaskTimeout(RuntimeError):
    """A task exceeded the per-task ``timeout_s`` budget."""


@dataclass(frozen=True)
class FailNTimes:
    """Deterministic injectable fault hook.

    Fails the first ``times`` attempts of every matching task (all
    tasks when no ``app``/``label`` filter is given), so retry logic
    can be exercised reproducibly from any worker process.  With
    ``fatal=True`` it raises :class:`SweepAbort` instead, simulating a
    mid-campaign crash.
    """

    times: int = 1
    app: Optional[str] = None
    label: Optional[str] = None
    fatal: bool = False

    def __call__(self, app_name: str, node: NodeConfig, attempt: int) -> None:
        if attempt >= self.times:
            return
        if self.app is not None and app_name != self.app:
            return
        if self.label is not None and node.label != self.label:
            return
        if self.fatal:
            raise SweepAbort(
                f"injected abort for {app_name} on {node.label}")
        raise InjectedFault(
            f"injected fault (attempt {attempt}) for {app_name} "
            f"on {node.label}")


# --------------------------------------------------------------- worker side

# Per-process Musa cache (workers are forked/spawned per sweep).
_MUSA_CACHE: Dict[str, Musa] = {}

# Per-process batched-evaluator cache, keyed like _MUSA_CACHE.
_BATCH_EVALUATORS: Dict[str, BatchEvaluator] = {}

#: Per-process task-execution settings, set by the pool initializer
#: (or directly for inline runs).
_WORKER: Dict[str, object] = {"fault_hook": None, "timeout_s": None,
                              "batch_size": 1, "mode": "fast"}


def _musa_for(app_name: str) -> Musa:
    if app_name not in _MUSA_CACHE:
        _MUSA_CACHE[app_name] = Musa(get_app(app_name))
    return _MUSA_CACHE[app_name]


def _evaluator_for(app_name: str) -> BatchEvaluator:
    if app_name not in _BATCH_EVALUATORS:
        _BATCH_EVALUATORS[app_name] = BatchEvaluator(_musa_for(app_name))
    return _BATCH_EVALUATORS[app_name]


def _init_worker(fault_hook, timeout_s, batch_size: int = 1,
                 mode: str = "fast") -> None:
    _WORKER["fault_hook"] = fault_hook
    _WORKER["timeout_s"] = timeout_s
    _WORKER["batch_size"] = batch_size
    _WORKER["mode"] = mode


def _timeout_unavailable(seconds: float, why: str) -> None:
    """A timeout was requested but cannot be armed here: degrade to an
    unbudgeted run (warn once per occurrence, count it) rather than
    failing the task."""
    get_metrics().inc("sweep.timeout_unavailable")
    warn("per-task timeout %.3gs unavailable (%s); running without a "
         "wall-clock budget", seconds, why)


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`TaskTimeout` if the block runs longer than
    ``seconds``.

    SIGALRM-based, so it only works on POSIX and only on the main
    thread.  Anywhere else a requested timeout degrades gracefully:
    the block runs without a budget, a warning is logged and the
    ``sweep.timeout_unavailable`` counter records the degradation.
    """
    if not seconds:
        yield
        return
    if not hasattr(signal, "SIGALRM"):
        _timeout_unavailable(seconds, "platform lacks signal.SIGALRM")
        yield
        return

    def _alarm(signum, frame):
        raise TaskTimeout(f"task exceeded {seconds:g}s budget")

    try:
        old = signal.signal(signal.SIGALRM, _alarm)
    except ValueError:  # not in the main thread
        _timeout_unavailable(seconds, "not on the main thread")
        yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _execute_batch(batch) -> Tuple[List[Tuple], Optional[BaseException]]:
    """One app x config-batch evaluation (the unit of sweep work).

    ``batch`` is a list of ``(idx, attempt, app_name, node, n_ranks)``
    tuples sharing one ``app_name``.  Retry and abort semantics stay
    per config:

    * the fault hook runs per member; a member whose hook raises a
      transient error fails *individually* and the rest proceed;
    * :class:`SweepAbort` from a hook stops the walk, the members
      already cleared are still evaluated and **returned** (so the
      caller can journal them before surfacing the abort), and the
      abort comes back as the second tuple element — never raised from
      here;
    * the wall-clock budget is ``timeout_s x len(batch)`` for the whole
      batch; on :class:`TaskTimeout` every member without an outcome
      fails with the timeout (entering the per-task retry path);
    * if the batched evaluator itself fails, the batch falls back to
      scalar per-config simulation (``sweep.batch.fallback`` counts
      these) — a model bug degrades throughput, not coverage.

    Returns ``(outcomes, abort)`` with outcomes shaped exactly like
    :func:`_run_chunk`'s.
    """
    reg = get_metrics()
    outcomes: List[Tuple] = []
    runnable: List[Tuple] = []
    abort: Optional[BaseException] = None
    app_name, n_ranks = batch[0][2], batch[0][4]
    mode = str(_WORKER["mode"])
    timeout_s = _WORKER["timeout_s"]
    budget = timeout_s * len(batch) if timeout_s else None
    hook = _WORKER["fault_hook"]
    reg.inc("sweep.batch.configs", len(batch))
    try:
        with reg.span("sweep.batch"), _deadline(budget):
            for task in batch:
                idx, attempt, _, node, _ = task
                if hook is not None:
                    try:
                        hook(app_name, node, attempt)
                    except SweepAbort as exc:
                        abort = exc
                        break
                    except TaskTimeout:
                        raise
                    except Exception as exc:
                        outcomes.append((idx, attempt, False,
                                         f"{type(exc).__name__}: {exc}"))
                        continue
                runnable.append(task)
            if runnable:
                ok_payloads = None
                evaluator = _evaluator_for(app_name)
                nodes = [t[3] for t in runnable]
                try:
                    # One frame for the whole batch; outcomes carry lazy
                    # row views of it, so the journal can write one
                    # block line per shard and no record dicts are ever
                    # materialized.
                    ok_payloads = evaluator.evaluate_frame(
                        nodes, n_ranks=n_ranks, mode=mode).rows()
                except (SweepAbort, TaskTimeout):
                    raise
                except Exception:
                    reg.inc("sweep.batch.fallback")
                if ok_payloads is not None:
                    for task, payload in zip(runnable, ok_payloads):
                        outcomes.append((task[0], task[1], True, payload))
                else:
                    for task in runnable:  # scalar fallback; hooks already ran
                        idx, attempt, _, node, _ = task
                        try:
                            rec = _musa_for(app_name).simulate_node(
                                node, n_ranks=n_ranks, mode=mode).record()
                        except TaskTimeout:
                            raise
                        except Exception as exc:
                            outcomes.append((idx, attempt, False,
                                             f"{type(exc).__name__}: {exc}"))
                        else:
                            outcomes.append((idx, attempt, True, rec))
    except TaskTimeout as exc:
        if abort is None:
            done = {o[0] for o in outcomes}
            msg = f"{type(exc).__name__}: {exc}"
            for task in batch:
                if task[0] not in done:
                    outcomes.append((task[0], task[1], False, msg))
        # With an abort pending, evaluated-but-unrecorded members simply
        # stay un-journaled; the resumed campaign redoes them.
    return outcomes, abort


def _iter_batches(chunk, batch_size: int):
    """Split a task chunk into maximal runs of consecutive same-app
    tasks, capped at ``batch_size``."""
    i = 0
    while i < len(chunk):
        j = i + 1
        while (j < len(chunk) and j - i < batch_size
               and chunk[j][2] == chunk[i][2]):
            j += 1
        yield list(chunk[i:j])
        i = j


def _run_chunk(chunk) -> Tuple[List[Tuple], Dict]:
    """Run a chunk of tasks in a worker; never raises for per-task
    failures (:class:`SweepAbort` excepted), so the pool stays alive.

    Returns ``(outcomes, metrics_delta)`` where each outcome is
    ``(idx, attempt, ok, record_or_error)``.  The delta is recorded in
    a fresh chunk-local registry (swapped in for the chunk's duration,
    then folded into the worker's persistent one) so its timer
    ``max_s`` values are true per-interval maxima — snapshot
    subtraction would report the worker's *all-time* max for every
    chunk, inflating parent-merged spans.
    """
    chunk_reg = MetricsRegistry()
    prev = set_metrics(chunk_reg)
    outcomes: List[Tuple] = []
    try:
        batch_size = int(_WORKER.get("batch_size") or 1)
        for batch in _iter_batches(chunk, batch_size):
            try:
                out, abort = _execute_batch(batch)
            except SweepAbort:
                raise
            except Exception as exc:
                out = [(t[0], t[1], False, f"{type(exc).__name__}: {exc}")
                       for t in batch]
                abort = None
            outcomes.extend(out)
            if abort is not None:
                raise abort
    finally:
        set_metrics(prev)
        prev.merge(chunk_reg.snapshot())
    return outcomes, chunk_reg.snapshot()


# ---------------------------------------------------------- frame IPC wire

def _pack_outcomes(outcomes: List[Tuple]) -> Tuple[List[Tuple], List[Tuple]]:
    """Wire-encode a chunk's outcomes for the results queue.

    Frame-backed success payloads collapse to ``("__row__", fi, row)``
    references into a side list of packed frames — each distinct frame
    crosses the process boundary once (as one ndarray pickle, or a
    shared-memory segment when large), instead of N per-row pickles.
    Returns ``(wire_outcomes, packed_frames)``.
    """
    frames: List = []
    frame_slot: Dict[int, int] = {}
    wire: List[Tuple] = []
    for idx, attempt, ok, payload in outcomes:
        if ok and type(payload) is FrameRow:
            fi = frame_slot.get(id(payload.frame))
            if fi is None:
                fi = frame_slot[id(payload.frame)] = len(frames)
                frames.append(payload.frame)
            wire.append((idx, attempt, ok, ("__row__", fi, payload.index)))
        else:
            wire.append((idx, attempt, ok, payload))
    return wire, [pack_frame(f) for f in frames]


def _unpack_outcomes(wire: List[Tuple], packed: List[Tuple]) -> List[Tuple]:
    """Decode :func:`_pack_outcomes` output on the parent side.

    Counts each frame's transport (``sweep.ipc.shm`` /
    ``sweep.ipc.pickle``) and rebinds row references to the
    reconstructed frames.
    """
    reg = get_metrics()
    frames = []
    for transport, payload in packed:
        reg.inc(f"sweep.ipc.{transport}")
        frames.append(unpack_frame(transport, payload))
    out: List[Tuple] = []
    for idx, attempt, ok, payload in wire:
        if (ok and type(payload) is tuple and len(payload) == 3
                and payload[0] == "__row__"):
            _, fi, row = payload
            payload = frames[fi].row(row)
        out.append((idx, attempt, ok, payload))
    return out


# ------------------------------------------------------------ parent side

def sweep_configs(
    app_names: Sequence[str],
    space: Iterable[NodeConfig],
) -> List:
    """Materialize (app, node) work items in deterministic order."""
    configs = list(space)
    return [(app, node) for app in app_names for node in configs]


class _TaskTable:
    """Lazy (app, node) view in app-major x space row-major order.

    Indexable like the materialized :func:`sweep_configs` list but
    builds each :class:`NodeConfig` on demand through
    ``DesignSpace.config_at``, so scheduling a million-point range
    space costs index arithmetic, not a million dataclasses.
    """

    def __init__(self, app_names: Sequence[str], space: DesignSpace) -> None:
        self.app_names = list(app_names)
        self.space = space
        self.n_configs = len(space)

    def __len__(self) -> int:
        return len(self.app_names) * self.n_configs

    def __getitem__(self, idx: int) -> Tuple[str, NodeConfig]:
        if not 0 <= idx < len(self):
            raise IndexError(idx)
        app_i, cfg_i = divmod(idx, self.n_configs)
        return self.app_names[app_i], self.space.config_at(cfg_i)


def _parse_shard(shard) -> Optional[Tuple[int, int]]:
    """Normalize a ``"K/N"`` string or ``(K, N)`` pair; None passes."""
    if shard is None:
        return None
    if isinstance(shard, str):
        try:
            k, n = (int(p) for p in shard.split("/"))
        except ValueError:
            raise ValueError(f"shard must be 'K/N', got {shard!r}") from None
    else:
        k, n = shard
    if n < 1 or not 0 <= k < n:
        raise ValueError(f"shard must satisfy 0 <= K < N, got {k}/{n}")
    return int(k), int(n)


def _failure_stub(app_name: str, node: NodeConfig, error: str,
                  attempts: int) -> Dict:
    """A result-shaped record marking a task that exhausted its retries."""
    ax = node.axis_values()
    return {
        "app": app_name,
        "core": ax["core"], "cache": ax["cache"], "memory": ax["memory"],
        "frequency": ax["frequency"], "vector": ax["vector"],
        "cores": ax["cores"],
        "failed": True,
        "error": error,
        "attempts": attempts,
    }


class _Scheduler:
    """Shared bookkeeping for the inline and pooled schedulers: retry
    queue with exponential backoff, journaling, metrics, progress."""

    def __init__(self, tasks, reg, journal, meter, max_retries,
                 retry_backoff_s):
        self.tasks = tasks
        self.reg = reg
        self.journal = journal
        self.meter = meter
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.completed: Dict[int, Dict] = {}
        self.queue: deque = deque()
        self.retry_heap: List[Tuple[float, int, int]] = []

    def promote_ready_retries(self) -> None:
        now = time.monotonic()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, idx, attempt = heappop(self.retry_heap)
            self.queue.append((idx, attempt))

    def next_retry_delay(self) -> Optional[float]:
        if not self.retry_heap:
            return None
        return max(0.0, self.retry_heap[0][0] - time.monotonic())

    def pending(self) -> bool:
        return bool(self.queue or self.retry_heap)

    def _finish(self, idx: int, record: Dict,
                journal: bool = True) -> None:
        self.completed[idx] = record
        if journal and self.journal is not None:
            self.journal.append(record)
        if self.meter is not None:
            self.meter.update()

    def record_outcomes(self, outcomes: Sequence[Tuple]) -> None:
        """Record a shard's outcomes, journaling frame-backed successes
        as one columnar block line per frame.

        Failures and scalar successes keep the per-record path
        unchanged; retry/stub/metrics semantics are identical to
        calling :meth:`record_outcome` per outcome.
        """
        frame_rows: Dict[int, List[FrameRow]] = {}
        for idx, attempt, ok, payload in outcomes:
            if ok and type(payload) is FrameRow and self.journal is not None:
                frame_rows.setdefault(id(payload.frame), []).append(payload)
                self.reg.inc("sweep.tasks.completed")
                self._finish(idx, payload, journal=False)
            else:
                self.record_outcome(idx, attempt, ok, payload)
        for rows in frame_rows.values():
            frame = rows[0].frame
            if len(rows) != len(frame):
                frame = frame.select([r.index for r in rows])
            self.journal.append_frame(frame)

    def record_outcome(self, idx: int, attempt: int, ok: bool,
                       payload) -> None:
        if ok:
            self.reg.inc("sweep.tasks.completed")
            self._finish(idx, payload)
            return
        self.reg.inc("sweep.faults")
        if attempt < self.max_retries:
            self.reg.inc("sweep.retries")
            delay = self.retry_backoff_s * (2 ** attempt)
            heappush(self.retry_heap,
                     (time.monotonic() + delay, idx, attempt + 1))
            return
        app_name, node = self.tasks[idx]
        self.reg.inc("sweep.tasks.failed")
        self._finish(idx, _failure_stub(app_name, node, str(payload),
                                        attempt + 1))


def _run_inline(sched: _Scheduler, n_ranks: int) -> None:
    batch_size = int(_WORKER.get("batch_size") or 1)
    while sched.pending():
        sched.promote_ready_retries()
        if not sched.queue:
            time.sleep(min(sched.next_retry_delay() or 0.0, 0.05))
            continue
        batch = _pop_chunk(sched, n_ranks, batch_size)
        sched.reg.inc("sweep.shards")
        try:
            outcomes, abort = _execute_batch(batch)
        except Exception as exc:
            outcomes = [(t[0], t[1], False,
                         f"{type(exc).__name__}: {exc}") for t in batch]
            abort = None
        sched.record_outcomes(outcomes)
        if abort is not None:
            # Pre-abort members are journaled above before the
            # campaign stops — a resume skips them.
            raise abort


def _drain_ready(sched: _Scheduler, inflight: Dict[int, object],
                 ready: Sequence[int]) -> None:
    """Collect every ready chunk result, then surface any abort.

    A chunk whose ``.get()`` raises :class:`SweepAbort` must not
    discard the *other* ready chunks' completed outcomes and metrics
    deltas: those are drained (and journaled through the scheduler)
    first, and the abort is re-raised only after all ready handles have
    been recorded — so a resume does not redo finished work.
    """
    abort: Optional[BaseException] = None
    for h in ready:
        try:
            outcomes, delta = inflight.pop(h).get()
        except SweepAbort as exc:
            if abort is None:
                abort = exc
            continue
        sched.reg.merge(delta)
        sched.record_outcomes(outcomes)
    if abort is not None:
        raise abort


def _pool_context():
    """Multiprocessing context for sweep workers.

    Fork where available (cheap workers; parent traces shared via COW);
    on spawn-only platforms the degradation is counted
    (``sweep.ctx.spawn``) and warned about instead of crashing the
    sweep.
    """
    try:
        return get_context("fork")
    except ValueError:
        get_metrics().inc("sweep.ctx.spawn")
        warn("fork start method unavailable; using spawn workers "
             "(slower start-up, traces not shared copy-on-write)")
        return get_context("spawn")


def _worker_main(inbox, results, init_args) -> None:
    """Shard-worker loop: pull ``(shard_id, chunk)`` from the private
    inbox, run it, push ``(shard_id, status, payload)`` to the shared
    results queue.  ``None`` is the shutdown sentinel.  Nothing short
    of process death escapes: per-task failures are outcomes, a
    :class:`SweepAbort` is shipped as a message, and any other escape
    fails the whole shard into the retry path.
    """
    _init_worker(*init_args)
    while True:
        item = inbox.get()
        if item is None:
            return
        shard_id, chunk = item
        try:
            outcomes, delta = _run_chunk(chunk)
            wire, packed = _pack_outcomes(outcomes)
            results.put((shard_id, "ok", (wire, packed, delta)))
        except SweepAbort as exc:
            results.put((shard_id, "abort", str(exc)))
        except BaseException as exc:  # keep the worker alive
            results.put((shard_id, "err",
                         ([(t[0], t[1]) for t in chunk],
                          f"{type(exc).__name__}: {exc}")))


class _ShardResult:
    """Handle-shaped view of one finished shard message, so the shared
    abort-draining logic (:func:`_drain_ready`, directly unit-tested)
    works unchanged on queue messages."""

    __slots__ = ("_status", "_payload")

    def __init__(self, status: str, payload) -> None:
        self._status = status
        self._payload = payload

    def get(self):
        if self._status == "abort":
            raise SweepAbort(self._payload)
        if self._status == "err":
            pairs, msg = self._payload
            return ([(idx, attempt, False, msg) for idx, attempt in pairs],
                    {})
        wire, packed, delta = self._payload
        return _unpack_outcomes(wire, packed), delta


def _pop_chunk(sched: _Scheduler, n_ranks: int, chunk_size: int) -> List:
    """Pop one shard: a run of queued same-app tasks, <= chunk_size."""
    idx, attempt = sched.queue.popleft()
    app_name, node = sched.tasks[idx]
    chunk = [(idx, attempt, app_name, node, n_ranks)]
    while sched.queue and len(chunk) < chunk_size:
        nxt_idx = sched.queue[0][0]
        nxt_app, nxt_node = sched.tasks[nxt_idx]
        if nxt_app != app_name:
            break
        idx, attempt = sched.queue.popleft()
        chunk.append((idx, attempt, app_name, nxt_node, n_ranks))
    return chunk


def _make_shards(sched: _Scheduler, n_ranks: int, chunk_size: int) -> List:
    """Pack every queued task into app x config-batch shards."""
    shards = []
    while sched.queue:
        shards.append(_pop_chunk(sched, n_ranks, chunk_size))
    sched.reg.inc("sweep.shards", len(shards))
    return shards


def _run_pooled(sched: _Scheduler, n_ranks: int, processes: int,
                chunk_size: int, fault_hook, timeout_s, batch_size,
                mode) -> None:
    """Work-stealing shard scheduler over dedicated worker processes.

    Queued tasks are packed into app x config-batch shards and dealt
    across per-worker deques.  Each worker keeps at most two shards in
    flight (one running, one buffered in its inbox); when a worker's
    deque drains, it steals the back half of the richest victim's deque
    (``sweep.steals``), so tail imbalance — slow shards, heterogeneous
    apps, a noisy machine — rebalances instead of serializing on the
    unluckiest worker.  Retries re-enter as fresh shards dealt to the
    lightest deque.  A worker process that dies mid-shard has its
    in-flight tasks pushed into the retry path and its deque
    redistributed (``sweep.worker.lost``) rather than hanging the
    campaign.
    """
    reg = sched.reg
    ctx = _pool_context()
    init_args = (fault_hook, timeout_s, batch_size, mode)
    results_q = ctx.Queue()
    inboxes = []
    workers = []
    for _ in range(processes):
        inbox = ctx.Queue()
        proc = ctx.Process(target=_worker_main,
                           args=(inbox, results_q, init_args), daemon=True)
        proc.start()
        inboxes.append(inbox)
        workers.append(proc)

    deques: List[deque] = [deque() for _ in range(processes)]
    alive = [True] * processes
    outstanding = [0] * processes
    owner: Dict[int, int] = {}        # shard_id -> worker slot
    shard_tasks: Dict[int, List] = {}  # shard_id -> [(idx, attempt), ...]
    next_shard = 0

    def live_slots() -> List[int]:
        return [w for w in range(processes) if alive[w]]

    def deal(shards) -> None:
        nonlocal next_shard
        slots = live_slots()
        if not slots:
            raise RuntimeError("all sweep workers died; cannot continue")
        for chunk in shards:
            w = min(slots, key=lambda j: len(deques[j]) + outstanding[j])
            deques[w].append((next_shard, chunk))
            next_shard += 1

    def dispatch(w: int) -> None:
        while alive[w] and outstanding[w] < 2:
            if not deques[w]:
                victims = [v for v in live_slots() if v != w and deques[v]]
                if not victims:
                    return
                v = max(victims, key=lambda j: len(deques[j]))
                stolen = [deques[v].pop()
                          for _ in range((len(deques[v]) + 1) // 2)]
                deques[w].extend(reversed(stolen))
                reg.inc("sweep.steals")
            shard_id, chunk = deques[w].popleft()
            owner[shard_id] = w
            shard_tasks[shard_id] = [(t[0], t[1]) for t in chunk]
            inboxes[w].put((shard_id, chunk))
            outstanding[w] += 1

    def dispatch_all() -> None:
        for w in range(processes):
            dispatch(w)

    def reap_dead() -> None:
        for w in range(processes):
            if not alive[w] or workers[w].is_alive():
                continue
            alive[w] = False
            reg.inc("sweep.worker.lost")
            warn("sweep worker %d died; requeueing its shards", w)
            for sid in [s for s, ow in owner.items() if ow == w]:
                owner.pop(sid)
                outstanding[w] -= 1
                for idx, attempt in shard_tasks.pop(sid):
                    if idx not in sched.completed:
                        sched.record_outcome(idx, attempt, False,
                                             "worker process died")
            if deques[w]:
                orphans = [chunk for _, chunk in deques[w]]
                deques[w].clear()
                deal(orphans)

    try:
        deal(_make_shards(sched, n_ranks, chunk_size))
        dispatch_all()
        while (sched.pending() or owner or any(deques)):
            sched.promote_ready_retries()
            if sched.queue:
                deal(_make_shards(sched, n_ranks, chunk_size))
                dispatch_all()
            try:
                msg = results_q.get(timeout=0.02)
            except _QueueEmpty:
                reap_dead()
                if not live_slots():
                    raise RuntimeError(
                        "all sweep workers died; cannot continue")
                continue
            ready: Dict[int, _ShardResult] = {}
            while True:
                shard_id, status, payload = msg
                w = owner.pop(shard_id)
                shard_tasks.pop(shard_id, None)
                outstanding[w] -= 1
                ready[shard_id] = _ShardResult(status, payload)
                try:
                    msg = results_q.get_nowait()
                except _QueueEmpty:
                    break
            _drain_ready(sched, ready, list(ready))
            dispatch_all()
    finally:
        for w, proc in enumerate(workers):
            if proc.is_alive():
                try:
                    inboxes[w].put_nowait(None)
                except Exception:  # pragma: no cover - full/broken pipe
                    pass
        for proc in workers:
            proc.join(timeout=2.0)
        for proc in workers:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for q in inboxes + [results_q]:
            q.close()
            q.cancel_join_thread()


def run_sweep(
    app_names: Sequence[str],
    space: Optional[DesignSpace] = None,
    n_ranks: int = 256,
    processes: Optional[int] = None,
    progress: bool = False,
    *,
    resume: Optional[Union[str, Path]] = None,
    fsync_every: int = 1,
    timeout_s: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff_s: float = 0.05,
    chunk_size: Optional[int] = None,
    fault_hook: Optional[Callable[[str, NodeConfig, int], None]] = None,
    metrics: Optional[MetricsRegistry] = None,
    batch_size: int = 256,
    mode: str = "fast",
    shard: Optional[Union[str, Tuple[int, int]]] = None,
) -> ResultSet:
    """Simulate every (application, configuration) pair.

    Parameters
    ----------
    app_names:
        Paper application names (see :data:`repro.apps.APP_NAMES`).
    space:
        Design space (default: the full 864-point Table I space).
    processes:
        Worker processes; <=1 runs inline (useful under pytest).
        Defaults to ``os.cpu_count()`` capped at 8.
    resume:
        Journal path.  Completed records are appended there as they
        finish; tasks already journaled are skipped, so re-invoking
        after a crash resumes the campaign.
    fsync_every:
        Journal fsync stride (1 = every record durable immediately).
    timeout_s:
        Per-task wall-clock budget; an overrunning task fails with
        :class:`TaskTimeout` and enters the retry path.
    max_retries:
        Attempts beyond the first before a task is recorded as a
        ``"failed": True`` stub instead of aborting the campaign.
    retry_backoff_s:
        Base of the exponential retry backoff (doubles per attempt).
    chunk_size:
        Tasks per worker dispatch (default: sized so each worker sees
        ~4 chunks, capped at ``batch_size`` so batched shards keep
        their column count).
    fault_hook:
        ``hook(app_name, node, attempt)`` called before each attempt;
        raising simulates a worker failure (see :class:`FailNTimes`).
    metrics:
        Registry to report into (default: the process-global one).
    batch_size:
        Upper bound on configs per column-wise
        :class:`~repro.core.batch.BatchEvaluator` evaluation (results
        are bitwise-identical to per-config ``Musa.simulate_node``);
        also scales the batch's wall-clock budget
        (``timeout_s x len(batch)``).
    mode:
        ``'fast'`` (default) evaluates each point with the analytic
        communication-invariant model; ``'replay'`` splices the same
        detailed compute timings into the event-driven Dimemas-style
        MPI replay of the ``n_ranks``-rank trace (see
        :meth:`repro.core.musa.Musa.simulate_node`).  Replay tasks are
        journaled, retried and resumed exactly like fast ones, and the
        batched evaluator still amortizes the compute-timing columns.
    shard:
        ``"K/N"`` (or ``(K, N)``): run only every Nth task starting at
        K, so N hosts can split one campaign.  The returned ResultSet
        covers just this shard (canonical sub-order); give each shard
        its own ``resume=`` journal and union them with
        :func:`repro.core.checkpoint.merge_journal` — resuming the full
        sweep from the merged journal reproduces the single-process
        ResultSet byte-for-byte without re-evaluating anything.

    The returned ResultSet is in canonical task order regardless of
    ``processes``/``chunk_size``/``batch_size``; failed tasks appear as
    stub records (``record["failed"] is True``).
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if mode not in ("fast", "replay"):
        raise ValueError("mode must be 'fast' or 'replay'")
    space = space or DesignSpace()
    shard_kn = _parse_shard(shard)
    # Lazy task table when the space supports random access; arbitrary
    # config iterables (tests, ad-hoc lists) still materialize.
    if hasattr(space, "config_at"):
        tasks = _TaskTable(app_names, space)
    else:
        tasks = sweep_configs(app_names, space)
    if processes is None:
        processes = min(os.cpu_count() or 1, 8)

    reg = metrics or get_metrics()
    prev_reg = set_metrics(reg) if reg is not get_metrics() else None
    prev_worker = dict(_WORKER)
    journal: Optional[Journal] = None
    try:
        with reg.span("sweep.run"):
            done: Dict[Tuple, Dict] = {}
            if resume is not None:
                replayed = replay_journal(resume)
                for rec in replayed.results.lazy():
                    done[task_key(rec)] = rec

            indices = (range(len(tasks)) if shard_kn is None
                       else range(shard_kn[0], len(tasks), shard_kn[1]))
            n_resumed = 0
            if done:
                pending: List[int] = []
                for i in indices:
                    app_name, node = tasks[i]
                    ax = node.axis_values()
                    key = (app_name, ax["core"], ax["cache"], ax["memory"],
                           ax["frequency"], ax["vector"], ax["cores"])
                    if key in done:
                        n_resumed += 1
                    else:
                        pending.append(i)
            else:
                pending = list(indices)
            reg.inc("sweep.tasks.skipped", n_resumed)

            if progress and n_resumed:
                print(f"  resuming: {n_resumed} done, {len(pending)} pending",
                      flush=True)
            meter = (ProgressMeter(len(pending)) if progress and pending
                     else None)

            if resume is not None:
                journal = Journal(resume, fsync_every=fsync_every)
                if shard_kn is not None:
                    journal.append_meta({"shard": shard_kn[0],
                                         "of": shard_kn[1],
                                         "tasks": len(pending) + n_resumed})
            sched = _Scheduler(tasks, reg, journal, meter, max_retries,
                               retry_backoff_s)
            sched.queue.extend((i, 0) for i in pending)

            if processes <= 1 or len(pending) <= 1:
                _init_worker(fault_hook, timeout_s, batch_size, mode)
                _run_inline(sched, n_ranks)
            else:
                if chunk_size is None:
                    # Coarse shards keep the batched evaluator's column
                    # count high (work-stealing absorbs the imbalance).
                    chunk_size = min(batch_size, max(1, len(pending)
                                                     // (processes * 4)))
                _run_pooled(sched, n_ranks, processes, chunk_size,
                            fault_hook, timeout_s, batch_size, mode)
    finally:
        if journal is not None:
            journal.close()
        _WORKER.update(prev_worker)
        if prev_reg is not None:
            set_metrics(prev_reg)

    results = ResultSet()
    for i in indices:
        if i in sched.completed:
            results.add(sched.completed[i])
        else:
            app_name, node = tasks[i]
            ax = node.axis_values()
            key = (app_name, ax["core"], ax["cache"], ax["memory"],
                   ax["frequency"], ax["vector"], ax["cores"])
            results.add(done[key])
    return results

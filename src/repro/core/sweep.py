"""Fault-tolerant, resumable design-space sweep engine.

Runs the full (or a restricted) design space for a set of applications
as a sharded task schedule, inline or across worker processes.  Each
worker uses one lazily-built evaluator per application
(:func:`~repro.core.batch.evaluator_for`), so trace generation and the
miss tables happen once per (worker, app) and memoization works across
the configs the worker handles —
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
canonical task order (apps outermost, then the space's row-major
configs), independent of worker count, batch size and completion
order.

The parallel scheduler is **one parent-side FIFO of shards**:

* tasks come from a task table (lazy ``DesignSpace.config_at`` when the
  space has it), so the parent schedules indices and never builds a
  :class:`NodeConfig` before dispatch; it matches resumed results by
  task keys read from the space's axis values and assembles results by
  task index;
* the queued work is packed into app x config-batch *shards*
  (``sweep.shards`` counts them) of ``(idx, attempt)`` pairs, each one
  evaluator batch; a worker resolves the pairs to ``(app, node)``
  itself from the task table and run settings it got at start;
* any live worker with fewer than two shards outstanding takes the
  next shard, so a slow shard delays only its own worker; retries and
  a dead worker's in-flight tasks (``sweep.worker.lost``) re-enter the
  same FIFO instead of hanging the campaign;
* workers are dedicated processes fed through per-worker inboxes, so
  Musa/evaluator caches stay hot per worker, and a worker whose parent
  died exits on its own;
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
from itertools import islice, product
from multiprocessing import get_context
from operator import itemgetter
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

from ..config.node import NodeConfig
from ..config.space import AXES, DesignSpace
from ..obs import MetricsRegistry, ProgressMeter, get_metrics, set_metrics, warn
from .batch import evaluator_for
from .checkpoint import Journal, replay_journal, task_key
from .frame import FrameRow, pack_frame, unpack_frame
from .results import CONFIG_KEYS, ResultSet

__all__ = [
    "FailNTimes",
    "InjectedFault",
    "SweepAbort",
    "TaskTimeout",
    "run_sweep",
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

@dataclass(frozen=True)
class _RunSettings:
    """Everything a shard's evaluation needs besides its task pairs;
    fixed for one sweep and handed to each worker at start."""

    n_ranks: int
    mode: str
    timeout_s: Optional[float]
    fault_hook: Optional[Callable[[str, NodeConfig, int], None]]


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


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


def _execute_batch(shard, tasks, settings: _RunSettings
                   ) -> Tuple[List[Tuple], Optional[SweepAbort]]:
    """Evaluate one shard: an app x config-batch (the unit of sweep work).

    ``shard`` is a list of ``(idx, attempt)`` pairs of one app, resolved
    to nodes through ``tasks``.  Retry and abort semantics stay per
    config:

    * the fault hook runs per member; a member whose hook raises a
      transient error fails *individually* and the rest proceed;
    * :class:`SweepAbort` from a hook stops the walk, the members
      already cleared are still evaluated and **returned** (so the
      caller can journal them before surfacing the abort), and the
      abort comes back as the second tuple element — never raised from
      here;
    * the wall-clock budget is ``timeout_s x len(shard)`` for the whole
      shard; on :class:`TaskTimeout` every member without an outcome
      fails with the timeout (entering the per-task retry path);
    * if the batched evaluator itself fails, the shard falls back to
      scalar per-config simulation (``sweep.batch.fallback`` counts
      these) — a model bug degrades throughput, not coverage.

    Returns ``(outcomes, abort)``; each outcome is
    ``(idx, attempt, ok, record_or_error)``.
    """
    reg = get_metrics()
    outcomes: List[Tuple] = []
    runnable: List[Tuple] = []
    abort: Optional[SweepAbort] = None
    app_name = tasks.app_of(shard[0][0])
    n_ranks, mode, hook = settings.n_ranks, settings.mode, settings.fault_hook
    budget = settings.timeout_s * len(shard) if settings.timeout_s else None
    reg.inc("sweep.batch.configs", len(shard))
    try:
        with reg.span("sweep.batch"), _deadline(budget):
            for idx, attempt in shard:
                node = tasks[idx][1]
                if hook is not None:
                    try:
                        hook(app_name, node, attempt)
                    except SweepAbort as exc:
                        abort = exc
                        break
                    except TaskTimeout:
                        raise
                    except Exception as exc:
                        outcomes.append((idx, attempt, False, _describe(exc)))
                        continue
                runnable.append((idx, attempt, node))
            if runnable:
                ok_payloads = None
                evaluator = evaluator_for(app_name)
                nodes = [t[2] for t in runnable]
                try:
                    # One frame for the whole shard; outcomes carry lazy
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
                    for (idx, attempt, _), payload in zip(runnable,
                                                          ok_payloads):
                        outcomes.append((idx, attempt, True, payload))
                else:
                    for idx, attempt, node in runnable:  # hooks already ran
                        try:
                            rec = evaluator.musa.simulate_node(
                                node, n_ranks=n_ranks, mode=mode).record()
                        except TaskTimeout:
                            raise
                        except Exception as exc:
                            outcomes.append((idx, attempt, False,
                                             _describe(exc)))
                        else:
                            outcomes.append((idx, attempt, True, rec))
    except TaskTimeout as exc:
        if abort is None:
            done = {o[0] for o in outcomes}
            outcomes.extend((idx, attempt, False, _describe(exc))
                            for idx, attempt in shard if idx not in done)
        # With an abort pending, evaluated-but-unrecorded members simply
        # stay un-journaled; the resumed campaign redoes them.
    return outcomes, abort


def _run_chunk(shard, tasks, settings: _RunSettings
               ) -> Tuple[List[Tuple], Dict, Optional[SweepAbort]]:
    """Run one shard; never raises for per-task failures, so a worker
    stays alive, and returns a :class:`SweepAbort` instead of raising
    it, so the outcomes evaluated before it still reach the journal.

    Returns ``(outcomes, metrics_delta, abort)``.  The delta is recorded
    in a fresh shard-local registry (swapped in for the shard's
    duration, then folded into the process's current one) so its timer
    ``max_s`` values are true per-interval maxima — snapshot
    subtraction would report the worker's *all-time* max for every
    shard, inflating parent-merged spans.
    """
    shard_reg = MetricsRegistry()
    prev = set_metrics(shard_reg)
    try:
        outcomes, abort = _execute_batch(shard, tasks, settings)
    except SweepAbort as exc:
        outcomes, abort = [], exc
    except Exception as exc:
        outcomes = [(idx, attempt, False, _describe(exc))
                    for idx, attempt in shard]
        abort = None
    finally:
        set_metrics(prev)
    delta = shard_reg.snapshot()
    prev.merge(delta)
    return outcomes, delta, abort


# ---------------------------------------------------------- frame IPC wire

def _pack_outcomes(outcomes: List[Tuple]) -> Tuple[List[Tuple], List[bytes]]:
    """Wire-encode a shard's outcomes for the results queue.

    Frame-backed success payloads collapse to ``("__row__", fi, row)``
    references into a side list of packed frames, so each distinct
    frame crosses the process boundary once, as the pickle bytes of
    :func:`~repro.core.frame.pack_frame`, instead of as N per-row
    pickles.  Returns ``(wire_outcomes, packed_frames)``.
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


def _unpack_outcomes(wire: List[Tuple], packed: List[bytes]) -> List[Tuple]:
    """Decode :func:`_pack_outcomes` output on the parent side.

    Decodes each frame (counted as ``sweep.ipc.pickle``) and rebinds
    row references to the reconstructed frames.
    """
    reg = get_metrics()
    frames = []
    for data in packed:
        reg.inc("sweep.ipc.pickle")
        frames.append(unpack_frame(data))
    out: List[Tuple] = []
    for idx, attempt, ok, payload in wire:
        if (ok and type(payload) is tuple and len(payload) == 3
                and payload[0] == "__row__"):
            _, fi, row = payload
            payload = frames[fi].row(row)
        out.append((idx, attempt, ok, payload))
    return out


# ------------------------------------------------------------ parent side

class _TaskTable:
    """(app, node) tasks in app-major x space row-major order.

    Indexable like a materialized list of ``(app, node)`` pairs.  A
    space with random access stays lazy: each :class:`NodeConfig` is
    built on demand through ``DesignSpace.config_at``, by the worker
    that evaluates it, so scheduling a million-point range space costs
    index arithmetic, not a million dataclasses.  Any other config
    iterable (tests, ad-hoc lists) is materialized once.

    Task keys come from axis values, not nodes: a space's config keys
    are the product of its axis values in :data:`AXES` order, a list's
    are read once per node, so the parent matches resumed results by
    key without building a :class:`NodeConfig`.
    """

    def __init__(self, app_names: Sequence[str], space) -> None:
        self.app_names = list(app_names)
        if hasattr(space, "config_at"):
            self.config_at = space.config_at
            self._axes = [space.axis_values(a) for a in AXES]
            self._listed_keys = None
        else:
            space = list(space)
            self.config_at = space.__getitem__
            self._axes = None
            axis_key = itemgetter(*AXES)
            self._listed_keys = [axis_key(node.axis_values())
                                 for node in space]
        self.n_configs = len(space)

    def __len__(self) -> int:
        return len(self.app_names) * self.n_configs

    def app_of(self, idx: int) -> str:
        return self.app_names[idx // self.n_configs]

    def __getitem__(self, idx: int) -> Tuple[str, NodeConfig]:
        if not 0 <= idx < len(self):
            raise IndexError(idx)
        app_i, cfg_i = divmod(idx, self.n_configs)
        return self.app_names[app_i], self.config_at(cfg_i)

    def keys(self, indices: range) -> List[Tuple]:
        """The task key of each of ``indices``, a ``range(K, len(self),
        N)``, in order: ``(app,) + config key``, equal to
        :func:`_point_key` of the task."""
        step = indices.step
        out: List[Tuple] = []
        for app_i, app in enumerate(self.app_names):
            first = (indices.start - app_i * self.n_configs) % step
            configs = (self._listed_keys if self._axes is None
                       else product(*self._axes))
            head = (app,)
            out.extend([head + key
                        for key in islice(configs, first, None, step)])
        return out


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


def _point_key(app_name: str, node: NodeConfig) -> Tuple:
    """The design point's identity in ``CONFIG_KEYS`` order: the
    :func:`~repro.core.checkpoint.task_key` of its records."""
    return task_key({"app": app_name, **node.axis_values()})


def _failure_stub(app_name: str, node: NodeConfig, error: str,
                  attempts: int) -> Dict:
    """A result-shaped record marking a task that exhausted its retries."""
    return {**dict(zip(CONFIG_KEYS, _point_key(app_name, node))),
            "failed": True, "error": error, "attempts": attempts}


class _Scheduler:
    """Shared bookkeeping for the inline and pooled schedulers: the FIFO
    of shards, retry heap with exponential backoff, journaling,
    metrics, progress."""

    def __init__(self, tasks, reg, journal, meter, max_retries,
                 retry_backoff_s, shard_size, completed):
        self.tasks = tasks
        self.reg = reg
        self.journal = journal
        self.meter = meter
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.shard_size = shard_size
        #: task index -> record, resumed ones included
        self.completed: Dict[int, Dict] = completed
        #: shards waiting for a worker: lists of ``(idx, attempt)``
        self.queue: deque = deque()
        self.retry_heap: List[Tuple[float, int, int]] = []

    def enqueue(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Pack ``(idx, attempt)`` pairs into shards: runs of consecutive
        same-app tasks, at most ``shard_size`` long."""
        app_of = self.tasks.app_of
        n_queued = len(self.queue)
        shard: List[Tuple[int, int]] = []
        for pair in pairs:
            if shard and (len(shard) == self.shard_size
                          or app_of(pair[0]) != app_of(shard[0][0])):
                self.queue.append(shard)
                shard = []
            shard.append(pair)
        if shard:
            self.queue.append(shard)
            self.reg.inc("sweep.shards", len(self.queue) - n_queued)

    def promote_ready_retries(self) -> None:
        now = time.monotonic()
        ready = []
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, idx, attempt = heappop(self.retry_heap)
            ready.append((idx, attempt))
        self.enqueue(ready)

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


def _run_inline(sched: _Scheduler, settings: _RunSettings) -> None:
    while sched.pending():
        sched.promote_ready_retries()
        if not sched.queue:
            time.sleep(min(sched.next_retry_delay() or 0.0, 0.05))
            continue
        outcomes, _, abort = _run_chunk(sched.queue.popleft(), sched.tasks,
                                        settings)
        sched.record_outcomes(outcomes)
        if abort is not None:
            # Pre-abort members are journaled above before the
            # campaign stops — a resume skips them.
            raise abort


def _drain_ready(sched: _Scheduler, ready: Dict[int, Tuple]) -> None:
    """Record every ready ``shard_id -> (status, payload)`` worker
    message (see :func:`_worker_main`), then surface any abort.

    An ``"ok"`` payload is ``(wire, packed, delta, abort)``: its
    outcomes are recorded and its metrics delta merged even when
    ``abort`` (a :class:`SweepAbort` message, else None) is set, and so
    are the *other* ready shards' — :class:`SweepAbort` is raised only
    once every message is consumed, so a resume does not redo finished
    work.  An ``"err"`` payload ``(shard, msg)`` fails each of the
    shard's tasks into the retry path.
    """
    abort: Optional[SweepAbort] = None
    for shard_id in list(ready):
        status, payload = ready.pop(shard_id)
        if status == "err":
            shard, msg = payload
            outcomes = [(idx, attempt, False, msg) for idx, attempt in shard]
        else:
            wire, packed, delta, abort_msg = payload
            outcomes = _unpack_outcomes(wire, packed)
            sched.reg.merge(delta)
            if abort_msg is not None:
                abort = abort or SweepAbort(abort_msg)
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


#: Seconds an idle worker waits on its inbox before checking that the
#: parent that started it is still alive.
_PARENT_POLL_S = 0.5


def _worker_main(inbox, results, tasks, settings: _RunSettings,
                 parent_pid: int) -> None:
    """Shard-worker loop: pull ``(shard_id, shard)`` from the private
    inbox, run it, push ``(shard_id, status, payload)`` to the shared
    results queue.  ``None`` is the shutdown sentinel.  Nothing short
    of process death escapes: per-task failures are outcomes, a
    :class:`SweepAbort` travels with the outcomes evaluated before it,
    and any other escape fails the whole shard into the retry path.

    A SIGKILLed parent never sends the sentinel, and the inbox never
    reports EOF (this process holds its write end too), so an idle
    worker exits once it has been reparented.
    """
    while True:
        try:
            item = inbox.get(timeout=_PARENT_POLL_S)
        except _QueueEmpty:
            if os.getppid() != parent_pid:
                results.cancel_join_thread()  # nobody drains it any more
                return
            continue
        if item is None:
            return
        shard_id, shard = item
        try:
            outcomes, delta, abort = _run_chunk(shard, tasks, settings)
            wire, packed = _pack_outcomes(outcomes)
            results.put((shard_id, "ok", (wire, packed, delta,
                                          abort and str(abort))))
        except BaseException as exc:  # keep the worker alive
            results.put((shard_id, "err", (shard, _describe(exc))))


def _run_pooled(sched: _Scheduler, settings: _RunSettings,
                processes: int) -> None:
    """Feed the shard FIFO to dedicated worker processes.

    Any live worker with fewer than two shards outstanding (one
    running, one buffered in its inbox) takes the next shard, so a slow
    shard delays its own worker only.  Retries re-enter the FIFO as
    fresh shards.  A worker process that dies mid-shard has its
    in-flight tasks pushed into the retry path (``sweep.worker.lost``)
    rather than hanging the campaign.
    """
    ctx = _pool_context()
    results_q = ctx.Queue()
    workers = []
    for _ in range(processes):
        inbox = ctx.Queue()
        proc = ctx.Process(target=_worker_main,
                           args=(inbox, results_q, sched.tasks, settings,
                                 os.getpid()), daemon=True)
        proc.start()
        workers.append((proc, inbox))

    live = list(range(processes))
    inflight: Dict[int, Tuple[int, List]] = {}  # shard_id -> (worker, shard)
    next_id = 0

    def dispatch() -> None:
        nonlocal next_id
        for _ in range(2):
            for w in live:
                if sched.queue and sum(
                        ow == w for ow, _ in inflight.values()) < 2:
                    shard = sched.queue.popleft()
                    inflight[next_id] = (w, shard)
                    workers[w][1].put((next_id, shard))
                    next_id += 1

    def reap_dead() -> None:
        for w in [w for w in live if not workers[w][0].is_alive()]:
            live.remove(w)
            sched.reg.inc("sweep.worker.lost")
            warn("sweep worker %d died; requeueing its shards", w)
            for sid in [s for s, (ow, _) in inflight.items() if ow == w]:
                for idx, attempt in inflight.pop(sid)[1]:
                    sched.record_outcome(idx, attempt, False,
                                         "worker process died")
        if not live:
            raise RuntimeError("all sweep workers died; cannot continue")

    try:
        while sched.pending() or inflight:
            sched.promote_ready_retries()
            dispatch()
            try:
                msg = results_q.get(timeout=0.02)
            except _QueueEmpty:
                reap_dead()
                continue
            ready: Dict[int, Tuple] = {}
            while msg is not None:
                shard_id, status, payload = msg
                # A reaped worker's late reply is dropped: its tasks
                # were already requeued.
                if inflight.pop(shard_id, None) is not None:
                    ready[shard_id] = (status, payload)
                try:
                    msg = results_q.get_nowait()
                except _QueueEmpty:
                    msg = None
            _drain_ready(sched, ready)
    finally:
        for proc, inbox in workers:
            if proc.is_alive():
                try:
                    inbox.put_nowait(None)
                except Exception:  # pragma: no cover - full/broken pipe
                    pass
        for proc, _ in workers:
            proc.join(timeout=2.0)
        for proc, _ in workers:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for q in [inbox for _, inbox in workers] + [results_q]:
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
    fault_hook:
        ``hook(app_name, node, attempt)`` called before each attempt;
        raising simulates a worker failure (see :class:`FailNTimes`).
    metrics:
        Registry to report into (default: the process-global one).
    batch_size:
        Upper bound on configs per shard, the unit of dispatch and of
        column-wise :class:`~repro.core.batch.BatchEvaluator`
        evaluation (results are bitwise-identical to per-config
        ``Musa.simulate_node``).  Pooled sweeps shrink shards so each
        worker sees ~4 of them.  Also scales the shard's wall-clock
        budget (``timeout_s x len(shard)``).
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
    ``processes``/``batch_size``; failed tasks appear as
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
    tasks = _TaskTable(app_names, space)
    if processes is None:
        processes = min(os.cpu_count() or 1, 8)
    settings = _RunSettings(n_ranks, mode, timeout_s, fault_hook)

    reg = metrics or get_metrics()
    prev_reg = set_metrics(reg) if reg is not get_metrics() else None
    journal: Optional[Journal] = None
    try:
        with reg.span("sweep.run"):
            indices = (range(len(tasks)) if shard_kn is None
                       else range(shard_kn[0], len(tasks), shard_kn[1]))
            completed: Dict[int, Dict] = {}  # resumed records by index
            pending = list(indices)
            if resume is not None:
                # The replay indexes its records by task key already.
                resumed = replay_journal(resume).results
                if len(resumed):
                    pending = []
                    for i, key in zip(indices, tasks.keys(indices)):
                        rec = resumed._get_keyed(key)
                        if rec is None:
                            pending.append(i)
                        else:
                            completed[i] = rec
            n_resumed = len(completed)
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
            inline = processes <= 1 or len(pending) <= 1
            # Pooled shards are sized so each worker sees ~4 of them;
            # the batch-size cap keeps the evaluator's column count.
            shard_size = (batch_size if inline else min(
                batch_size, max(1, len(pending) // (processes * 4))))
            sched = _Scheduler(tasks, reg, journal, meter, max_retries,
                               retry_backoff_s, shard_size, completed)
            sched.enqueue((i, 0) for i in pending)
            if inline:
                _run_inline(sched, settings)
            else:
                _run_pooled(sched, settings, processes)
    finally:
        if journal is not None:
            journal.close()
        if prev_reg is not None:
            set_metrics(prev_reg)

    # One record per task: distinct keys by construction.
    return ResultSet._of_distinct([sched.completed[i] for i in indices])

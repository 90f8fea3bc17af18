"""Per-layer spans recorded from outside the program.

:func:`install` wraps every layer-boundary callable of ``repro`` before
any work starts.  The wrapper replaces the callable everywhere it is
looked up — each ``repro.*`` module global holding the function, or the
class attribute for a method — so call sites that imported the name
directly (``from ..runtime.scheduler import simulate_phase_batch``) are
traced too.

Each call records its *self* time (its duration minus the time its
traced callees took, tracked on a thread-local stack) into the
process's :func:`repro.obs.get_metrics` registry as timer
``perf.<boundary>``.  The registry is looked up per call, so spans
recorded inside a sweep worker's chunk land in the chunk-local registry
and travel back to the parent in the existing ``_run_chunk`` metrics
delta.  Worker-side ``pack_frame`` runs after that delta is taken and is
not a boundary, so its time is invisible to the trace.

Installing in the parent before a sweep is enough for its workers:
they are forked, so they inherit the wrapped modules.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, Tuple

__all__ = ["BOUNDARIES", "TIMER_PREFIX", "install", "is_wrapped"]

#: ``boundary name -> (defining module, qualified name)``, grouped by
#: layer: trace, uarch, runtime, network, core, serve, analysis.
BOUNDARIES: Dict[str, Tuple[str, str]] = {
    "burst_trace": ("repro.apps.base", "AppModel.burst_trace"),
    "detailed_trace": ("repro.apps.base", "AppModel.detailed_trace"),
    "time_kernel_batch": ("repro.uarch.batch", "time_kernel_batch"),
    "hierarchy_miss_profile_batch": ("repro.uarch.hierarchy",
                                     "hierarchy_miss_profile_batch"),
    "resolve_contention_batch": ("repro.uarch.batch",
                                 "resolve_contention_batch"),
    "simulate_phase_batch": ("repro.runtime.scheduler",
                             "simulate_phase_batch"),
    "replay_batch": ("repro.network.replay_batch", "replay_batch"),
    # The one private boundary: the replay tape cache lookup + build.
    "tape_build": ("repro.network.replay_batch", "_tape_for"),
    "evaluate_frame": ("repro.core.batch", "BatchEvaluator.evaluate_frame"),
    "evaluate": ("repro.core.batch", "BatchEvaluator.evaluate"),
    "unpack_frame": ("repro.core.frame", "unpack_frame"),
    "run_sweep": ("repro.core.sweep", "run_sweep"),
    "journal_append_frame": ("repro.core.checkpoint", "Journal.append_frame"),
    "replay_journal": ("repro.core.checkpoint", "replay_journal"),
    "store_get": ("repro.core.store", "ResultStore.get"),
    "store_put_frame": ("repro.core.store", "ResultStore.put_frame"),
    "handle": ("repro.serve.state", "ServeState.handle"),
    "render": ("repro.serve.server", "_response"),
    "search_front": ("repro.analysis.search", "search_front"),
    "pareto_front": ("repro.analysis.pareto", "pareto_front"),
    "optimize_node": ("repro.analysis.optimize", "optimize_node"),
}

TIMER_PREFIX = "perf."

_MARK = "__perf_boundary__"
_tls = threading.local()


def _wrap(name: str, fn: Callable, get_metrics: Callable) -> Callable:
    timer = TIMER_PREFIX + name
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        try:
            stack = _tls.stack
        except AttributeError:
            stack = _tls.stack = []
        stack.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            get_metrics().observe(timer, elapsed - children)

    setattr(traced, _MARK, name)
    return traced


def is_wrapped(obj) -> bool:
    return hasattr(obj, _MARK)


def install() -> None:
    """Wrap every boundary at every lookup site (idempotent)."""
    from repro.obs import get_metrics

    # Import every defining module first: a module imported after the
    # scan below reads the already-wrapped name from its source module.
    modules = {m: importlib.import_module(m) for m, _ in BOUNDARIES.values()}
    for name, (module, qualname) in BOUNDARIES.items():
        mod = modules[module]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[attr]
            if not is_wrapped(original):
                setattr(cls, attr, _wrap(name, original, get_metrics))
            continue
        original = getattr(mod, qualname)
        if is_wrapped(original):
            continue
        traced = _wrap(name, original, get_metrics)
        for mod_name, m in list(sys.modules.items()):
            if m is None or not (mod_name == "repro"
                                 or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, traced)

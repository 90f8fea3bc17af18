"""Pinned digests of every list scheduler's output.

The scalar reference, the batch scheduler, work stealing and big.LITTLE
scheduling are hashed over each application's canonical phases plus a
wavefront and a pipeline DAG at 1, 2, 7, 64 and 300 cores, together
with the burst-mode products built on them.  The digests were recorded
before the schedulers shared one loop and must not move: a refactor of
the runtime layer may change how a schedule is computed, never which
floats it yields.

Floats are hashed as ``float(x).hex()`` and per-core arrays as float64
bytes, so a makespan returned as ``np.float64`` and one returned as a
Python float of the same value hash alike.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import APP_NAMES, get_app
from repro.core import Musa
from repro.runtime import (
    simulate_phase,
    simulate_phase_hetero,
    simulate_phase_stealing,
    task_phase,
)
from repro.runtime.scheduler import simulate_phase_batch

from .deps import pipeline_deps, wavefront_deps

CORES = (1, 2, 7, 64, 300)


def _phases():
    phases = [p for app in APP_NAMES for p in get_app(app).canonical_phases()]
    phases.append(task_phase(90, "k", 48, 900.0, deps=wavefront_deps(6, 8),
                             imbalance=0.4, creation_ns=120.0,
                             serial_ns=2500.0))
    phases.append(task_phase(91, "k", 40, 700.0, deps=pipeline_deps(5, 8),
                             imbalance=0.3, creation_ns=80.0,
                             serial_task_ns=3000.0))
    return phases


def _durations(phase):
    """Explicit durations that differ from the trace's reference ones."""
    return [t.duration_ns * 1.37 + 0.25 * (i % 3)
            for i, t in enumerate(phase.tasks)]


def _speeds(n_cores):
    big = (n_cores + 3) // 4
    return [1.0] * big + [0.6] * (n_cores - big)


def _feed(h, result, creation_ns):
    """Hash one schedule; ``creation_ns`` is the run's per-task creation
    cost, whose total the digests were recorded with."""
    h.update(float(result.makespan_ns).hex().encode())
    h.update(np.asarray(result.busy_ns, dtype=np.float64).tobytes())
    h.update(str(int(result.n_tasks)).encode())
    h.update(float(result.serial_ns).hex().encode())
    h.update(float(result.n_tasks * creation_ns).hex().encode())
    for s in result.spans or ():
        h.update(f"{s.task_index},{s.core},{float(s.start_ns).hex()},"
                 f"{float(s.end_ns).hex()};".encode())


def _scalar_digest(run, overhead_scale):
    h = hashlib.sha256()
    n = 0
    for phase in _phases():
        for nc in CORES:
            _feed(h, run(phase, nc), phase.creation_ns * overhead_scale)
            n += 1
    return n, h.hexdigest()


SCALAR_RUNS = {
    "plain": lambda p, nc: simulate_phase(p, nc),
    "spans": lambda p, nc: simulate_phase(p, nc, collect_spans=True),
    "overhead_scale": lambda p, nc: simulate_phase(p, nc,
                                                   overhead_scale=1.7),
    "explicit_durations": lambda p, nc: simulate_phase(
        p, nc, task_durations_ns=_durations(p), collect_spans=True),
    "stealing": lambda p, nc: simulate_phase_stealing(p, nc,
                                                      collect_spans=True),
    "stealing_free": lambda p, nc: simulate_phase_stealing(
        p, nc, steal_ns=0.0),
    "hetero": lambda p, nc: simulate_phase_hetero(p, _speeds(nc),
                                                  collect_spans=True),
    "hetero_uniform": lambda p, nc: simulate_phase_hetero(p, [1.0] * nc),
}

PINNED_SCALAR = {
    "explicit_durations":
        "7d3b373aa05ac42dc2e00bc46d4a2342b3d9323a1ee06bebfa009ffb1adf5dc4",
    "hetero":
        "9713236ab1a5828a253e9549b6519c158f4043ae0c2d4d4ee3375a0dcad47f95",
    "hetero_uniform":
        "4b512c1355497604c6e9d8a14b0bffad3d26f56dcc83f35e2d5a4fc5090b74a5",
    "overhead_scale":
        "f4e9f7bfd9171e63e74f632ef1d45d8b47b621485522de8ebe83a2f6309e10e2",
    "plain":
        "4b512c1355497604c6e9d8a14b0bffad3d26f56dcc83f35e2d5a4fc5090b74a5",
    "spans":
        "551f7f4315868951bd296d18a5d19c21d466dbec3a50c696707597e65902f4b5",
    "stealing":
        "c8deb6a0b23efadb59e68d068021e4844c9f6e8766c7e18bfa7153ebf0db387f",
    "stealing_free":
        "d1ccff2c3a8eb791feac4cd8816bc778f0b174636e53be47d80eaa768bc34c12",
}

PINNED_BATCH = {
    False: "5c0030fcf98de63cd629e61574e5c77df6eda5b4b564e3ec793dc64851fb1ae9",
    True: "c3c008290e07d15d791eab8f148500570aa357f21e62bf255259c6fdfc36df7f",
}

PINNED_BURST = {
    "hydro":
        "7567dab2237052e6afbbbf5aa1c06ea2a562ed8bad2b0226d9a94c5302054b54",
    "spmz":
        "98b4b0cdbbbda8d6720cd889b39d531fa4cffc3f4c8a32dab2bac72f13150117",
    "btmz":
        "92a7984d5ff554c6b8017798ec67e8107678e61b7964c94bb3e68ee0418b25ce",
    "spec3d":
        "c4fa056ddc77a28e6b91ae5321f73e2a05a93f45efcad9de86d0573dd0d97946",
    "lulesh":
        "f720e3b2d272d5fe6c0d426d7ff4dc647c66e4b1187e1f2c0124711bff857396",
}


@pytest.mark.parametrize("name", sorted(SCALAR_RUNS))
def test_scalar_schedulers_pinned(name):
    n, digest = _scalar_digest(SCALAR_RUNS[name],
                               1.7 if name == "overhead_scale" else 1.0)
    assert n == 90
    assert digest == PINNED_SCALAR[name]


@pytest.mark.parametrize("explicit", [False, True])
def test_batch_scheduler_pinned(explicit):
    phases = _phases()
    lanes = [(p, nc) for p in phases for nc in CORES]
    rows = max(len(p.tasks) for p in phases)
    mat = np.zeros((rows, len(lanes)))
    for k, (p, _) in enumerate(lanes):
        ds = _durations(p) if explicit else [t.duration_ns for t in p.tasks]
        mat[:len(ds), k] = ds
    batch = simulate_phase_batch([p for p, _ in lanes],
                                 [nc for _, nc in lanes],
                                 task_durations_ns=mat)
    h = hashlib.sha256()
    creation_ns_total = batch.n_tasks * np.array(
        [p.creation_ns for p, _ in lanes])
    for col in (batch.makespan_ns, batch.serial_ns, creation_ns_total,
                batch.busy_sum_ns, batch.busy_ns):
        h.update(np.ascontiguousarray(col, dtype=np.float64).tobytes())
    h.update(np.asarray(batch.n_tasks, dtype=np.int64).tobytes())
    assert h.hexdigest() == PINNED_BATCH[explicit]


@pytest.mark.parametrize("app", APP_NAMES)
def test_burst_mode_pinned(app):
    musa = Musa(get_app(app))
    h = hashlib.sha256()
    for nc in (1, 8, 64):
        speedup = (musa.compute_region_makespan(1)
                   / musa.compute_region_makespan(nc))
        h.update(float(speedup).hex().encode())
    r = musa.simulate_burst_full(64, n_ranks=16)
    h.update(float(r.total_ns).hex().encode())
    for col in (r.compute_ns, r.p2p_ns, r.collective_ns):
        h.update(np.asarray(col, dtype=np.float64).tobytes())
    h.update(f"{r.n_messages},{r.bytes_sent}".encode())
    assert h.hexdigest() == PINNED_BURST[app]

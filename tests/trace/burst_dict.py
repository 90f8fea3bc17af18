"""Plain-dict form of a burst trace: the test-side reference encoding.

``tests/network/test_trace_tape_golden.py`` hashes :func:`burst_to_dict`
output, so its key set and order are frozen with those digests (every
phase records ``"barrier_after": True``, the only barrier the model
has).  Each rank's events are its flat stream (:func:`rank_events`:
the period ``repeats`` times, request ids numbered on across copies).
:func:`burst_from_dict` rebuilds a flat trace, ``repeats == 1``, with
fresh phase objects.
"""

from typing import Any, Dict

from repro.trace import BurstTrace, ComputePhase, TaskRecord

from .encode import Call, burst, rank_events


def burst_to_dict(trace: BurstTrace) -> Dict[str, Any]:
    def event(ev) -> Dict[str, Any]:
        if isinstance(ev, ComputePhase):
            return {
                "t": "phase",
                "id": ev.phase_id,
                "tasks": [
                    [t.kernel, t.duration_ns, list(t.deps), t.work_units]
                    for t in ev.tasks
                ],
                "serial_ns": ev.serial_ns,
                "creation_ns": ev.creation_ns,
                "barrier_after": True,
                "critical_ns": ev.critical_ns,
            }
        return {
            "t": "mpi", "kind": ev.kind, "peer": ev.peer,
            "size": ev.size_bytes, "tag": ev.tag, "req": ev.request,
        }

    return {
        "version": 1,
        "type": "burst",
        "app": trace.app,
        "n_iterations": trace.n_iterations,
        "ranks": [
            {"rank": r, "events": [event(e) for e in events]}
            for r, events in enumerate(rank_events(trace))
        ],
    }


def burst_from_dict(data: Dict[str, Any]) -> BurstTrace:
    def event(d: Dict[str, Any]):
        if d["t"] == "phase":
            return ComputePhase(
                phase_id=d["id"],
                tasks=tuple(
                    TaskRecord(kernel=k, duration_ns=dur, deps=tuple(deps),
                               work_units=wu)
                    for k, dur, deps, wu in d["tasks"]
                ),
                serial_ns=d["serial_ns"],
                creation_ns=d["creation_ns"],
                critical_ns=d["critical_ns"],
            )
        return Call(kind=d["kind"], peer=d["peer"], size_bytes=d["size"],
                    tag=d["tag"], request=d["req"])

    return burst([[event(e) for e in r["events"]] for r in data["ranks"]],
                 app=data["app"], n_iterations=data["n_iterations"])

"""JSON serialization for traces.

MUSA stores traces on disk so one tracing run drives the whole design
space.  We provide a compact JSON round-trip for :class:`BurstTrace` and
:class:`DetailedTrace` (reuse-profile arrays included), so expensive
trace generation can be cached between sweep runs.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any, Dict, Union

from .burst import BurstTrace, RankTrace
from .detailed import DetailedTrace
from .events import ComputePhase, MpiCall, TaskRecord
from .kernel import InstructionMix, KernelSignature, ReuseProfile

__all__ = [
    "burst_to_dict", "burst_from_dict", "save_burst", "load_burst",
    "detailed_to_dict", "detailed_from_dict", "save_detailed", "load_detailed",
]

_FORMAT_VERSION = 1


# -- burst traces -------------------------------------------------------------

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
                "barrier_after": ev.barrier_after,
                "critical_ns": ev.critical_ns,
            }
        return {
            "t": "mpi", "kind": ev.kind, "peer": ev.peer,
            "size": ev.size_bytes, "tag": ev.tag, "req": ev.request,
        }

    return {
        "version": _FORMAT_VERSION,
        "type": "burst",
        "app": trace.app,
        "n_iterations": trace.n_iterations,
        "ranks": [
            {"rank": rt.rank, "events": [event(e) for e in rt.events]}
            for rt in trace.ranks
        ],
    }


def burst_from_dict(data: Dict[str, Any]) -> BurstTrace:
    _check_header(data, "burst")

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
                barrier_after=d["barrier_after"],
                critical_ns=d["critical_ns"],
            )
        return MpiCall(kind=d["kind"], peer=d["peer"], size_bytes=d["size"],
                       tag=d["tag"], request=d["req"])

    ranks = tuple(
        RankTrace(rank=r["rank"], period=tuple(event(e) for e in r["events"]))
        for r in data["ranks"]
    )
    return BurstTrace(app=data["app"], ranks=ranks,
                      n_iterations=data["n_iterations"])


# -- detailed traces ----------------------------------------------------------

def detailed_to_dict(trace: DetailedTrace) -> Dict[str, Any]:
    def kernel(sig: KernelSignature) -> Dict[str, Any]:
        m = sig.mix
        return {
            "instr_per_unit": sig.instr_per_unit,
            "mix": [m.fp, m.int_alu, m.load, m.store, m.branch, m.other],
            "ilp": sig.ilp,
            "vec_fraction": sig.vec_fraction,
            "trip_count": sig.trip_count,
            "mlp": sig.mlp,
            "bytes_per_access": sig.bytes_per_access,
            "row_hit_rate": sig.row_hit_rate,
            "reuse": {
                "edges": sig.reuse.edges.tolist(),
                "weights": sig.reuse.weights.tolist(),
                "cold": sig.reuse.cold_fraction,
            },
        }

    return {
        "version": _FORMAT_VERSION,
        "type": "detailed",
        "app": trace.app,
        "sampled_rank": trace.sampled_rank,
        "sampled_iteration": trace.sampled_iteration,
        "kernels": {name: kernel(sig) for name, sig in trace.kernels.items()},
    }


def detailed_from_dict(data: Dict[str, Any]) -> DetailedTrace:
    _check_header(data, "detailed")

    def kernel(name: str, d: Dict[str, Any]) -> KernelSignature:
        fp, int_alu, load, store, branch, other = d["mix"]
        return KernelSignature(
            name=name,
            instr_per_unit=d["instr_per_unit"],
            mix=InstructionMix(fp=fp, int_alu=int_alu, load=load, store=store,
                               branch=branch, other=other),
            ilp=d["ilp"],
            vec_fraction=d["vec_fraction"],
            trip_count=d["trip_count"],
            mlp=d["mlp"],
            bytes_per_access=d["bytes_per_access"],
            row_hit_rate=d.get("row_hit_rate", 0.6),
            reuse=ReuseProfile(d["reuse"]["edges"], d["reuse"]["weights"],
                               d["reuse"]["cold"]),
        )

    return DetailedTrace(
        app=data["app"],
        kernels={name: kernel(name, kd) for name, kd in data["kernels"].items()},
        sampled_rank=data["sampled_rank"],
        sampled_iteration=data["sampled_iteration"],
    )


# -- file I/O -----------------------------------------------------------------

def _check_header(data: Dict[str, Any], expected: str) -> None:
    if data.get("type") != expected:
        raise ValueError(
            f"expected a {expected!r} trace, got type={data.get('type')!r}"
        )
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {data.get('version')!r}"
        )


def _write(path: Path, payload: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, separators=(",", ":"))
    if path.suffix == ".gz":
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def _read(path: Path) -> Dict[str, Any]:
    if path.suffix == ".gz":
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(path.read_text(encoding="utf-8"))


def save_burst(trace: BurstTrace, path: Union[str, Path]) -> None:
    """Write a burst trace to ``path`` (gzip if it ends in .gz)."""
    _write(Path(path), burst_to_dict(trace))


def load_burst(path: Union[str, Path]) -> BurstTrace:
    return burst_from_dict(_read(Path(path)))


def save_detailed(trace: DetailedTrace, path: Union[str, Path]) -> None:
    """Write a detailed trace to ``path`` (gzip if it ends in .gz)."""
    _write(Path(path), detailed_to_dict(trace))


def load_detailed(path: Union[str, Path]) -> DetailedTrace:
    return detailed_from_dict(_read(Path(path)))

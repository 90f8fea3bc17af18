"""Append-only, machine-normalized benchmark trend ledger.

One JSONL line per benchmark run.  Every entry carries the raw timing,
the machine calibration (the minimum of the reference-kernel samples
the harness interleaves with the workload samples — see
:mod:`repro.bench.calibrate` and :func:`repro.bench.harness.run_case`),
the normalized cost ``norm = raw_min_s / calib_s``, the host
fingerprint, the code version and the oracle verdict — enough to
compare runs across machines and to audit where a baseline came from.

Merging is content-based: two ledgers merge to the deduplicated union
of their entries in a canonical order, so merge is idempotent,
commutative and associative (the hypothesis property suite pins this).
The file itself is only ever appended to; rewrites happen through
:meth:`Ledger.save` on an explicitly merged ledger.

The regression gate (:func:`check`) compares a fresh run's normalized
cost against the *baseline*: the **median** normalized cost among prior
oracle-clean entries for the same benchmark and tier, preferring
entries from the same host fingerprint when any exist (same-host
comparisons are exact; cross-host ones lean on the calibration).  The
median — not the minimum — is deliberate: with a min-baseline every
entry appended during a quiet window permanently tightens the gate, and
ordinary scheduling noise then reads as a regression.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .harness import BenchResult

__all__ = [
    "Ledger",
    "Verdict",
    "make_entry",
    "normalized",
    "check",
]

#: Regression-gate statuses in severity order.
_STATUSES = ("ok", "no-baseline", "regression", "oracle-failed")


def normalized(raw_s: float, calib_s: float) -> float:
    """Machine-normalized cost: reference-kernel units.

    Scale-invariant: a machine uniformly ``k`` times slower multiplies
    both operands by ``k`` and leaves the ratio unchanged.
    """
    if raw_s < 0:
        raise ValueError("raw_s must be non-negative")
    if calib_s <= 0:
        raise ValueError("calib_s must be positive")
    return raw_s / calib_s


def _entry_digest(entry: Dict[str, Any]) -> str:
    return hashlib.sha256(
        json.dumps(entry, sort_keys=True).encode()).hexdigest()


def make_entry(
    result: BenchResult,
    calib_s: float,
    host: Dict[str, Any],
    code_version: str,
    ts: Optional[str] = None,
) -> Dict[str, Any]:
    """Ledger entry for one :class:`~repro.bench.harness.BenchResult`.

    The result's own paired calibration (interleaved with its samples)
    takes precedence over the process-level ``calib_s`` fallback.
    """
    ts = ts or datetime.now(timezone.utc).isoformat(timespec="seconds")
    paired = getattr(result, "calib_min_s", None)
    calib = paired if paired else calib_s
    return {
        "bench": result.bench,
        "kind": result.kind,
        "tier": result.tier,
        "raw_min_s": result.min_s,
        "raw_median_s": result.median_s,
        "samples_s": list(result.samples_s),
        "calib_s": calib,
        "norm": normalized(result.min_s, calib),
        "oracle_ok": result.oracle_ok,
        "oracle_detail": result.oracle_detail,
        "inject_slowdown": result.inject_slowdown,
        "host": dict(host),
        "code_version": code_version,
        "ts": ts,
        "seed": False,
        "source": "run",
        "meta": dict(result.meta),
    }


class Ledger:
    """In-memory view of a JSONL trend ledger."""

    def __init__(self, entries: Iterable[Dict[str, Any]] = ()) -> None:
        self.entries: List[Dict[str, Any]] = [dict(e) for e in entries]

    # -- persistence --------------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Ledger":
        """Read a JSONL ledger, tolerating blank and torn lines."""
        entries: List[Dict[str, Any]] = []
        p = Path(path)
        if not p.exists():
            return cls()
        for line in p.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crashed append
            if isinstance(obj, dict) and "bench" in obj:
                entries.append(obj)
        return cls(entries)

    def save(self, path: Union[str, Path]) -> None:
        """Rewrite ``path`` with this ledger's entries (canonical order)."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        text = "".join(json.dumps(e, sort_keys=True) + "\n"
                       for e in self.canonical().entries)
        p.write_text(text, encoding="utf-8")

    @staticmethod
    def append_to(path: Union[str, Path],
                  entries: Sequence[Dict[str, Any]]) -> None:
        """Append entries to the JSONL file (the only mutating file op)."""
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        with p.open("a", encoding="utf-8") as fh:
            for e in entries:
                fh.write(json.dumps(e, sort_keys=True) + "\n")

    # -- set semantics ------------------------------------------------------

    def canonical(self) -> "Ledger":
        """Deduplicated copy in canonical order (bench, ts, digest)."""
        seen: Dict[str, Dict[str, Any]] = {}
        for e in self.entries:
            seen.setdefault(_entry_digest(e), e)
        ordered = sorted(
            seen.values(),
            key=lambda e: (str(e.get("bench", "")), str(e.get("ts", "")),
                           _entry_digest(e)))
        return Ledger(ordered)

    def merge(self, other: "Ledger") -> "Ledger":
        """Content-deduplicated union, canonically ordered."""
        return Ledger(self.entries + other.entries).canonical()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return ([_entry_digest(e) for e in self.canonical().entries]
                == [_entry_digest(e) for e in other.canonical().entries])

    def __len__(self) -> int:
        return len(self.entries)

    # -- queries ------------------------------------------------------------

    def for_bench(self, bench: str,
                  tier: Optional[str] = None) -> List[Dict[str, Any]]:
        out = [e for e in self.entries if e.get("bench") == bench
               and (tier is None or e.get("tier") == tier)]
        out.sort(key=lambda e: (str(e.get("ts", "")), _entry_digest(e)))
        return out

    def bench_ids(self) -> List[str]:
        seen: List[str] = []
        for e in self.entries:
            b = e.get("bench")
            if b and b not in seen:
                seen.append(b)
        return sorted(seen)

    def baseline(self, bench: str, tier: str,
                 host_id: Optional[str] = None) -> Optional[float]:
        """Median normalized cost among prior clean entries (module doc).

        Entries produced with an injected slowdown never become
        baselines — they exist to exercise the gate, not to move it.
        """
        pool = [e for e in self.for_bench(bench, tier)
                if e.get("oracle_ok") and not e.get("failed")
                and isinstance(e.get("norm"), (int, float))
                and math.isfinite(e["norm"]) and e["norm"] > 0
                and float(e.get("inject_slowdown", 1.0)) == 1.0]
        if not pool:
            return None
        if host_id is not None:
            same = [e for e in pool
                    if e.get("host", {}).get("id") == host_id]
            if same:
                pool = same
        return float(statistics.median(float(e["norm"]) for e in pool))


@dataclass(frozen=True)
class Verdict:
    """Gate outcome for one benchmark of a fresh run."""

    bench: str
    tier: str
    status: str  # ok | no-baseline | regression | oracle-failed
    current_norm: Optional[float] = None
    baseline_norm: Optional[float] = None
    ratio: Optional[float] = None  # current/baseline - 1 (signed)
    detail: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.status in ("regression", "oracle-failed")


def check(
    results: Sequence[BenchResult],
    ledger: Ledger,
    threshold: float,
    calib_s: float,
    host_id: Optional[str] = None,
) -> List[Verdict]:
    """Gate a fresh run against the ledger baselines.

    Pure function of its inputs: for a fixed ledger, threshold and
    result set the verdicts are deterministic (property-tested).  A
    benchmark with no usable baseline passes with ``no-baseline`` so a
    newly registered benchmark cannot break CI before its first append.
    Each result's paired calibration is preferred over the process-level
    ``calib_s`` fallback, mirroring :func:`make_entry`.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    verdicts: List[Verdict] = []
    for r in sorted(results, key=lambda r: r.bench):
        if not r.oracle_ok:
            verdicts.append(Verdict(
                bench=r.bench, tier=r.tier, status="oracle-failed",
                detail=r.oracle_detail))
            continue
        paired = getattr(r, "calib_min_s", None)
        cur = normalized(r.min_s, paired if paired else calib_s)
        base = ledger.baseline(r.bench, r.tier, host_id=host_id)
        if base is None:
            verdicts.append(Verdict(
                bench=r.bench, tier=r.tier, status="no-baseline",
                current_norm=cur,
                detail="no prior oracle-clean ledger entry"))
            continue
        ratio = cur / base - 1.0
        status = "regression" if ratio > threshold else "ok"
        verdicts.append(Verdict(
            bench=r.bench, tier=r.tier, status=status,
            current_norm=cur, baseline_norm=base, ratio=ratio,
            detail=(f"{ratio:+.1%} vs baseline (threshold "
                    f"{threshold:.0%})") if status == "regression" else None))
    return verdicts

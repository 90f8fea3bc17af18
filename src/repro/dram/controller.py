"""FR-FCFS memory controller and multi-channel DRAM model.

Request-level event simulation in the spirit of Ramulator: requests are
mapped ``row : bank : channel : column`` (consecutive lines interleave
across channels), each channel schedules with First-Ready FCFS inside a
reorder window (row hits bypass older row misses), and the shared data
bus serializes bursts.  The controller emits the per-command counts
DRAMPower consumes and reports achieved bandwidth/latency, which ground
the analytic efficiency curve used by the sweep (:mod:`.analytic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config.cache import LINE_BYTES
from .bank import Bank
from .timing import DramTiming

__all__ = ["DramRequest", "CommandCounts", "ChannelResult", "DramSystem"]


@dataclass(frozen=True)
class DramRequest:
    """One line-granularity memory request."""

    line: int
    is_write: bool = False
    arrival_cycle: float = 0.0

    def __post_init__(self) -> None:
        if self.line < 0:
            raise ValueError("line must be non-negative")
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")


@dataclass
class CommandCounts:
    """DRAM command statistics of one channel (DRAMPower input)."""

    n_act: int = 0
    n_pre: int = 0
    n_rd: int = 0
    n_wr: int = 0
    n_ref: int = 0

    @property
    def n_col(self) -> int:
        return self.n_rd + self.n_wr

    def row_hit_rate(self) -> float:
        """Fraction of column commands served from an open row.

        Clamped: refreshes can force re-activations, making ACTs exceed
        column commands on pathological streams.
        """
        if not self.n_col:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.n_act / self.n_col))

    def __iadd__(self, other: "CommandCounts") -> "CommandCounts":
        self.n_act += other.n_act
        self.n_pre += other.n_pre
        self.n_rd += other.n_rd
        self.n_wr += other.n_wr
        self.n_ref += other.n_ref
        return self


@dataclass(frozen=True)
class ChannelResult:
    """Outcome of draining one channel's request queue."""

    counts: CommandCounts
    finish_cycle: float


class _Channel:
    """One channel: banks + shared data bus + FR-FCFS window."""

    def __init__(self, timing: DramTiming, window: int = 16) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.timing = timing
        self.window = window
        self.banks = [Bank(timing) for _ in range(timing.n_banks)]
        self.bus_free = 0.0
        self.counts = CommandCounts()
        self._next_refresh = float(timing.trefi)

    def _bank_row(self, line: int) -> Tuple[int, int]:
        t = self.timing
        lines_per_row = max(1, t.row_bytes // LINE_BYTES)
        bank = (line // lines_per_row) % t.n_banks
        row = line // (lines_per_row * t.n_banks)
        return bank, row

    def drain(self, requests: Sequence[DramRequest]) -> ChannelResult:
        """Service all requests; FR-FCFS within the reorder window.

        Bank preparation (PRE/ACT) is pipelined: every request inside the
        reorder window issues its row commands as soon as it becomes
        visible and its bank is free, so banks work in parallel while the
        data bus serializes bursts — the behaviour that lets random
        streams exploit bank-level parallelism.
        """
        t = self.timing
        # Each entry: [request, col_ready or None] (None = not prepared).
        entries: List[List] = [[req, None] for req in requests]
        # Banks with a prepared-but-unissued row conflict must not be
        # re-prepared (a second ACT would close the pending row).
        bank_pending = [0] * t.n_banks
        now = 0.0
        head = 0
        n = len(entries)
        while head < n:
            window = entries[head: head + self.window]
            # 1) Issue row commands for newly visible requests.
            for e in window:
                req = e[0]
                if e[1] is not None or req.arrival_cycle > now:
                    continue
                bank_idx, row = self._bank_row(req.line)
                bank = self.banks[bank_idx]
                if bank.is_row_hit(row) or bank_pending[bank_idx] == 0:
                    acts_before = bank.n_acts
                    e[1] = bank.prepare(row, max(now, req.arrival_cycle))
                    self.counts.n_act += bank.n_acts - acts_before
                    bank_pending[bank_idx] += 1
            # 2) Pick the prepared request whose column can issue first
            #    (row hits are ready sooner: first-ready FCFS).
            best = None
            for e in window:
                if e[1] is None:
                    continue
                if best is None or e[1] < best[1]:
                    best = e
            if best is None:
                # Nothing visible yet: jump to the next arrival.
                now = min(e[0].arrival_cycle for e in window)
                continue
            req, col_ready = best
            bank_idx, _ = self._bank_row(req.line)
            issue = max(col_ready, self.bus_free)
            # All-bank refresh: when the issue time crosses tREFI, the
            # whole channel stalls for tRFC (rows stay closed after).
            while issue >= self._next_refresh:
                ref_end = self._next_refresh + t.trfc
                for b in self.banks:
                    b.open_row = None
                    b.next_act = max(b.next_act, ref_end)
                    b.next_col = max(b.next_col, ref_end + t.trcd)
                    b.next_pre = max(b.next_pre, ref_end)
                self.counts.n_ref += 1
                self._next_refresh += t.trefi
                # Every prepared-but-unissued request lost its open row:
                # invalidate so it re-activates after the refresh.
                for e in window:
                    if e is not best and e[1] is not None:
                        e[1] = None
                bank_pending = [0] * t.n_banks
                bank_pending[bank_idx] = 1
                # The picked request re-activates its row immediately.
                bank = self.banks[bank_idx]
                acts_before = bank.n_acts
                _, row = self._bank_row(req.line)
                col_ready = bank.prepare(row, ref_end)
                self.counts.n_act += bank.n_acts - acts_before
                issue = max(col_ready, self.bus_free)
            self.banks[bank_idx].column_issued(issue)
            bank_pending[bank_idx] -= 1
            self.bus_free = issue + t.burst_cycles
            if req.is_write:
                self.counts.n_wr += 1
            else:
                self.counts.n_rd += 1
            now = max(now, issue)
            # Compact: swap the issued entry to the head and advance.
            idx = entries.index(best, head, head + self.window)
            entries[idx], entries[head] = entries[head], entries[idx]
            head += 1
        self.counts.n_pre = sum(b.n_pres for b in self.banks)
        return ChannelResult(
            counts=self.counts,
            finish_cycle=self.bus_free + t.cl,
        )


@dataclass(frozen=True)
class DramSystemResult:
    """Aggregate outcome across channels."""

    per_channel: Tuple[ChannelResult, ...]
    elapsed_ns: float
    bytes_moved: int

    @property
    def achieved_bw_gbs(self) -> float:
        return self.bytes_moved / self.elapsed_ns if self.elapsed_ns > 0 else 0.0

    @property
    def counts(self) -> CommandCounts:
        total = CommandCounts()
        for ch in self.per_channel:
            total += ch.counts
        return total


class DramSystem:
    """A multi-channel DRAM subsystem fed with a line-address stream."""

    def __init__(self, timing: DramTiming, n_channels: int,
                 window: int = 16) -> None:
        if n_channels <= 0:
            raise ValueError("n_channels must be positive")
        self.timing = timing
        self.n_channels = n_channels
        self.window = window

    def map_channel(self, line: int) -> int:
        """Consecutive lines interleave across channels."""
        return line % self.n_channels

    def run(self, lines: Sequence[int],
            write_fraction: float = 0.3,
            arrival_bw_gbs: Optional[float] = None) -> DramSystemResult:
        """Service a line-address stream.

        ``arrival_bw_gbs`` spaces request arrivals at the given offered
        load (None = all requests available at time 0, i.e. measure the
        sustained-bandwidth limit).
        """
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")
        lines_arr = np.asarray(lines, dtype=np.int64)
        t = self.timing
        if arrival_bw_gbs is not None and arrival_bw_gbs > 0:
            spacing_ns = LINE_BYTES / arrival_bw_gbs
            arrivals = np.arange(len(lines_arr)) * (spacing_ns / t.tck_ns)
        else:
            arrivals = np.zeros(len(lines_arr))
        rng = np.random.default_rng(12345)
        writes = rng.random(len(lines_arr)) < write_fraction

        per_ch: List[List[DramRequest]] = [[] for _ in range(self.n_channels)]
        for line, arr, wr in zip(lines_arr, arrivals, writes):
            per_ch[self.map_channel(int(line))].append(
                DramRequest(line=int(line), is_write=bool(wr),
                            arrival_cycle=float(arr))
            )
        results = []
        finish = 0.0
        for reqs in per_ch:
            ch = _Channel(t, window=self.window)
            res = ch.drain(reqs)
            results.append(res)
            finish = max(finish, res.finish_cycle)
        elapsed_ns = finish * t.tck_ns
        return DramSystemResult(
            per_channel=tuple(results),
            elapsed_ns=elapsed_ns,
            bytes_moved=int(len(lines_arr)) * LINE_BYTES,
        )

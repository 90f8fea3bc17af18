"""Synthesize address streams matching a target reuse profile.

The analytic path condenses detailed traces into
:class:`~repro.trace.kernel.ReuseProfile` objects; this module solves
the *inverse* problem — generate a concrete byte-address stream whose
measured stack-distance profile approximates a target profile — so the
event-level substrates (exact caches, the DRAM controller, DRAMPower)
can be driven with streams statistically equivalent to an application
kernel's.

Construction: each finite profile component ``(distance d, weight w)``
becomes a circular sweep over a private region.  When components are
interleaved, the *realized* stack distance of a component exceeds its
region size (other components' lines intervene), so region sizes are
calibrated by a short fixed-point loop: synthesize, profile, rescale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kernel import ReuseProfile
from .reuse import profile_stream

__all__ = ["synthesize_stream", "SynthesisReport", "synthesize_calibrated"]

_LINE = 64


def _mixture_from_profile(profile: ReuseProfile,
                          max_components: int = 6
                          ) -> List[Tuple[float, float]]:
    """Collapse a profile's histogram into a few (distance, weight)
    components (log-space clustering of adjacent buckets)."""
    edges, weights = profile.edges, profile.weights
    mids = np.sqrt(np.maximum(edges[:-1], 0.5) * edges[1:])
    nz = weights > 0
    mids, weights = mids[nz], weights[nz]
    if len(mids) == 0:
        return []
    # Greedy merge into log-spaced groups.
    order = np.argsort(mids)
    mids, weights = mids[order], weights[order]
    groups: List[Tuple[float, float]] = []
    cur_d, cur_w = mids[0], weights[0]
    for d, w in zip(mids[1:], weights[1:]):
        if d < cur_d * 4 and len(groups) < max_components - 1:
            cur_d = (cur_d * cur_w + d * w) / (cur_w + w)
            cur_w += w
        else:
            groups.append((cur_d, cur_w))
            cur_d, cur_w = d, w
    groups.append((cur_d, cur_w))
    while len(groups) > max_components:
        # merge the two lightest neighbours
        i = int(np.argmin([g[1] for g in groups[:-1]]))
        d1, w1 = groups[i]
        d2, w2 = groups[i + 1]
        groups[i: i + 2] = [((d1 * w1 + d2 * w2) / (w1 + w2), w1 + w2)]
    return groups


def synthesize_stream(
    mixture: Sequence[Tuple[float, float]],
    n_accesses: int,
    cold_fraction: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Interleave circular sweeps per component into one byte stream.

    ``mixture`` is a list of (region size in lines, access weight);
    ``cold_fraction`` of accesses touch never-reused fresh lines.
    """
    if n_accesses <= 0:
        raise ValueError("n_accesses must be positive")
    if not 0.0 <= cold_fraction <= 1.0:
        raise ValueError("cold_fraction must be in [0, 1]")
    if not mixture and cold_fraction <= 0.0:
        raise ValueError("need at least one component or cold traffic")
    rng = np.random.default_rng(seed)
    sizes = np.array([max(1, int(round(d))) for d, _ in mixture],
                     dtype=np.int64)
    ws = np.array([w for _, w in mixture], dtype=np.float64)
    probs = np.zeros(len(mixture) + 1)
    if ws.sum() > 0:
        probs[:-1] = ws / ws.sum() * (1.0 - cold_fraction)
    probs[-1] = 1.0 - probs[:-1].sum()

    choices = rng.choice(len(probs), size=n_accesses, p=probs)
    out = np.empty(n_accesses, dtype=np.int64)
    # Disjoint address regions: component i starts at base_i; cold region
    # sits past everything.
    bases = np.concatenate([[0], np.cumsum(sizes)]) * _LINE
    cursors = np.zeros(len(mixture), dtype=np.int64)
    cold_cursor = 0
    cold_base = int(bases[-1]) + _LINE
    for i, c in enumerate(choices):
        if c == len(mixture):
            out[i] = cold_base + cold_cursor * _LINE
            cold_cursor += 1
        else:
            out[i] = bases[c] + (cursors[c] % sizes[c]) * _LINE
            cursors[c] += 1
    return out


class SynthesisReport:
    """Outcome of calibrated synthesis: the stream plus fit quality."""

    def __init__(self, stream: np.ndarray, target: ReuseProfile,
                 capacities: Sequence[float],
                 representable_lines: float) -> None:
        self.stream = stream
        self.target = target
        self.measured = profile_stream(stream, max_samples=len(stream))
        #: reuse beyond this capacity cannot be represented with this
        #: stream length (components that large were folded into cold)
        self.representable_lines = representable_lines
        self.capacities = tuple(c for c in capacities
                                if c <= representable_lines)


def _calibrate_sizes(targets: Sequence[float], weights: Sequence[float],
                     cold_fraction: float,
                     n_iterations: int = 12) -> List[float]:
    """Solve region sizes so realized stack distances hit the targets.

    Between two visits to one line of component i there are ~s_i/w_i
    stream accesses; the distinct lines they touch are s_i of its own,
    min(s_j, window * w_j) of each other component, and the window's
    cold lines.  A damped fixed point inverts this inflation.
    """
    sizes = [max(1.0, t) for t in targets]
    for _ in range(n_iterations):
        new_sizes = []
        for i, (d_target, w_i) in enumerate(zip(targets, weights)):
            s_i = sizes[i]
            window = s_i / max(w_i, 1e-9)
            realized = s_i + cold_fraction * window
            for j, (s_j, w_j) in enumerate(zip(sizes, weights)):
                if j != i:
                    realized += min(s_j, window * w_j)
            scale = d_target / max(realized, 1e-9)
            new_sizes.append(max(1.0, s_i * (0.5 + 0.5 * scale)))
        sizes = new_sizes
    return sizes


def synthesize_calibrated(
    profile: ReuseProfile,
    n_accesses: int = 60_000,
    capacities: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> SynthesisReport:
    """Generate a stream whose stack-distance behaviour matches
    ``profile`` at the given cache capacities (defaults to the paper's
    L1/L2 sizes in lines).

    Components too deep to be reused within ``n_accesses`` (a region is
    only re-swept if it receives at least ~3x its size in accesses) are
    folded into cold traffic; ``SynthesisReport.representable_lines``
    records the resulting validity horizon.
    """
    if capacities is None:
        capacities = (512.0, 4096.0, 8192.0, 16384.0)
    mixture = _mixture_from_profile(profile)
    cold = profile.cold_fraction

    # Fold unrepresentable components into cold traffic.
    kept: List[Tuple[float, float]] = []
    representable = float(n_accesses)
    for d, w in mixture:
        if n_accesses * w >= 3.0 * d:
            kept.append((d, w))
        else:
            cold += w
            representable = min(representable, d)
    representable = representable if cold > profile.cold_fraction \
        else float(n_accesses)

    if not kept:
        stream = synthesize_stream([], n_accesses,
                                   cold_fraction=max(cold, 0.01), seed=seed)
        return SynthesisReport(stream, profile, capacities, representable)

    targets = [d for d, _ in kept]
    weights_norm = np.array([w for _, w in kept])
    weights_norm = weights_norm / (weights_norm.sum() + cold) \
        * (1.0 - cold / (weights_norm.sum() + cold))
    sizes = _calibrate_sizes(targets, list(weights_norm), cold)
    stream = synthesize_stream(
        list(zip(sizes, (w for _, w in kept))), n_accesses,
        cold_fraction=cold, seed=seed)
    return SynthesisReport(stream, profile, capacities, representable)

"""The stacked contention fixed point against the scalar model.

``resolve_contention_batch`` runs one damped fixed point over several
kernels' lanes at once; every lane must reproduce the scalar
``resolve_contention`` call for its kernel, configuration and busy-core
count bit for bit, however long the other lanes keep iterating.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.uarch.cpu as cpu
from repro.config import baseline_node, memory_preset
from repro.obs import MetricsRegistry, set_metrics
from repro.trace import InstructionMix, KernelSignature, ReuseProfile
from repro.uarch import resolve_contention, time_kernel
from repro.uarch.batch import (NodeBatch, resolve_contention_batch,
                               time_kernel_batch)


def _kernel(name, m3, row_hit):
    return KernelSignature(
        name=name, instr_per_unit=100_000.0,
        mix=InstructionMix(fp=0.3, int_alu=0.15, load=0.3, store=0.1,
                           branch=0.1, other=0.05),
        ilp=3.0, vec_fraction=0.3, trip_count=8, mlp=12.0,
        reuse=ReuseProfile.from_components([(8.0, 1.0 - m3), (5e6, m3)]),
        row_hit_rate=row_hit,
    )


#: Three row hit rates, so three DRAM efficiencies and capacities.
KERNELS = (_kernel("stream", 0.05, 0.5), _kernel("gather", 0.02, 0.1),
           _kernel("light", 0.0005, 0.9))

NODES = tuple(
    baseline_node(n_cores=n).with_(memory=memory_preset(mem))
    for n in (8, 64)
    for mem in ("4chDDR4", "8chDDR4", "16chHBM"))


def _lane_timing(tb, i, template):
    """Lane ``i`` of a batched timing as a scalar ``KernelTiming``."""
    return replace(
        template,
        base_cycles=float(tb.base_cycles[i]),
        l2_stall_cycles=float(tb.l2_stall_cycles[i]),
        l3_stall_cycles=float(tb.l3_stall_cycles[i]),
        mem_stall_cycles=float(tb.mem_stall_cycles[i]),
        dram_lines=float(tb.dram_lines[i]),
        frequency_ghz=float(tb.frequency_ghz[i]),
        row_hit_rate=tb.row_hit_rate,
    )


def _scalar(timing, n_busy, memory, max_iter=None):
    if max_iter is None:
        return resolve_contention(timing, n_busy, memory)
    saved = cpu._MAX_ITER
    cpu._MAX_ITER = max_iter
    try:
        return resolve_contention(timing, n_busy, memory)
    finally:
        cpu._MAX_ITER = saved


@pytest.fixture(scope="module")
def stacked():
    """Kernel timings over NODES, with some lanes made trivial: zero
    DRAM bytes in one kernel, zero memory stall in another."""
    nb = NodeBatch.from_nodes(NODES)
    shares = [np.array([n.n_cores for n in NODES], np.int64),
              np.array([1, 2, 3, 4, 5, 6], np.int64),
              np.array([8, 8, 8, 64, 64, 64], np.int64),
              np.array([n.n_cores for n in NODES], np.int64)]
    sigs = KERNELS + (KERNELS[0],)
    timings = time_kernel_batch(sigs, nb, np.stack(shares))
    zero_lines = timings[1].dram_lines.copy()
    zero_lines[[0, 3]] = 0.0
    timings[1] = replace(timings[1], dram_lines=zero_lines)
    zero_stall = timings[3].mem_stall_cycles.copy()
    zero_stall[[1, 4]] = 0.0
    timings[3] = replace(timings[3], mem_stall_cycles=zero_stall)
    templates = [time_kernel(sig, NODES[0]) for sig in sigs]
    return nb, timings, shares, templates


def test_every_lane_matches_scalar_bitwise(stacked):
    nb, timings, shares, templates = stacked
    out = resolve_contention_batch(timings, shares, nb)
    assert len(out) == len(timings)
    for tb, sh, tmpl, cb in zip(timings, shares, templates, out):
        for i, node in enumerate(NODES):
            ref = _scalar(_lane_timing(tb, i, tmpl), int(sh[i]), node.memory)
            assert cb.timing.mem_stall_cycles[i] == \
                ref.timing.mem_stall_cycles, (tb.kernel, i)
            assert cb.utilization[i] == ref.utilization, (tb.kernel, i)
            assert cb.achieved_bw_gbs[i] == ref.achieved_bw_gbs
            assert cb.capacity_gbs[i] == ref.capacity_gbs
            assert cb.mem_stall_multiplier[i] == ref.mem_stall_multiplier


def test_lanes_cover_trivial_early_and_capped_convergence(stacked):
    # The stack above only proves the masking if it mixes lanes that
    # return at once, lanes that stop after a few iterations and lanes
    # still moving at the iteration cap.
    nb, timings, shares, templates = stacked
    kinds = set()
    for tb, sh, tmpl in zip(timings, shares, templates):
        for i, node in enumerate(NODES):
            t = _lane_timing(tb, i, tmpl)
            if t.dram_bytes <= 0 or t.mem_stall_cycles <= 0:
                kinds.add("trivial")
                continue
            n = int(sh[i])
            full = _scalar(t, n, node.memory)
            if _scalar(t, n, node.memory, max_iter=4) == full:
                kinds.add("early")
            if _scalar(t, n, node.memory,
                       max_iter=cpu._MAX_ITER + 1) != full:
                kinds.add("capped")
    assert kinds == {"trivial", "early", "capped"}


def test_stacking_does_not_change_a_kernel(stacked):
    nb, timings, shares, _ = stacked
    together = resolve_contention_batch(timings, shares, nb)
    for j, (tb, sh) in enumerate(zip(timings, shares)):
        (alone,) = resolve_contention_batch([tb], [sh], nb)
        assert np.array_equal(alone.timing.mem_stall_cycles,
                              together[j].timing.mem_stall_cycles)
        assert np.array_equal(alone.utilization, together[j].utilization)


def test_validation(stacked):
    nb, timings, shares, _ = stacked
    assert resolve_contention_batch([], [], nb) == []
    with pytest.raises(ValueError):
        resolve_contention_batch(timings[:1], [np.zeros(len(NODES))], nb)
    with pytest.raises(ValueError):
        resolve_contention_batch(timings[:2], shares[:1], nb)


def test_capped_lanes_counted_alike_in_both_paths(stacked):
    # Both paths count a fixed point stopped at the iteration cap under
    # one counter: the batch once per capped lane, the scalar once per
    # capped call.
    nb, timings, shares, templates = stacked
    batch_reg, scalar_reg = MetricsRegistry(), MetricsRegistry()
    prev = set_metrics(batch_reg)
    try:
        resolve_contention_batch(timings, shares, nb)
        set_metrics(scalar_reg)
        for tb, sh, tmpl in zip(timings, shares, templates):
            for i, node in enumerate(NODES):
                _scalar(_lane_timing(tb, i, tmpl), int(sh[i]), node.memory)
    finally:
        set_metrics(prev)
    capped = scalar_reg.counter("contention.unconverged")
    assert capped > 0
    assert batch_reg.counter("contention.unconverged") == capped

"""Pin the observability counter names that readers key on.

The CLI metrics summary, ``--metrics-json`` consumers and the ``perf``
benchmark's per-layer counters all read these exact strings.  Renaming
one must fail here first, not silently blind the instrumentation.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import search_front
from repro.apps import get_app
from repro.config import DesignSpace, axis_linspace, smoke_design_space
from repro.core import run_sweep
from repro.core import batch as batch_mod
from repro.core import sweep as sweep_mod
from repro.core.batch import evaluator_for
from repro.core.canon import canonical_dumps
from repro.core.musa import Musa
from repro.core.store import code_version
from repro.network.replay_batch import replay_batch
from repro.obs import MetricsRegistry, get_metrics, set_metrics, summarize
from repro.obs.catalog import lookup

#: Counters a smoke-scale sweep, replay, pooled sweep, store write and
#: search must all emit.  A rename of any of these is a breaking change.
REQUIRED_COUNTERS = (
    "miss.batch.geometries",
    "sched.batch.fast",
    "replay.batch.array_events",
    "replay.batch.driver.array",
    "replay.events",
    "sweep.batch.configs",
    "sweep.shards",
    "search.evaluated",
    "store.block.put",
    "store.block.records",
)

#: 12-point space the fixture's active search explores: big enough
#: that the seed stage leaves points for at least one proposal round
#: (so ``search.rounds`` moves), small enough to stay smoke-cheap.
_SEARCH_SPACE = DesignSpace(
    core_labels=("medium",), cache_labels=("64M:512K",),
    memory_labels=("4chDDR4",), frequencies=(1.5, 2.0, 2.5, 3.0),
    vector_widths=(128,), core_counts=(1, 32, 64))


@pytest.fixture(scope="module")
def workload_counters():
    """One smoke-scale pass; shared because the miss table is
    per-evaluator (a second pass would read the table and skip the
    geometry computation whose counter this suite pins).  Evaluators
    are cached per process, so evict the app's entry first — earlier
    suite tests may have warmed its table."""
    batch_mod._EVALUATORS.pop("spmz", None)
    reg = MetricsRegistry()
    prev = get_metrics()
    set_metrics(reg)
    try:
        run_sweep(["spmz"], smoke_design_space(), processes=1, metrics=reg)
        run_sweep(["spmz"], smoke_design_space(), processes=1, metrics=reg,
                  mode="replay", n_ranks=8)
        # Pooled: workers ship frame blocks over the IPC transports.
        run_sweep(["spmz"], smoke_design_space(), processes=2,
                  batch_size=4, metrics=reg)
        # Columnar store plane: one block line for the whole frame.
        from repro.core.store import ResultStore
        ev = evaluator_for("spmz")
        frame = ev.evaluate_frame(list(smoke_design_space()))
        with tempfile.TemporaryDirectory() as td:
            with ResultStore(Path(td) / "pins.jsonl") as store:
                store.put_frame(frame, "fast", 8, "pins",
                                {"engine": "pins"})
        musa = Musa(get_app("lulesh"))
        trace = musa._burst_trace(8, 1)
        scales = musa.app.rank_scales(8)
        phase_ns = {id(p): musa.burst_phase(p, 64).makespan_ns
                    for p in musa.phases}
        cfg = 1.0 + np.arange(4) * 1e-3

        def dur(rank, phase):
            return phase_ns[id(phase)] * scales[rank] * cfg

        replay_batch(trace, musa.network, dur, 4)

        search_front("spmz", _SEARCH_SPACE, max_evals=len(_SEARCH_SPACE),
                     patience=None, metrics=reg,
                     evaluator=evaluator_for("spmz"))
    finally:
        set_metrics(prev)
    yield reg.snapshot()["counters"]


def test_pinned_counter_names_emitted(workload_counters):
    counters = workload_counters
    for name in ("miss.batch.geometries",
                 "sched.batch.fast",
                 "replay.batch.array_events",
                 "replay.events",
                 "sweep.batch.configs"):
        assert counters.get(name, 0) > 0, f"counter {name} never emitted"


def test_required_counters_are_real_emitted_names(workload_counters):
    counters = workload_counters
    # Every pinned counter must be one the smoke-scale workloads
    # actually emit.
    for name in REQUIRED_COUNTERS:
        assert counters.get(name, 0) > 0, f"required counter {name} silent"


def test_data_plane_counters_emitted(workload_counters):
    counters = workload_counters
    # Columnar data plane (DESIGN §10): pooled shards ship whole frames
    # (one transport count per frame) and the store writes block lines.
    assert counters.get("sweep.ipc.pickle", 0) > 0
    assert counters.get("store.block.put", 0) > 0
    assert counters.get("store.block.records", 0) > 0


def test_sweep_ipc_transport_counters(monkeypatch):
    """Pooled shards whose frames pickle to more than 64 KiB ride the
    same pickle wire as small ones: one ``sweep.ipc.pickle`` per shard,
    and the sweep is byte-identical to the inline one."""
    space = DesignSpace(frequencies=axis_linspace(1.0, 4.0, 20))
    inline = run_sweep(["lulesh"], space, processes=1, batch_size=1024)
    sizes = []
    unpack = sweep_mod._unpack_outcomes

    def measured(wire, packed):
        sizes.extend(len(data) for data in packed)
        return unpack(wire, packed)

    monkeypatch.setattr(sweep_mod, "_unpack_outcomes", measured)
    reg = MetricsRegistry()
    pooled = run_sweep(["lulesh"], space, processes=2, batch_size=1024,
                       metrics=reg)
    counters = reg.snapshot()["counters"]
    assert len(sizes) == counters["sweep.shards"] == 8
    assert min(sizes) > 64 * 1024
    assert counters["sweep.ipc.pickle"] == len(sizes)
    assert canonical_dumps(list(pooled)) == canonical_dumps(list(inline))


def test_array_driver_does_not_alias_other_drivers(workload_counters):
    counters = workload_counters
    # Regression pin for the PR5-era counter aliasing: a pure
    # array-driver workload double-reported every array event under a
    # second driver's counter.  The fixture's replays all run on the
    # tape, so the scalar fallback must never report.
    assert counters.get("replay.batch.array_events", 0) > 0
    assert counters.get("replay.batch.driver.array", 0) > 0
    assert counters.get("replay.batch.driver.scalar", 0) == 0
    assert counters.get("replay.batch.array_fallbacks", 0) == 0


def test_dse_counters_emitted(workload_counters):
    counters = workload_counters
    # Shard scheduler (inline sweeps still deal shards) and active
    # search both reported into the fixture run.
    for name in ("sweep.shards", "search.evaluated", "search.rounds",
                 "search.front_size"):
        assert counters.get(name, 0) > 0, f"counter {name} never emitted"


def test_workload_counters_are_catalogued(workload_counters):
    missing = [name for name in workload_counters if lookup(name) is None]
    assert not missing, f"uncatalogued counters: {missing}"


def test_summarize_exposes_pinned_families(workload_counters):
    counters = workload_counters
    reg = MetricsRegistry()
    for k, v in counters.items():
        reg.inc(k, v)
    derived = summarize(reg.snapshot())["derived"]
    assert derived["batched_configs"] > 0
    assert derived["replay_array_events"] > 0
    assert derived["replay_tape_builds"] > 0
    assert derived["miss_batch_geometries"] > 0
    assert derived["sched_batch_fast"] > 0
    assert derived["replay_events"] > 0


def test_code_version_honours_env_override(monkeypatch):
    # Store keys, and so every pinned serve digest, depend on the code
    # version; the environment variable must override the git revision.
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-cv")
    assert code_version() == "pinned-cv"

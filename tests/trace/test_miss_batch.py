"""Tests for the batched, scipy-free set-associative miss model.

Four contracts:

* ``ReuseProfile.miss_ratio_batch`` is **bitwise** identical to a loop
  of scalar ``miss_ratio`` calls — the geometry batch axis never
  perturbs a miss ratio in the last ulp;
* the survival tables that ``_survival_tables`` builds together, one
  recurrence per associativity, are bitwise identical to the one-key
  recurrence kept here as :func:`_binom_survival_table`;
* the scipy-free binomial-tail / ``erfc`` implementation matches the
  scipy reference kept here as :func:`_setassoc_miss_prob_scipy` to
  floating-point noise (cross-check runs only when scipy is installed);
* no module under ``src/repro`` imports scipy, and a sweep completes
  with scipy imports hard-blocked.
"""

import ast
import copy
import subprocess
import sys
import textwrap
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.apps import APP_NAMES, get_app
from repro.config import NodeConfig, axis_range, cache_preset, \
    core_preset, memory_preset, range_design_space
from repro.core.batch import BatchEvaluator
from repro.core.musa import Musa
from repro.obs import MetricsRegistry, set_metrics
from repro.trace import InstructionMix, KernelSignature, ReuseProfile
from repro.trace import kernel
from repro.trace.kernel import (_SMALL_D_MAX, _setassoc_miss_prob,
                                _setassoc_miss_prob_batch, _survival_tables)
from repro.uarch import hierarchy_miss_profile
from repro.uarch.batch import NodeBatch
from repro.uarch.hierarchy import MissTable, hierarchy_miss_profile_batch
from repro.util import LruDict

#: The oracle's own cache, so it never fills the production one.
_ORACLE_TABLES = {}


def _binom_survival_table(assoc: int, n_sets: int) -> np.ndarray:
    """``tab[d] = P(Binom(d, 1/n_sets) >= assoc)`` for d = 0.._SMALL_D_MAX.

    The one-key-at-a-time recurrence that ``_survival_tables`` replaced,
    kept as its bitwise reference: one NumPy step per trial, each tail
    summed over a 1-D slice.
    """
    key = (int(assoc), int(n_sets))
    tab = _ORACLE_TABLES.get(key)
    if tab is None:
        p = 1.0 / key[1]
        q = 1.0 - p
        a = max(0, key[0])
        pmf = np.zeros(_SMALL_D_MAX + 1, dtype=np.float64)
        pmf[0] = 1.0
        tab = np.empty(_SMALL_D_MAX + 1, dtype=np.float64)
        tab[0] = float(pmf[a:].sum())
        for d in range(1, _SMALL_D_MAX + 1):
            pmf[1:d + 1] = pmf[1:d + 1] * q + pmf[:d] * p
            pmf[0] *= q
            tab[d] = float(pmf[a:d + 1].sum())
        _ORACLE_TABLES[key] = tab
    return tab


def _setassoc_miss_prob_scipy(distances: np.ndarray, assoc: int,
                              n_sets: int) -> np.ndarray:
    """The scipy-based reference implementation, kept for cross-checks."""
    d = np.asarray(distances, dtype=np.float64)
    p = 1.0 / n_sets
    mean = d * p
    out = np.empty_like(d)
    small = d <= _SMALL_D_MAX
    if small.any():
        from scipy.stats import binom

        out[small] = binom.sf(assoc - 1, np.maximum(d[small], 0).astype(int), p)
    big = ~small
    if big.any():
        from scipy.stats import norm

        sd = np.sqrt(np.maximum(d[big] * p * (1 - p), 1e-12))
        out[big] = norm.sf((assoc - 0.5 - mean[big]) / sd)
    return np.clip(out, 0.0, 1.0)


components_st = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
              st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)),
    min_size=1, max_size=12)

# Capacities include <= 0 (degenerate: miss ratio 1.0), associativity
# includes 0 (fully associative path) and n_sets includes 0 (derive
# capacity // assoc, the scalar default).
geometry_st = st.tuples(
    st.floats(min_value=-10.0, max_value=1e7, allow_nan=False),
    st.integers(min_value=0, max_value=32),
    st.integers(min_value=0, max_value=4096))


class TestMissRatioBatchBitwise:
    @settings(max_examples=150, deadline=None)
    @given(components=components_st,
           cold=st.floats(min_value=0.0, max_value=0.9),
           geoms=st.lists(geometry_st, min_size=1, max_size=10))
    def test_batch_matches_scalar_bitwise(self, components, cold, geoms):
        prof = ReuseProfile.from_components(components, cold_fraction=cold)
        caps = [g[0] for g in geoms]
        assocs = [g[1] for g in geoms]
        sets = [g[2] for g in geoms]
        out = prof.miss_ratio_batch(caps, assocs, sets)
        for i, (c, a, s) in enumerate(geoms):
            ref = prof.miss_ratio(c, a, s)
            assert out[i] == ref, (i, c, a, s)

    def test_all_empty_capacities(self):
        prof = ReuseProfile.from_components([(100.0, 1.0)])
        out = prof.miss_ratio_batch([0.0, -5.0], [4, 0], [16, 0])
        assert np.array_equal(out, [1.0, 1.0])

    def test_geometry_arrays_must_align(self):
        prof = ReuseProfile.from_components([(100.0, 1.0)])
        with pytest.raises(ValueError):
            prof.miss_ratio_batch([100.0, 200.0], [4], [16])

    @settings(max_examples=75, deadline=None)
    @given(distances=st.lists(
               st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
               min_size=1, max_size=20),
           geoms=st.lists(st.tuples(st.integers(1, 32),
                                    st.integers(1, 4096)),
                          min_size=1, max_size=6))
    def test_setassoc_helper_batch_matches_stacked_scalar(self, distances,
                                                          geoms):
        d = np.asarray(distances, dtype=np.float64)
        assocs = np.array([a for a, _ in geoms], dtype=np.int64)
        sets = np.array([s for _, s in geoms], dtype=np.int64)
        got = _setassoc_miss_prob_batch(d, assocs, sets)
        ref = np.stack([_setassoc_miss_prob(d, int(a), int(s))
                        for a, s in geoms])
        assert np.array_equal(got, ref)


# Associativities mix the fully associative 0 (and a negative value,
# which shares its recurrence), the design space's 8 and 16, and values
# past _SMALL_D_MAX (all-zero tables); n_sets == 1 gives p = 1, q = 0.
survival_key_st = st.tuples(
    st.one_of(st.sampled_from([-1, 0, 8, 16, _SMALL_D_MAX,
                               _SMALL_D_MAX + 1, 300]),
              st.integers(min_value=1, max_value=32)),
    st.one_of(st.just(1), st.integers(min_value=1, max_value=1 << 20)))


@contextmanager
def _fresh_tables(maxsize=512):
    """Swap in an empty table cache, so every key is built in the call."""
    saved = kernel._SURVIVAL_TABLES
    kernel._SURVIVAL_TABLES = LruDict(
        maxsize, eviction_counter="miss.table.evictions")
    try:
        yield kernel._SURVIVAL_TABLES
    finally:
        kernel._SURVIVAL_TABLES = saved


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


#: Every distance a table holds, so oracle comparisons stay complete.
_ALL_D = np.arange(_SMALL_D_MAX + 1)


def _tables(keys, distances=_ALL_D):
    return _survival_tables([a for a, _ in keys], [s for _, s in keys],
                            distances)


class TestSurvivalTables:
    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(survival_key_st, min_size=1, max_size=10),
           repeats=st.lists(st.integers(min_value=0, max_value=9),
                            max_size=4),
           warm=st.integers(min_value=0, max_value=10))
    @example(keys=[(0, 1), (-1, 7), (8, 1), (16, 512), (_SMALL_D_MAX + 1, 3),
                   (_SMALL_D_MAX, 2), (8, 512), (16, 1)],
             repeats=[3, 3, 0], warm=2)
    def test_batched_tables_match_oracle_bitwise(self, keys, repeats, warm):
        # Duplicates in one call, and a call where the first ``warm``
        # keys are already cached and the rest are built together.
        keys = keys + [keys[i % len(keys)] for i in repeats]
        with _fresh_tables():
            if warm:
                _tables(keys[:warm])
            got = _tables(keys)
        ref = np.stack([_binom_survival_table(a, s) for a, s in keys])
        assert np.array_equal(_bits(got), _bits(ref))

    def test_one_recurrence_per_associativity(self, monkeypatch):
        calls = []
        build = kernel._survival_rows

        def counted(assoc, p, distances):
            calls.append((assoc, len(p)))
            return build(assoc, p, distances)

        monkeypatch.setattr(kernel, "_survival_rows", counted)
        # 6 distinct keys over 3 associativities (-2 groups with 0).
        keys = [(8, 64), (16, 64), (8, 100), (8, 64), (16, 3), (-2, 5),
                (0, 5)]
        with _fresh_tables() as tables:
            first = _tables(keys)
            assert sorted(calls) == [(0, 2), (8, 2), (16, 2)]
            assert len(tables) == 6
            calls.clear()
            again = _tables(keys)
            assert calls == []
            _tables([(8, 64), (8, 7)])
            assert calls == [(8, 1)]
        assert np.array_equal(_bits(first), _bits(again))

    def test_partial_tables_then_completed(self, monkeypatch):
        # Only the distances asked for are built, the rest stay NaN
        # until a later call asks for them; built cells keep their bits.
        depths = []
        build = kernel._survival_rows

        def counted(assoc, p, distances):
            depths.append(max(distances))
            return build(assoc, p, distances)

        monkeypatch.setattr(kernel, "_survival_rows", counted)
        keys = [(8, 64), (16, 3), (8, 1), (_SMALL_D_MAX + 1, 5), (0, 1)]
        ref = np.stack([_binom_survival_table(a, s) for a, s in keys])
        with _fresh_tables() as tables:
            few = [146, 3, 0, 3, 86]
            got = _tables(keys, few)
            assert np.array_equal(_bits(got), _bits(ref[:, few]))
            assert depths == [146] * 4  # one per associativity
            for key in keys:
                built = ~np.isnan(tables[key])
                assert np.flatnonzero(built).tolist() == [0, 3, 86, 146]
            partial = {key: tables[key].copy() for key in keys}
            depths.clear()
            assert np.array_equal(_bits(_tables(keys, [86, 0])),
                                  _bits(ref[:, [86, 0]]))
            assert depths == []
            got = _tables(keys)
            assert np.array_equal(_bits(got), _bits(ref))
            for key in keys:
                tab = tables[key]
                assert not np.isnan(tab).any()
                done = ~np.isnan(partial[key])
                assert np.array_equal(_bits(tab[done]),
                                      _bits(partial[key][done]))

    def test_eviction_keeps_the_other_tables(self):
        keys = [(8, 64), (8, 100), (16, 64), (16, 3)]
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            with _fresh_tables(maxsize=3) as tables:
                got = _tables(keys)
                cached = dict(tables)
        finally:
            set_metrics(prev)
        assert reg.counter("miss.table.evictions") == 1
        ref = np.stack([_binom_survival_table(a, s) for a, s in keys])
        assert np.array_equal(_bits(got), _bits(ref))
        assert len(cached) == 3
        for key, tab in cached.items():
            # An owned row: evicting it frees the table, not a view of
            # the call's whole build buffer.
            assert tab.base is None and tab.flags.c_contiguous
            ref = _binom_survival_table(*key)
            assert np.array_equal(_bits(tab), _bits(ref))


def _sig(components, cold=0.0):
    return KernelSignature(
        name="k", instr_per_unit=1000.0,
        mix=InstructionMix(fp=0.3, int_alu=0.2, load=0.25, store=0.1,
                           branch=0.1, other=0.05),
        ilp=2.0, vec_fraction=0.5, trip_count=64, mlp=4.0,
        reuse=ReuseProfile.from_components(components, cold_fraction=cold),
    )


class TestHierarchyBatchBitwise:
    def test_batch_matches_scalar_over_presets_and_shares(self):
        sig = _sig([(100, 0.4), (5000, 0.3), (24_000, 0.2), (5e6, 0.1)],
                   cold=0.02)
        labels = ("64M:512K", "96M:1M", "32M:256K")
        hierarchies = [cache_preset(label) for label in labels]
        index, shares = [], []
        for h in range(len(labels)):
            for share in (1, 16, 64):
                index.append(h)
                shares.append(share)
        cols = hierarchy_miss_profile_batch([sig], hierarchies, index,
                                            [shares])
        for k, (h, s) in enumerate(zip(index, shares)):
            ref = hierarchy_miss_profile(sig, hierarchies[h],
                                         l3_share_cores=s)
            got = tuple(float(c[0, k]) for c in cols)
            assert got == (ref.miss_l1, ref.miss_l2, ref.miss_l3), (h, s)

    def test_memo_shares_distinct_pairs_across_batches(self):
        # The table is the memo: a later batch reads the cells an
        # earlier one priced and prices nothing itself.
        sig = _sig([(2000, 1.0)])
        h = cache_preset("64M:512K")
        table = MissTable()
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            first = hierarchy_miss_profile_batch([sig], [h], [0, 0],
                                                 [[1, 1]], table=table)
            priced = reg.counter("miss.batch.geometries")
            again = hierarchy_miss_profile_batch([sig], [h], [0], [[1]],
                                                 table=table)
        finally:
            set_metrics(prev)
        assert priced == 3  # L1, L2 and one L3 share
        assert reg.counter("miss.batch.geometries") == priced
        assert _filled_cells(table) == 1
        for a, f in zip(again, first):
            assert a[0, 0] == f[0, 0] == f[0, 1]

    def test_equal_but_distinct_hierarchies(self):
        # Equal hierarchy objects that are not the same object must
        # behave exactly like one shared object: same miss columns, same
        # geometry count, one table cell per (kernel, hierarchy, share).
        sig = _sig([(100, 0.4), (5000, 0.3), (5e6, 0.3)], cold=0.01)
        h = cache_preset("96M:1M")
        twins = [copy.deepcopy(h) for _ in range(4)]
        assert all(t == h and t is not h for t in twins)
        shares = [1, 3, 3, 8, 1, 8, 3, 1]

        def run(caches):
            nodes = [NodeConfig(core=core_preset("medium"), cache=c,
                                memory=memory_preset("4chDDR4"),
                                frequency_ghz=2.0, vector_bits=128,
                                n_cores=64) for c in caches]
            nb = NodeBatch.from_nodes(nodes)
            reg, table = MetricsRegistry(), MissTable()
            prev = set_metrics(reg)
            try:
                cols = hierarchy_miss_profile_batch(
                    [sig], nb.hierarchies, nb.hierarchy_idx, [shares],
                    table=table)
            finally:
                set_metrics(prev)
            return nb, cols, reg.counter("miss.batch.geometries"), table

        nb_one, one, geoms_one, table_one = run([h] * len(shares))
        nb_eq, eq, geoms_eq, table_eq = run(
            [twins[i % len(twins)] for i in range(len(shares))])
        assert len(nb_one.hierarchies) == len(nb_eq.hierarchies) == 1
        for a, b in zip(one, eq):
            assert np.array_equal(a, b)
        assert geoms_eq == geoms_one > 0
        assert _filled_cells(table_eq) == _filled_cells(table_one) \
            == len(set(shares))

        # Without the batch's dedupe (one index per object), the twins
        # still hash to one table row: the same geometries and cells.
        reg, table = MetricsRegistry(), MissTable()
        prev = set_metrics(reg)
        try:
            raw = hierarchy_miss_profile_batch(
                [sig], twins, [i % len(twins) for i in range(len(shares))],
                [shares], table=table)
        finally:
            set_metrics(prev)
        for a, b in zip(one, raw):
            assert np.array_equal(a, b)
        assert reg.counter("miss.batch.geometries") == geoms_one
        assert _filled_cells(table) == len(set(shares))


def _filled_cells(table: MissTable) -> int:
    """L3 cells a table has priced (an unpriced cell holds NaN)."""
    return int(np.count_nonzero(~np.isnan(table._l3)))


class TestDenseMissTable:
    """Every cell of the dense (kernel, hierarchy, share) tables is the
    float scalar :func:`hierarchy_miss_profile` returns."""

    PRESETS = ("64M:512K", "96M:1M", "32M:256K")
    MAX_SHARE = 252

    @pytest.fixture(scope="class")
    def bundled(self):
        return [sig for app in APP_NAMES
                for sig in Musa(get_app(app)).detailed.kernels.values()]

    def test_every_cell_equals_scalar(self, bundled):
        rng = np.random.default_rng(40)
        hierarchies = [cache_preset(label) for label in self.PRESETS]
        table = MissTable()
        lanes = []
        # Interleaved kernel subsets on random configs; the share range
        # widens so the table grows past its first 64-share block twice.
        for top in (40, 130, self.MAX_SHARE):
            for _ in range(3):
                picks = rng.choice(len(bundled), size=4, replace=True)
                sigs = [bundled[i] for i in picks]
                index = rng.integers(0, len(hierarchies), size=24)
                shares = rng.integers(1, top + 1, size=(len(sigs), 24))
                lanes.append((sigs, index, shares, hierarchy_miss_profile_batch(
                    sigs, hierarchies, index, shares, table=table)))
        # Then every kernel x preset x share 1..252, kernels shuffled.
        order = rng.permutation(len(bundled))
        sigs = [bundled[i] for i in order]
        index = np.repeat(np.arange(len(hierarchies)), self.MAX_SHARE)
        shares = np.tile(np.arange(1, self.MAX_SHARE + 1), len(hierarchies))
        shares = np.broadcast_to(shares, (len(sigs), len(shares)))
        full = hierarchy_miss_profile_batch(sigs, hierarchies, index, shares,
                                            table=table)
        assert table._l3.shape == (len(bundled), len(hierarchies), 256)
        assert _filled_cells(table) == len(bundled) * len(hierarchies) \
            * self.MAX_SHARE
        lanes.append((sigs, index, shares, full))

        ref = {}
        for sigs, index, shares, cols in lanes:
            for j, sig in enumerate(sigs):
                for i, h in enumerate(index.tolist()):
                    s = int(shares[j, i])
                    key = (sig.name, h, s)
                    if key not in ref:
                        m = hierarchy_miss_profile(sig, hierarchies[h], s)
                        ref[key] = _bits(np.array(
                            [m.miss_l1, m.miss_l2, m.miss_l3]))
                    got = _bits(np.array([c[j, i] for c in cols]))
                    assert np.array_equal(got, ref[key]), key
        assert len(ref) == len(bundled) * len(hierarchies) * self.MAX_SHARE

    def test_rejects_misaligned_shares(self):
        sig = _sig([(2000, 1.0)])
        h = cache_preset("64M:512K")
        with pytest.raises(ValueError, match="kernels, configs"):
            hierarchy_miss_profile_batch([sig, sig], [h], [0, 0], [[1, 1]])
        with pytest.raises(ValueError, match="positive"):
            hierarchy_miss_profile_batch([sig], [h], [0], [[0]])


class TestSurvivalBuildsOnce:
    """A cold sweep_fast-shaped round of one app (its frames through one
    evaluator) builds each ``(assoc, n_sets)`` survival key once: each
    refine iteration's fill builds its missing keys over the union of
    the stacked kernels' distances, so a later kernel finds its keys
    complete.  Keys shared by apps are extended when a later app brings
    new distances, so the count is per app."""

    @pytest.mark.parametrize("app", APP_NAMES)
    def test_cold_round_builds_each_key_once(self, app):
        # One frequency of the 16-core-count range space, 1,152 configs.
        nodes = list(range_design_space(
            frequencies=(1.0,), core_counts=axis_range(8, 128, 8)).configs())
        shards = [nodes[i * len(nodes) // 5:(i + 1) * len(nodes) // 5]
                  for i in range(5)]
        reg = MetricsRegistry()
        prev = set_metrics(reg)
        try:
            with _fresh_tables() as tables:
                ev = BatchEvaluator(Musa(get_app(app)))
                for shard in shards:
                    ev.evaluate_frame(shard)
                keys = len(tables)
        finally:
            set_metrics(prev)
        assert reg.counter("miss.table.evictions") == 0
        assert reg.counter("miss.table.builds") == keys > 0


class TestScipyCrossCheck:
    """The scipy-free tail rewrite vs the retained scipy reference."""

    @settings(max_examples=50, deadline=None)
    @given(distances=st.lists(
               st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
               min_size=1, max_size=16),
           assoc=st.integers(min_value=1, max_value=32),
           n_sets=st.integers(min_value=1, max_value=4096))
    def test_matches_scipy_reference(self, distances, assoc, n_sets):
        pytest.importorskip("scipy")
        d = np.asarray(distances, dtype=np.float64)
        got = _setassoc_miss_prob(d, assoc, n_sets)
        ref = _setassoc_miss_prob_scipy(d, assoc, n_sets)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)

    def test_both_branches_covered(self):
        pytest.importorskip("scipy")
        # Straddle the exact-table / normal-approximation threshold.
        d = np.array([0.0, 1.0, _SMALL_D_MAX, _SMALL_D_MAX + 1, 1e5])
        got = _setassoc_miss_prob(d, 8, 512)
        ref = _setassoc_miss_prob_scipy(d, 8, 512)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)


class TestScipyFreeHotPath:
    def test_no_module_under_src_imports_scipy(self):
        # Static half of the contract: covers modules the subprocess
        # sweep below never imports.
        src_root = Path(repro.__file__).resolve().parent
        scanned, offenders = [], []
        for path in sorted(src_root.rglob("*.py")):
            rel = path.relative_to(src_root).as_posix()
            scanned.append(rel)
            for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(n.split(".")[0] == "scipy" for n in names):
                    offenders.append(f"{rel}:{node.lineno}")
        assert "trace/kernel.py" in scanned and len(scanned) > 50
        assert offenders == []

    def test_sweep_runs_with_scipy_import_blocked(self):
        # A fresh interpreter with scipy imports hard-blocked must run a
        # fast-mode sweep end to end, including both miss-model branches.
        # This is the enforcement half of dropping scipy from the
        # runtime dependencies.
        code = textwrap.dedent("""
            import sys

            class _BlockScipy:
                def find_spec(self, name, path=None, target=None):
                    if name == "scipy" or name.startswith("scipy."):
                        raise ImportError("scipy is blocked in this test")
                    return None

            sys.meta_path.insert(0, _BlockScipy())
            sys.modules.pop("scipy", None)

            import numpy as np
            from repro.config import DesignSpace
            from repro.core import run_sweep
            from repro.trace.kernel import _SMALL_D_MAX, _setassoc_miss_prob

            # Exercise both the exact-table and the normal-tail branch.
            d = np.array([1.0, float(_SMALL_D_MAX) + 1, 1e5])
            p = _setassoc_miss_prob(d, 8, 512)
            assert np.all((p >= 0.0) & (p <= 1.0))

            space = DesignSpace(core_labels=("medium",),
                                cache_labels=("64M:512K",),
                                memory_labels=("4chDDR4",),
                                frequencies=(2.0,), vector_widths=(128,),
                                core_counts=(64,))
            res = run_sweep(["spmz"], space, processes=1)
            assert len(list(res)) == 1
            assert "scipy" not in sys.modules
            print("scipy-free hot path OK")
        """)
        src_root = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": str(src_root)})
        assert proc.returncode == 0, proc.stderr
        assert "scipy-free hot path OK" in proc.stdout

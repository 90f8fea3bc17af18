"""Property tests for the sweep engine and journal.

* the task table's ordering is deterministic (row-major over the
  Table I axes, apps outermost) for arbitrary sub-spaces;
* the task table's keys, read from axis values, equal the keys of the
  tasks' nodes, value types included, for any space, config list and
  shard;
* ``run_sweep`` results are independent of worker count and chunk
  size — one worker and N workers produce identical records;
* the journal round-trips arbitrary record sets, deduplicates on
  first occurrence, and tolerates torn tails.
"""

import json
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    CACHE_LABELS,
    CORE_LABELS,
    MEMORY_LABELS,
    DesignSpace,
    axis_linspace,
    axis_range,
    range_design_space,
    smoke_design_space,
)
from repro.config.node import CORE_COUNTS, FREQUENCIES_GHZ, VECTOR_WIDTHS_BITS
from repro.core import CONFIG_KEYS, Journal, replay_journal, run_sweep
from repro.core.sweep import _point_key, _TaskTable

_SETTINGS = settings(max_examples=25, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _axis_subset(values):
    return st.lists(st.sampled_from(values), min_size=1,
                    max_size=len(values), unique=True).map(tuple)


spaces = st.builds(
    DesignSpace,
    core_labels=_axis_subset(CORE_LABELS),
    cache_labels=_axis_subset(CACHE_LABELS),
    memory_labels=_axis_subset(MEMORY_LABELS),
    frequencies=_axis_subset(FREQUENCIES_GHZ),
    vector_widths=_axis_subset(VECTOR_WIDTHS_BITS),
    core_counts=_axis_subset(CORE_COUNTS),
)

app_lists = st.lists(st.sampled_from(["hydro", "spmz", "btmz", "spec3d",
                                      "lulesh"]),
                     min_size=1, max_size=3, unique=True)


class TestOrderingProperties:
    @_SETTINGS
    @given(space=spaces, apps=app_lists)
    def test_sweep_configs_deterministic_row_major(self, space, apps):
        tasks = list(_TaskTable(apps, space))
        again = list(_TaskTable(apps, space))
        assert [(a, n.label) for a, n in tasks] \
            == [(a, n.label) for a, n in again]
        # Row-major cartesian order, apps outermost.
        expected = [
            (app, core, cache, mem, freq, vec, ncores)
            for app in apps
            for core, cache, mem, freq, vec, ncores in product(
                space.core_labels, space.cache_labels, space.memory_labels,
                space.frequencies, space.vector_widths, space.core_counts)
        ]
        got = []
        for app, node in tasks:
            ax = node.axis_values()
            got.append((app, ax["core"], ax["cache"], ax["memory"],
                        ax["frequency"], ax["vector"], ax["cores"]))
        assert got == expected
        assert len(set(got)) == len(got)  # no duplicate design points


# Range spaces with int- and float-valued numeric axes.
_frequencies = st.one_of(
    st.builds(axis_linspace, st.floats(0.5, 2.0), st.floats(2.5, 4.0),
              st.integers(1, 5)),
    st.builds(axis_range, st.integers(1, 2), st.integers(2, 5),
              st.integers(1, 2)),
)
range_spaces = st.builds(
    range_design_space,
    core_labels=_axis_subset(CORE_LABELS),
    cache_labels=_axis_subset(CACHE_LABELS),
    memory_labels=_axis_subset(MEMORY_LABELS),
    frequencies=_frequencies,
    vector_widths=_axis_subset(VECTOR_WIDTHS_BITS),
    core_counts=st.builds(axis_range, st.integers(1, 8),
                          st.integers(8, 40), st.integers(4, 16)),
)


def _shards(n_tasks):
    """``None`` (the whole table) or a valid ``(K, N)`` shard."""
    return st.one_of(
        st.none(),
        st.integers(1, n_tasks + 2).flatmap(
            lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))


def _assert_keys_match_nodes(tasks, shard):
    k, n = shard or (0, 1)
    indices = range(k, len(tasks), n)
    keys = tasks.keys(indices)
    want = [_point_key(*tasks[i]) for i in indices]
    assert keys == want
    assert ([tuple(map(type, key)) for key in keys]
            == [tuple(map(type, key)) for key in want])


class TestTaskKeys:
    @_SETTINGS
    @given(space=st.one_of(range_spaces, spaces), apps=app_lists,
           data=st.data())
    def test_space_keys_match_node_keys(self, space, apps, data):
        tasks = _TaskTable(apps, space)
        _assert_keys_match_nodes(tasks, data.draw(_shards(len(tasks))))

    @_SETTINGS
    @given(space=st.one_of(range_spaces, spaces), apps=app_lists,
           data=st.data())
    def test_config_list_keys_match_node_keys(self, space, apps, data):
        tasks = _TaskTable(apps, list(space))
        _assert_keys_match_nodes(tasks, data.draw(_shards(len(tasks))))

    @pytest.mark.parametrize("space", [DesignSpace(), smoke_design_space()],
                             ids=["table1", "smoke"])
    @pytest.mark.parametrize("shard", [None, (0, 1), (2, 7), (6, 7)])
    def test_named_spaces(self, space, shard):
        tasks = _TaskTable(["hydro", "lulesh"], space)
        _assert_keys_match_nodes(tasks, shard)


# Journal records: full config identity plus one payload field.
_records = st.lists(
    st.fixed_dictionaries({
        "app": st.sampled_from(["a", "b", "c"]),
        "core": st.sampled_from(CORE_LABELS),
        "cache": st.sampled_from(CACHE_LABELS),
        "memory": st.sampled_from(MEMORY_LABELS),
        "frequency": st.sampled_from(FREQUENCIES_GHZ),
        "vector": st.sampled_from(VECTOR_WIDTHS_BITS),
        "cores": st.sampled_from(CORE_COUNTS),
        "time_ns": st.floats(min_value=1.0, max_value=1e12,
                             allow_nan=False),
    }),
    min_size=0, max_size=12,
    unique_by=lambda r: tuple(r[k] for k in CONFIG_KEYS),
)


class TestJournalProperties:
    @_SETTINGS
    @given(records=_records)
    def test_roundtrip(self, records):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "j.jsonl"
            with Journal(path) as j:
                for r in records:
                    j.append(r)
            replayed = replay_journal(path)
            assert list(replayed.results) == records
            assert replayed.duplicates == 0
            assert replayed.corrupt_lines == 0

    @_SETTINGS
    @given(records=_records.filter(lambda rs: len(rs) >= 1))
    def test_duplicates_keep_first_occurrence(self, records):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "j.jsonl"
            with Journal(path) as j:
                for r in records:
                    j.append(r)
                # Re-append every record with a different payload.
                for r in records:
                    j.append({**r, "time_ns": r["time_ns"] + 1.0})
            replayed = replay_journal(path)
            assert list(replayed.results) == records  # originals win
            assert replayed.duplicates == len(records)

    @_SETTINGS
    @given(records=_records.filter(lambda rs: len(rs) >= 2))
    def test_torn_tail_drops_only_last_record(self, records):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "j.jsonl"
            with Journal(path) as j:
                for r in records:
                    j.append(r)
            content = path.read_text()
            path.write_text(content[:-10])  # torn final write
            replayed = replay_journal(path)
            assert list(replayed.results) == records[:-1]
            assert replayed.corrupt_lines == 1
            # Reopening repairs the torn line, so the next record
            # appended is readable.
            new = {**records[-1], "time_ns": records[-1]["time_ns"] + 1.0}
            with Journal(path) as j:
                j.append(new)
            replayed = replay_journal(path)
            assert list(replayed.results) == records[:-1] + [new]
            assert replayed.corrupt_lines == 0


class TestScheduleInvariance:
    def test_records_independent_of_processes_and_chunking(self):
        space = DesignSpace(core_labels=("medium",),
                            cache_labels=("64M:512K",),
                            memory_labels=("4chDDR4", "8chDDR4"),
                            frequencies=(2.0,), vector_widths=(128, 512),
                            core_counts=(64,))
        reference = json.dumps(
            list(run_sweep(["spmz"], space, processes=1)), sort_keys=True)
        for procs, batch in ((1, 3), (2, 1), (3, 2), (2, 5)):
            rs = run_sweep(["spmz"], space, processes=procs,
                           batch_size=batch)
            assert json.dumps(list(rs), sort_keys=True) == reference, \
                f"schedule-dependent results with processes={procs}, " \
                f"batch_size={batch}"

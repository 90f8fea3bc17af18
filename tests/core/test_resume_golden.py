"""A resumed sweep pinned byte for byte on a hand-built journal.

The journal mixes every line kind resume must handle: a meta line,
block lines and scalar lines, duplicate rows (scalar and inside a
block), a failure stub whose task later succeeded, a failure stub that
never did, records for configs and apps outside the swept space, and
a torn final line.  The test pins what the resume makes of it: the
resumed ``ResultSet``'s canonical text, ``sweep.tasks.skipped``, the
task indices evaluated again, and the journal's bytes afterwards.

A change to how resume matches journaled records to tasks, or to how
the sweep assembles its result, that moves any of these breaks the
test.  An intentional model or journal-format change must update
``GOLDEN`` in the same commit and say why.
"""

import hashlib

import pytest

from repro.apps import get_app
from repro.config import smoke_design_space
from repro.core import run_sweep
from repro.core.batch import BatchEvaluator
from repro.core.canon import canonical_dumps
from repro.core.musa import Musa
from repro.obs import MetricsRegistry

APPS = ["spmz", "hydro"]

GOLDEN = {
    "skipped": 10,
    "evaluated": [7, 10, 11, 12, 14, 15],
    "text": ("ef6f6fd19bf342cc2c02e09be6cfdbba"
             "40a5ea6c670faefaf33e0cebf43d210c"),
    "journal": ("54ff313124cb0313f090f0026f91ec4f"
                "3498aaa9829c39c74986003193bf54c9"),
}


@pytest.fixture(scope="module")
def frames():
    nodes = smoke_design_space().configs()
    return {app: BatchEvaluator(Musa(get_app(app))).evaluate_frame(nodes)
            for app in APPS}


def _stub(record, error, attempts):
    return {**{k: record[k] for k in ("app", "core", "cache", "memory",
                                      "frequency", "vector", "cores")},
            "failed": True, "error": error, "attempts": attempts}


def _journal_text(frames):
    """The hand-built journal: tasks 0-6 of spmz and 8, 9, 13 of hydro
    are done; 7, 10, 11, 12, 14 and 15 are not."""
    spmz, hydro = frames["spmz"], frames["hydro"]
    row = {app: [r.to_dict() for r in f.rows()] for app, f in frames.items()}
    lines = [
        canonical_dumps({"__meta__": {"shard": 0, "of": 1, "tasks": 16}}),
        spmz.select([0, 1, 2, 3]).to_block_line(),
        canonical_dumps(row["spmz"][4]),
        # Duplicates: one scalar, one block row next to a new row.
        canonical_dumps(row["spmz"][1]),
        spmz.select([4, 5]).to_block_line(),
        # A stub for a task that succeeded later, and one that never did.
        canonical_dumps(_stub(row["spmz"][6], "InjectedFault: boom", 3)),
        canonical_dumps(_stub(row["hydro"][2], "InjectedFault: bang", 3)),
        canonical_dumps(row["spmz"][6]),
        # Records outside the space: another core count, another app.
        canonical_dumps(dict(row["spmz"][7], cores=32)),
        canonical_dumps(dict(row["hydro"][3], app="lulesh")),
        hydro.select([0, 1]).to_block_line(),
        canonical_dumps(row["hydro"][5]),
    ]
    torn = canonical_dumps(row["hydro"][4])
    return "\n".join(lines) + "\n" + torn[: len(torn) // 2]


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_resume_of_mixed_journal(frames, tmp_path):
    journal = tmp_path / "j.jsonl"
    journal.write_text(_journal_text(frames), encoding="utf-8")
    space = smoke_design_space()
    nodes = space.configs()
    evaluated = []

    def record_task(app, node, attempt):
        evaluated.append(APPS.index(app) * len(nodes) + nodes.index(node))

    reg = MetricsRegistry()
    rs = run_sweep(APPS, space, processes=1, resume=journal, metrics=reg,
                   fault_hook=record_task)
    text = rs.canonical_text()

    assert reg.counter("sweep.tasks.skipped") == GOLDEN["skipped"]
    assert sorted(evaluated) == GOLDEN["evaluated"]
    assert _sha(text.encode("utf-8")) == GOLDEN["text"]
    assert _sha(journal.read_bytes()) == GOLDEN["journal"]
    # Every journaled record is a real one: the resume equals a cold run.
    assert text == run_sweep(APPS, space, processes=1).canonical_text()

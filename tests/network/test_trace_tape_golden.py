"""Golden digests of every bundled app's burst trace and replay tape.

The digests were recorded from the event-object generator and tape
builder.  A change to how traces are generated or tapes are built must
keep both: the serialized trace proves the generator emits the same
events (kinds, peers, sizes, tags, request ids, phases), and the tape's
structure proves the builder groups, levels and lays out the same
replay, group for group.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps import APP_NAMES, get_app
from repro.core.musa import Musa
from repro.network.replay_batch import _tape_for
from repro.trace import ComputePhase, burst_from_dict, burst_to_dict

#: ``{app-ranks: (trace digest, tape digest)}``.
GOLDEN = {
    "hydro-16": ("d902722bacfd61bff78427e071f8b90f39b96c50d401ab8f3ca9abd877c65b4d",
                "ce5dbedc67e425f1921dc23bc903d6fdca95d0eead52341f4953844d8e2a9c0b"),
    "hydro-64": ("571ebc36f9613d2a012ec626bdf7e82303d82cf90a75e890d30c9a5a23da8ef5",
                "e2f443c2c75e1e970c7eea6c9c4ea27d28c7fbf1deef26a711798f926210471c"),
    "spmz-16": ("bc1badae37dc66a98695e8a828c596ac7cb1f1bcd9e3a612bd0d8b61cd8eaedc",
               "8c41563cd173f80a584ad479bbece04af39bfe3824379a1ef2823218a02252ca"),
    "spmz-64": ("71e8014c7795b61da045655d5d9930a0e40e28e2f83b72f736de17cab9c12b42",
               "51a6ae2ea99dc5017e03bfa3e040d0d93365093d3fbaf508d0bbaafaf52ec692"),
    "btmz-16": ("6d34df88561d62fd7974842d08df3e4b522629bcf9d9f1b5124f91f6ddbf5a04",
               "c121148cf72a601dd3cc65761b6de9b05588bd689dcf63d29d50626968e94087"),
    "btmz-64": ("b817793aba5f914e5919704a238eba462a6783ad8da569aa3613009790ceafe7",
               "f0767ed001ccf72b0487f50d377d8e52ac09fa1703f5d13a2866febebacc49b8"),
    "spec3d-16": ("4de35edc1734b9413c615d5e35e4a80f5d9e0b4e4c6bdf46e2ea21e1a3d6b6a1",
                 "0bd925c056be2968d6da7eedd8038c796bc6968ad1197489993eac411087e2fb"),
    "spec3d-64": ("397d060f01bb3a3359c2a70084700131de15d2c5b71a0144ffb1680047eab742",
                 "576d8d6b51d25e26cbabaf7f20e58b8fb987575c3fce257e868f3ddf884d7000"),
    "lulesh-16": ("2bd9d2ab6eb6713a73acfa2b4d7809ab5c632407040b3eaa44c68746ef66f768",
                 "4cf829bad92aa4434e05a91c61fda5eac21c50b63d0c31d2631b19b27bba8cda"),
    "lulesh-64": ("67869ccb1fb3b023c155d92a11433b36e03b973a6f00aaccb5b7afc32d6cc8b6",
                 "f6839bae95ddee6daf38a454605d2d47176a6c27e87c7d5b571bfba5dbbb19cf"),
}

#: Tapes of the same 16-rank traces after a save/load round trip: flat
#: (``repeats == 1``) traces whose fresh phase objects the tape names
#: by ``phase_id``.
GOLDEN_LOADED = {
    "hydro-16": "611ee6190b5349c7cbc9bf916661e2773614dff8cde93a965a305a72a0a1bb7c",
    "spmz-16": "ff06322e617dd336aec16b06e4c892d9062db6762811b47f7684856b6e9c41c1",
    "btmz-16": "ed789b9caa7af39fe81f6e7b6dfed4c4e0b873e6890ba1e5ffe11601066d4d44",
    "spec3d-16": "ddaf5fae35638e9a40a944afebda5c0a0740bbe801f649dea3931fcd87475315",
    "lulesh-16": "a6b0c4c787129105f59c485d7a16aae7dab9667abf9272b410033d81ac2c126e",
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _canon(x, phase_index):
    """A JSON-able form of one tape group field."""
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, (np.integer, np.floating)):
        return x.item()
    if isinstance(x, slice):
        return ["slice", x.start, x.stop, x.step]
    if isinstance(x, np.ndarray):
        return ["array", x.dtype.str, list(x.shape), x.ravel().tolist()]
    if isinstance(x, ComputePhase):
        # A loaded trace holds fresh phase objects: name them by id.
        return ["phase", phase_index.get(id(x), x.phase_id)]
    if isinstance(x, (tuple, list)):
        return [_canon(v, phase_index) for v in x]
    raise TypeError(f"unexpected tape field {type(x).__name__}")


def tape_structure(tape, phases):
    """Everything a tape holds except its cached workspace."""
    phase_index = {id(p): i for i, p in enumerate(phases)}
    return {
        "groups": [_canon(g, phase_index) for g in tape.groups],
        "reps": tape.reps,
        "n_msgs": list(tape.n_msgs),
        "n_events": tape.n_events,
        "n_messages": tape.n_messages,
        "bytes_sent": tape.bytes_sent,
    }


CASES = [f"{app}-{n}" for app in APP_NAMES for n in (16, 64)]


@pytest.fixture(scope="module", params=CASES)
def case(request):
    app_name, n = request.param.rsplit("-", 1)
    musa = Musa(get_app(app_name))
    trace = musa.app.burst_trace(int(n))
    return request.param, musa, trace


def test_trace_digest(case):
    key, _, trace = case
    assert _digest(burst_to_dict(trace)) == GOLDEN[key][0]


def test_tape_digest(case):
    key, musa, trace = case
    tape = _tape_for(trace, musa.network)
    assert tape is not None
    assert _digest(tape_structure(tape, musa.phases)) == GOLDEN[key][1]


@pytest.mark.parametrize("key", sorted(GOLDEN_LOADED))
def test_loaded_tape_digest(key):
    musa = Musa(get_app(key.rsplit("-", 1)[0]))
    flat = burst_from_dict(burst_to_dict(musa.app.burst_trace(16)))
    tape = _tape_for(flat, musa.network)
    assert tape is not None and tape.reps == 1
    assert _digest(tape_structure(tape, ())) == GOLDEN_LOADED[key]

"""Golden digests of every bundled app's burst trace and replay tape.

The digests were recorded from the event-object generator and tape
builder.  A change to how traces are generated or tapes are built must
keep both: the serialized trace proves the generator emits the same
events (kinds, peers, sizes, tags, request ids, phases), and the tape's
structure proves the builder groups, levels and lays out the same
replay, group for group.  The schedule digests leave the message
buffer layout out, so they pin the groups across a change that only
moves buffer rows.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.apps import APP_NAMES, get_app
from repro.core.musa import Musa
from repro.network.replay_batch import _tape_for
from repro.trace import ComputePhase

from ..trace.burst_dict import burst_from_dict, burst_to_dict

#: ``{app-ranks: (trace digest, tape digest)}``.
GOLDEN = {
    "hydro-16": ("d902722bacfd61bff78427e071f8b90f39b96c50d401ab8f3ca9abd877c65b4d",
                "5d89071e46e1085c3e69b673275344b1d61c64660707361eedeea6013040cf69"),
    "hydro-64": ("571ebc36f9613d2a012ec626bdf7e82303d82cf90a75e890d30c9a5a23da8ef5",
                "e06e15e60f80f61cf569eb5f134830583f39fa38429c93825d84eb8ac63584bf"),
    "spmz-16": ("bc1badae37dc66a98695e8a828c596ac7cb1f1bcd9e3a612bd0d8b61cd8eaedc",
               "ab0aef722bb8e36837b8bf68575c1ca36106293f2ae1986c04dfa1d48c3c98ec"),
    "spmz-64": ("71e8014c7795b61da045655d5d9930a0e40e28e2f83b72f736de17cab9c12b42",
               "4139c8652afd3c22236874c61d0666e086622ffc4fc5a71e207b9047bf063059"),
    "btmz-16": ("6d34df88561d62fd7974842d08df3e4b522629bcf9d9f1b5124f91f6ddbf5a04",
               "a364b6befe4452d639df58150ad29007d07c925b7f2c7a16b2649f6be4895d78"),
    "btmz-64": ("b817793aba5f914e5919704a238eba462a6783ad8da569aa3613009790ceafe7",
               "99963d581647937681d61417327cfe892a58f84b413d27f3d42d66c70bddef7d"),
    "spec3d-16": ("4de35edc1734b9413c615d5e35e4a80f5d9e0b4e4c6bdf46e2ea21e1a3d6b6a1",
                 "9614f3dea0657f07d220a3a8aa5c417fef3bb34a56dfa0117062067570d0c441"),
    "spec3d-64": ("397d060f01bb3a3359c2a70084700131de15d2c5b71a0144ffb1680047eab742",
                 "c34ee9abff2d6a4df70cfb6d5bba9927645eedf622a686ada6e22165860360bc"),
    "lulesh-16": ("2bd9d2ab6eb6713a73acfa2b4d7809ab5c632407040b3eaa44c68746ef66f768",
                 "d5b7a393144a6a5fa2fc529601e24e039d052e0ab9956250ac5a9c0b1fc78466"),
    "lulesh-64": ("67869ccb1fb3b023c155d92a11433b36e03b973a6f00aaccb5b7afc32d6cc8b6",
                 "48937d67558041e6de397b579db01932e157a755e8d469a44be346d031024162"),
}

#: Tapes of the same 16-rank traces after a save/load round trip: flat
#: (``repeats == 1``) traces whose fresh phase objects the tape names
#: by ``phase_id``.
GOLDEN_LOADED = {
    "hydro-16": "3b160364a014e46b9abfc26cc0c7d43d9ae3c697727bae8349013aa0096400a9",
    "spmz-16": "75cc180eb1778bc0cbb988e77a16b5bd0fe9d1a38b68f214f9b6ec4fda4e6487",
    "btmz-16": "767fc718ab50d4d55ecea4e2d2de16e8d5dbe384c661da48a1e47aa19dd6e86b",
    "spec3d-16": "7575c107db2331b8a1957f6c9da32b5332c640e25185ad7f16b37886e8839030",
    "lulesh-16": "92197255c8181bee5980f275c29510c5354454642cec24133608adf615d216ba",
}


#: Layout-free digests (:func:`tape_schedule`) of the same tapes,
#: ``{app-ranks: digest}`` for the generated traces and ``{app-16:
#: digest}`` for the loaded ones.  They were recorded before message
#: buffers were sized by live range and must hold across any change to
#: the buffer layout: that change moves rows, never groups.
SCHEDULE = {
    "hydro-16": "b177df4c094536cda04086276341dd05f04ecd60328127ad97a724c9c35a26d8",
    "hydro-64": "249635c6fa17305eb3fbdfa5a4e42ef01fadb9f685425376c856b103dc0d0688",
    "spmz-16": "f6e6f57909465ad82dd324829e43739c13c01074f9190dc05d434c902d75a97c",
    "spmz-64": "bf5627ad1ef59cca5496c64e1cd26a690154f9dc58400659510f11b0710eb40e",
    "btmz-16": "14bfe8f5310f26a126ff375b52777723daebf9446667b7f603b54aba0ee862a8",
    "btmz-64": "2859b0b8e951ea2268f169ec3f60ce61b2744bb59962ecf88cea26b7474c3c95",
    "spec3d-16": "14b7274b3e3d0233185b897a8cd02e3f070fd7f13797e047b5bdfe7debde04b5",
    "spec3d-64": "1c6433da8484604bb1f76cc3c578933476e0fbe87d9502cff5c183dcfd6eb94f",
    "lulesh-16": "d57297cd3099e7be51fb212153e7892102422a9acd0879d2814e82b31a160f98",
    "lulesh-64": "02d0f4a722e16e3d2315aa2858a9190fb2aa914b1791e629a644a29134b528bc",
}
SCHEDULE_LOADED = {
    "hydro-16": "57a0f4ec39baeafadaac28e97f347e43eadc435caffd789853e8c2093a3806a1",
    "spmz-16": "55cf7a3bcf2df493a3add6f201081764eaa17fc7a064d14d0d03585acb82209e",
    "btmz-16": "1c2599c738a792b8d306fcca4a1bee726756389f9457fb10730ff67dbb3dda63",
    "spec3d-16": "0ec2069a4418101dfe36679283f32e25aee2636853d8779a5d4aff49b947fca5",
    "lulesh-16": "a1316eb46200c935d64892f7565c92c526d66bfa1b9b5bb708dde700b243852d",
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


def tape_schedule(tape, phases):
    """The tape without its buffer layout: each group's kind, ranks,
    transfer column and compute payload — everything but the buffer
    row indices ``widx``/``rsl``/``rsl2`` and the buffer sizes."""
    phase_index = {id(p): i for i, p in enumerate(phases)}
    return {
        "groups": [_canon((kind, rr, tt2, pl), phase_index)
                   for kind, rr, _, _, _, tt2, pl in tape.groups],
        "reps": tape.reps,
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


def test_tape_schedule_digest(case):
    key, musa, trace = case
    tape = _tape_for(trace, musa.network)
    assert _digest(tape_schedule(tape, musa.phases)) == SCHEDULE[key]


@pytest.mark.parametrize("key", sorted(GOLDEN_LOADED))
def test_loaded_tape_digest(key):
    musa = Musa(get_app(key.rsplit("-", 1)[0]))
    flat = burst_from_dict(burst_to_dict(musa.app.burst_trace(16)))
    tape = _tape_for(flat, musa.network)
    assert tape is not None and tape.reps == 1
    assert _digest(tape_structure(tape, ())) == GOLDEN_LOADED[key]
    assert _digest(tape_schedule(tape, ())) == SCHEDULE_LOADED[key]

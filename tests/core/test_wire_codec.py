"""The shared message codec and its two prefixed forms.

Accumulator payloads (``LDPA``), service messages and combiner
checkpoints (``LDPC``) are one JSON-header + array-manifest message
(:func:`repro.core.serialization.encode_message`).  The layout tests pin
the bytes with literals, so any change to the wire format is a visible
test edit.  The fuzz tests feed the one decoder, through all three entry
points, corrupted forms of valid payloads: malformed input must raise
``ValueError`` (``CheckpointError`` from ``decode_checkpoint``), never
another exception and never a silently wrong decode.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimation import ORACLE_REGISTRY
from repro.core.serialization import (
    MAGIC,
    WIRE_VERSION,
    decode_message,
    encode_message,
    pack_accumulator_state,
    unpack_accumulator_state,
)
from repro.protocol.transport import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    decode_checkpoint,
    encode_checkpoint,
)


def test_accumulator_payload_layout_is_pinned():
    payload = pack_accumulator_state(
        "K", {"eps": 1.5}, 3, {"counts": np.arange(4, dtype="<i8")}
    )
    h = (
        b'{"arrays":[{"dtype":"<i8","name":"counts","shape":[4]}],'
        b'"config":{"eps":1.5},"kind":"K","n":3}'
    )
    body = struct.pack("<4q", 0, 1, 2, 3)
    assert payload == struct.pack("<4sBI", b"LDPA", 1, len(h)) + h + body


def test_checkpoint_layout_is_pinned():
    blob = encode_checkpoint(
        {"num_workers": 2, "frontier": float("inf")},
        {"total": np.frombuffer(b"\x07\x08\x09", dtype=np.uint8)},
    )
    h = (
        b'{"arrays":[{"dtype":"|u1","name":"total","shape":[3]}],'
        b'"frontier":Infinity,"num_workers":2}'
    )
    assert blob == struct.pack("<4sHI", b"LDPC", 1, len(h)) + h + b"\x07\x08\x09"


@pytest.mark.parametrize("n", ["3", 3.5, None, [3], True])
def test_accumulator_count_must_be_an_integer(n):
    message = encode_message({"kind": "K", "config": {}, "n": n})
    with pytest.raises(ValueError, match="not an integer"):
        unpack_accumulator_state(struct.pack("<4sB", MAGIC, WIRE_VERSION) + message)


# -- fuzzing -----------------------------------------------------------------

#: Each entry point: (prefix ahead of the message, decoder, error it raises).
_ENTRY_POINTS = {
    "message": (b"", decode_message, ValueError),
    "accumulator": (
        struct.pack("<4sB", MAGIC, WIRE_VERSION),
        unpack_accumulator_state,
        ValueError,
    ),
    "checkpoint": (
        struct.pack("<4sH", CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
        decode_checkpoint,
        CheckpointError,
    ),
}

_HEADER = {"kind": "PureAccumulator", "config": {"d": 8, "eps": 1.5}, "n": 3}

_arrays = st.dictionaries(
    st.sampled_from(["counts", "n", "a0", "total"]),
    st.tuples(
        st.sampled_from(["<i8", "<f8", "|u1", "<u4", ">i4"]),
        st.lists(st.integers(0, 4), max_size=3),
    ).map(lambda spec: np.zeros(spec[1], dtype=spec[0])),
    min_size=1,
    max_size=3,
)

_MISSING = object()

#: Manifest mutations that must be refused, by the field they break.
_BAD_FIELDS = {
    "arrays": [{}, "counts", 3, None],
    "entry": [
        [],
        "counts",
        3,
        None,
        # A zero-size dtype passes any body-size check; the element
        # count 2**124 then overflows np.frombuffer's C argument.
        {"name": "counts", "dtype": "|S0", "shape": [2**62, 2**62]},
    ],
    "name": [_MISSING, 3, None, ["counts"]],
    "dtype": [_MISSING, "<i9", "", "(1e9,)i8", "<i8,O", 8, None, ["<i8"], "O"],
    "shape": [
        _MISSING,
        4,
        "4",
        [-1],
        [2, -3],
        [4.0],
        ["4"],
        [True],
        [None],
        [2] * 100,
        [2**63],
    ],
}


@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
@given(arrays=_arrays, data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncations_and_byte_flips_raise_only_value_errors(
    entry_point, arrays, data
):
    prefix, decode, error = _ENTRY_POINTS[entry_point]
    whole = prefix + encode_message(_HEADER, arrays)
    decode(whole)  # the uncorrupted form decodes
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    with pytest.raises(error):
        decode(whole[:cut])
    at = data.draw(st.integers(0, len(whole) - 1), label="at")
    value = data.draw(
        st.integers(0, 255).filter(lambda v: v != whole[at]), label="value"
    )
    try:
        decode(whole[:at] + bytes([value]) + whole[at + 1 :])
    except error:
        pass  # refused as malformed; any other exception fails the test


@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
@given(arrays=_arrays, index=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_malformed_manifests_are_rejected(entry_point, arrays, index):
    prefix, decode, error = _ENTRY_POINTS[entry_point]
    message = encode_message(_HEADER, arrays)
    (hlen,) = struct.unpack_from("<I", message)
    body = message[4 + hlen :]
    for field, values in _BAD_FIELDS.items():
        for bad in values:
            header = json.loads(message[4 : 4 + hlen])
            entry = index % len(header["arrays"])
            if field == "arrays":
                header["arrays"] = bad
            elif field == "entry":
                header["arrays"][entry] = bad
            elif bad is _MISSING:
                del header["arrays"][entry][field]
            else:
                header["arrays"][entry][field] = bad
            h = json.dumps(header).encode("utf-8")
            with pytest.raises(error):
                decode(prefix + struct.pack("<I", len(h)) + h + body)


# -- accumulator headers -------------------------------------------------------

#: Fingerprint fields every pure-protocol accumulator at d = 4, ε = 1 shares.
_PURE = {"candidates": None, "domain_size": 4, "epsilon": 1.0}
_STATE_4 = [{"dtype": "<f8", "name": "state", "shape": [4]}]

#: The ``to_bytes()`` header of a fresh accumulator per registered oracle
#: and system stack: kind, config fingerprint and array manifest (names,
#: dtypes and shapes, in order).  A rename, reorder or dtype change of
#: an accumulator's ``_STATE`` is a visible edit here.
_PINNED_HEADERS = {
    "DE": ("PureAccumulator", {**_PURE, "oracle": "DirectEncoding",
           "p_star": 0.4753668864186717, "q_star": 0.17487770452710946}, _STATE_4),
    "SUE": ("PureAccumulator", {**_PURE, "oracle": "SymmetricUnaryEncoding",
            "p_star": 0.6224593312018546, "q_star": 0.3775406687981454}, _STATE_4),
    "OUE": ("PureAccumulator", {**_PURE, "oracle": "OptimalUnaryEncoding",
            "p_star": 0.5, "q_star": 0.2689414213699951}, _STATE_4),
    "SHE": ("SummationAccumulator", {"domain_size": 4, "epsilon": 1.0,
            "oracle": "SummationHistogramEncoding",
            "summation": "exact-fixed-point-v1"},
            [{"dtype": "<i8", "name": "words", "shape": [4, 70]}]),
    "THE": ("PureAccumulator", {**_PURE, "oracle": "ThresholdHistogramEncoding",
            "p_star": 0.5587515487077023, "q_star": 0.3436446393954862}, _STATE_4),
    "BLH": ("PureAccumulator", {**_PURE, "oracle": "BinaryLocalHashing",
            "p_star": 0.731058578630005, "q_star": 0.5}, _STATE_4),
    "OLH": ("PureAccumulator", {**_PURE, "oracle": "OptimalLocalHashing",
            "p_star": 0.4753668864186717, "q_star": 0.25}, _STATE_4),
    "OLH/candidates": ("PureAccumulator", {**_PURE, "candidates": [1, 3],
                       "oracle": "OptimalLocalHashing",
                       "p_star": 0.4753668864186717, "q_star": 0.25},
                       [{"dtype": "<f8", "name": "state", "shape": [2]}]),
    "HR": ("HadamardAccumulator", {**_PURE, "oracle": "HadamardResponse",
           "p_star": 0.7310585786300049, "q_star": 0.5}, _STATE_4),
    "cms": ("CmsAccumulator", {"domain_size": 100, "epsilon": 1.0, "k": 4,
            "m": 16, "master_seed": 3, "sketch": "CountMeanSketch"},
            [{"dtype": "<i8", "name": "signed", "shape": [4, 16]},
             {"dtype": "<i8", "name": "per_hash", "shape": [4]}]),
    "hcms": ("HcmsAccumulator", {"domain_size": 100, "epsilon": 1.0, "k": 4,
             "m": 16, "master_seed": 3, "sketch": "HadamardCountMeanSketch"},
             [{"dtype": "<i8", "name": "signed", "shape": [4, 16]}]),
    "rappor": ("RapporAccumulator", {"f": 0.5, "master_seed": 6, "num_bits": 16,
               "num_cohorts": 4, "num_hashes": 2, "p": 0.5, "q": 0.75},
               [{"dtype": "<f8", "name": "bit_ones", "shape": [4, 16]},
                {"dtype": "<i8", "name": "sizes", "shape": [4]}]),
    "dbitflip": ("DBitFlipAccumulator", {"d": 2, "epsilon": 1.0, "num_buckets": 8},
                 [{"dtype": "<f8", "name": "ones", "shape": [8]},
                  {"dtype": "<f8", "name": "samples", "shape": [8]}]),
    "onebit": ("OneBitMeanAccumulator", {"epsilon": 1.0, "value_bound": 50.0},
               [{"dtype": "<i8", "name": "ones", "shape": [1]}]),
    "onebit/perturbed": ("_PerturbedOneBitAccumulator",
                         {"epsilon": 1.0, "gamma": 0.25, "value_bound": 50.0},
                         [{"dtype": "<i8", "name": "ones", "shape": [1]}]),
}


def _fresh_accumulator(label):
    from repro.systems.apple import CountMeanSketch, HadamardCountMeanSketch
    from repro.systems.microsoft import DBitFlip, OneBitMean
    from repro.systems.microsoft.repeated import _PerturbedOneBitAccumulator
    from repro.systems.rappor import RapporAggregator, RapporParams

    if label in ORACLE_REGISTRY:
        # An explicit θ keeps THE's fingerprint off scipy's optimizer.
        extra = {"theta": 0.75} if label == "THE" else {}
        return ORACLE_REGISTRY[label](4, 1.0, **extra).accumulator()
    return {
        "OLH/candidates": lambda: ORACLE_REGISTRY["OLH"](4, 1.0).accumulator(
            np.array([1, 3])
        ),
        "cms": lambda: CountMeanSketch(
            100, 1.0, k=4, m=16, master_seed=3
        ).accumulator(),
        "hcms": lambda: HadamardCountMeanSketch(
            100, 1.0, k=4, m=16, master_seed=3
        ).accumulator(),
        "rappor": lambda: RapporAggregator(
            RapporParams(num_bits=16, num_hashes=2, num_cohorts=4), 6
        ).accumulator(),
        "dbitflip": lambda: DBitFlip(8, 2, 1.0).accumulator(),
        "onebit": lambda: OneBitMean(50.0, 1.0).accumulator(),
        "onebit/perturbed": lambda: _PerturbedOneBitAccumulator(
            OneBitMean(50.0, 1.0), 0.25
        ),
    }[label]()


@pytest.mark.parametrize("label", sorted(set(ORACLE_REGISTRY) | set(_PINNED_HEADERS)))
def test_accumulator_headers_are_pinned(label):
    payload = _fresh_accumulator(label).to_bytes()
    assert payload[:5] == struct.pack("<4sB", b"LDPA", 1)
    (hlen,) = struct.unpack_from("<I", payload, 5)
    kind, config, arrays = _PINNED_HEADERS[label]  # a new oracle needs a pin
    assert json.loads(payload[9 : 9 + hlen]) == {
        "kind": kind, "config": config, "arrays": arrays, "n": 0
    }

"""Versioned wire codec for cross-process / cross-machine merges.

The deployed systems the paper surveys aggregate across *machines*: a
shard collector folds its report stream into an accumulator, ships the
summary to a combiner, and the combiner merges summaries it did not
build.  That requires a wire format — not Python pickles, whose layout
is an implementation detail of whatever classes happen to be importable
on the other side.

Everything that crosses a process boundary — accumulator payloads, the
collection service's messages (:mod:`repro.protocol.transport`) and
combiner checkpoints — is one deliberately tiny, self-describing
**message**::

    hlen    u32 little-endian           (JSON header length)
    header  UTF-8 JSON                  (caller's fields + array manifest)
    body    raw little-endian C-order array bytes, in manifest order

The header is compact, key-sorted JSON whose ``arrays`` field is a
manifest of ``(name, dtype, shape)`` for each array, so the body needs
no framing of its own.  ``±Infinity`` literals are allowed (event-time
frontiers carry them); both ends of the wire are this codec.  The
formats that need an identity are a magic + version prefix over one
message::

    accumulator payload   b"LDPA" + u8 version  + message{kind, config, n}
    combiner checkpoint   b"LDPC" + u16 version + message{...}

The accumulator header carries three things:

* ``kind`` — the accumulator class name, so a payload can never be
  hydrated into the wrong algebra;
* ``config`` — the producing accumulator's configuration fingerprint
  (domain size, ε, sketch geometry, hash seeds, …).  Deserialization
  *rejects* payloads whose fingerprint differs from the receiving
  accumulator's: merging tallies collected under different
  configurations would silently corrupt estimates, which is exactly the
  failure mode a fingerprint exists to make loud;
* ``n`` — the number of reports the state arrays summarize.

Floats in the fingerprint survive the JSON round-trip exactly (Python
serializes float64 with ``repr``-faithful precision), so fingerprint
comparison is bit-exact, not approximate.

:func:`decode_message` is the one parser of these bytes, and anything
malformed — truncation, trailing bytes, an unreadable header, or a
manifest with a non-list ``arrays``, an entry that is not an object
with a string name, an unreadable, object or zero-size dtype, or a
shape outside numpy's limits (a negative dimension, more than 64) —
raises ``ValueError``.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "FRAME_HEADER_BYTES",
    "AccumulatorPayload",
    "FrameError",
    "TruncatedFrameError",
    "OversizedFrameError",
    "frame_header",
    "frame_payload_size",
    "write_frame",
    "read_frame",
    "encode_message",
    "decode_message",
    "pack_accumulator_state",
    "unpack_accumulator_state",
]

MAGIC = b"LDPA"
WIRE_VERSION = 1

_PREFIX_STRUCT = struct.Struct("<4sB")  # accumulator magic, version
_MESSAGE_HEADER = struct.Struct("<I")  # JSON header length
_TYPESTR = re.compile(r"[<>|=]?[A-Za-z]\d*(?:\[\w+\])?")  # e.g. <i8, <M8[ns]
# numpy's own shape limits.  A shape beyond them names no array the
# encoder could have written, and checking them first keeps the element
# count a product of at most 64 machine-sized factors.
_MAX_NDIM = 64
_MAX_DIM = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class AccumulatorPayload:
    """Decoded wire payload: identity, configuration, and state arrays."""

    kind: str
    config: dict
    n: int
    arrays: dict[str, np.ndarray]


# -- length-prefixed frames --------------------------------------------------
#
# Byte streams (TCP sockets, pipes, files) have no message boundaries of
# their own; the collection service sends every message — report
# envelopes, shipped accumulators, acks — as one *frame*: a u32
# little-endian payload length followed by exactly that many payload
# bytes.  Framing is deliberately separate from payload encoding (the
# message codec below): the daemons share this one reader/writer
# instead of sprinkling ad-hoc ``struct`` calls around their socket
# loops, and the two failure modes a framed stream has are explicit
# exceptions rather than silent short reads:
#
# * :class:`TruncatedFrameError` — the stream ended mid-frame (a peer
#   crashed or the connection dropped); the bytes read so far are not a
#   message.
# * :class:`OversizedFrameError` — the declared length exceeds the
#   receiver's cap.  A cap turns a corrupt or malicious length prefix
#   into a refused frame instead of an attempted multi-gigabyte
#   allocation; writers enforce the same cap so an oversized frame is
#   refused at the sender, before a peer would have dropped it.

_FRAME_STRUCT = struct.Struct("<I")

#: Default ceiling on one frame's payload (64 MiB) — far above any
#: accumulator state or report envelope the service ships, far below an
#: allocation a corrupt length prefix could request.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bytes of the length prefix ahead of every frame payload.
FRAME_HEADER_BYTES = _FRAME_STRUCT.size


class FrameError(ValueError):
    """A length-prefixed frame could not be written or read."""


class TruncatedFrameError(FrameError):
    """The stream ended inside a frame (header or payload cut short)."""


class OversizedFrameError(FrameError):
    """A frame's declared payload length exceeds the configured cap."""


def frame_header(payload_size: int, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """The length prefix for a payload of ``payload_size`` bytes.

    Raises :class:`OversizedFrameError` when the payload exceeds
    ``max_frame_bytes`` — the sender fails loudly instead of shipping a
    frame every compliant receiver would refuse.
    """
    if payload_size < 0:
        raise FrameError(f"payload size must be >= 0, got {payload_size}")
    if payload_size > max_frame_bytes:
        raise OversizedFrameError(
            f"frame payload of {payload_size} bytes exceeds the "
            f"{max_frame_bytes}-byte cap"
        )
    return _FRAME_STRUCT.pack(payload_size)


def frame_payload_size(
    header: bytes, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> int:
    """Decode and validate one frame header's declared payload length.

    Shared by the synchronous :func:`read_frame` and the asyncio daemons
    (which read the header bytes with ``StreamReader.readexactly`` and
    validate here), so the cap is enforced identically everywhere.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise TruncatedFrameError(
            f"frame header is {FRAME_HEADER_BYTES} bytes, got {len(header)}"
        )
    (size,) = _FRAME_STRUCT.unpack(header)
    if size > max_frame_bytes:
        raise OversizedFrameError(
            f"frame declares a {size}-byte payload, exceeding the "
            f"{max_frame_bytes}-byte cap"
        )
    return size


def write_frame(
    stream, payload: bytes, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> int:
    """Write one length-prefixed frame to a binary stream; returns bytes written.

    ``stream`` needs only a ``write(bytes)`` method — an open binary
    file, a ``BytesIO``, a socket ``makefile`` or an
    ``asyncio.StreamWriter`` (whose ``write`` buffers synchronously; the
    caller drains) all qualify.
    """
    header = frame_header(len(payload), max_frame_bytes=max_frame_bytes)
    stream.write(header)
    stream.write(payload)
    return len(header) + len(payload)


def read_frame(
    stream, *, max_frame_bytes: int = MAX_FRAME_BYTES
) -> bytes | None:
    """Read one frame's payload from a binary stream.

    Returns ``None`` on a clean end of stream (no bytes where the next
    header would start); raises :class:`TruncatedFrameError` when the
    stream ends *inside* a frame and :class:`OversizedFrameError` when
    the declared length exceeds ``max_frame_bytes``.  ``stream`` needs
    only a ``read(n)`` method returning at most ``n`` bytes.
    """
    header = _read_exactly(stream, FRAME_HEADER_BYTES, allow_clean_eof=True)
    if header is None:
        return None
    size = frame_payload_size(header, max_frame_bytes=max_frame_bytes)
    payload = _read_exactly(stream, size, allow_clean_eof=False)
    assert payload is not None
    return payload


def _read_exactly(stream, size: int, *, allow_clean_eof: bool) -> bytes | None:
    """Read exactly ``size`` bytes, looping over short reads.

    ``None`` when the stream is already exhausted and ``allow_clean_eof``
    is set; :class:`TruncatedFrameError` on any mid-read end of stream.
    """
    chunks: list[bytes] = []
    remaining = size
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_clean_eof and not chunks:
                return None
            got = size - remaining
            raise TruncatedFrameError(
                f"stream ended {remaining} bytes short of a "
                f"{size}-byte {'header' if size == FRAME_HEADER_BYTES else 'payload'} "
                f"(got {got})"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


# -- messages and accumulator payloads ---------------------------------------


def _wire_dtype(dtype: np.dtype) -> np.dtype:
    """The little-endian equivalent of a dtype (bytes on the wire)."""
    if dtype.byteorder == ">":
        return dtype.newbyteorder("<")
    return dtype


def encode_message(
    header: dict, arrays: dict[str, np.ndarray] | None = None
) -> bytes:
    """Serialize one message: JSON header + manifest-ordered array bytes."""
    manifest = []
    chunks = []
    for name, arr in (arrays or {}).items():
        a = np.ascontiguousarray(arr)
        a = a.astype(_wire_dtype(a.dtype), copy=False)
        manifest.append(
            {"name": name, "dtype": a.dtype.str, "shape": list(a.shape)}
        )
        chunks.append(a.tobytes())
    head = json.dumps(
        dict(header, arrays=manifest), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    return b"".join([_MESSAGE_HEADER.pack(len(head)), head, *chunks])


def _manifest_entry(entry: Any) -> tuple[str, np.dtype, tuple[int, ...]]:
    """Validate one ``(name, dtype, shape)`` manifest entry.

    Error messages clip the offending value: it is untrusted input and
    may be as large as a frame.
    """
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise ValueError("manifest entry is not an object with a string name")
    name = entry["name"]
    spec = entry.get("dtype")
    # Only the array-protocol type strings the encoder writes: numpy
    # parses comma and subarray forms with ``ast.literal_eval``.  Object
    # dtypes pass here; ``np.frombuffer`` refuses them with ValueError.
    if not isinstance(spec, str) or not _TYPESTR.fullmatch(spec):
        raise ValueError(f"array {name!r:.40} has an unreadable dtype {spec!r:.40}")
    try:
        dtype = np.dtype(spec)
    except TypeError as exc:
        raise ValueError(
            f"array {name!r:.40} has an unreadable dtype {spec!r:.40}"
        ) from exc
    if dtype.itemsize == 0:
        # "|S0" would hold any element count in zero bytes, past the
        # body-size check and into np.frombuffer's OverflowError.
        raise ValueError(f"array {name!r:.40} has a zero-size dtype {spec!r:.40}")
    shape = entry.get("shape")
    if (
        not isinstance(shape, list)
        or len(shape) > _MAX_NDIM
        or not all(type(dim) is int and 0 <= dim <= _MAX_DIM for dim in shape)
    ):
        raise ValueError(
            f"array {name!r:.40} shape is not a list of at most {_MAX_NDIM} "
            f"dimensions in [0, {_MAX_DIM}]: {shape!r:.40}"
        )
    return name, dtype, tuple(shape)


def decode_message(payload: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode one message payload into (header, named arrays).

    ``payload`` may be any bytes-like object.  Raises ``ValueError`` on
    anything malformed — a daemon treats that as a protocol error on
    the connection, never a crash.
    """
    if len(payload) < _MESSAGE_HEADER.size:
        raise ValueError("message payload too short for a header")
    (hlen,) = _MESSAGE_HEADER.unpack_from(payload)
    offset = _MESSAGE_HEADER.size
    if offset + hlen > len(payload):
        raise ValueError("message header extends past the payload")
    try:
        header = json.loads(str(payload[offset : offset + hlen], "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError("corrupt message header") from exc
    if not isinstance(header, dict) or "arrays" not in header:
        raise ValueError("message header is missing required fields")
    manifest = header.pop("arrays")
    if not isinstance(manifest, list):
        raise ValueError(
            f"message manifest is a {type(manifest).__name__}, not a list"
        )
    offset += hlen
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        name, dtype, shape = _manifest_entry(entry)
        count = math.prod(shape)
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(payload):
            raise ValueError("truncated message body")
        arr = np.frombuffer(
            payload, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
        arrays[name] = arr.copy()  # own, writable memory
        offset += nbytes
    if offset != len(payload):
        raise ValueError("trailing bytes after message body")
    return header, arrays


def pack_accumulator_state(
    kind: str, config: dict, n: int, arrays: dict[str, np.ndarray]
) -> bytes:
    """Serialize one accumulator's state into the versioned wire format."""
    return b"".join(
        [
            _PREFIX_STRUCT.pack(MAGIC, WIRE_VERSION),
            encode_message({"kind": kind, "config": config, "n": int(n)}, arrays),
        ]
    )


def unpack_accumulator_state(payload: bytes) -> AccumulatorPayload:
    """Decode a wire payload; raises ``ValueError`` on anything malformed."""
    if len(payload) < _PREFIX_STRUCT.size:
        raise ValueError("payload too short to be an accumulator wire format")
    magic, version = _PREFIX_STRUCT.unpack_from(payload)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}; not an accumulator payload")
    if version != WIRE_VERSION:
        raise ValueError(
            f"unsupported accumulator wire version {version} "
            f"(this build reads version {WIRE_VERSION})"
        )
    header, arrays = decode_message(memoryview(payload)[_PREFIX_STRUCT.size :])
    if not {"kind", "config", "n"} <= set(header):
        # Valid JSON is not enough: a version-skewed or hand-built header
        # must still reject as malformed, not escape as a KeyError.
        raise ValueError("accumulator payload header is missing required fields")
    if type(header["n"]) is not int:
        raise ValueError(f"accumulator payload n {header['n']!r:.40} is not an integer")
    return AccumulatorPayload(
        kind=str(header["kind"]),
        config=header["config"],
        n=header["n"],
        arrays=arrays,
    )

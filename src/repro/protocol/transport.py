"""Service-side codec layer for the distributed collection service.

The service (:mod:`repro.protocol.service`) moves three kinds of payload
between machines: report envelopes (clients → ingest tier), wire-
serialized accumulators (ingest tier → combiner) and small control
messages (credits, acks, drain).  Every one of them is one frame
(:mod:`repro.core.serialization`'s ``write_frame``/``read_frame``)
holding one message of the shared codec
(:func:`~repro.core.serialization.encode_message` /
:func:`~repro.core.serialization.decode_message`, re-exported here: a
compact JSON header with a ``(name, dtype, shape)`` manifest, then the
raw array bytes).  This module adds what only the service needs:

* **report-batch flattening** — any shape an oracle's ``privatize``
  returns: a raw array, a tuple of aligned arrays (RAPPOR's
  ``(cohorts, bits)``), or one of the frozen report dataclasses — is
  flattened into named arrays plus a ``batch`` tag and rebuilt on the
  far side through an explicit registry.  Pickles never cross the wire:
  an unknown batch tag is a loud :class:`ValueError`, not arbitrary code
  execution;
* **combiner checkpoints** — ``b"LDPC"`` + u16 version over one message;
* **framed message I/O** on asyncio streams, under the framing layer's
  one :data:`~repro.core.serialization.MAX_FRAME_BYTES` cap.
"""

from __future__ import annotations

import dataclasses
import importlib
import struct
from typing import Any

import numpy as np

from repro.core.serialization import (
    FRAME_HEADER_BYTES,
    TruncatedFrameError,
    decode_message,
    encode_message,
    frame_payload_size,
    write_frame,
)
from repro.core.timed import TimedReports

__all__ = [
    "REPORT_BATCH_TYPES",
    "register_report_batch_type",
    "encode_message",
    "decode_message",
    "pack_report_batch",
    "unpack_report_batch",
    "write_message",
    "read_message",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "encode_checkpoint",
    "decode_checkpoint",
]

# -- report-batch flattening -------------------------------------------------

#: Registry of report dataclass types a batch tag may name, keyed by
#: class name.  Populated lazily with every report shape in the repo;
#: deployments with custom report types register them explicitly.
REPORT_BATCH_TYPES: dict[str, type] = {}


def register_report_batch_type(cls: type) -> type:
    """Allow a report dataclass to cross the service wire by name."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(
            f"{cls.__name__} is not a dataclass; only per-report array "
            "dataclasses can cross the wire"
        )
    REPORT_BATCH_TYPES[cls.__name__] = cls
    return cls


#: Where each builtin report shape lives.  Resolved one module at a
#: time, on first use of that shape — a daemon folding OLH envelopes
#: must never pay the heavy imports behind the sketch stacks (the
#: Apple package pulls in scipy), and the import cost lands at startup
#: of the one flow that needs it, not inside the timed ingest path.
_BUILTIN_REPORT_MODULES = {
    "HashedReports": "repro.core.mechanism",
    "IndexedBitReports": "repro.core.mechanism",
    "CmsReports": "repro.systems.apple.cms",
    "HcmsReports": "repro.systems.apple.cms",
    "DBitFlipReports": "repro.systems.microsoft.dbitflip",
}


def _resolve_report_type(name: str) -> type | None:
    """Look up a registered report type, importing builtins on demand."""
    cls = REPORT_BATCH_TYPES.get(name)
    if cls is None and name in _BUILTIN_REPORT_MODULES:
        module = importlib.import_module(_BUILTIN_REPORT_MODULES[name])
        cls = register_report_batch_type(getattr(module, name))
    return cls


def pack_report_batch(reports: Any) -> tuple[str, dict[str, np.ndarray]]:
    """Flatten any supported report batch into (batch tag, named arrays).

    Array batches become ``("ndarray", {"a0": ...})``; tuple batches
    ``("tuple", {"a0": ..., "a1": ...})``; report dataclasses use their
    class name as the tag and their field names as array names.
    """
    if isinstance(reports, np.ndarray):
        return "ndarray", {"a0": reports}
    if isinstance(reports, tuple):
        return "tuple", {
            f"a{i}": np.asarray(part) for i, part in enumerate(reports)
        }
    if dataclasses.is_dataclass(reports) and not isinstance(reports, type):
        name = type(reports).__name__
        if name not in REPORT_BATCH_TYPES:
            # The batch's own class is already in memory; builtins
            # self-register without any further import.
            if name not in _BUILTIN_REPORT_MODULES:
                raise ValueError(
                    f"report batch type {name!r} is not registered for "
                    "the wire; call register_report_batch_type first"
                )
            register_report_batch_type(type(reports))
        return name, {
            f.name: np.asarray(getattr(reports, f.name))
            for f in dataclasses.fields(reports)
        }
    raise TypeError(
        f"unsupported report batch type {type(reports).__name__}"
    )


def unpack_report_batch(tag: str, arrays: dict[str, np.ndarray]) -> Any:
    """Rebuild a report batch from its tag and named arrays."""
    if tag == "ndarray":
        return arrays["a0"]
    if tag == "tuple":
        return tuple(arrays[f"a{i}"] for i in range(len(arrays)))
    cls = _resolve_report_type(tag)
    if cls is None:
        raise ValueError(
            f"unknown report batch tag {tag!r}; the receiver has no "
            "registered type to rebuild it"
        )
    return cls(**arrays)


def pack_timed_reports(
    timed: TimedReports | Any,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Header fields + arrays for a report envelope (timed or raw)."""
    if isinstance(timed, TimedReports):
        tag, arrays = pack_report_batch(timed.reports)
        arrays = dict(arrays, timestamps=timed.timestamps)
        return {"batch": tag, "timed": True}, arrays
    tag, arrays = pack_report_batch(timed)
    return {"batch": tag, "timed": False}, arrays


def unpack_timed_reports(
    header: dict, arrays: dict[str, np.ndarray]
) -> TimedReports | Any:
    """Rebuild the envelope :func:`pack_timed_reports` flattened."""
    arrays = dict(arrays)
    timestamps = arrays.pop("timestamps", None)
    reports = unpack_report_batch(header["batch"], arrays)
    if header.get("timed"):
        if timestamps is None:
            raise ValueError("timed envelope is missing its timestamps")
        return TimedReports(timestamps=timestamps, reports=reports)
    return reports


# -- combiner checkpoints ----------------------------------------------------

#: Magic prefix of a combiner checkpoint file ("LDP Checkpoint").
CHECKPOINT_MAGIC = b"LDPC"

#: Checkpoint layout version.  Bumped on any incompatible change to the
#: header fields :meth:`~repro.protocol.service.CombinerCore.to_checkpoint`
#: writes; a restore refuses a version it does not understand rather
#: than resuming from misread state.
CHECKPOINT_VERSION = 1

_CHECKPOINT_HEADER = struct.Struct("<4sH")


class CheckpointError(ValueError):
    """A checkpoint blob is corrupt, foreign, or from the wrong config."""


def encode_checkpoint(
    header: dict, arrays: dict[str, np.ndarray] | None = None
) -> bytes:
    """Serialize a combiner checkpoint: magic + version + one message.

    The body reuses :func:`encode_message` (JSON header + named raw
    arrays), so pane accumulators travel as their existing versioned
    wire bytes inside uint8 arrays and nothing is ever pickled.
    """
    return b"".join(
        [
            _CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
            encode_message(header, arrays),
        ]
    )


def decode_checkpoint(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a checkpoint blob back into (header, named arrays).

    Raises :class:`CheckpointError` on a foreign or unreadable blob —
    restoring from a file that is not a checkpoint of *this* layout must
    fail loudly, never resume from garbage.
    """
    if len(data) < _CHECKPOINT_HEADER.size:
        raise CheckpointError(
            f"checkpoint blob is {len(data)} bytes: too short for a header"
        )
    magic, version = _CHECKPOINT_HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"bad checkpoint magic {magic!r} (expected {CHECKPOINT_MAGIC!r})"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        return decode_message(data[_CHECKPOINT_HEADER.size :])
    except ValueError as exc:
        raise CheckpointError(f"corrupt checkpoint body: {exc}") from exc


# -- framed message I/O ------------------------------------------------------


def write_message(
    writer, header: dict, arrays: dict[str, np.ndarray] | None = None
) -> int:
    """Encode and frame one message onto a stream/``asyncio.StreamWriter``."""
    return write_frame(writer, encode_message(header, arrays))


async def read_message(reader) -> tuple[dict, dict[str, np.ndarray]] | None:
    """Read one framed message from an ``asyncio.StreamReader``.

    Returns ``None`` on a clean end of stream; raises
    :class:`~repro.core.serialization.TruncatedFrameError` when the peer
    vanished mid-frame (the same error the synchronous
    :func:`~repro.core.serialization.read_frame` raises, so both sides
    of the service share one failure vocabulary).
    """
    import asyncio

    try:
        head = await reader.readexactly(FRAME_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF at a frame boundary
        raise TruncatedFrameError(
            f"stream ended {FRAME_HEADER_BYTES - len(exc.partial)} bytes "
            "short of a frame header"
        ) from exc
    size = frame_payload_size(head)
    try:
        payload = await reader.readexactly(size)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrameError(
            f"stream ended {size - len(exc.partial)} bytes short of a "
            f"{size}-byte frame payload"
        ) from exc
    return decode_message(payload)

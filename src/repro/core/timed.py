"""Event-time report envelopes: reports stamped with client clocks.

The deployed systems collect on *real* clocks: a RAPPOR or telemetry
report carries the moment the client observed its datum, reports reach
the collector late and out of order (devices sleep, retries back off),
and the analyst windows by **event time** — "what happened between 9:00
and 10:00" — not by how many reports happen to have arrived.  Joseph et
al. (arXiv:1802.07128) make the time-indexed repeated-collection regime
explicit; this module gives the data shape the event-time engine
(:mod:`repro.protocol.streaming`) consumes.

:class:`TimedReports` is a thin envelope: one event timestamp per
report, alongside any oracle's opaque report batch.  Timestamps are the
*client's* event clock, so nothing about them is ordered or dense; the
envelope deliberately knows nothing about windows — pane assignment and
watermark policy live in the collector.

:func:`split_by_key` groups one arriving envelope's reports by
event-time pane, and :func:`slice_report_batch` is the generic
report-batch slicer that puts them in that order.  It understands every
report shape in the repo — raw arrays, array tuples (RAPPOR's
``(cohorts, bits)``), and the frozen report dataclasses
(``HashedReports``, ``CmsReports``, …) — by slicing each array field
with the same mask, which is exactly what the per-report structure of
every batch type means.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "TimedReports",
    "batch_length",
    "slice_report_batch",
    "split_by_key",
    "concat_report_batches",
    "concat_timed_reports",
    "merged_watermark",
]


def batch_length(reports: Any) -> int:
    """Number of user reports in any supported report batch."""
    if isinstance(reports, tuple):
        if not reports:
            raise ValueError("empty tuple is not a report batch")
        return batch_length(reports[0])
    if dataclasses.is_dataclass(reports) and not isinstance(reports, type):
        return len(reports)
    arr = np.asarray(reports)
    if arr.ndim == 0:
        raise TypeError(
            f"cannot take a batch length of a scalar {type(reports).__name__}"
        )
    return int(arr.shape[0])


def slice_report_batch(reports: Any, mask: np.ndarray) -> Any:
    """Select a subset of users from any report batch, preserving its type.

    ``mask`` is a boolean vector, an integer index array or a slice
    over users.
    Array batches are sliced on their first axis; tuple batches slice
    every element; report dataclasses are rebuilt with every array field
    sliced — all batch types in the repo are per-report structures of
    aligned arrays, so one mask selects the same users everywhere.
    """
    if isinstance(reports, tuple):
        return type(reports)(slice_report_batch(r, mask) for r in reports)
    if dataclasses.is_dataclass(reports) and not isinstance(reports, type):
        return dataclasses.replace(
            reports,
            **{
                f.name: np.asarray(getattr(reports, f.name))[mask]
                for f in dataclasses.fields(reports)
            },
        )
    return np.asarray(reports)[mask]


def split_by_key(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group a batch by key: ``(order, starts)`` for a keyed absorb.

    ``order`` is a stable argsort of ``keys`` — reports keep their
    arrival order within a key — and ``starts`` holds the offset, in
    sorted order, where each distinct key's run begins.  Slicing a batch
    with ``order`` (:func:`slice_report_batch`) and passing ``starts`` to
    :meth:`~repro.core.mechanism.Accumulator.absorb_segments` folds
    every key's reports into its own accumulator; key ``i`` is
    ``keys[order[starts[i]]]``.  Empty keys give empty arrays.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys, kind="stable")
    if order.size == 0:
        return order, np.zeros(0, dtype=np.intp)
    ranked = keys[order]
    starts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
    return order, np.concatenate(([0], starts))


def concat_report_batches(batches: list) -> Any:
    """Stack report batches of one shape into a single larger batch.

    The inverse of :func:`slice_report_batch` over a partition: array
    batches concatenate on their first axis, tuple batches concatenate
    element-wise, and report dataclasses are rebuilt with every array
    field concatenated.  All batches must be the same type (they came
    from the same oracle).  The stream driver and the service's ingest
    daemons use it to fold several envelopes into one routing batch.
    """
    if not batches:
        raise ValueError("need at least one report batch to concatenate")
    first = batches[0]
    if len(batches) == 1:
        return first
    if isinstance(first, tuple):
        return type(first)(
            concat_report_batches([b[i] for b in batches])
            for i in range(len(first))
        )
    if dataclasses.is_dataclass(first) and not isinstance(first, type):
        return dataclasses.replace(
            first,
            **{
                f.name: np.concatenate(
                    [np.asarray(getattr(b, f.name)) for b in batches]
                )
                for f in dataclasses.fields(first)
            },
        )
    return np.concatenate([np.asarray(b) for b in batches])


def concat_timed_reports(envelopes: list["TimedReports"]) -> "TimedReports":
    """Fold several timed envelopes into one, preserving arrival order."""
    if not envelopes:
        raise ValueError("need at least one envelope to concatenate")
    if len(envelopes) == 1:
        return envelopes[0]
    return TimedReports(
        timestamps=np.concatenate([e.timestamps for e in envelopes]),
        reports=concat_report_batches([e.reports for e in envelopes]),
    )


def merged_watermark(frontiers: Iterable[float | None]) -> float:
    """The fleet-wide event-time frontier: min over per-shard frontiers.

    Each live shard reports the largest event timestamp it has seen
    (its *frontier*); event time at or below every frontier is complete
    fleet-wide, so the merged watermark is the **minimum** — one
    straggling shard holds the whole fleet's watermark back, which is
    exactly what keeps a federated event-time pane from sealing before
    a slow shard's data arrived.  Shards with no event-time data report
    ``None`` and are excluded; with no contributing frontier at all the
    watermark is ``-inf`` (nothing is known complete).  A shard that has
    drained reports ``+inf`` — it can no longer hold anything back.
    """
    mark = math.inf
    saw_any = False
    for frontier in frontiers:
        if frontier is None:
            continue
        value = float(frontier)
        if math.isnan(value):
            raise ValueError("a shard frontier cannot be NaN")
        mark = min(mark, value)
        saw_any = True
    return mark if saw_any else -math.inf


@dataclass(frozen=True)
class TimedReports:
    """A report batch stamped with per-report event timestamps.

    Attributes
    ----------
    timestamps:
        Event time of each report on the *client's* clock (float64
        seconds on whatever epoch the deployment uses).  Arrival order
        is whatever order the envelope was built in — timestamps are
        not required to be sorted, that is the whole point.
    reports:
        Any oracle's opaque report batch, aligned with ``timestamps``
        (report ``i`` happened at ``timestamps[i]``).
    """

    timestamps: np.ndarray
    reports: Any

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(f"timestamps must be 1-D, got shape {ts.shape}")
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        n = batch_length(self.reports)
        if ts.shape[0] != n:
            raise ValueError(
                f"{ts.shape[0]} timestamps do not align with {n} reports"
            )
        object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def select(self, mask: np.ndarray) -> "TimedReports":
        """The sub-envelope holding the masked reports (timestamps too)."""
        return TimedReports(
            timestamps=self.timestamps[mask],
            reports=slice_report_batch(self.reports, mask),
        )

"""Windowed collection engine: count- and event-time views of a report stream.

The deployed systems never stop collecting: RAPPOR and Microsoft's
telemetry observe an *evolving* population, and Joseph et al.
(arXiv:1802.07128) make that setting explicit — the analyst wants an
estimate per time window while reports keep arriving.  This module gives
that shape on top of the mergeable-accumulator algebra with one
collector, :class:`EventTimeCollector`.  Reports arrive in
:class:`~repro.core.timed.TimedReports` envelopes and windows are
intervals of a clock, read off the envelopes' timestamps:

* **event-time** — timestamps are client event times; reports arrive
  late and out of order.  A **watermark** (max event time seen, minus a
  configurable ``allowed_lateness``) decides when a pane stops waiting:
  reports for a still-open pane merge in no matter how late they
  arrive; reports for a pane the watermark has already sealed are
  **counted as late**, never silently dropped — every report a
  :class:`StreamResult` saw is either absorbed in a pane or in
  ``late_reports``.
* **count-time** — a count window is an event window on the
  **arrival-ordinal clock**: report ``i`` (0-based, in arrival order)
  carries timestamp ``i``, so every ``stride`` reports fill one pane,
  and the pane seals the moment its last arrival is absorbed.  The
  right model for simulations that control arrival order; the
  :func:`stream_collection`/:func:`stream_reports` drivers stamp the
  ordinals themselves.

Both clocks share one pane algebra, a :class:`WindowSpec`:

* **tumbling / event_tumbling** — windows partition the stream;
* **sliding / event_sliding (size, stride)** — overlapping windows
  advancing ``stride`` (reports or seconds) at a time, built from
  stride-sized **panes**; with ``stride > size`` the windows are
  *gapped* (decimated/sampling telemetry): each period contributes only
  its first ``size`` worth of reports to a window, the rest flow
  straight to the cumulative view;
* **cumulative** — one ever-growing window (the "stream so far" view);
* **session (gap)** — *data-driven* event-time windows: one window per
  burst of activity, split wherever the event clock goes quiet for
  more than ``gap``.  Pane boundaries come from the data, so a window's
  identity is only known at seal time — in-gap arrivals extend a
  session, a late report inside ``allowed_lateness`` can bridge two
  open sessions into one (their panes are coalesced via the
  non-destructive merge; the count is surfaced as
  ``StreamResult.coalesced_panes``), and a session seals when the
  watermark passes ``last_ts + gap``.  Privacy charges are provisional
  until then and rewritten to the final window identity at seal
  (:meth:`~repro.core.budget.PrivacyLedger.reassign_group`).

Every geometry holds its own open panes and files a pane in the store
only once it is sealed.  Sliding snapshots are **O(state), independent
of the pane count**: the sealed panes live in a two-stack (DABA-lite)
queue aggregate — a back stack with one running merge, a front stack of
suffix merges, flipped back-to-front amortized O(1) merges per pane —
so a window view is one copy plus at most two merges however many panes
the window spans.  The store exploits the non-destructive merge algebra
(pure ``finalize``, ``merge`` never mutates its argument), and since
the exact-summation ``SummationAccumulator`` every window estimate —
SHE included — is **bit-identical** to the one-shot batch estimate over
that window's reports.

The drivers (:func:`stream_collection`, :func:`stream_reports`) fold
consecutive arrival slices as one envelope only where no output can
change, so a driven stream equals one fold per slice, bit for bit.

Privacy accounting is threaded through the same engine: the collector
charges the mechanism's declared spend
(:meth:`~repro.core.mechanism.LocalMechanism.privacy_spend`) to a
:class:`~repro.core.budget.PrivacyLedger` as each pane's reports start
arriving.  ``user_model`` distinguishes the two repeated-collection
scenarios: ``"same_users"`` — the same population re-reports every
window, so fresh (``per_report``) releases compose *sequentially* while
memoized (``one_time``) releases are charged once for the whole stream;
``"disjoint_users"`` — each window samples new users, so windows land in
separate *parallel* groups and the worst window bounds the total.
Event-time windows are charged under their **event-time identity**
(``window[start,end)``), so disjoint-users parallel composition holds
per event-time window, not per arrival ordinal.  ``composition``
selects the reporting/cap rule: ``"basic"`` sums the ledger, while
``"advanced"`` applies the Dwork–Rothblum–Vadhan bound
(:meth:`~repro.core.budget.PrivacyLedger.total_advanced`) to the spend
trail — a capped ledger refuses the over-budget window under the chosen
rule *before* it absorbs anything.  The advanced bound composes the
*whole* trail adaptively (it cannot exploit parallel groups), so it is
the right lens for same-users streams; disjoint-user streams already
pay only their worst window under basic composition and should keep it.
"""

from __future__ import annotations

import bisect
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.budget import (
    BudgetExceededError,
    PrivacyLedger,
    SpendDeclaration,
)
from repro.core.timed import (
    TimedReports,
    batch_length,
    concat_timed_reports,
    slice_report_batch,
    split_by_key,
)
from repro.util.rng import ensure_generator
from repro.util.validation import check_positive_int

__all__ = [
    "COMPOSITIONS",
    "USER_MODELS",
    "WindowSpec",
    "StreamSnapshot",
    "StreamResult",
    "TwoStackPaneStore",
    "EventTimeCollector",
    "stream_collection",
    "stream_reports",
]

#: Population models understood by the accounting layer.
USER_MODELS = ("same_users", "disjoint_users")

#: Composition rules a stream may report/enforce its budget under.
COMPOSITIONS = ("basic", "advanced")

_KINDS = (
    "tumbling",
    "sliding",
    "cumulative",
    "event_tumbling",
    "event_sliding",
    "session",
)
_EVENT_KINDS = ("event_tumbling", "event_sliding", "session")


def _check_positive_duration(value, *, name: str) -> float:
    """A strictly positive, finite event-clock duration (named errors)."""
    if value is None:
        raise ValueError(f"{name} is required and must be a positive duration")
    duration = float(value)
    if not math.isfinite(duration):
        raise ValueError(f"{name} must be finite, got {duration}")
    if duration <= 0.0:
        raise ValueError(f"{name} must be > 0, got {duration}")
    return duration


@dataclass(frozen=True)
class WindowSpec:
    """Declarative window discipline for a collection stream.

    Attributes
    ----------
    kind:
        ``"tumbling"`` | ``"sliding"`` | ``"cumulative"`` (count-time),
        ``"event_tumbling"`` | ``"event_sliding"`` (fixed event-time
        panes) or ``"session"`` (data-driven event-time panes).
    size:
        Window extent — reports for count-time kinds, event-clock
        duration for fixed event-time kinds (required for both; for
        ``cumulative`` it is the snapshot cadence).  Session windows
        take no ``size``: their extent comes from the data.
    stride:
        Sliding only: distance between consecutive window starts.
        ``stride < size`` gives overlapping windows (stride must tile
        the size so panes align); ``stride == size`` degenerates to
        tumbling; ``stride > size`` gives **gapped** (sampling) windows
        — each stride-long period contributes only its first ``size``
        worth of reports to a window, the remainder is collected into
        the cumulative view only (decimated telemetry).
    allowed_lateness:
        Event-time only: how far (in event-clock units) the watermark
        trails the maximum timestamp seen.  A pane stops accepting
        reports once the watermark passes its end; ``0.0`` seals each
        pane the moment a newer pane's report arrives.
    origin:
        Event-time only: the epoch pane boundaries are anchored to
        (pane ``p`` covers ``[origin + p·span, origin + (p+1)·span)``).
        Session panes have no fixed boundaries, so for them ``origin``
        is a documentation-only epoch marker (validated finite, never
        shifts a boundary).
    gap:
        Session only: the inactivity threshold that splits sessions.  A
        report within ``gap`` of an open session (on either side)
        extends it; a quiet stretch strictly longer than ``gap`` starts
        a new session.  A session seals when the watermark passes
        ``last_ts + gap``.
    """

    kind: str
    size: int | float | None = None
    stride: int | float | None = None
    allowed_lateness: float = 0.0
    origin: float = 0.0
    gap: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "session":
            self._validate_session()
            return
        if self.gap is not None:
            raise ValueError(
                f"gap only applies to session windows, not {self.kind!r}"
            )
        if self.is_event_time:
            self._validate_event_time()
            return
        if self.allowed_lateness != 0.0 or self.origin != 0.0:
            raise ValueError(
                "allowed_lateness/origin only apply to event-time windows"
            )
        if self.size is None:
            raise ValueError(
                f"{self.kind} windows need a size (reports per window)"
            )
        check_positive_int(self.size, name="size")
        if self.kind == "sliding":
            if self.stride is None:
                raise ValueError("sliding windows need both size and stride")
            check_positive_int(self.stride, name="stride")
            if self.stride < self.size and self.size % self.stride != 0:
                raise ValueError(
                    f"stride ({self.stride}) must divide size ({self.size}) "
                    "so panes tile windows exactly (or exceed it for "
                    "gapped/sampling windows)"
                )
        elif self.stride is not None:
            raise ValueError(f"stride only applies to sliding windows, not {self.kind}")

    def _validate_lateness_and_origin(self) -> None:
        if self.allowed_lateness < 0.0 or not math.isfinite(self.allowed_lateness):
            raise ValueError(
                f"allowed_lateness must be finite and >= 0, got {self.allowed_lateness}"
            )
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")

    def _validate_session(self) -> None:
        _check_positive_duration(self.gap, name="gap")
        if self.size is not None:
            raise ValueError(
                "size does not apply to session windows (their extent is "
                "data-driven); set gap instead"
            )
        if self.stride is not None:
            raise ValueError("stride only applies to sliding windows")
        self._validate_lateness_and_origin()

    def _validate_event_time(self) -> None:
        _check_positive_duration(self.size, name="size")
        self._validate_lateness_and_origin()
        if self.kind == "event_tumbling":
            if self.stride is not None:
                raise ValueError("stride only applies to sliding windows")
            return
        _check_positive_duration(self.stride, name="stride")
        if float(self.stride) < float(self.size):
            panes = round(float(self.size) / float(self.stride))
            if not math.isclose(
                panes * float(self.stride), float(self.size), rel_tol=1e-9
            ):
                raise ValueError(
                    f"stride ({self.stride}) must divide size ({self.size}) "
                    "so panes tile windows exactly (or exceed it for "
                    "gapped/sampling windows)"
                )

    # -- constructors -------------------------------------------------------

    @classmethod
    def tumbling(cls, size: int) -> "WindowSpec":
        """Non-overlapping windows of ``size`` reports."""
        return cls("tumbling", size)

    @classmethod
    def sliding(cls, size: int, stride: int) -> "WindowSpec":
        """``size``-report windows every ``stride`` reports (gapped if >)."""
        return cls("sliding", size, stride)

    @classmethod
    def cumulative(cls, size: int) -> "WindowSpec":
        """One ever-growing window, snapshotted every ``size`` reports."""
        return cls("cumulative", size)

    @classmethod
    def event_tumbling(
        cls, size: float, *, allowed_lateness: float = 0.0, origin: float = 0.0
    ) -> "WindowSpec":
        """Non-overlapping event-time windows of ``size`` clock units."""
        return cls(
            "event_tumbling",
            float(size),
            allowed_lateness=float(allowed_lateness),
            origin=float(origin),
        )

    @classmethod
    def event_sliding(
        cls,
        size: float,
        stride: float,
        *,
        allowed_lateness: float = 0.0,
        origin: float = 0.0,
    ) -> "WindowSpec":
        """Event-time windows of ``size`` units every ``stride`` units."""
        return cls(
            "event_sliding",
            float(size),
            float(stride),
            allowed_lateness=float(allowed_lateness),
            origin=float(origin),
        )

    @classmethod
    def session(
        cls, gap: float, *, allowed_lateness: float = 0.0, origin: float = 0.0
    ) -> "WindowSpec":
        """Data-driven session windows: activity bursts split by ``gap``.

        One window per burst of reports in which consecutive event
        times are at most ``gap`` apart; the window covers
        ``[first_ts, last_ts + gap)`` and is only fully known at seal
        time — a late report inside ``allowed_lateness`` can extend a
        session or bridge two open sessions into one.
        """
        return cls(
            "session",
            allowed_lateness=float(allowed_lateness),
            origin=float(origin),
            gap=float(gap),
        )

    # -- derived geometry ---------------------------------------------------

    @property
    def is_event_time(self) -> bool:
        """Whether pane assignment is timestamp-driven."""
        return self.kind in _EVENT_KINDS

    @property
    def is_data_driven(self) -> bool:
        """Whether pane *boundaries* come from the data, not the spec."""
        return self.kind == "session"

    @property
    def is_gapped(self) -> bool:
        """Sampling windows: ``stride > size`` leaves an uncovered gap."""
        return (
            self.kind in ("sliding", "event_sliding")
            and self.stride is not None
            and self.size is not None
            and float(self.stride) > float(self.size)
        )

    @property
    def num_panes(self) -> int:
        """Closed+open pane accumulators a live window spans."""
        if self.kind in ("sliding", "event_sliding"):
            assert self.size is not None and self.stride is not None
            if self.is_gapped:
                return 1
            return round(float(self.size) / float(self.stride))
        return 1

    @property
    def pane_size(self) -> int | None:
        """Count-time reports per pane period (``None`` on the event clock)."""
        if self.is_event_time:
            return None
        if self.kind == "sliding":
            return self.stride
        return self.size

    @property
    def pane_span(self) -> float | None:
        """Clock length of one pane period (fixed-pane kinds).

        Event-clock units for event-time kinds, reports for count-time
        kinds (whose clock is the arrival ordinal).  ``None`` for
        sessions, whose pane extents come from the data, not the spec.
        """
        if self.is_data_driven:
            return None
        if self.kind in ("sliding", "event_sliding"):
            return float(self.stride)
        return float(self.size)

    def pane_index(self, timestamps: np.ndarray) -> np.ndarray:
        """Fixed pane period (int64) each timestamp falls in.

        Pane ``p`` covers ``[origin + p·span, origin + (p+1)·span)``,
        evaluated as :meth:`pane_bounds` evaluates it: a bare floor of
        ``(t − origin) / span`` can land one pane off next to a pane
        end, so it is stepped down where the pane starts above ``t``
        and up where it ends at or below ``t`` (exact while a pane
        spans more than a few ulps of its bounds).
        Casting past int64 wraps silently (numpy only warns) and a
        wrapped pane index derails any sealing frontier, so timestamps
        whose pane index reaches ±2^62 are rejected instead (epoch-
        nanosecond floats with a sub-second span, say).
        """
        span = self.pane_span
        if span is None:
            raise ValueError(
                "pane_index is only defined for fixed-pane windows "
                "(session pane extents come from the data)"
            )
        if not np.all(np.isfinite(timestamps)):
            raise ValueError("timestamps must be finite")
        raw = np.floor((timestamps - self.origin) / span)
        if raw.size and float(np.abs(raw).max()) >= 2.0**62:
            raise ValueError(
                "timestamps lie too far from origin for this pane span "
                f"(pane index beyond ±2^62; span={span}, origin="
                f"{self.origin}) — rescale the event clock or origin"
            )
        raw -= self.origin + raw * span > timestamps
        raw += self.origin + (raw + 1) * span <= timestamps
        return raw.astype(np.int64)

    def pane_bounds(self, index: int) -> tuple[float, float]:
        """Clock interval ``[start, end)`` of pane period ``index``."""
        span = self.pane_span
        if span is None:
            raise ValueError(
                "pane_bounds is only defined for fixed-pane windows "
                "(session pane extents come from the data)"
            )
        return self.origin + index * span, self.origin + (index + 1) * span

    def window_bounds(self, index: int) -> tuple[float, float]:
        """Clock interval of the window that closes with pane ``index``.

        Sliding windows span the ``num_panes`` periods ending at
        ``index`` (nominal bounds; early windows cover less data);
        gapped windows cover only the first ``size`` of their period;
        a cumulative window covers everything since the origin.
        """
        start, end = self.pane_bounds(index)
        if self.kind == "cumulative":
            return self.origin, end
        if self.kind in ("sliding", "event_sliding"):
            if self.is_gapped:
                return start, start + float(self.size)
            return end - float(self.size), end
        return start, end

    def watermark(self, newest: float) -> float:
        """Completeness frontier once timestamp ``newest`` has been seen.

        On the event clock the watermark trails the newest event time
        by ``allowed_lateness``.  Arrival ordinals are integers that
        arrive in order, so seeing ordinal ``k`` completes every instant
        below ``k + 1`` — a count pane seals as soon as its last
        arrival is absorbed.
        """
        if self.is_event_time:
            return newest - self.allowed_lateness
        return newest + 1.0


@dataclass(frozen=True)
class StreamSnapshot:
    """One windowed read of a live collection stream.

    Attributes
    ----------
    window_index:
        Pane index of the window the snapshot closes: the absolute pane
        index on the window's clock (``spec.pane_bounds(window_index)``)
        — so count-time windows count from 0 in arrival order;
        session windows use the session's creation *serial* — a
        straggler can open a session that starts (and therefore seals)
        before an earlier-serial one, so emitted session indices need
        not be sorted, but ``window_start`` always is.
    window_users / total_users:
        Reports in the window view / absorbed since stream start.
    window_estimates:
        Estimates over the window's reports alone; ``None`` when the
        window is empty (e.g. a quiet interval).  For cumulative
        windows this equals ``cumulative_estimates``.
    cumulative_estimates:
        Estimates over every report absorbed so far; ``None`` before the
        first report arrives (some mechanisms, e.g. 1BitMean, have no
        defined estimate at n = 0).
    snapshot_seconds:
        Wall time the snapshot took (copies + merges + the finalizes) —
        the read-latency number the E15/E16/E17 benchmarks track.
    total_epsilon / total_delta:
        The stream's privacy trajectory at snapshot time, under the
        collector's composition rule (basic ledger totals, or the
        advanced-composition bound over the spend trail).
    pane_count:
        Live pane accumulators held when the snapshot was taken
        (closed panes + open; bounded by ``WindowSpec.num_panes`` for
        count-time streams).
    window_start / window_end:
        Clock bounds of the window — event times, or arrival ordinals
        on count-time streams (``spec.window_bounds(window_index)``).
    late_reports:
        Reports counted late (watermark-expired pane) so far — the
        other half of the every-report-accounted invariant.
    """

    window_index: int
    window_users: int
    total_users: int
    window_estimates: np.ndarray | None
    cumulative_estimates: np.ndarray | None
    snapshot_seconds: float
    total_epsilon: float = 0.0
    total_delta: float = 0.0
    pane_count: int = 1
    window_start: float | None = None
    window_end: float | None = None
    late_reports: int = 0


class StreamResult(Sequence):
    """Snapshots of a driven stream plus its populated privacy ledger.

    Behaves as a sequence of :class:`StreamSnapshot` (indexing,
    iteration and ``len`` all work), with the accounting attached:
    ``result.ledger`` is the :class:`~repro.core.budget.PrivacyLedger`
    the stream charged and ``result.spec`` the window discipline that
    produced it.  Every stream accounts every report it saw:
    ``absorbed_reports + late_reports`` equals the number of reports
    offered to the collector — nothing is silently dropped.
    ``coalesced_panes`` counts the open panes a data-driven (session)
    stream merged away when late reports bridged two sessions (always
    0 for fixed geometries).  ``stage_seconds`` is the engine's CPU
    breakdown — cumulative wall seconds per pipeline stage (``route``:
    timestamp classification/clustering, ``charge``: ledger
    bookkeeping, ``absorb``: pane routing + folding, ``snapshot``:
    seal-time window reads).
    """

    def __init__(
        self,
        snapshots: list[StreamSnapshot],
        ledger: PrivacyLedger,
        spec: WindowSpec,
        *,
        absorbed_reports: int = 0,
        late_reports: int = 0,
        composition: str = "basic",
        coalesced_panes: int = 0,
        stage_seconds: dict[str, float] | None = None,
    ) -> None:
        self.snapshots = list(snapshots)
        self.ledger = ledger
        self.spec = spec
        self.absorbed_reports = int(absorbed_reports)
        self.late_reports = int(late_reports)
        self.composition = composition
        self.coalesced_panes = int(coalesced_panes)
        self.stage_seconds = dict(stage_seconds) if stage_seconds else {}

    @property
    def total_reports(self) -> int:
        """Every report the stream saw: absorbed somewhere, or late."""
        return self.absorbed_reports + self.late_reports

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, index):
        return self.snapshots[index]

    def __repr__(self) -> str:
        late = f", late={self.late_reports}" if self.late_reports else ""
        return (
            f"StreamResult({len(self.snapshots)} snapshots, "
            f"spec={self.spec!r}, eps={self.ledger.total_epsilon:.4g}{late})"
        )


def _merged_estimates(accumulators) -> tuple[int, np.ndarray | None]:
    """Users and finalized estimates over a chronological accumulator list.

    Empty accumulators are skipped (merging them adds exact zeros, so
    skipping cannot change the result); a single non-empty accumulator
    is finalized in place (pure, no copy needed); otherwise the first
    non-empty one is *copied* and the rest merged in arrival order —
    copies+merges of O(state) each, never a pass over reports.
    """
    users = sum(acc.n_absorbed for acc in accumulators)
    if users == 0:
        return 0, None
    live = [acc for acc in accumulators if acc.n_absorbed > 0]
    if len(live) == 1:
        return users, live[0].finalize()
    merged = live[0].copy()
    for acc in live[1:]:
        merged.merge(acc)
    return users, merged.finalize()


class TwoStackPaneStore:
    """Two-stack (DABA-lite) store of sealed panes: O(state) window views.

    The classic queue-from-two-stacks trick lifted to the merge
    monoid.  Sealed panes land on a **back** list whose running merge
    ``back_agg`` is maintained incrementally (one merge per pane).
    Evictions pop a **front** list of ``(pane, suffix_agg)`` pairs,
    where each ``suffix_agg`` covers its pane and every younger front
    pane; when the front runs dry the back panes are flipped over —
    one copy+merge per pane, so each pane is touched O(1) times over
    its whole life.  A window view is then just
    ``front_top_suffix ⊕ back_agg``: **two components regardless of
    how many panes the window spans**, which is what makes sliding
    snapshots O(state) instead of O(panes·state).

    Raw panes ride along in both lists so eviction can fold the exact
    departing pane into ``retired`` — every pane that left all windows,
    folded together for the cumulative view.  Open panes never live
    here: each geometry holds its own and files a pane only once it is
    sealed (a session geometry folds its sealed panes straight into
    ``retired``).
    """

    def __init__(self, factory) -> None:
        self._factory = factory
        self.retired = factory()
        self._back: list = []  # oldest back pane first
        self._back_agg = factory()
        self._front: list = []  # (pane, suffix_agg); oldest pane last

    def push(self, pane) -> None:
        """File the newest sealed pane (one O(state) merge)."""
        self._back.append(pane)
        self._back_agg.merge(pane)

    def _flip(self) -> None:
        """Move the back panes onto the front stack as suffix merges."""
        suffix = None
        for pane in reversed(self._back):
            agg = pane.copy()
            if suffix is not None:
                agg.merge(suffix)
            self._front.append((pane, agg))
            suffix = agg
        self._back = []
        self._back_agg = self._factory()

    def evict_oldest(self) -> None:
        """Fold the oldest live pane into the retired (cumulative-only) state."""
        if not self._front:
            self._flip()
        pane, _ = self._front.pop()
        self.retired.merge(pane)

    @property
    def count(self) -> int:
        """Sealed panes currently held (not yet retired)."""
        return len(self._front) + len(self._back)

    def window_components(self) -> list:
        """Two accumulators whose merge covers every held pane."""
        components = []
        if self._front:
            components.append(self._front[-1][1])
        components.append(self._back_agg)
        return components


class _PaneGeometry:
    """Per-kind pane policy: where a report lands and when a pane seals.

    The collector owns the arrival machinery — the watermark, privacy
    charging, the store of sealed panes, the absorbed/late counters and
    the emitted snapshots.  A geometry owns pane *identity* and its open
    panes: classifying timestamps into panes, routing sub-envelopes into
    the open pane accumulators it holds, deciding what the watermark has
    sealed (and whether moving it would change anything) and what window
    a sealed pane emits.  Fixed (tumbling/sliding) and data-driven
    (session) geometries share the one collector through this interface.
    """

    #: Open panes bridged into a neighbour by late data (sessions only).
    merged_panes = 0

    def __init__(self, collector: "EventTimeCollector") -> None:
        self._c = collector

    def ingest(self, timed: TimedReports) -> None:
        """Charge, route and count one envelope (watermark untouched)."""
        raise NotImplementedError

    def precharge(self, ts: np.ndarray) -> None:
        """Charge every pane the given event times would land in."""
        raise NotImplementedError

    def seal_past_watermark(self, *, everything: bool = False) -> None:
        """Seal (in order) every pane the watermark passed; emit windows."""
        raise NotImplementedError

    def quiet_between(self, before: float, after: float) -> bool:
        """Whether the watermark can move from ``before`` to ``after`` inertly.

        Inert: no report is judged differently and no pane seals.
        ``False`` while ``before`` is −∞ (nothing seen yet).
        """
        raise NotImplementedError

    def open_accumulators(self) -> list:
        """The open pane accumulators, oldest first (never in the store)."""
        raise NotImplementedError

    def open_count(self) -> int:
        """Open panes held (the store counts only sealed ones)."""
        raise NotImplementedError


class _FixedPaneGeometry(_PaneGeometry):
    """Spec-driven panes: fixed periods of the event or ordinal clock.

    Pane ``p`` covers ``[origin + p·span, origin + (p+1)·span)``
    (:meth:`WindowSpec.pane_index`); the sealing frontier advances pane
    by pane (compressing dead air), and gapped specs route each
    period's tail straight to the cumulative view.  Open panes live in
    a dict keyed by absolute pane index; the store only ever holds
    sealed panes.
    """

    def __init__(self, collector: "EventTimeCollector") -> None:
        super().__init__(collector)
        self._open: dict[int, object] = {}  # pane index → accumulator
        self._charged: set[int] = set()
        self._sealed_through: int | None = None  # last sealed pane index

    # -- classification -----------------------------------------------------

    def _classify(
        self, timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-report ``(pane index, sealed?, gap?)`` for given event times.

        A pane is sealed the moment the watermark passes its end —
        whether or not it was ever emitted (dead air before the first
        report is sealed too, just never enumerated).
        """
        spec = self._c.spec
        panes = spec.pane_index(timestamps)
        span = spec.pane_span
        pane_ends = spec.origin + (panes + 1) * span
        sealed = pane_ends <= self._c.watermark
        if self._sealed_through is not None:
            sealed |= panes <= self._sealed_through
        gap = np.zeros(timestamps.shape[0], dtype=bool)
        if spec.is_gapped:
            offset = timestamps - spec.origin - panes * span
            gap = ~sealed & (offset >= float(spec.size))
        return panes, sealed, gap

    # -- routing ------------------------------------------------------------

    def ingest(self, timed: TimedReports) -> None:
        c = self._c
        t0 = time.perf_counter()
        panes, sealed, gap = self._classify(timed.timestamps)
        routable = ~sealed & ~gap
        t1 = time.perf_counter()
        # Charge every pane the envelope touches *before* absorbing any
        # of it, atomically: a capped ledger refuses the whole envelope
        # (nothing absorbed or recorded, watermark not advanced), never
        # half of it.  (A driver that called charge_for first finds the
        # panes already charged — this is then a no-op.)
        self._charge_panes(panes[routable | gap])
        t2 = time.perf_counter()
        c._late += int(sealed.sum())
        self._fold(timed.reports, panes, routable | gap, gap)
        t3 = time.perf_counter()
        stages = c._stage_seconds
        stages["route"] += t1 - t0
        stages["charge"] += t2 - t1
        stages["absorb"] += t3 - t2

    def precharge(self, ts: np.ndarray) -> None:
        """Charge the panes these times land in; sealed panes charge nothing."""
        t0 = time.perf_counter()
        panes, sealed, _gap = self._classify(ts)
        t1 = time.perf_counter()
        self._charge_panes(panes[~sealed])
        t2 = time.perf_counter()
        stages = self._c._stage_seconds
        stages["route"] += t1 - t0
        stages["charge"] += t2 - t1

    def quiet_between(self, before: float, after: float) -> bool:
        """No pane end lies in ``(before, after]``, so no mark changes.

        ``p`` is stepped until ``end(p - 1) <= before < end(p)``, as a
        bare floor of ``(before - origin) / span`` can miss an end one
        ulp above ``before``; ends too coarse to bracket ``before`` in a
        few steps answer ``False``, which only costs a fold.
        """
        spec = self._c.spec
        q = (before - spec.origin) / spec.pane_span
        if not math.isfinite(q):
            return False
        p = math.floor(q)
        for _ in range(4):
            if spec.pane_bounds(p)[1] <= before:
                p += 1
            elif spec.pane_bounds(p - 1)[1] > before:
                p -= 1
            else:
                return spec.pane_bounds(p)[1] > after
        return False

    def _charge_panes(self, panes: np.ndarray) -> None:
        """Atomically charge the panes some reports land in (all-or-nothing).

        A batch whose panes ``[min, max]`` are all charged already (by
        ``charge_for`` ahead of ``absorb``) returns before finding its
        distinct panes, and a batch inside one pane (every in-order count
        slice) skips the sort that finding them costs.  Panes already
        charged cost no ledger savepoint, which copies the whole account.
        """
        if panes.size == 0:
            return
        lo, hi = int(panes.min()), int(panes.max())
        charged = self._charged
        if hi - lo < len(charged) and all(
            p in charged for p in range(lo, hi + 1)
        ):
            return
        distinct = [lo] if lo == hi else np.unique(panes).tolist()
        fresh = [p for p in distinct if p not in charged]
        if not fresh:
            return
        token = self._c.ledger.savepoint()
        try:
            for pane in fresh:
                self._charge(pane)
        except BudgetExceededError:
            self._c.ledger.rollback(token)
            self._charged.difference_update(fresh)
            raise

    def _charge(self, pane: int) -> None:
        label = f"window-{pane}"
        if self._c.spec.is_event_time:
            # The pane index leads the identity: %g readability alone
            # would collide adjacent windows at epoch-scale timestamps
            # (6 significant digits), silently merging their parallel
            # groups.  Count windows are identified by ordinal alone.
            start, end = self._c.spec.pane_bounds(pane)
            label += f"[{start:g},{end:g})"
        self._c._charge_pane(pane, label)
        self._charged.add(pane)

    def _fold(
        self,
        reports: Any,
        panes: np.ndarray,
        keep: np.ndarray,
        gap: np.ndarray,
    ) -> None:
        """Fold the kept reports into their panes, one absorb per pane.

        A routable report lands in its open pane.  A gap report of a
        sampling stream lands in the cumulative view only, but its pane
        still *opens* (empty) so its period's window is emitted when the
        watermark passes — a sampling stream whose reports all land in
        gaps still surfaces its (empty) windows and the cumulative view
        holding those reports.  Key ``2·pane + gap`` groups both kinds in
        one stable sort (:func:`~repro.core.timed.split_by_key`) and one
        reorder of the envelope; the sort keeps arrival order within a
        key and pane order across keys, so every target absorbs exactly
        the sequence a per-pane fold would.
        """
        c = self._c
        kept = np.flatnonzero(keep)
        if kept.size == 0:
            return
        keys = panes[kept] * 2 + gap[kept]
        order, starts = split_by_key(keys)
        grouped = slice_report_batch(reports, kept[order])
        bounds = np.append(starts, kept.size).tolist()
        for key, lo, hi in zip(keys[order[starts]].tolist(), bounds, bounds[1:]):
            pane = key >> 1
            acc = self._open.get(pane)
            if acc is None:
                acc = self._open[pane] = c._oracle.accumulator()
            target = c._store.retired if key & 1 else acc
            target.absorb(slice_report_batch(grouped, slice(lo, hi)))
        c._absorbed += int(kept.size)

    # -- sealing ------------------------------------------------------------

    def seal_past_watermark(self, *, everything: bool = False) -> None:
        """Seal (in order) every pane the watermark has passed; emit windows.

        Quiet intervals emit their empty windows honestly — up to one
        full window of them.  Once every live pane is empty (the stream
        has been silent for a whole window span) further dead-air panes
        would all emit the same empty window, so the frontier leaps to
        the next pane holding data instead of enumerating them.
        """
        c = self._c
        if not self._open and self._sealed_through is None:
            return  # nothing observed yet — no pane frontier to advance
        frontier = (
            self._sealed_through + 1
            if self._sealed_through is not None
            else min(self._open)
        )
        watermark = c.watermark
        while True:
            if everything:
                if not self._open:
                    break
            else:
                _, pane_end = c.spec.pane_bounds(frontier)
                if pane_end > watermark:
                    break
            if frontier not in self._open and all(
                acc.n_absorbed == 0 for acc in c._store.window_components()
            ):
                if self._open:
                    next_pane = min(self._open)
                elif everything:
                    break
                else:
                    next_pane = frontier  # fall through to the cap below
                if not everything:
                    # Never leap past the watermark: panes beyond it are
                    # still open for late data and must not be marked
                    # sealed just because the next report is far ahead.
                    next_pane = min(next_pane, int(c.spec.pane_index(watermark)))
                if next_pane > frontier:
                    self._sealed_through = next_pane - 1
                    frontier = next_pane
                    continue
            self._seal_pane(frontier)
            frontier += 1

    def _seal_pane(self, pane: int) -> None:
        """Close pane ``pane``, emit the window it completes."""
        t0 = time.perf_counter()
        c = self._c
        acc = self._open.pop(pane, None)
        if acc is None:
            acc = c._oracle.accumulator()
        c._store.push(acc)
        while c._store.count > c.spec.num_panes:
            c._store.evict_oldest()
        window_users, window_est = _merged_estimates(c._store.window_components())
        start, end = c.spec.window_bounds(pane)
        c._record_snapshot(
            index=pane,
            start=start,
            end=end,
            window_users=window_users,
            window_est=window_est,
            t0=t0,
        )
        self._sealed_through = pane

    def open_accumulators(self) -> list:
        return [self._open[p] for p in sorted(self._open)]

    def open_count(self) -> int:
        return len(self._open)


#: Shared empty position vector for pure session-merge clusters.
_EMPTY_POSITIONS = np.empty(0, dtype=np.intp)


def _provisional_label(serial: int) -> str:
    """Ledger identity of a still-open session (rewritten at seal)."""
    return f"session-{serial}[open]"


def _final_label(serial: int, start: float, end: float) -> str:
    """Seal-time ledger identity of a session window.

    The serial leads the identity: %g readability alone would collide
    windows at epoch-scale timestamps (6 significant digits), silently
    merging their parallel groups.
    """
    return f"session-{serial}[{start:g},{end:g})"


@dataclass
class _OpenSession:
    """One live session: a serial identity plus its event-time extent."""

    serial: int
    start: float  # earliest event time absorbed (or precharged)
    end: float  # latest event time absorbed; extent is [start, end + gap)


class _SessionPaneGeometry(_PaneGeometry):
    """Data-driven panes: gap-separated activity sessions (Beam-style).

    Open sessions are kept sorted by start time, pairwise more than
    ``gap`` apart, each owning one open pane accumulator at the
    matching position of the geometry's pane list.  A report within
    ``gap`` of a session — on either side, inclusive — extends it; a
    report landing within ``gap`` of *two* sessions bridges them,
    coalescing their panes (the absorbed session's pane merges into the
    survivor's via the non-destructive merge) and their ledger groups;
    a quiet stretch strictly longer than ``gap`` starts a new session.
    A sealed session's pane is folded straight into the store's
    ``retired`` accumulator: a session window is that one pane, so the
    store never holds a session pane.

    Because open sessions are separated by more than the gap, their
    ends are ordered like their starts: sessions always seal
    oldest-first, when the watermark passes ``end + gap``, and the
    **sealed horizon** (``end + gap`` of the last sealed session) is
    monotone.  A report at or below the horizon can no longer join any
    window and is counted late; a report above it that seeds a burst
    already behind the watermark simply opens a session that seals on
    the next sweep — absorbed and emitted, never dropped.

    Ledger identity is assigned at seal time: a session charges its
    declared spend at creation under a provisional parallel group
    (``session-{serial}[open]``), a merge folds the absorbed sessions'
    provisional groups into the survivor's (collapsing duplicate
    charges — each covered a disjoint subpopulation of what is now one
    window), and sealing rewrites the survivor's group to the final
    ``session-{serial}[{start},{end+gap})`` identity.
    """

    def __init__(self, collector: "EventTimeCollector") -> None:
        super().__init__(collector)
        self._gap = float(collector.spec.gap)
        self._sessions: list[_OpenSession] = []  # sorted by start
        # Session starts, mirrored from _sessions: open sessions are
        # pairwise more than gap apart, so starts are strictly
        # increasing and bisect gives both the insert position and the
        # exact index of any open session in O(log S).
        self._starts: list[float] = []
        self._panes: list = []  # open pane accumulators, aligned likewise
        self._next_serial = 0
        self._sealed_horizon = -math.inf
        self.merged_panes = 0
        #: Route envelopes through the pure-Python reference walk
        #: instead of the vectorized clustering (property tests flip
        #: this to prove bit-identity).
        self.use_reference_sweep = False

    def ingest(self, timed: TimedReports) -> None:
        self._sweep(np.asarray(timed.timestamps, dtype=np.float64), timed)

    def precharge(self, ts: np.ndarray) -> None:
        """Charge (and open) the sessions these event times imply.

        The charge is the commitment: sessions and merges the times
        imply are created/applied now, so the following ``absorb``
        finds them already charged — and a capped ledger refuses the
        window before anything is privatized.  Times at or below the
        sealed horizon (would-be late reports) charge nothing.
        """
        self._sweep(ts, None)

    def _sweep(self, ts: np.ndarray, timed: TimedReports | None) -> None:
        """Cluster an envelope's event times against the open sessions.

        Pure planning first (which sessions the reports extend, bridge
        or create), then an atomic ledger transaction (new-session
        charges plus provisional-group rewrites land all-or-nothing),
        and only then the structural/absorb mutations — a refused
        envelope changes nothing, not even the late count.
        """
        c = self._c
        t0 = time.perf_counter()
        live_idx = np.flatnonzero(ts > self._sealed_horizon)
        n_late = ts.shape[0] - live_idx.size if timed is not None else 0
        clusters = (
            self._reference_clusters(ts, live_idx)
            if self.use_reference_sweep
            else self._clusters(ts, live_idx)
        )
        t1 = time.perf_counter()
        token = c.ledger.savepoint()
        serial = self._next_serial
        try:
            for sessions, _positions, _first, _last in clusters:
                if not sessions:
                    c._charge_pane(serial, _provisional_label(serial))
                    serial += 1
                elif len(sessions) > 1 and (
                    c.user_model == "disjoint_users"
                    and c._declaration is not None
                ):
                    c.ledger.reassign_group(
                        [_provisional_label(s.serial) for s in sessions[1:]],
                        _provisional_label(sessions[0].serial),
                        collapse_duplicates=True,
                    )
        except BudgetExceededError:
            c.ledger.rollback(token)
            raise
        t2 = time.perf_counter()
        starts, panes = self._starts, self._panes
        for sessions, positions, first, last in clusters:
            if not sessions:
                session = _OpenSession(self._next_serial, first, first)
                self._next_serial += 1
                at = bisect.bisect_left(starts, first)
                self._sessions.insert(at, session)
                starts.insert(at, first)
                panes.insert(at, c._oracle.accumulator())
            else:
                session = sessions[0]
                # Starts are strictly increasing, so bisect recovers
                # the survivor's exact index; bridged sessions are
                # consecutive in start order, so each absorbed pane
                # sits right after the survivor's.
                at = bisect.bisect_left(starts, session.start)
                for other in sessions[1:]:
                    panes[at].merge(panes[at + 1])
                    if other.end > session.end:
                        session.end = other.end
                    del self._sessions[at + 1]
                    del starts[at + 1]
                    del panes[at + 1]
                    self.merged_panes += 1
            if positions.size:
                if first < session.start:
                    session.start = first
                    starts[at] = first
                if last > session.end:
                    session.end = last
                if timed is not None:
                    pane = panes[at]
                    before = pane.n_absorbed
                    pane.absorb(timed.select(positions).reports)
                    c._absorbed += pane.n_absorbed - before
        c._late += n_late
        t3 = time.perf_counter()
        stages = c._stage_seconds
        stages["route"] += t1 - t0
        stages["charge"] += t2 - t1
        stages["absorb"] += t3 - t2

    def _clusters(self, ts: np.ndarray, live_idx: np.ndarray):
        """Gap-cluster the open sessions with the live report positions.

        The vectorized sweep: sort the live positions once, split them
        into maximal *runs* wherever consecutive event times are more
        than ``gap`` apart (``np.diff`` + ``np.flatnonzero``), then
        merge the handful of open sessions against run *boundaries* —
        O(sessions + runs) Python work instead of one loop iteration
        per report.  A run can never split mid-way (consecutive times
        are within ``gap``, and interleaved sessions only push the
        running end further out), and a cluster's runs are always
        consecutive in the sorted order, so each cluster's report
        positions are one contiguous slice of the sort — absorbed as a
        slice, with the cluster's first/last event times read off the
        run boundaries instead of boxing per-report floats.

        Returns ``(sessions, positions, first, last)`` per cluster in
        start order — ``positions`` the ts-sorted report positions
        (possibly empty for pure session merges), ``first``/``last``
        their earliest/latest event times — exactly the clusters the
        reference walk (:meth:`_reference_clusters`) produces.
        """
        if live_idx.size == 0:
            return []
        gap = self._gap
        order = live_idx[np.argsort(ts[live_idx], kind="stable")]
        times = ts[order]
        splits = np.flatnonzero(np.diff(times) > gap) + 1
        run_lo = np.concatenate(([0], splits))
        run_hi = np.concatenate((splits, [times.shape[0]]))
        run_start = times[run_lo]
        run_end = times[run_hi - 1]
        sessions = self._sessions
        n_sessions = len(sessions)
        n_runs = run_lo.shape[0]
        clusters: list[list] = []
        cur: list | None = None  # [sessions, run lo, run hi, end]
        si = k = 0
        while si < n_sessions or k < n_runs:
            if si < n_sessions and (
                k >= n_runs or sessions[si].start <= run_start[k]
            ):
                item = sessions[si]
                si += 1
                if cur is None or item.start > cur[3] + gap:
                    cur = [[item], k, k, item.end]
                    clusters.append(cur)
                else:
                    cur[0].append(item)
                    if item.end > cur[3]:
                        cur[3] = item.end
            else:
                lo = float(run_start[k])
                hi = float(run_end[k])
                k += 1
                if cur is None or lo > cur[3] + gap:
                    cur = [[], k - 1, k, hi]
                    clusters.append(cur)
                else:
                    cur[2] = k
                    if hi > cur[3]:
                        cur[3] = hi
        out = []
        for sess, klo, khi, _end in clusters:
            if klo < khi:
                a = int(run_lo[klo])
                b = int(run_hi[khi - 1])
                out.append((sess, order[a:b], float(times[a]), float(times[b - 1])))
            elif len(sess) > 1:
                out.append((sess, _EMPTY_POSITIONS, None, None))
        return out

    def _reference_clusters(self, ts: np.ndarray, live_idx: np.ndarray):
        """The original per-report merge walk, kept as the oracle.

        One walk over the (already sorted) open sessions and the
        ts-sorted report positions: an item joins the current cluster
        when it starts within ``gap`` (inclusive) of the cluster's
        running end.  Each returned cluster is one post-envelope
        session, in start order; untouched singleton sessions are
        skipped.  Two sessions can share a cluster only via a bridging
        report — open sessions alone are always more than ``gap``
        apart.  O(reports) Python-loop iterations; the vectorized
        :meth:`_clusters` must match it bit for bit (property-tested
        and micro-benchmarked against it in CI).
        """
        if live_idx.size == 0:
            return []
        gap = self._gap
        order = live_idx[np.argsort(ts[live_idx], kind="stable")]
        times = ts[order]
        sessions = self._sessions
        clusters: list[list] = []
        cur: list | None = None  # [sessions, report positions, end]
        si = ri = 0
        while si < len(sessions) or ri < order.size:
            if si < len(sessions) and (
                ri >= order.size or sessions[si].start <= times[ri]
            ):
                item = sessions[si]
                item_start, item_end = item.start, item.end
                si += 1
            else:
                item = int(order[ri])
                item_start = item_end = float(times[ri])
                ri += 1
            if cur is None or item_start > cur[2] + gap:
                cur = [[], [], item_end]
                clusters.append(cur)
            if isinstance(item, _OpenSession):
                cur[0].append(item)
            else:
                cur[1].append(item)
            cur[2] = max(cur[2], item_end)
        out = []
        for sess, reports, _end in clusters:
            if reports:
                out.append(
                    (
                        sess,
                        np.asarray(reports, dtype=np.intp),
                        float(ts[reports[0]]),
                        float(ts[reports[-1]]),
                    )
                )
            elif len(sess) > 1:
                out.append((sess, _EMPTY_POSITIONS, None, None))
        return out

    def quiet_between(self, before: float, after: float) -> bool:
        """The oldest open session is not due at ``after``.

        Lateness moves only when a session seals, and ``charge_for`` has
        already opened the session of every charged time.
        """
        if before == -math.inf:
            return False
        return not self._sessions or self._sessions[0].end + self._gap > after

    def seal_past_watermark(self, *, everything: bool = False) -> None:
        while self._sessions:
            session = self._sessions[0]
            if not everything and session.end + self._gap > self._c.watermark:
                break
            self._seal_oldest()

    def _seal_oldest(self) -> None:
        """Seal the oldest open session; assign its final ledger identity."""
        t0 = time.perf_counter()
        c = self._c
        session = self._sessions.pop(0)
        del self._starts[0]
        pane = self._panes.pop(0)
        end_bound = session.end + self._gap
        window_users, window_est = _merged_estimates([pane])
        c._store.retired.merge(pane)
        final = _final_label(session.serial, session.start, end_bound)
        if c.user_model == "disjoint_users" and c._declaration is not None:
            # The provisional parallel group becomes the window's final
            # event-time identity — a pure rename, totals unchanged, so
            # this can never break a cap.
            c.ledger.reassign_group(
                [_provisional_label(session.serial)], final, label=final
            )
        c._record_snapshot(
            index=session.serial,
            start=session.start,
            end=end_bound,
            window_users=window_users,
            window_est=window_est,
            t0=t0,
        )
        self._sealed_horizon = end_bound

    def open_accumulators(self) -> list:
        return list(self._panes)

    def open_count(self) -> int:
        return len(self._panes)


class EventTimeCollector:
    """Routes timestamped reports into panes under a watermark.

    The one collector behind every windowed stream.  ``oracle`` is
    anything with an ``accumulator()`` factory — a core frequency
    oracle, an Apple sketch, a RAPPOR aggregator, or the Microsoft
    mechanisms.  Reports arrive as :class:`~repro.core.timed.TimedReports`
    — in any order, on the window's clock.  Each report is assigned to
    the pane period containing its timestamp; panes stay open (late
    arrivals merge into place) until the **watermark**
    (:meth:`WindowSpec.watermark` of the newest timestamp seen) passes
    the pane's end, at which point the pane seals and the window it
    completes is emitted as a :class:`StreamSnapshot`.  A report whose
    pane has already sealed is counted in :attr:`late_reports` (and the
    emitting snapshots carry the running count): every report offered
    to the collector is accounted as absorbed-in-pane or counted-late,
    never silently dropped.

    Count-time specs run on the **arrival-ordinal clock**: stamp report
    ``i`` of the stream with timestamp ``i`` and each pane seals as soon
    as its last arrival is absorbed; a gapped spec's period tail lands
    in the cumulative view only, and a ``cumulative`` spec's window view
    is its cumulative view.

    Panes seal in clock order (the watermark is monotone) into the
    two-stack store, so every window estimate is bit-identical to the
    one-shot batch over exactly the reports absorbed into that window.  Empty panes (quiet intervals the watermark has passed)
    seal too — their windows are emitted with ``window_estimates=None``
    for panes nothing reported into.

    Accounting: a pane's declared spend
    (:meth:`~repro.core.mechanism.LocalMechanism.privacy_spend`) is
    charged to ``ledger`` before any of its reports is absorbed (see the
    module docstring for the ``user_model``/``composition`` semantics),
    so an over-cap window raises
    :class:`~repro.core.budget.BudgetExceededError` instead of being
    rolled back.  Event windows are charged under their **event-time
    identity** (``window-{p}[start,end)``), so
    ``user_model="disjoint_users"`` composes in parallel across
    event-time windows no matter how arrival interleaves them; count
    windows keep their ordinal identity ``window-{p}``.  Mechanisms
    without a ``privacy_spend`` declaration stream unaccounted.

    With a ``WindowSpec.session`` spec the same collector runs the
    data-driven geometry instead: panes are gap-separated activity
    sessions whose extent is only known at seal time — in-gap arrivals
    extend a session, a late report inside ``allowed_lateness`` can
    bridge (coalesce) two open sessions, and a session seals when the
    watermark passes ``last_ts + gap``.  Session windows are charged
    under a provisional identity rewritten to the final
    ``session-{serial}[start,end)`` at seal; reports behind the sealed
    horizon are counted late exactly like fixed-pane stragglers
    (:class:`_SessionPaneGeometry` has the full story).
    """

    def __init__(
        self,
        oracle,
        spec: WindowSpec,
        *,
        ledger: PrivacyLedger | None = None,
        user_model: str = "same_users",
        composition: str = "basic",
        delta_slack: float = 1e-9,
    ) -> None:
        if user_model not in USER_MODELS:
            raise ValueError(
                f"user_model must be one of {USER_MODELS}, got {user_model!r}"
            )
        if composition not in COMPOSITIONS:
            raise ValueError(
                f"composition must be one of {COMPOSITIONS}, got {composition!r}"
            )
        if not 0.0 < delta_slack < 1.0:
            raise ValueError(f"delta_slack must be in (0, 1), got {delta_slack}")
        self._oracle = oracle
        self.spec = spec
        self.ledger = ledger if ledger is not None else PrivacyLedger()
        self.user_model = user_model
        self.composition = composition
        self.delta_slack = float(delta_slack)
        spend = getattr(oracle, "privacy_spend", None)
        self._declaration: SpendDeclaration | None = (
            spend() if callable(spend) else None
        )
        self._store = TwoStackPaneStore(oracle.accumulator)
        # One-time charges are memoized per *release*, and one collector
        # instance is one release stream: the sentinel scopes its memo
        # keys so two streams sharing a ledger each pay their own bill.
        self._stream_key = object()
        self._max_event_time = -math.inf
        self._late = 0
        self._absorbed = 0
        # (reports absorbed, users, estimates) of the last cumulative view.
        self._cumulative: tuple[int, int, np.ndarray | None] | None = None
        self._snapshots: list[StreamSnapshot] = []
        self._finished = False
        self._stage_seconds = {
            "route": 0.0,
            "charge": 0.0,
            "absorb": 0.0,
            "snapshot": 0.0,
        }
        self._geometry: _PaneGeometry = (
            _SessionPaneGeometry(self)
            if spec.is_data_driven
            else _FixedPaneGeometry(self)
        )

    # -- accounting ---------------------------------------------------------

    def _charge_pane(self, pane_index: int, window_label: str) -> None:
        """Charge the declared spend for a pane now starting to fill.

        ``window_label`` is the window identity the spend is recorded
        under — the event-time interval for event windows, the arrival
        ordinal for count windows — so parallel (disjoint-users) groups
        are keyed by *when the data happened*, not when it arrived.
        """
        decl = self._declaration
        if decl is None:
            return
        if self.user_model == "disjoint_users":
            # New users this window: parallel group per pane; memoized
            # releases are one-time *per user*, hence per pane here.
            key: object = (self._stream_key, pane_index)
            group: str | None = window_label
        else:
            # Same population re-reporting: fresh releases compose
            # sequentially; a memoized release is charged once per stream.
            key = self._stream_key
            group = None
        if self.composition == "advanced":
            # The advanced bound *is* the cap rule for this stream: check
            # it before recording anything, then record without the basic
            # guard (which would refuse streams the √k bound admits).  A
            # one-time replay records no spend, so only a charge that
            # would actually land is checked.
            will_record = not (decl.is_one_time and self.ledger.is_charged(key))
            if will_record and (
                self.ledger.epsilon_cap is not None
                or self.ledger.delta_cap is not None
            ):
                eps_adv, delta_adv = self.ledger.total_advanced(
                    self.delta_slack, extra=(decl,)
                )
                eps_cap = self.ledger.epsilon_cap
                if eps_cap is not None and eps_adv > eps_cap + 1e-12:
                    raise BudgetExceededError(
                        f"window {window_label} would raise the advanced-"
                        f"composition ε to {eps_adv:.6g} > cap {eps_cap:.6g}"
                    )
                delta_cap = self.ledger.delta_cap
                if delta_cap is not None and delta_adv > delta_cap + 1e-18:
                    raise BudgetExceededError(
                        f"window {window_label} would raise the advanced-"
                        f"composition δ to {delta_adv:.3g} > cap {delta_cap:.3g}"
                    )
            self.ledger.charge(
                decl, label=window_label, group=group, key=key,
                enforce_cap=False,
            )
            return
        self.ledger.charge(decl, label=window_label, group=group, key=key)

    def _totals(self) -> tuple[float, float]:
        """The stream's (ε, δ) trajectory under its composition rule."""
        if self.composition == "advanced":
            return self.ledger.total_advanced(self.delta_slack)
        return self.ledger.total_epsilon, self.ledger.total_delta

    # -- geometry -----------------------------------------------------------

    @property
    def watermark(self) -> float:
        """Completeness frontier of the newest timestamp seen so far."""
        return self.spec.watermark(self._max_event_time)

    @property
    def late_reports(self) -> int:
        """Reports that arrived after their pane sealed (counted, not absorbed)."""
        return self._late

    @property
    def total_users(self) -> int:
        """Reports absorbed since the stream started (late ones excluded)."""
        return self._absorbed

    @property
    def pane_count(self) -> int:
        """Live pane accumulators (open panes + panes held in the store)."""
        return self._store.count + self._geometry.open_count()

    @property
    def coalesced_panes(self) -> int:
        """Open panes merged away by late bridging reports (sessions only)."""
        return self._geometry.merged_panes

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Cumulative CPU seconds per pipeline stage (route/charge/absorb/snapshot)."""
        return dict(self._stage_seconds)

    @property
    def snapshots(self) -> list[StreamSnapshot]:
        """Windows emitted so far (one per sealed pane, in clock order)."""
        return list(self._snapshots)

    # -- collection ---------------------------------------------------------

    def absorb(self, timed: TimedReports) -> "EventTimeCollector":
        """Route one arriving envelope, then advance the watermark.

        Reports are classified against the watermark as of the
        *previous* envelope (an envelope is one arrival: its own
        reports are never late relative to each other), absorbed into
        their panes, and then the envelope's maximum timestamp advances
        the watermark — sealing every pane it passed and emitting their
        windows.
        """
        if self._finished:
            raise ValueError("stream already finished")
        if not isinstance(timed, TimedReports):
            raise TypeError(
                "EventTimeCollector.absorb takes TimedReports "
                f"(got {type(timed).__name__}); wrap the batch with its "
                "event timestamps"
            )
        if len(timed) == 0:
            return self
        self._geometry.ingest(timed)
        self._max_event_time = max(
            self._max_event_time, float(timed.timestamps.max())
        )
        self._geometry.seal_past_watermark()
        return self

    def charge_for(self, timestamps) -> "EventTimeCollector":
        """Charge every window the given event times will land in, atomically.

        Window identity depends only on the timestamps, so a driver can
        refuse an over-budget window *before* privatizing its clients:
        call this with the chunk's event times, then privatize and
        ``absorb`` — which finds the windows already charged.  Sealed
        panes — and times at or below a session stream's sealed horizon
        (would-be late reports) — charge nothing.  For session specs
        the charge is a commitment: the sessions the times imply open
        (empty) and implied merges are applied, so the charged window
        identities exist from this moment.
        """
        ts = np.atleast_1d(np.asarray(timestamps, dtype=np.float64))
        if ts.shape[0] == 0:
            return self
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        self._geometry.precharge(ts)
        return self

    def _record_snapshot(
        self, *, index, start, end, window_users, window_est, t0
    ) -> None:
        """Emit one sealed window (cumulative view over everything live).

        Seals and evictions only move panes between open, sealed and
        retired, so the cumulative view changes only when reports are
        absorbed: it is merged once per absorbed state, not once per
        pane of a seal cascade, and each snapshot gets its own copy.
        """
        if self._cumulative is None or self._cumulative[0] != self._absorbed:
            self._cumulative = (
                self._absorbed,
                *_merged_estimates(
                    [
                        self._store.retired,
                        *self._store.window_components(),
                        *self._geometry.open_accumulators(),
                    ]
                ),
            )
        _, cumulative_users, cumulative = self._cumulative
        if cumulative is not None:
            cumulative = cumulative.copy()
        if self.spec.kind == "cumulative":
            window_users, window_est = cumulative_users, cumulative
        t1 = time.perf_counter()
        self._stage_seconds["snapshot"] += t1 - t0
        eps, delta = self._totals()
        self._snapshots.append(
            StreamSnapshot(
                window_index=index,
                window_users=window_users,
                total_users=cumulative_users,
                window_estimates=window_est,
                cumulative_estimates=cumulative,
                snapshot_seconds=t1 - t0,
                total_epsilon=eps,
                total_delta=delta,
                pane_count=self.pane_count,
                window_start=start,
                window_end=end,
                late_reports=self._late,
            )
        )

    def finish(self) -> StreamResult:
        """End of stream: seal every remaining pane and return the result.

        The watermark jumps to +∞ — no more data is coming, so every
        open pane (or session) is complete by definition — and the
        remaining windows are emitted in clock order.
        """
        if not self._finished:
            self._max_event_time = math.inf
            self._geometry.seal_past_watermark(everything=True)
            self._finished = True
        return StreamResult(
            self._snapshots,
            self.ledger,
            self.spec,
            absorbed_reports=self._absorbed,
            late_reports=self._late,
            composition=self.composition,
            coalesced_panes=self._geometry.merged_panes,
            stage_seconds=self._stage_seconds,
        )


def _arrival_slices(spec: WindowSpec, n: int, chunk_size: int):
    """The arrival slices ``[a, b)`` a driver materializes, in order.

    Event specs walk one global chunk grid.  Count specs restart the
    grid at every pane start and additionally cut a gapped period at
    its window/gap boundary, so a privatizing materializer consumes its
    RNG stream in exactly those slices.
    """
    if spec.is_event_time:
        for a in range(0, n, chunk_size):
            yield a, min(a + chunk_size, n)
        return
    pane = spec.pane_size
    in_window = int(spec.size) if spec.is_gapped else pane
    for p_start in range(0, n, pane):
        p_end = min(p_start + pane, n)
        boundary = p_start + in_window
        for a in range(p_start, p_end, chunk_size):
            b = min(a + chunk_size, p_end)
            if a < boundary < b:
                yield a, boundary
                yield boundary, b
            else:
                yield a, b


#: Rows :func:`_drive_stream` may hold unfolded: the default
#: ``chunk_size``, so two full slices never join.
_COALESCE_ROWS = 65_536


def _drive_stream(
    oracle, spec, materialize, ts, chunk_size, **collector_kwargs
) -> StreamResult:
    """Feed arrival-order slices as timed envelopes; flush at end of input.

    ``materialize(a, b)`` produces the report batch for arrival slice
    ``[a, b)`` and is called with strictly increasing, disjoint slices.
    Pane identities come from the timestamps alone, so each slice's
    panes are charged *before* it is materialized — a capped ledger
    refuses the window, not the already-randomized reports.  Slices
    fold together while :meth:`_PaneGeometry.quiet_between` holds,
    asked before each slice's charge, so every output equals one fold
    per slice.
    """
    collector = EventTimeCollector(oracle, spec, **collector_kwargs)
    quiet = collector._geometry.quiet_between
    batch, rows, newest = [], 0, -math.inf
    for a, b in _arrival_slices(spec, ts.shape[0], chunk_size):
        if batch and (
            rows + (b - a) > _COALESCE_ROWS
            or not quiet(collector.watermark, spec.watermark(newest))
        ):
            collector.absorb(concat_timed_reports(batch))
            batch, rows = [], 0
        collector.charge_for(ts[a:b])
        batch.append(TimedReports(ts[a:b], materialize(a, b)))
        rows += b - a
        newest = max(newest, float(ts[a:b].max()))
    collector.absorb(concat_timed_reports(batch))
    return collector.finish()


def _check_timestamps(spec, timestamps, n):
    """Each report's clock reading: aligned event times, or its ordinal.

    Event specs need one finite timestamp per report; count specs
    refuse them and stamp the arrival ordinals ``0 .. n-1`` instead.
    """
    if spec.is_event_time:
        if timestamps is None:
            raise ValueError(
                f"{spec.kind!r} windows need timestamps (one event time per report)"
            )
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.shape != (n,):
            raise ValueError(
                f"timestamps {ts.shape} must align with the {n} reports"
            )
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
        return ts
    if timestamps is not None:
        raise ValueError(
            "timestamps only apply to event-time windows; use "
            "WindowSpec.event_tumbling / .event_sliding / .session"
        )
    return np.arange(n, dtype=np.float64)


def stream_collection(
    oracle,
    values: np.ndarray,
    *,
    window_size: int | None = None,
    chunk_size: int = 65_536,
    rng: np.random.Generator | int | None = None,
    window: WindowSpec | None = None,
    timestamps: np.ndarray | None = None,
    ledger: PrivacyLedger | None = None,
    user_model: str = "same_users",
    composition: str = "basic",
    delta_slack: float = 1e-9,
) -> StreamResult:
    """Drive a whole population through a simulated arrival stream.

    Users arrive in ``values`` order, privatized in bounded-memory
    chunks of at most ``chunk_size`` — the same memory discipline as
    the sharded pipeline; at most 65,536 reports (one chunk, if larger)
    wait unfolded, plus their copy while they fold.  Chunks are wrapped in
    :class:`~repro.core.timed.TimedReports` envelopes and routed by an
    :class:`EventTimeCollector`; the stream is flushed at end of input.

    **Count-time windows** (``window_size`` or a count-time
    ``WindowSpec``): each user's timestamp is their arrival ordinal, so
    every pane's worth of users (``window_size`` for
    tumbling/cumulative, ``stride`` for sliding — the last pane may be
    short) closes one window and emits a snapshot.  A gapped sliding
    spec (``stride > size``) absorbs each period's first ``size`` users
    into the window and the rest into the cumulative view only.

    **Event-time windows** (an event-time ``WindowSpec`` plus
    ``timestamps``, one event time per user in arrival order):
    out-of-order and late arrivals land in their event-time pane or are
    counted late per the spec's ``allowed_lateness``.

    ``ledger``, ``user_model`` and ``composition`` configure the
    accounting (see the module docstring).  Returns a
    :class:`StreamResult` — one snapshot per closed window plus the
    populated ledger; the final snapshot's cumulative estimates equal
    the one-shot batch estimate over the identical absorbed reports,
    bit-identically.
    """
    if window is not None and window_size is not None:
        raise ValueError("pass either window_size or window, not both")
    if window is None:
        if window_size is None:
            raise ValueError("one of window_size or window is required")
        spec = WindowSpec.tumbling(window_size)
    else:
        spec = window
    check_positive_int(chunk_size, name="chunk_size")
    vals = np.asarray(values)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    n = int(vals.shape[0])
    ts = _check_timestamps(spec, timestamps, n)
    gen = ensure_generator(rng)

    def materialize(a: int, b: int):
        reports = oracle.privatize(vals[a:b], rng=gen)
        return reports  # the accumulators are the only surviving state

    return _drive_stream(
        oracle,
        spec,
        materialize,
        ts,
        chunk_size,
        ledger=ledger,
        user_model=user_model,
        composition=composition,
        delta_slack=delta_slack,
    )


def stream_reports(
    oracle,
    reports,
    *,
    window: WindowSpec,
    timestamps: np.ndarray | None = None,
    chunk_size: int = 65_536,
    ledger: PrivacyLedger | None = None,
    user_model: str = "same_users",
    composition: str = "basic",
    delta_slack: float = 1e-9,
) -> StreamResult:
    """Drive an already-privatized report batch through the window engine.

    The systems whose privacy argument lives on the *client* (RAPPOR's
    permanent bits, Microsoft's memoized responses) privatize up front
    and replay; the server only ever windows report batches.  This
    driver is :func:`stream_collection` for that shape: ``reports`` is
    any report batch the ``oracle``'s accumulator absorbs, fed to the
    collector in arrival-order slices of ``chunk_size``
    (:func:`~repro.core.timed.slice_report_batch` understands every
    batch type in the repo).  With an event-time ``window``,
    ``timestamps`` (one per report, arrival order) route each slice
    through the watermark machinery; count-time windows close every
    ``pane_size`` reports exactly like :func:`stream_collection`.
    """
    check_positive_int(chunk_size, name="chunk_size")
    n = batch_length(reports)
    if n == 0:
        raise ValueError("reports must hold at least one report")
    ts = _check_timestamps(window, timestamps, n)
    index = np.arange(n)

    def materialize(a: int, b: int):
        return slice_report_batch(reports, index[a:b])

    return _drive_stream(
        oracle,
        window,
        materialize,
        ts,
        chunk_size,
        ledger=ledger,
        user_model=user_model,
        composition=composition,
        delta_slack=delta_slack,
    )

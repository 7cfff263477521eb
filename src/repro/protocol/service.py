"""Multi-machine collection service: asyncio ingest tier + combiner daemon.

The deployments the paper surveys do not fold a population on one
machine: a *fleet* of collectors each ingests a slice of the report
stream, folds it locally into mergeable accumulators, and ships compact
summaries to a combiner that owns the fleet-wide estimates.  This module
is that topology, runnable on real sockets:

* **clients** (:func:`feed_envelopes`) send privatized report envelopes
  — length-prefixed frames carrying a :class:`~repro.core.timed.TimedReports`
  batch plus a dedup key — over TCP with credit-based flow control;
* **ingest workers** (:class:`IngestDaemon`) coalesce the envelopes
  queued on a link, judge each envelope's lateness against their own
  watermark as one event-time collector per shard would, fold the
  batch's on-time reports into per-envelope, per-pane accumulators with
  one keyed absorb (riding the fused decode kernels and the kernel plan
  cache), never keeping raw reports, and ship the partials to the
  combiner as stacked state rows with each envelope's late count;
* the **combiner** (:class:`CombinerDaemon`) checks each ship's
  configuration fingerprint and layout, merges its rows through the
  exact accumulator algebra, tracks each worker's event-time frontier
  and advances the fleet watermark as the *minimum* over live frontiers
  (:func:`~repro.core.timed.merged_watermark`), sealing event-time panes
  only when every shard has moved past them.

Because lateness is judged where a shard's report order is known, a
windowed run's estimates, windows and late count are a function of its
inputs: they do not move with how envelopes were coalesced into ships,
when ships arrived, or which backend ran the workers.

Delivery is **at least once**: a client keeps an envelope until the
worker acks it, and the worker acks only after the combiner acked the
shipped partials (an end-to-end ack).  Anything can therefore arrive
twice — a client retry after a lost ack, a restarted worker refolding
resent envelopes — and correctness comes from dedup keys, not from
transport guarantees: the worker drops envelope ids it has already
folded, and the combiner (the single source of truth) drops envelope ids
it has already merged.  Because the accumulator algebra is exact and
merge-order free, the surviving fold is **bit-identical** to a
single-host :func:`~repro.protocol.simulation.run_sharded_collection`
over the same privatized reports, no matter how delivery was duplicated,
reordered or interrupted.

The pure logic (dedup, lateness, pane folding, watermark merge,
sealing) lives in :class:`ShardFolder` and :class:`CombinerCore`,
which never touch a socket — the daemons are thin asyncio shells around
them, and unit tests drive the cores directly.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.core.budget import PrivacyLedger
from repro.core.mechanism import FrequencyOracle
from repro.core.serialization import TruncatedFrameError
from repro.core.timed import (
    TimedReports,
    batch_length,
    concat_report_batches,
    merged_watermark,
    slice_report_batch,
)
from repro.protocol.chaos import FaultPlan, FrameFilter, WorkerFault, chaos_unit
from repro.protocol.simulation import _plan_shards
from repro.protocol.streaming import WindowSpec
from repro.protocol.transport import (
    CheckpointError,
    decode_checkpoint,
    encode_checkpoint,
    pack_timed_reports,
    read_message,
    unpack_timed_reports,
    write_message,
)
from repro.util.client import _chunks
from repro.util.validation import check_positive_int

__all__ = [
    "DEFAULT_CREDIT_WINDOW",
    "SERVICE_BACKENDS",
    "ServiceError",
    "RetryPolicy",
    "ShipPayload",
    "ShardFolder",
    "SealedWindow",
    "WorkerServiceStats",
    "CombinerCore",
    "ServiceResult",
    "CombinerDaemon",
    "IngestDaemon",
    "feed_envelopes",
    "run_distributed_collection",
]

#: Envelopes a client may have in flight (sent, not yet acked) at once.
#: Advertised by the worker in its hello message; the client's send
#: window is the backpressure mechanism — a slow worker acks slowly and
#: the client stops sending instead of ballooning the worker's buffers.
DEFAULT_CREDIT_WINDOW = 8

#: Execution backends for :func:`run_distributed_collection`: ``"inline"``
#: runs every daemon in one event loop (fast, deterministic, debuggable);
#: ``"process"`` spawns each ingest worker as a real OS process talking
#: TCP to the combiner — the multi-machine shape on one host.
SERVICE_BACKENDS = ("inline", "process")


class ServiceError(RuntimeError):
    """The collection service could not complete (protocol or delivery)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded reconnect/reship policy with exponential backoff and jitter.

    Jitter exists for recovery storms: when a combiner restarts, every
    worker's link died at the same instant, and un-jittered exponential
    backoff would march the whole fleet back in lockstep — each retry
    wave arriving as one thundering herd against a daemon still
    restoring its checkpoint.  ``delay`` therefore scales the capped
    exponential backoff by ``1 - jitter * u`` with ``u ∈ [0, 1)``.

    **Determinism contract**: ``u`` is :func:`~repro.protocol.chaos.chaos_unit`
    over ``(salt, key, attempt)`` — no RNG stream, no wall clock — so the
    same ``(salt, key, attempt)`` always yields the same delay, replays
    of a seeded chaos run back off identically, and the jittered delay
    never exceeds the un-jittered cap.  Callers de-synchronize a fleet
    by passing a distinct ``key`` per retrier (the daemons pass their
    worker id); a chaos run seeds ``salt`` from its
    :class:`~repro.protocol.chaos.FaultPlan`.
    """

    attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5
    salt: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter!r}")

    def delay(self, attempt: int, key: object = None) -> float:
        """Backoff before retry ``attempt`` (0-based), capped, jittered."""
        base = min(self.base_delay * (2.0**attempt), self.max_delay)
        if not self.jitter:
            return base
        return base * (1.0 - self.jitter * chaos_unit(self.salt, "retry", key, int(attempt)))


def _check_window(window: WindowSpec | None) -> WindowSpec | None:
    if window is None:
        return None
    if not isinstance(window, WindowSpec) or window.kind != "event_tumbling":
        raise ValueError(
            "the collection service windows by event_tumbling specs; got "
            f"{getattr(window, 'kind', window)!r}"
        )
    return window


# -- pure cores --------------------------------------------------------------


@dataclass(frozen=True)
class ShipPayload:
    """One fold batch, ready to cross the worker → combiner wire.

    The batch's ``P`` pane partials travel as *stacked state rows*, not
    one serialized accumulator each:

    * ``rows`` maps each accumulator state array to one read-only
      ``(P, *shape)`` array (:meth:`~repro.core.mechanism.Accumulator.stack_rows`);
    * ``n`` is the int64 vector of each partial's report count;
    * ``pane_indices`` is the int64 vector of each partial's tumbling
      pane index (negative indices are valid), and ``None`` when the
      service runs unwindowed;
    * ``sections`` holds one ``(envelope_id, partial count)`` entry per
      client envelope folded into the batch, in arrival order — the
      envelope's partials are the next ``count`` rows.  An empty
      envelope, or one whose reports were all late, has a section with
      no partials;
    * ``late`` holds one count per section: the envelope's reports the
      worker judged late and dropped before the fold;
    * ``kind`` and ``config`` are the accumulator class name and
      configuration fingerprint, once per ship, which the combiner
      checks as :meth:`~repro.core.mechanism.Accumulator.from_bytes`
      checks a payload's.

    ``frontier`` is the worker's event-time frontier *after* folding the
    batch — ``None`` until the worker has seen any event-time data.

    A batch is the client envelopes the ingest daemon found queued on
    one link; ``envelope_id`` — the ship's ack key — is the ``"+"`` join
    of the member ids.  The joined key is **not** a dedup key: batch
    grouping is not stable across worker restarts (a respawned worker
    refolds whichever envelopes its clients still held unacked, grouped
    differently), so the combiner dedups per *member* id instead.
    Keeping each member's partials and late count in their own section
    is what makes that possible — the combiner drops exactly the
    already-merged members and merges the rest.  The arrays make the
    payload unfit for ``==``; compare its fields.
    """

    worker_id: int
    envelope_id: str
    frontier: float | None
    num_reports: int
    sections: tuple[tuple[str, int], ...]
    late: tuple[int, ...]
    kind: str
    config: dict
    rows: dict[str, np.ndarray]
    n: np.ndarray
    pane_indices: np.ndarray | None = None

    @property
    def envelope_ids(self) -> tuple[str, ...]:
        """Member envelope ids, in arrival order."""
        return tuple(eid for eid, _ in self.sections)


class ShardFolder:
    """One ingest worker's pure fold state: dedup, lateness, pane split, frontier.

    ``offer_batch`` is the whole worker-side algorithm: drop an envelope
    id already folded (at-least-once delivery makes redelivery normal,
    not exceptional), judge each envelope's reports against the folder's
    own watermark, group the batch's on-time reports by (envelope,
    event-time pane) in one stable sort, and fold every member's
    panes into *fresh* accumulators with one keyed absorb
    (:meth:`~repro.core.mechanism.Accumulator.absorb_segments` — one
    decode pass per batch, however many envelopes and panes it spans).
    The ship carries those partials as stacked state rows with the
    configuration fingerprint, computed once per folder.  The folder
    never keeps report batches — only the dedup set, the frontier and
    running counters.
    """

    def __init__(
        self,
        oracle: FrequencyOracle,
        worker_id: int = 0,
        *,
        window: WindowSpec | None = None,
    ) -> None:
        self._oracle = oracle
        self.worker_id = int(worker_id)
        self._window = _check_window(window)
        self._template = oracle.accumulator()
        self._config = self._template.config_fingerprint()
        self._seen: set[str] = set()
        self._frontier: float | None = None
        self.envelopes = 0
        self.duplicates = 0
        self.reports = 0
        self.batches = 0
        self.route_seconds = 0.0
        self.absorb_seconds = 0.0

    @property
    def frontier(self) -> float | None:
        """Largest event timestamp folded so far (None without event data)."""
        return self._frontier

    def resume(self, frontier: float | None) -> None:
        """Raise the frontier to one the combiner recorded for this worker.

        A restarted worker passes the combiner's answer to its
        ``register`` (:meth:`CombinerCore.register`): the frontier after
        the last ship the combiner received from it.  Envelopes the
        client resends are then judged as in a crash-free run.  The
        frontier never moves backwards.
        """
        if frontier is not None and (
            self._frontier is None or frontier > self._frontier
        ):
            self._frontier = float(frontier)

    def offer(self, envelope_id: str, payload: Any) -> ShipPayload | None:
        """Fold one envelope; ``None`` when its id was already folded."""
        ship, _flags = self.offer_batch([(envelope_id, payload)])
        return ship

    def offer_batch(
        self, items: list[tuple[str, Any]]
    ) -> tuple[ShipPayload | None, list[bool]]:
        """Fold several envelopes as one coalesced batch.

        Dedup is per envelope: an id already folded (or repeated within
        the batch) is dropped and flagged.  Lateness is judged per
        envelope, in order, as one
        :class:`~repro.protocol.streaming.EventTimeCollector` judges its
        stream: a report is late when its pane ends at or below the
        folder's frontier *before* that envelope minus the allowed
        lateness, and only then does the envelope's maximum timestamp
        advance the frontier.  Late reports are dropped before the fold
        and counted in their envelope's section.

        The fresh envelopes are routed in one pass: one ``pane_index``
        over their concatenated timestamps, each envelope's lateness mark
        from a running maximum of the earlier envelopes' newest reports,
        and one stable sort by (envelope, pane).  Every fresh envelope
        still keeps its *own* per-pane partials, one ship section per
        envelope, so the combiner can keep deduping per member id even
        when a worker restart regroups redelivered envelopes into
        different batches; the batch folds them all with one keyed absorb
        over the members' pane segments, bit-identical to one fold per
        member.  Returns the coalesced ship (``None`` when every envelope
        was a duplicate) plus one duplicate flag per offered item, in
        order — exactly the flags the batch's ack frame carries.
        """
        flags: list[bool] = []
        fresh: list[tuple[str, Any]] = []
        batch_ids: set[str] = set()
        dup_count = 0
        for envelope_id, payload in items:
            envelope_id = str(envelope_id)
            if envelope_id in self._seen or envelope_id in batch_ids:
                dup_count += 1
                flags.append(True)
                continue
            batch_ids.add(envelope_id)
            fresh.append((envelope_id, payload))
            flags.append(False)
        if not fresh:
            self.duplicates += dup_count
            return None, flags
        n_timed = sum(isinstance(p, TimedReports) for _, p in fresh)
        if n_timed and n_timed != len(fresh):
            raise ValueError(
                "cannot coalesce timed and raw report envelopes in one batch"
            )
        if not n_timed and self._window is not None:
            raise ValueError(
                "a windowed service needs timed envelopes; got a raw "
                f"{type(fresh[0][1]).__name__} batch"
            )
        # Count the flagged ids only now that the batch is accepted: a
        # refused batch (mixed shapes) leaves every offered id unfolded
        # and retryable, so nothing may have been counted for it.
        self.duplicates += dup_count
        t0 = time.perf_counter()
        window = self._window
        members = [payload.reports if n_timed else payload for _, payload in fresh]
        sizes = np.array([batch_length(reports) for reports in members], dtype=np.intp)
        owner = np.repeat(np.arange(len(fresh)), sizes)
        keys = np.zeros(owner.shape[0], dtype=np.int64)
        pick = np.arange(owner.shape[0])
        frontier = self._frontier
        if n_timed:
            stamps = np.concatenate([payload.timestamps for _, payload in fresh])
            # highs[i] is the frontier before member i: the folder's,
            # raised by each earlier member's newest report.
            highs = np.full(len(fresh) + 1, -np.inf if frontier is None else frontier)
            filled = np.flatnonzero(sizes)
            if filled.size:
                firsts = np.cumsum(sizes) - sizes
                highs[filled + 1] = np.maximum.reduceat(stamps, firsts[filled])
            np.maximum.accumulate(highs, out=highs)
            if highs[-1] > highs[0]:
                frontier = float(highs[-1])
            if window is not None:
                keys = window.pane_index(stamps)
                marks = highs[:-1] - window.allowed_lateness
                pick = np.flatnonzero(window.pane_bounds(keys)[1] > marks[owner])
        pick = pick[np.lexsort((keys[pick], owner[pick]))]
        owner, keys = owner[pick], keys[pick]
        edge = np.ones(pick.shape[0], dtype=bool)
        edge[1:] = (owner[1:] != owner[:-1]) | (keys[1:] != keys[:-1])
        starts = np.flatnonzero(edge)
        fresh_ids = [envelope_id for envelope_id, _ in fresh]
        sections = list(
            zip(fresh_ids, np.bincount(owner[starts], minlength=len(fresh)).tolist())
        )
        late = (sizes - np.bincount(owner, minlength=len(fresh))).tolist()
        parts = [self._oracle.accumulator() for _ in range(starts.shape[0])]
        if parts:
            batch = slice_report_batch(concat_report_batches(members), pick)
        t1 = time.perf_counter()
        if parts:
            parts[0].absorb_segments(parts, batch, starts)
        counts = np.array([p.n_absorbed for p in parts], dtype=np.int64)
        counts.setflags(write=False)
        pane_indices = None
        if window is not None:
            pane_indices = keys[starts]
            pane_indices.setflags(write=False)
        rows = self._template.stack_rows(parts)
        t2 = time.perf_counter()
        self.route_seconds += t1 - t0
        self.absorb_seconds += t2 - t1
        # Mark seen only after the fold succeeded: a refused batch
        # (mixed shapes, bad payload) leaves every id retryable.
        self._frontier = frontier
        self._seen.update(fresh_ids)
        self.envelopes += len(fresh_ids)
        self.batches += 1
        n = int(counts.sum())
        self.reports += n
        return (
            ShipPayload(
                worker_id=self.worker_id,
                envelope_id="+".join(fresh_ids),
                frontier=self._frontier,
                num_reports=n,
                sections=tuple(sections),
                late=tuple(late),
                kind=type(self._template).__name__,
                config=self._config,
                rows=rows,
                n=counts,
                pane_indices=pane_indices,
            ),
            flags,
        )


@dataclass(frozen=True)
class SealedWindow:
    """One event-time pane the combiner sealed fleet-wide.

    Sealing happened because the *merged* watermark — min over every
    worker's frontier, minus the allowed lateness — passed the pane's
    end, so every worker's own watermark has passed it too: each judges
    any later report for the pane late, and no on-time report can still
    arrive for it.  ``users`` counts the reports folded into the pane
    before sealing, so it equals the sum over one collector per shard.
    A partial that still reaches a sealed pane — only a worker that
    healed after its lease expired ships one — is counted late, never
    merged, so windows seal once each and in pane order.
    """

    pane: int
    start: float
    end: float
    users: int
    estimated_counts: np.ndarray
    merged_frontier: float


@dataclass(frozen=True)
class WorkerServiceStats:
    """One ingest worker's counters, as reported in its drain message.

    ``fold_batches`` counts coalesced fold batches — the envelopes the
    daemon found queued on an idle link, at most the credit window —
    each one ship and one keyed fold; ``route_seconds`` /
    ``absorb_seconds`` break the worker's fold CPU into classification
    (lateness, frontier, pane grouping and reorder) and the keyed fold
    into stacked rows — the worker-side half of the stage story E20
    reports.
    """

    worker_id: int
    envelopes: int
    duplicate_envelopes: int
    reports: int
    ships: int
    reships: int
    shipped_bytes: int
    frontier: float | None
    fold_batches: int = 0
    route_seconds: float = 0.0
    absorb_seconds: float = 0.0


class CombinerCore:
    """The combiner's pure state: dedup, merge, watermark, seal.

    The combiner is the single source of truth for exactly-once
    *effects* on top of at-least-once delivery: dedup is per client
    envelope id (a ship section whose member id was already merged is
    dropped individually, late count and all), so even a ship that
    regroups redelivered envelopes with fresh ones merges each member
    exactly once, and a ship with nothing fresh only advances the
    sender's frontier.  Lateness is judged by the workers, each against
    its own watermark; the combiner adds the late counts of fresh
    sections, merges and seals.  Frontiers are kept as a running **max
    per worker** so a restarted worker can never drag the merged
    watermark backwards, and :meth:`register` hands a restarted worker
    the frontier to resume from; a worker that has drained reports
    ``+inf`` and stops holding the fleet back.  Every expected worker
    starts at ``-inf`` — panes cannot seal before a worker that has not
    yet spoken gets a chance to contribute.

    **Leases** bound how long one silent worker may pin that ``-inf``:
    with ``lease_timeout`` set, every message from a worker (register,
    ship, heartbeat, drain) renews its lease, and :meth:`check_leases`
    *evicts* a worker whose lease expired — its frontier stops counting
    toward the merged watermark, the fleet degrades gracefully instead
    of stalling, and the dead worker's undelivered reports are counted
    ``lost`` by the orchestrator so the fleet invariant stays exact:
    ``absorbed + late + lost == n``.  Any later message from an evicted
    worker heals it (re-joining the expected set); panes already sealed
    during its absence stay sealed, so a healed straggler's reports for
    them count late, never merged.  Time is explicit — every mutator
    takes ``now`` (the daemons pass ``time.monotonic()``, pure tests
    pass logical time) — so liveness is as unit-testable as dedup.

    **Checkpointing**: :meth:`to_checkpoint` serializes the whole state
    (open pane accumulators as their versioned wire bytes, dedup ids,
    frontiers, sealed windows, counters) and :meth:`from_checkpoint`
    rebuilds an equivalent core.  Because delivery is at-least-once and
    dedup is per member envelope id, a combiner restored from *any*
    checkpoint — plus the workers' reships of everything not yet covered
    by it — converges to the bit-identical state of a crash-free run.
    """

    def __init__(
        self,
        oracle: FrequencyOracle,
        num_workers: int,
        *,
        window: WindowSpec | None = None,
        lease_timeout: float | None = None,
        now: float | None = None,
    ) -> None:
        check_positive_int(num_workers, name="num_workers")
        if lease_timeout is not None and not lease_timeout > 0:
            raise ValueError(
                f"lease_timeout must be > 0, got {lease_timeout!r}"
            )
        self._oracle = oracle
        self.num_workers = int(num_workers)
        self._window = _check_window(window)
        self._lease_timeout = (
            None if lease_timeout is None else float(lease_timeout)
        )
        epoch = 0.0 if now is None else float(now)
        self._frontiers: dict[int, float] = {
            w: -math.inf for w in range(self.num_workers)
        }
        self._last_heard: dict[int, float] = {
            w: epoch for w in range(self.num_workers)
        }
        self._registered: set[int] = set()
        self._drained: set[int] = set()
        self._evicted: set[int] = set()
        self._eviction_log: list[tuple[int, float]] = []
        self._seen: set[str] = set()
        self._panes: dict[int, Any] = {}  # open panes (windowed only)
        self._sealed_through: int | None = None  # last sealed pane index
        self._windows: list[SealedWindow] = []
        self._total = oracle.accumulator()
        self._worker_stats: dict[int, WorkerServiceStats] = {}
        self.absorbed = 0
        self.late = 0
        self.lost = 0
        self.duplicates = 0
        self.ships_received = 0

    def _check_worker(self, worker_id: int) -> int:
        worker_id = int(worker_id)
        if not 0 <= worker_id < self.num_workers:
            raise ServiceError(
                f"worker id {worker_id} outside the expected fleet "
                f"[0, {self.num_workers})"
            )
        return worker_id

    def _touch(self, worker_id: int, now: float | None) -> None:
        """Renew a worker's lease; any sign of life heals an eviction."""
        if now is not None:
            self._last_heard[worker_id] = max(
                self._last_heard[worker_id], float(now)
            )
        self._evicted.discard(worker_id)

    def register(self, worker_id: int, now: float | None = None) -> float | None:
        """Admit a worker (idempotent — a restarted worker re-registers).

        Returns the frontier recorded for the worker — the frontier
        after the last ship or heartbeat received from it, ``None``
        before any — which a restarted worker resumes from
        (:meth:`ShardFolder.resume`).
        """
        worker_id = self._check_worker(worker_id)
        self._registered.add(worker_id)
        self._touch(worker_id, now)
        frontier = self._frontiers[worker_id]
        return frontier if math.isfinite(frontier) else None

    def heartbeat(
        self,
        worker_id: int,
        frontier: float | None,
        now: float | None = None,
    ) -> None:
        """A worker's idle-timer liveness signal: lease + frontier advance.

        Carries the worker's current event-time frontier so a shard
        whose clients went quiet does not hold the merged watermark at
        its last ship — panes can seal off heartbeats alone.
        """
        worker_id = self._check_worker(worker_id)
        if worker_id not in self._registered:
            raise ServiceError(
                f"heartbeat from unregistered worker {worker_id}"
            )
        self._touch(worker_id, now)
        if frontier is not None:
            self._frontiers[worker_id] = max(
                self._frontiers[worker_id], float(frontier)
            )
            self._seal()

    def check_leases(self, now: float) -> tuple[int, ...]:
        """Evict workers whose lease expired; returns the newly evicted.

        Only meaningful with ``lease_timeout`` configured.  A drained
        worker needs no lease (its ``+inf`` frontier holds nothing
        back); an already-evicted worker is not re-evicted.  Eviction
        re-runs sealing — removing a dead ``-inf`` frontier is exactly
        what lets the merged watermark advance again.
        """
        if self._lease_timeout is None:
            return ()
        now = float(now)
        newly = tuple(
            w
            for w in range(self.num_workers)
            if w not in self._drained
            and w not in self._evicted
            and now - self._last_heard[w] > self._lease_timeout
        )
        for w in newly:
            self._evicted.add(w)
            self._eviction_log.append((w, now))
        if newly:
            self._seal()
        return newly

    def count_lost(self, reports: int) -> None:
        """Account reports an evicted worker's clients could not deliver.

        Called by the orchestrator with the row count of every envelope
        a client still held unacked when its worker died — the end-to-end
        ack means an unacked envelope was never merged, so these reports
        are *lost*, not absorbed, and ``absorbed + late + lost == n``.
        """
        if reports < 0:
            raise ValueError(f"lost report count must be >= 0, got {reports}")
        self.lost += int(reports)

    def liveness(self, now: float) -> dict[int, dict]:
        """Per-worker liveness snapshot, for diagnostics and eviction logs."""
        now = float(now)
        return {
            w: {
                "frontier": self._frontiers[w],
                "last_heard_age": now - self._last_heard[w],
                "registered": w in self._registered,
                "drained": w in self._drained,
                "evicted": w in self._evicted,
            }
            for w in range(self.num_workers)
        }

    @property
    def evicted_workers(self) -> tuple[int, ...]:
        """Workers ever evicted (healed or not), in first-eviction order."""
        seen: list[int] = []
        for w, _ in self._eviction_log:
            if w not in seen:
                seen.append(w)
        return tuple(seen)

    @property
    def degraded(self) -> bool:
        """Whether any eviction ever happened (healed or not)."""
        return bool(self._eviction_log)

    @property
    def merged_frontier(self) -> float:
        """Fleet event-time frontier: min over live workers' frontiers.

        An evicted worker's frontier stops counting — that is the whole
        point of eviction.  With every worker evicted nothing more can
        arrive, so the frontier is ``+inf`` and every open pane seals.
        """
        live = [
            f for w, f in self._frontiers.items() if w not in self._evicted
        ]
        if not live:
            return math.inf
        return merged_watermark(live)

    @property
    def watermark(self) -> float:
        """Merged frontier minus the window's allowed lateness."""
        lateness = self._window.allowed_lateness if self._window else 0.0
        return self.merged_frontier - lateness

    @property
    def all_drained(self) -> bool:
        """Whether every expected worker drained — or was evicted dead."""
        return len(self._drained | self._evicted) == self.num_workers

    @property
    def sealed_windows(self) -> tuple[SealedWindow, ...]:
        """Panes sealed so far, in seal order."""
        return tuple(self._windows)

    def receive(self, ship: ShipPayload, now: float | None = None) -> bool:
        """Merge one shipped batch; ``False`` when every member was a redelivery.

        All or nothing: the whole ship is validated before any state
        moves — the accumulator kind and configuration fingerprint
        (``ValueError`` on a mismatch, as
        :meth:`~repro.core.mechanism.Accumulator.from_bytes` raises),
        section counts summing to the ``P`` partials, ``n`` as ``P``
        non-negative integers, the pane vector against the window spec,
        and the row layout, checked once per ship.  A ship that fails
        any check leaves dedup ids, counters, frontiers and panes as
        they were, so its intact reship merges in full.

        Dedup is per *member* envelope id, never per ship: batch
        grouping is not stable across worker restarts (a respawned
        worker, its fold state gone, regroups whichever envelopes its
        clients resend into new batches with new joined keys), so each
        section is merged or dropped individually — already-merged
        members count duplicate, fresh members merge exactly once and
        add their late count.  Either way the sender's frontier advances
        (a redelivered ship still proves how far the worker has read)
        and sealing re-runs.  Every merged row is a copy in a fresh
        accumulator; shipped arrays are never adopted, so one ship can
        be received again (a reship after a combiner restore) without
        aliasing state.

        The worker judged lateness; its partials land in open panes,
        because its watermark is never below the merged one (the merged
        frontier is a min that includes the frontier of the worker's
        last ship).  One case breaks that: a worker that heals after its
        lease expired ships partials for panes the fleet sealed without
        it.  Those count late under the collector's rule — the pane's
        end is at or below the watermark before this ship moved it, or
        its index is at or below the last sealed pane.
        """
        worker_id = self._check_worker(ship.worker_id)
        if worker_id not in self._registered:
            raise ServiceError(
                f"ship from unregistered worker {worker_id}; a worker must "
                "register before shipping"
            )
        parts, panes = self._checked_partials(ship)
        frontier = None if ship.frontier is None else float(ship.frontier)
        self._touch(worker_id, now)
        self.ships_received += 1
        mark = self.watermark
        if frontier is not None:
            self._frontiers[worker_id] = max(self._frontiers[worker_id], frontier)
        fresh = False
        end = 0
        for (envelope_id, count), late in zip(ship.sections, ship.late):
            begin, end = end, end + count
            if envelope_id in self._seen:
                self.duplicates += 1
                continue
            self._seen.add(envelope_id)
            fresh = True
            self.late += late
            for pane, part in zip(panes[begin:end], parts[begin:end]):
                if self._is_sealed(pane, mark):
                    # A healed worker's straggler for a pane sealed
                    # without it: *counted* (absorbed + late == n stays
                    # exact) but its reports never reach estimates.
                    self.late += part.n_absorbed
                    continue
                if pane is not None:
                    held = self._panes.get(pane)
                    if held is None:
                        self._panes[pane] = part
                    else:
                        held.merge(part)
                self._total.merge(part)
                self.absorbed += part.n_absorbed
        self._seal()
        return fresh

    def _checked_partials(
        self, ship: ShipPayload
    ) -> tuple[list[Any], list[int | None]]:
        """A ship's partials as fresh accumulators plus their panes.

        Raises before anything is merged: ``ValueError`` for a foreign
        configuration or a malformed layout (the late vector included),
        :class:`ServiceError` when worker and combiner disagree on the
        window spec.
        """
        self._total._check_fingerprint(ship.kind, ship.config, "ship")
        parts = self._total.unstack_rows(ship.rows, ship.n)
        counts = [count for _, count in ship.sections]
        if not all(type(c) is int and c >= 0 for c in counts) or sum(
            counts
        ) != len(parts):
            raise ValueError(
                f"ship sections count {counts!r:.80} partials, its n vector "
                f"holds {len(parts)}"
            )
        late = ship.late
        if (
            not isinstance(late, tuple)
            or len(late) != len(counts)
            or not all(type(c) is int and c >= 0 for c in late)
        ):
            raise ValueError(
                f"ship late vector {late!r:.80} does not hold one "
                f"non-negative count for each of its {len(counts)} sections"
            )
        windowed = ship.pane_indices is not None
        if parts and windowed != (self._window is not None):
            raise ServiceError(
                f"{'windowed' if windowed else 'unwindowed'} partials shipped "
                "to a combiner that is not; worker and combiner disagree on "
                "the window spec"
            )
        if not windowed:
            return parts, [None] * len(parts)
        panes = np.asarray(ship.pane_indices)
        if panes.shape != (len(parts),) or (
            panes.size and not np.issubdtype(panes.dtype, np.integer)
        ):
            raise ValueError(
                f"ship pane vector is {panes.dtype} {panes.shape}, expected "
                f"{len(parts)} integer pane indices"
            )
        return parts, panes.astype(np.int64).tolist()

    def drain(
        self,
        worker_id: int,
        stats: WorkerServiceStats | None = None,
        now: float | None = None,
    ) -> None:
        """A worker finished: frontier → +inf, stop holding the fleet back."""
        worker_id = self._check_worker(worker_id)
        self._touch(worker_id, now)
        self._frontiers[worker_id] = math.inf
        self._drained.add(worker_id)
        if stats is not None:
            self._worker_stats[worker_id] = stats
        self._seal()

    def _is_sealed(self, pane: int | None, mark: float) -> bool:
        """Whether ``pane`` is sealed under the watermark ``mark``."""
        if pane is None or self._window is None:
            return False
        if self._sealed_through is not None and pane <= self._sealed_through:
            return True
        return self._window.pane_bounds(pane)[1] <= mark

    def _seal(self) -> None:
        """Seal every open pane whose end the merged watermark passed."""
        if self._window is None or not self._panes:
            return
        mark = self.watermark
        ready = sorted(
            k for k in self._panes if self._window.pane_bounds(k)[1] <= mark
        )
        for pane in ready:
            acc = self._panes.pop(pane)
            start, end = self._window.pane_bounds(pane)
            if self._sealed_through is None or pane > self._sealed_through:
                self._sealed_through = pane
            self._windows.append(
                SealedWindow(
                    pane=pane,
                    start=start,
                    end=end,
                    users=acc.n_absorbed,
                    estimated_counts=acc.finalize(),
                    merged_frontier=self.merged_frontier,
                )
            )

    def result(self) -> "ServiceResult":
        """The fleet-wide outcome; every worker drained or was evicted."""
        if not self.all_drained:
            missing = sorted(
                set(range(self.num_workers)) - self._drained - self._evicted
            )
            raise ServiceError(f"workers {missing} have not drained")
        estimates = self._total.finalize() if self.absorbed else None
        workers = tuple(
            self._worker_stats[w] for w in sorted(self._worker_stats)
        )
        return ServiceResult(
            estimated_counts=estimates,
            windows=tuple(self._windows),
            absorbed_reports=self.absorbed,
            late_reports=self.late,
            duplicate_envelopes=self.duplicates,
            num_workers=self.num_workers,
            merged_frontier=self.merged_frontier,
            workers=workers,
            degraded=self.degraded,
            evicted_workers=self.evicted_workers,
            lost_reports=self.lost,
        )

    # -- checkpointing -------------------------------------------------------

    def _window_fingerprint(self) -> list | None:
        """The window identity a checkpoint is only valid against."""
        if self._window is None:
            return None
        w = self._window
        return [w.kind, w.size, w.stride, w.allowed_lateness, w.origin, w.gap]

    def to_checkpoint(self) -> bytes:
        """Serialize the whole combiner state to one restorable blob.

        Rides the existing versioned codecs: the blob is a
        :func:`~repro.protocol.transport.encode_checkpoint` message whose
        arrays hold each open pane accumulator's (and the running
        total's) wire bytes — config-fingerprint checked on restore —
        plus each sealed window's estimate vector.  Everything else
        (dedup ids, frontiers, lease/eviction state, counters, worker
        stats) travels in the JSON header.  Lease *ages* are deliberately
        not captured: ``_last_heard`` is in the writing process's
        monotonic clock, meaningless after a restart, so
        :meth:`from_checkpoint` re-baselines every undrained lease at
        restore time.
        """
        arrays: dict[str, np.ndarray] = {
            "total": np.frombuffer(self._total.to_bytes(), dtype=np.uint8)
        }
        panes = []
        for i, (pane, acc) in enumerate(self._panes.items()):
            name = f"pane{i}"
            arrays[name] = np.frombuffer(acc.to_bytes(), dtype=np.uint8)
            panes.append([pane, name])
        windows = []
        for i, sealed in enumerate(self._windows):
            name = f"win{i}"
            arrays[name] = np.asarray(sealed.estimated_counts)
            windows.append(
                {
                    "pane": sealed.pane,
                    "start": sealed.start,
                    "end": sealed.end,
                    "users": sealed.users,
                    "merged_frontier": sealed.merged_frontier,
                    "counts": name,
                }
            )
        stats = [
            [w, asdict(s)] for w, s in sorted(self._worker_stats.items())
        ]
        header = {
            "num_workers": self.num_workers,
            "window": self._window_fingerprint(),
            "frontiers": [[w, f] for w, f in sorted(self._frontiers.items())],
            "registered": sorted(self._registered),
            "drained": sorted(self._drained),
            "evicted": sorted(self._evicted),
            "evictions": [[w, at] for w, at in self._eviction_log],
            "seen": sorted(self._seen),
            "sealed": (
                [] if self._sealed_through is None else [self._sealed_through]
            ),
            "panes": panes,
            "windows": windows,
            "worker_stats": stats,
            "counters": {
                "absorbed": self.absorbed,
                "late": self.late,
                "lost": self.lost,
                "duplicates": self.duplicates,
                "ships_received": self.ships_received,
            },
        }
        return encode_checkpoint(header, arrays)

    @classmethod
    def from_checkpoint(
        cls,
        oracle: FrequencyOracle,
        data: bytes,
        *,
        window: WindowSpec | None = None,
        lease_timeout: float | None = None,
        now: float | None = None,
    ) -> "CombinerCore":
        """Rebuild a combiner core from a :meth:`to_checkpoint` blob.

        The caller supplies the oracle and window spec it *believes* the
        checkpoint was written under; a mismatched window fingerprint or
        accumulator config fingerprint raises
        :class:`~repro.protocol.transport.CheckpointError` rather than
        resuming with silently wrong semantics.  All undrained leases
        are re-baselined at ``now`` — a restored combiner gives every
        worker a full fresh lease to reconnect before eviction.
        """
        header, arrays = decode_checkpoint(data)
        core = cls(
            oracle,
            int(header["num_workers"]),
            window=window,
            lease_timeout=lease_timeout,
            now=now,
        )
        expected = core._window_fingerprint()
        found = header.get("window")
        if found != expected:
            raise CheckpointError(
                f"checkpoint was written under window {found!r} but the "
                f"restoring combiner is configured with {expected!r}"
            )
        try:
            core._total = oracle.accumulator().from_bytes(
                arrays["total"].tobytes()
            )
            for pane, name in header["panes"]:
                if pane is None:
                    # Older checkpoints of an unwindowed combiner carry
                    # its partials twice: this pane equals the total.
                    continue
                core._panes[int(pane)] = oracle.accumulator().from_bytes(
                    arrays[name].tobytes()
                )
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint accumulators do not match this oracle: {exc}"
            ) from exc
        core._frontiers = {
            int(w): float(f) for w, f in header["frontiers"]
        }
        core._registered = {int(w) for w in header["registered"]}
        core._drained = {int(w) for w in header["drained"]}
        core._evicted = {int(w) for w in header["evicted"]}
        core._eviction_log = [
            (int(w), float(at)) for w, at in header["evictions"]
        ]
        core._seen = set(header["seen"])
        # The sealed-through index travels as a one-element list; older
        # checkpoints list every sealed pane, whose max is the same index.
        sealed = [int(p) for p in header["sealed"] if p is not None]
        core._sealed_through = max(sealed, default=None)
        for entry in header["windows"]:
            core._windows.append(
                SealedWindow(
                    pane=int(entry["pane"]),
                    start=float(entry["start"]),
                    end=float(entry["end"]),
                    users=int(entry["users"]),
                    estimated_counts=arrays[entry["counts"]],
                    merged_frontier=float(entry["merged_frontier"]),
                )
            )
        for w, fields in header["worker_stats"]:
            core._worker_stats[int(w)] = WorkerServiceStats(**fields)
        counters = header["counters"]
        core.absorbed = int(counters["absorbed"])
        core.late = int(counters["late"])
        core.lost = int(counters["lost"])
        core.duplicates = int(counters["duplicates"])
        core.ships_received = int(counters["ships_received"])
        return core


@dataclass(frozen=True)
class ServiceResult:
    """Outcome and accounting of one distributed collection round.

    ``absorbed_reports + late_reports + lost_reports`` equals every
    report the fleet accepted exactly once — duplicates are dropped by
    id before they count anywhere, stragglers for sealed panes count
    late rather than vanish, and an evicted dead worker's undelivered
    reports count lost rather than silently shrinking the denominator.
    ``estimated_counts`` is the all-time estimate (every absorbed
    report, windowed or not); ``windows`` holds the per-pane estimates
    the merged watermark sealed along the way.

    ``degraded`` is True whenever any worker was ever lease-evicted
    (even if it later healed): the estimates are then built from a
    fleet that was not fully live, and downstream consumers should read
    them with ``lost_reports`` in hand.  ``combiner_restarts`` /
    ``recovery_seconds`` / ``checkpoints`` / ``checkpoint_bytes``
    account the fault-tolerance machinery itself.
    """

    estimated_counts: np.ndarray | None
    windows: tuple[SealedWindow, ...]
    absorbed_reports: int
    late_reports: int
    duplicate_envelopes: int
    num_workers: int
    merged_frontier: float
    workers: tuple[WorkerServiceStats, ...] = ()
    wall_seconds: float = 0.0
    backend: str = "inline"
    ledger: PrivacyLedger | None = None
    degraded: bool = False
    evicted_workers: tuple[int, ...] = ()
    lost_reports: int = 0
    combiner_restarts: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    recovery_seconds: float = 0.0

    @property
    def num_users(self) -> int:
        return self.absorbed_reports

    @property
    def users_per_second(self) -> float:
        return (
            self.absorbed_reports / self.wall_seconds
            if self.wall_seconds > 0
            else 0.0
        )


# -- wire adapters for the cores ---------------------------------------------


#: Message-array name prefix of a ship's stacked state rows.
_ROWS = "rows."


def _ship_to_message(ship: ShipPayload) -> tuple[dict, dict[str, np.ndarray]]:
    """A ship as one message: its row, ``n`` and pane arrays map 1:1."""
    header = {
        "type": "ship",
        "worker": ship.worker_id,
        "envelope": ship.envelope_id,
        "frontier": ship.frontier,
        "reports": ship.num_reports,
        "sections": [[envelope_id, count] for envelope_id, count in ship.sections],
        "late": list(ship.late),
        "kind": ship.kind,
        "config": ship.config,
    }
    arrays = {"n": ship.n}
    if ship.pane_indices is not None:
        arrays["panes"] = ship.pane_indices
    arrays.update({_ROWS + name: rows for name, rows in ship.rows.items()})
    return header, arrays


def _ship_from_message(header: dict, arrays: dict[str, np.ndarray]) -> ShipPayload:
    """The inverse of :func:`_ship_to_message`; the combiner validates it."""
    for arr in arrays.values():
        arr.setflags(write=False)
    frontier = header.get("frontier")
    return ShipPayload(
        worker_id=int(header["worker"]),
        envelope_id=str(header["envelope"]),
        frontier=None if frontier is None else float(frontier),
        num_reports=int(header["reports"]),
        sections=tuple(
            (str(envelope_id), count) for envelope_id, count in header["sections"]
        ),
        late=tuple(header.get("late", ())),
        kind=header["kind"],
        config=header["config"],
        rows={
            name[len(_ROWS) :]: arr
            for name, arr in arrays.items()
            if name.startswith(_ROWS)
        },
        n=arrays["n"],
        pane_indices=arrays.get("panes"),
    )


async def _close_writer(writer: asyncio.StreamWriter | None) -> None:
    if writer is None:
        return
    writer.close()
    with contextlib.suppress(Exception):
        await writer.wait_closed()


_CONNECTION_ERRORS = (
    ConnectionError,
    TruncatedFrameError,
    asyncio.IncompleteReadError,
    OSError,
)


class _HandlerTracker:
    """Bookkeeping so a daemon can shut its handlers down gracefully.

    A cancelled ``start_server`` handler task makes asyncio log a noisy
    callback traceback at loop teardown; tracking each handler's writer
    and task lets ``aclose`` close the transports (unblocking the
    handlers' reads with EOF) and *wait* for them instead of cancelling.
    """

    def __init__(self) -> None:
        self.writers: set[asyncio.StreamWriter] = set()
        self.tasks: set[asyncio.Task] = set()

    def enter(self, writer: asyncio.StreamWriter) -> None:
        self.writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self.tasks.add(task)

    def leave(self, writer: asyncio.StreamWriter) -> None:
        self.writers.discard(writer)
        task = asyncio.current_task()
        if task is not None:
            self.tasks.discard(task)

    async def aclose(self, timeout: float = 5.0) -> None:
        for writer in list(self.writers):
            writer.close()
        tasks = [t for t in self.tasks if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=timeout)


# -- daemons -----------------------------------------------------------------


class CombinerDaemon:
    """TCP shell around :class:`CombinerCore`.

    Accepts any number of worker connections; each connection speaks
    ``register`` / ``ship`` / ``heartbeat`` / ``drain`` and gets a
    ``registered`` reply (the frontier the core recorded for that
    worker) and a ``ship_ack`` / ``drain_ack`` per acked message.  A
    ``drain`` carries the worker's :class:`WorkerServiceStats` as one
    record (``stats``), whose ``worker_id`` is the only worker id the
    message holds.
    Every frame is held to the framing layer's
    :data:`~repro.core.serialization.MAX_FRAME_BYTES`, the one cap both
    ends of a link share.  A connection dying mid-frame is normal
    operation (a crashed worker): the core's state is untouched and the
    worker's resends arrive on a fresh connection.

    **Checkpointing**: with ``checkpoint_path`` set, the daemon
    snapshots :meth:`CombinerCore.to_checkpoint` to that file — written
    atomically (tmp + fsync + rename) so a crash mid-write leaves the
    previous checkpoint intact — every ``checkpoint_every_ships`` ships,
    immediately before every ``drain_ack`` (a drained worker's data must
    never be lost) and after every lease eviction, and a daemon
    constructed over an existing checkpoint file restores and resumes.
    Each ``ship_ack`` carries ``durable``: whether the acked ship is
    covered by a checkpoint already on disk.  Workers keep
    acked-but-not-durable ships in an at-risk buffer and reship them on
    reconnect, which is exactly what makes a crash bit-invisible at any
    cadence: the restored core re-receives everything a checkpoint
    missed and per-member dedup drops everything it did not.
    """

    def __init__(
        self,
        oracle: FrequencyOracle,
        num_workers: int,
        *,
        window: WindowSpec | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        checkpoint_path: str | None = None,
        checkpoint_every_ships: int = 8,
        lease_timeout: float | None = None,
        crash_at_ship: int | None = None,
    ) -> None:
        check_positive_int(checkpoint_every_ships, name="checkpoint_every_ships")
        if crash_at_ship is not None:
            check_positive_int(crash_at_ship, name="crash_at_ship")
        now = time.monotonic()
        if checkpoint_path is not None and os.path.exists(checkpoint_path):
            with open(checkpoint_path, "rb") as fh:
                self.core = CombinerCore.from_checkpoint(
                    oracle,
                    fh.read(),
                    window=window,
                    lease_timeout=lease_timeout,
                    now=now,
                )
            if self.core.num_workers != int(num_workers):
                raise CheckpointError(
                    f"checkpoint expects {self.core.num_workers} workers, "
                    f"daemon configured for {num_workers}"
                )
            self.restored = True
        else:
            self.core = CombinerCore(
                oracle,
                num_workers,
                window=window,
                lease_timeout=lease_timeout,
                now=now,
            )
            self.restored = False
        self._host = host
        self._port = port
        self._checkpoint_path = checkpoint_path
        self._checkpoint_every_ships = int(checkpoint_every_ships)
        self._lease_timeout = lease_timeout
        self._crash_at_ship = crash_at_ship
        self._ships_this_run = 0
        self._ships_since_checkpoint = 0
        # The restored state is already durable: acks may say so even
        # before this incarnation writes its first checkpoint.
        self._durable_seq = self.core.ships_received if self.restored else 0
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        self._server: asyncio.AbstractServer | None = None
        self._done = asyncio.Event()
        self._crashed = asyncio.Event()
        self._lease_task: asyncio.Task | None = None
        self._tracker = _HandlerTracker()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_worker, self._host, self._port
        )
        self._address = self._server.sockets[0].getsockname()[:2]
        if self._lease_timeout is not None:
            self._lease_task = asyncio.ensure_future(self._lease_loop())

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def crashed(self) -> bool:
        return self._crashed.is_set()

    # -- durability ----------------------------------------------------------

    def _write_checkpoint(self) -> None:
        """Atomically persist the core: tmp file + fsync + rename.

        ``os.replace`` is atomic on POSIX, so a reader (a restarting
        combiner) only ever sees a complete old or complete new blob —
        a crash between ``fsync`` and ``replace`` merely wastes the tmp
        file.
        """
        blob = self.core.to_checkpoint()
        tmp = f"{self._checkpoint_path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._checkpoint_path)
        self._durable_seq = self.core.ships_received
        self._ships_since_checkpoint = 0
        self.checkpoints += 1
        self.checkpoint_bytes += len(blob)

    def _maybe_checkpoint(self, *, force: bool = False) -> None:
        if self._checkpoint_path is None:
            return
        if force or self._ships_since_checkpoint >= self._checkpoint_every_ships:
            self._write_checkpoint()

    def _durable(self) -> bool:
        """Whether every ship received so far is covered on disk.

        Without a checkpoint path there is nothing to recover *from*, so
        acks claim durability unconditionally — the no-crash-tolerance
        configuration the pre-checkpoint service always ran in.
        """
        if self._checkpoint_path is None:
            return True
        return self._durable_seq >= self.core.ships_received

    def _crash(self) -> None:
        """Simulate SIGKILL: abort every transport, flush nothing.

        Injected by a :class:`~repro.protocol.chaos.FaultPlan` between
        receiving a ship and acking it — the recovery-critical window.
        The supervisor (or a test) restarts a fresh daemon from the
        checkpoint file on the same port.
        """
        self._crashed.set()
        if self._server is not None:
            self._server.close()
        for writer in list(self._tracker.writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def _lease_loop(self) -> None:
        """Periodically expire leases; eviction may complete the fleet."""
        interval = max(self._lease_timeout / 4.0, 0.01)
        while not (self._done.is_set() or self._crashed.is_set()):
            await asyncio.sleep(interval)
            if self.core.check_leases(time.monotonic()):
                # Eviction moved the watermark/fleet accounting: make
                # the degradation durable like any other state change.
                self._maybe_checkpoint(force=True)
                if self.core.all_drained:
                    self._done.set()

    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._tracker.enter(writer)
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                if self._crashed.is_set():
                    break  # a dead combiner processes nothing
                header, arrays = message
                kind = header.get("type")
                now = time.monotonic()
                if kind == "register":
                    frontier = self.core.register(int(header["worker"]), now=now)
                    write_message(
                        writer, {"type": "registered", "frontier": frontier}
                    )
                    await writer.drain()
                elif kind == "ship":
                    ship = _ship_from_message(header, arrays)
                    self.core.receive(ship, now=now)
                    self._ships_this_run += 1
                    self._ships_since_checkpoint += 1
                    if (
                        self._crash_at_ship is not None
                        and self._ships_this_run >= self._crash_at_ship
                    ):
                        # Crash after merging, before checkpoint or ack:
                        # the worker never learns this delivery landed.
                        self._crash()
                        break
                    self._maybe_checkpoint()
                    write_message(
                        writer,
                        {
                            "type": "ship_ack",
                            "envelope": ship.envelope_id,
                            "durable": self._durable(),
                        },
                    )
                    await writer.drain()
                elif kind == "heartbeat":
                    frontier = header.get("frontier")
                    self.core.heartbeat(
                        int(header["worker"]),
                        None if frontier is None else float(frontier),
                        now=now,
                    )
                elif kind == "drain":
                    # The stats record is the only worker id a drain carries.
                    stats = WorkerServiceStats(**header["stats"])
                    self.core.drain(stats.worker_id, stats, now=now)
                    # A drain_ack releases the worker's client-side state
                    # for good, so the drained data must be on disk first.
                    self._maybe_checkpoint(force=True)
                    write_message(
                        writer, {"type": "drain_ack", "worker": stats.worker_id}
                    )
                    await writer.drain()
                    if self.core.all_drained:
                        self._done.set()
                else:
                    raise ServiceError(f"unknown combiner message {kind!r}")
        except _CONNECTION_ERRORS:
            pass  # a worker vanished; its resends arrive on a new connection
        finally:
            self._tracker.leave(writer)
            await _close_writer(writer)

    def _drain_diagnostics(self) -> str:
        """Per-worker liveness detail for the wait_drained timeout error."""
        live = self.core.liveness(time.monotonic())
        parts = []
        for w, info in sorted(live.items()):
            if info["drained"]:
                continue
            state = "evicted" if info["evicted"] else (
                "registered" if info["registered"] else "never heard"
            )
            parts.append(
                f"w{w}: {state}, frontier={info['frontier']}, "
                f"last heard {info['last_heard_age']:.1f}s ago"
            )
        return "; ".join(parts) or "all workers drained"

    async def wait_drained(self, timeout: float | None = None) -> None:
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
        except asyncio.TimeoutError as exc:
            raise ServiceError(
                f"combiner at {self._address} timed out waiting for the "
                f"fleet to drain ({self.core.ships_received} ships "
                f"received; undrained: {self._drain_diagnostics()})"
            ) from exc

    async def close(self) -> None:
        if self._lease_task is not None:
            self._lease_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._lease_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._tracker.aclose()


class IngestDaemon:
    """TCP shell around :class:`ShardFolder`: one ingest-tier worker.

    Serves clients (hello/reports/ack/eof) on its own listening socket
    and keeps one upstream connection to the combiner.  The envelopes
    queued on a client link are coalesced: whenever the link goes idle
    (the client is waiting on acks) or at eof, the buffer folds as one
    batch (:meth:`ShardFolder.offer_batch`), ships once and is acked in
    one frame listing every envelope, so the credit window bounds a
    batch.  Dedup and credit stay per envelope, and no output depends on
    the grouping.  Every envelope is folded and its partials shipped
    before the client sees an ack — the end-to-end ack that makes worker
    restarts safe: a client never drops an envelope the combiner has not
    merged.  The upstream link reconnects with bounded exponential
    backoff and reships every unacked payload in order; the combiner's
    dedup absorbs any double delivery that recovery causes.  Each
    connect registers, and the folder resumes from the frontier the
    combiner answers with, so a restarted worker judges the envelopes
    its clients resend as the worker before it would have.

    Two fault-tolerance behaviours ride the upstream link.  **At-risk
    retention**: a ship acked ``durable=False`` (the combiner merged it
    but no checkpoint covers it yet) is moved to an at-risk buffer
    instead of being forgotten, and every reconnect reships at-risk
    ships before unacked ones — so a combiner crash-restore re-receives
    whatever its checkpoint missed; a ``durable=True`` ack clears the
    whole buffer (ships are received serially, so a checkpoint covering
    the newest covers them all).  **Heartbeats**: with
    ``heartbeat_interval`` set, an idle worker periodically sends its
    frontier upstream, renewing its lease and letting panes seal while
    its clients are quiet.
    """

    def __init__(
        self,
        oracle: FrequencyOracle,
        worker_id: int,
        combiner_address: tuple[str, int],
        *,
        window: WindowSpec | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        credit_window: int = DEFAULT_CREDIT_WINDOW,
        retry: RetryPolicy = RetryPolicy(),
        heartbeat_interval: float | None = None,
    ) -> None:
        check_positive_int(credit_window, name="credit_window")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval!r}"
            )
        self.folder = ShardFolder(oracle, worker_id, window=window)
        self.worker_id = int(worker_id)
        self._combiner_address = combiner_address
        self._host = host
        self._port = port
        self._credit_window = int(credit_window)
        self._retry = retry
        self._heartbeat_interval = heartbeat_interval
        self._server: asyncio.AbstractServer | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._conn_lock = asyncio.Lock()
        self._ship_lock = asyncio.Lock()
        self._pending: dict[str, asyncio.Future] = {}
        self._unacked: dict[str, ShipPayload] = {}
        self._at_risk: dict[str, ShipPayload] = {}
        self._drain_future: asyncio.Future | None = None
        self._drain_sent = False
        self._done = asyncio.Event()
        self._tracker = _HandlerTracker()
        self._closing = False
        self._killed = False
        self._partition_until = 0.0
        self._last_ack_time: float | None = None
        self._failure: ServiceError | None = None
        self.ships = 0
        self.reships = 0
        self.shipped_bytes = 0

    async def start(self) -> None:
        await self._ensure_connected()
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )
        self._address = self._server.sockets[0].getsockname()[:2]
        if self._heartbeat_interval is not None:
            self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    async def run(self) -> None:
        """Serve until the client sent eof and the drain acked."""
        await self._done.wait()
        if self._failure is not None:
            raise self._failure
        await self.close()

    async def close(self) -> None:
        self._closing = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._heartbeat_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._tracker.aclose()
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
        await _close_writer(self._writer)

    # -- fault injection hooks (driven by a FaultPlan) -----------------------

    def partition(self, seconds: float) -> None:
        """Sever the upstream link for ``seconds`` (network partition).

        The combiner side sees the connection die; this side's
        reconnect logic waits out the partition *before* spending any
        retry attempts, then recovers normally — re-register, reship
        at-risk + unacked, resume.  Long partitions therefore surface as
        lease evictions upstream, not as local retry exhaustion.
        """
        if seconds <= 0:
            raise ValueError(f"partition seconds must be > 0, got {seconds!r}")
        self._partition_until = time.monotonic() + float(seconds)
        if self._writer is not None and self._writer.transport is not None:
            self._writer.transport.abort()

    def simulate_kill(self) -> None:
        """Drop dead without draining: leases, not this daemon, inform the fleet.

        The inline-backend analogue of SIGKILL on a process worker —
        every socket is aborted, nothing is flushed, no drain is sent,
        and ``run()`` returns without raising (the *fleet* handles the
        death via lease eviction; the local orchestrator has nothing to
        recover).
        """
        self._killed = True
        self._closing = True
        if self._server is not None:
            self._server.close()
        for writer in list(self._tracker.writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._writer is not None and self._writer.transport is not None:
            self._writer.transport.abort()
        self._done.set()

    # -- upstream (combiner) link -------------------------------------------

    def _link_diagnostics(self) -> str:
        """Outstanding-work summary for retry-exhaustion errors."""
        age = (
            "never"
            if self._last_ack_time is None
            else f"{time.monotonic() - self._last_ack_time:.1f}s ago"
        )
        return (
            f"{len(self._unacked)} unacked + {len(self._at_risk)} at-risk "
            f"ships outstanding, drain "
            f"{'sent' if self._drain_sent else 'not sent'}, last combiner "
            f"ack {age}"
        )

    async def _ensure_connected(self) -> None:
        """Connect (or reconnect) upstream; reships at-risk then unacked.

        Bounded retry with jittered exponential backoff; exhausting the
        policy fails the daemon and every caller waiting on an ack.  An
        injected partition is waited out *before* the retry budget is
        spent — a partition is scheduled downtime, not combiner death.
        """
        if self._writer is not None and not self._writer.is_closing():
            return
        async with self._conn_lock:
            if self._writer is not None and not self._writer.is_closing():
                return
            while time.monotonic() < self._partition_until:
                await asyncio.sleep(
                    min(0.02, self._partition_until - time.monotonic())
                )
            last_error: Exception | None = None
            for attempt in range(self._retry.attempts):
                if attempt:
                    await asyncio.sleep(
                        self._retry.delay(attempt - 1, key=self.worker_id)
                    )
                try:
                    reader, writer = await asyncio.open_connection(
                        *self._combiner_address
                    )
                    write_message(
                        writer, {"type": "register", "worker": self.worker_id}
                    )
                    # At-risk first (they are older), then unacked: the
                    # combiner re-receives in original ship order and
                    # its per-member dedup drops whatever survived in
                    # the checkpoint it restored from.
                    for ship in list(self._at_risk.values()):
                        header, arrays = _ship_to_message(ship)
                        write_message(writer, header, arrays)
                        self.reships += 1
                    for ship in list(self._unacked.values()):
                        header, arrays = _ship_to_message(ship)
                        write_message(writer, header, arrays)
                        self.reships += 1
                    if self._drain_sent and not (
                        self._drain_future is None or self._drain_future.done()
                    ):
                        write_message(writer, self._drain_header())
                    await writer.drain()
                    reply = await read_message(reader)
                    if reply is None or reply[0].get("type") != "registered":
                        raise ConnectionResetError("combiner did not register")
                    self.folder.resume(reply[0].get("frontier"))
                except _CONNECTION_ERRORS as exc:
                    last_error = exc
                    continue
                self._writer = writer
                self._reader_task = asyncio.ensure_future(
                    self._read_combiner(reader)
                )
                return
            failure = ServiceError(
                f"worker {self.worker_id} could not reach the combiner at "
                f"{self._combiner_address} after {self._retry.attempts} "
                f"attempts ({self._link_diagnostics()}): {last_error}"
            )
            self._fail(failure)
            raise failure

    def _fail(self, failure: ServiceError) -> None:
        self._failure = failure
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        if self._drain_future is not None and not self._drain_future.done():
            self._drain_future.set_exception(failure)
        self._done.set()

    async def _read_combiner(self, reader: asyncio.StreamReader) -> None:
        """Dispatch upstream acks; on link loss, recover if work is owed."""
        try:
            while True:
                message = await read_message(reader)
                if message is None:
                    break
                header, _ = message
                kind = header.get("type")
                if kind == "ship_ack":
                    self._last_ack_time = time.monotonic()
                    durable = bool(header.get("durable", True))
                    envelope_id = str(header["envelope"])
                    if durable:
                        # Ships are received serially, so a checkpoint
                        # covering this ship covers every earlier one:
                        # the whole at-risk buffer is safe on disk.  A
                        # non-durable ack leaves at-risk ships at risk.
                        self._at_risk.clear()
                    future = self._pending.pop(envelope_id, None)
                    if future is not None and not future.done():
                        future.set_result(durable)
                elif kind == "drain_ack":
                    self._last_ack_time = time.monotonic()
                    if (
                        self._drain_future is not None
                        and not self._drain_future.done()
                    ):
                        self._drain_future.set_result(True)
                else:
                    raise ServiceError(f"unknown combiner reply {kind!r}")
        except _CONNECTION_ERRORS:
            pass
        if self._closing or self._failure is not None:
            return
        await _close_writer(self._writer)
        owes_acks = self._pending or (
            self._drain_future is not None and not self._drain_future.done()
        )
        if owes_acks:
            with contextlib.suppress(ServiceError):
                await self._ensure_connected()  # failure already recorded

    async def _ship(self, ship: ShipPayload) -> None:
        """Ship one envelope's partials and wait for the combiner's ack."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending[ship.envelope_id] = future
        self._unacked[ship.envelope_id] = ship
        async with self._ship_lock:
            for attempt in range(self._retry.attempts):
                if future.done():
                    break  # a reconnect already reshipped and got the ack
                try:
                    await self._ensure_connected()
                    header, arrays = _ship_to_message(ship)
                    self.shipped_bytes += write_message(
                        self._writer, header, arrays
                    )
                    await self._writer.drain()
                    self.ships += 1
                    break
                except ServiceError:
                    break  # recorded by _fail; the future carries it
                except _CONNECTION_ERRORS:
                    await _close_writer(self._writer)
                    await asyncio.sleep(
                        self._retry.delay(attempt, key=self.worker_id)
                    )
            else:
                self._fail(
                    ServiceError(
                        f"worker {self.worker_id} exhausted "
                        f"{self._retry.attempts} attempts shipping envelope "
                        f"{ship.envelope_id!r} to the combiner at "
                        f"{self._combiner_address} "
                        f"({self._link_diagnostics()})"
                    )
                )
        durable = await future
        self._unacked.pop(ship.envelope_id, None)
        if not durable:
            # Merged upstream but not yet covered by a checkpoint: keep
            # the payload until a durable ack proves it crash-safe.
            self._at_risk[ship.envelope_id] = ship

    async def _heartbeat_loop(self) -> None:
        """Send the frontier upstream whenever the link sits idle.

        Strictly passive: it never reconnects (a background task must
        not burn the retry budget or fail the daemon) and stays silent
        while a ship/drain is mid-flight, during a partition, or while
        the link is down — the reader task owns recovery.
        """
        while True:
            await asyncio.sleep(self._heartbeat_interval)
            if self._closing or self._done.is_set() or self._failure is not None:
                return
            if time.monotonic() < self._partition_until:
                continue
            if self._ship_lock.locked() or self._conn_lock.locked():
                continue  # active traffic already renews the lease
            writer = self._writer
            if writer is None or writer.is_closing():
                continue
            try:
                write_message(
                    writer,
                    {
                        "type": "heartbeat",
                        "worker": self.worker_id,
                        "frontier": self.folder.frontier,
                    },
                )
                await writer.drain()
            except _CONNECTION_ERRORS:
                pass  # the reader task notices and recovers the link

    def _drain_header(self) -> dict:
        folder = self.folder
        stats = WorkerServiceStats(
            worker_id=self.worker_id,
            envelopes=folder.envelopes,
            duplicate_envelopes=folder.duplicates,
            reports=folder.reports,
            ships=self.ships,
            reships=self.reships,
            shipped_bytes=self.shipped_bytes,
            frontier=folder.frontier,
            fold_batches=folder.batches,
            route_seconds=folder.route_seconds,
            absorb_seconds=folder.absorb_seconds,
        )
        return {"type": "drain", "stats": asdict(stats)}

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        self._drain_future = loop.create_future()
        self._drain_sent = True
        async with self._ship_lock:
            await self._ensure_connected()
            write_message(self._writer, self._drain_header())
            await self._writer.drain()
        await self._drain_future
        self._done.set()

    # -- downstream (client) connections ------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._tracker.enter(writer)
        batch: list[tuple[str, Any]] = []
        pending_read: asyncio.Future | None = None

        async def flush_batch() -> None:
            """Fold the coalesced envelopes, ship once, ack them in one frame."""
            nonlocal batch
            if not batch:
                return
            items, batch = batch, []
            ship, dup_flags = self.folder.offer_batch(items)
            if ship is not None:
                await self._ship(ship)
            write_message(
                writer,
                {
                    "type": "ack",
                    "envelopes": [envelope_id for envelope_id, _ in items],
                    "duplicates": dup_flags,
                },
            )
            await writer.drain()

        try:
            write_message(
                writer, {"type": "hello", "credits": self._credit_window}
            )
            await writer.drain()
            while True:
                pending_read = asyncio.ensure_future(read_message(reader))
                if batch and not pending_read.done():
                    # Give an already-buffered frame one loop cycle to
                    # complete; a genuinely idle link (the client is
                    # waiting on acks) flushes the coalescing buffer —
                    # so the credit window bounds a batch and acks are
                    # never withheld.
                    await asyncio.sleep(0)
                    if not pending_read.done():
                        await flush_batch()
                message = await pending_read
                pending_read = None
                if message is None:
                    break  # client vanished; it will resend unacked envelopes
                header, arrays = message
                kind = header.get("type")
                if kind == "reports":
                    payload = unpack_timed_reports(header, arrays)
                    batch.append((str(header["envelope"]), payload))
                elif kind == "eof":
                    await flush_batch()
                    write_message(writer, {"type": "eof_ack"})
                    await writer.drain()
                    await self._drain()
                    break
                else:
                    raise ServiceError(f"unknown client message {kind!r}")
        except _CONNECTION_ERRORS:
            pass
        except ServiceError:
            pass  # recorded in self._failure by the upstream machinery
        finally:
            if pending_read is not None:
                pending_read.cancel()
                # This handler cancelled the read, so its CancelledError
                # (a BaseException) is expected: suppressed, it cannot
                # skip the leave and the close that end the connection.
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await pending_read
            self._tracker.leave(writer)
            await _close_writer(writer)


# -- client feeder -----------------------------------------------------------


def _payload_rows(payload: Any) -> int:
    return (
        len(payload)
        if isinstance(payload, TimedReports)
        else batch_length(payload)
    )


async def feed_envelopes(
    address: tuple[str, int] | Callable[[], tuple[str, int]],
    envelopes: list[tuple[str, Any]],
    *,
    frame_filter: FrameFilter | None = None,
    ack_timeout: float | None = None,
    fault_after: int | None = None,
    fault_callback: Callable[[], Any] | None = None,
    fault_mode: str = "restart",
    retry: RetryPolicy = RetryPolicy(),
    retry_key: object = None,
) -> dict:
    """Send report envelopes to one ingest worker, at-least-once.

    Envelopes are ``(envelope_id, TimedReports | report batch)`` pairs.
    The client honours the worker's advertised credit window, keeps
    every sent-but-unacked envelope, and on any connection failure
    reconnects (``address`` may be a callable so a restarted worker's
    new port is picked up) and resends the whole unacked window — the
    worker's dedup makes the redelivery harmless.

    ``frame_filter`` (from :meth:`~repro.protocol.chaos.FaultPlan.frame_filter`)
    injects transport faults deterministically: duplicated envelopes are
    enqueued as two deliveries, a *dropped* frame is silently withheld
    (the window then stalls until ``ack_timeout`` fires, which is
    treated as a dead link: reconnect and resend — so drops require an
    ``ack_timeout``), a *delayed* frame sleeps before sending.  After a
    drop, no further frame is sent on that connection — the worker acks
    in receipt order, so sending past the hole would desynchronize the
    FIFO ack check below; the reconnect resends the whole window in
    order instead.  One ack frame lists a folded batch's envelope ids
    and duplicate flags, matched oldest first; a frame naming an id out
    of order or more ids than are in flight, or a hello whose
    ``credits`` is not a positive int, raises :class:`ServiceError`.

    ``fault_callback`` fires once, scheduled by ``fault_after`` and
    shaped by ``fault_mode``: ``"restart"`` fires just before the
    ``fault_after``-th envelope is first sent, then reconnects and
    resends (the callback respawns the worker); ``"partition"`` fires at
    the same point but keeps this connection alive (the callback severs
    the worker's *upstream* link, and this client simply experiences
    slow acks); ``"kill"`` quiesces first — stops sending, drains every
    outstanding ack so the delivered/undelivered split is exact — then
    fires and returns immediately with ``undelivered`` mapping each
    never-delivered envelope id to its report row count (the fleet's
    ``lost`` accounting input).  The end-to-end ack is what makes that
    split exact: an acked envelope was merged by the combiner, an
    unacked one never was.
    """
    if fault_mode not in ("restart", "kill", "partition"):
        raise ValueError(f"unknown fault_mode {fault_mode!r}")
    if (
        frame_filter is not None
        and frame_filter.drop_rate > 0.0
        and ack_timeout is None
    ):
        raise ValueError("a dropping frame_filter needs an ack_timeout")
    resolve = address if callable(address) else (lambda: address)
    pending: deque[tuple[str, Any]] = deque()
    for index, (envelope_id, payload) in enumerate(envelopes):
        copies = (
            1 if frame_filter is None else frame_filter.copies(index, envelope_id)
        )
        for _ in range(copies):
            pending.append((envelope_id, payload))
    inflight: deque[tuple[str, Any]] = deque()
    reader = writer = None
    credits = 1
    sent = resent = duplicate_acks = failures = first_sends = acked = 0
    dropped = delayed = 0
    send_attempts: dict[str, int] = {}
    delivered_ids: set[str] = set()
    fault_pending = fault_callback is not None and fault_after is not None
    hole = False  # a dropped frame sits unsendable-past in the window

    async def connect():
        nonlocal reader, writer, credits, hole
        reader, writer = await asyncio.open_connection(*resolve())
        hello = await read_message(reader)
        if hello is None or hello[0].get("type") != "hello":
            raise ConnectionResetError("worker did not say hello")
        credits = hello[0].get("credits", 1)
        if type(credits) is not int or credits < 1:
            raise ServiceError(
                f"worker hello field 'credits' must be a positive int, got {credits!r}"
            )
        hole = False

    async def read_ack():
        if ack_timeout is None:
            return await read_message(reader)
        try:
            return await asyncio.wait_for(read_message(reader), ack_timeout)
        except asyncio.TimeoutError as exc:
            # A stalled window is indistinguishable from (and here,
            # deliberately caused by) a lost frame: treat as link death.
            raise ConnectionResetError("ack timeout") from exc

    def undelivered_rows() -> dict[str, int]:
        rows: dict[str, int] = {}
        for envelope_id, payload in [*inflight, *pending]:
            if envelope_id not in delivered_ids:
                rows.setdefault(envelope_id, _payload_rows(payload))
        return rows

    try:
        while pending or inflight:
            try:
                if writer is None or writer.is_closing():
                    if inflight:
                        # The link died with a window outstanding: those
                        # envelopes may or may not have been folded.
                        # Resend them all; dedup sorts it out.
                        pending.extendleft(reversed(inflight))
                        resent += len(inflight)
                        inflight.clear()
                    await connect()
                quiescing = (
                    fault_pending
                    and fault_mode == "kill"
                    and acked + len(inflight) >= fault_after
                )
                while pending and len(inflight) < credits and not hole:
                    if quiescing:
                        break
                    if (
                        fault_pending
                        and fault_mode != "kill"
                        and first_sends >= fault_after
                    ):
                        fault_pending = False
                        if fault_mode == "restart":
                            await _close_writer(writer)
                            await fault_callback()
                            raise ConnectionResetError("worker restarted")
                        await fault_callback()  # partition: keep feeding
                    item = pending.popleft()
                    envelope_id = item[0]
                    action = "deliver"
                    if frame_filter is not None:
                        attempt = send_attempts.get(envelope_id, 0)
                        send_attempts[envelope_id] = attempt + 1
                        action = frame_filter.action(envelope_id, attempt)
                    if action == "drop":
                        # Withhold the frame but keep the envelope in the
                        # window: its ack never comes, the ack_timeout
                        # declares the link dead, and the reconnect
                        # resends.  Nothing more may be sent past the
                        # hole — acks are FIFO in *receipt* order.
                        dropped += 1
                        inflight.append(item)
                        hole = True
                        continue
                    if action == "delay":
                        delayed += 1
                        await asyncio.sleep(frame_filter.delay_seconds)
                    header, arrays = pack_timed_reports(item[1])
                    header.update(type="reports", envelope=envelope_id)
                    write_message(writer, header, arrays)
                    inflight.append(item)
                    sent += 1
                    first_sends += 1
                    quiescing = (
                        fault_pending
                        and fault_mode == "kill"
                        and acked + len(inflight) >= fault_after
                    )
                if quiescing and not inflight:
                    # Quiescent: every sent envelope is acked (merged
                    # end-to-end), everything else never left.  Kill.
                    fault_pending = False
                    await _close_writer(writer)
                    await fault_callback()
                    return {
                        "sent": sent,
                        "resent": resent,
                        "duplicate_acks": duplicate_acks,
                        "dropped": dropped,
                        "delayed": delayed,
                        "delivered": acked,
                        "undelivered": undelivered_rows(),
                    }
                await writer.drain()
                message = await read_ack()
                if message is None:
                    raise ConnectionResetError("worker closed mid-stream")
                header, _ = message
                if header.get("type") != "ack":
                    raise ServiceError(f"unexpected worker reply {header!r}")
                ids, flags = header.get("envelopes"), header.get("duplicates")
                if not (
                    isinstance(ids, list)
                    and isinstance(flags, list)
                    and len(ids) == len(flags)
                ):
                    raise ServiceError(
                        "ack fields 'envelopes' and 'duplicates' must be lists "
                        f"of one length, got {ids!r} and {flags!r}"
                    )
                if len(ids) > len(inflight):
                    raise ServiceError(
                        f"ack field 'envelopes' lists {len(ids)} ids but only "
                        f"{len(inflight)} envelopes are in flight"
                    )
                for acked_id, duplicate in zip(ids, flags):
                    expected_id = inflight.popleft()[0]
                    if str(acked_id) != expected_id:
                        raise ServiceError(
                            f"ack field 'envelopes' names {acked_id!r}, not the "
                            f"oldest in-flight envelope {expected_id!r}"
                        )
                    duplicate_acks += bool(duplicate)
                    delivered_ids.add(expected_id)
                    acked += 1
                failures = 0
            except _CONNECTION_ERRORS:
                await _close_writer(writer)
                writer = None
                failures += 1
                if failures > retry.attempts:
                    raise ServiceError(
                        f"client gave up on worker at {resolve()} after "
                        f"{failures - 1} consecutive connection failures "
                        f"({len(inflight)} in flight, {len(pending)} unsent, "
                        f"{acked} acked)"
                    )
                await asyncio.sleep(retry.delay(failures - 1, key=retry_key))
        for attempt in range(retry.attempts + 1):
            try:
                if writer is None or writer.is_closing():
                    await connect()
                write_message(writer, {"type": "eof"})
                await writer.drain()
                message = await read_message(reader)
                if message is None or message[0].get("type") != "eof_ack":
                    raise ConnectionResetError("no eof ack")
                break
            except _CONNECTION_ERRORS:
                await _close_writer(writer)
                writer = None
                if attempt == retry.attempts:
                    raise ServiceError(
                        f"client could not hand off eof to the worker at "
                        f"{resolve()} after {retry.attempts + 1} attempts"
                    )
                await asyncio.sleep(retry.delay(attempt, key=retry_key))
    finally:
        await _close_writer(writer)
    return {
        "sent": sent,
        "resent": resent,
        "duplicate_acks": duplicate_acks,
        "dropped": dropped,
        "delayed": delayed,
        "delivered": acked,
        "undelivered": {},
    }


# -- orchestration -----------------------------------------------------------


def _privatize_envelopes(
    oracle: FrequencyOracle,
    worker_id: int,
    shard_values: np.ndarray,
    shard_timestamps: np.ndarray | None,
    chunk_size: int,
    gen: np.random.Generator,
) -> list[tuple[str, Any]]:
    """One worker's envelope stream: its shard of the shared plan, cut
    into ``run_sharded_collection``'s chunks and privatized from the
    shard's generator in chunk order, so the service and the single-host
    pipeline fold byte-identical report batches.  One
    :meth:`~repro.core.mechanism.FrequencyOracle.privatize_chunks` call
    makes every chunk's draws in turn, and OLH/BLH then hash the whole
    shard in one pass."""
    batches = oracle.privatize_chunks(shard_values, chunk_size, rng=gen)
    stamps = (
        _chunks(shard_timestamps, chunk_size)
        if shard_timestamps is not None
        else [None] * len(batches)
    )
    envelopes: list[tuple[str, Any]] = []
    for chunk_index, (reports, stamp) in enumerate(zip(batches, stamps)):
        payload: Any = reports
        if stamp is not None:
            payload = TimedReports(timestamps=stamp, reports=reports)
        envelopes.append((f"w{worker_id}:c{chunk_index}", payload))
    return envelopes


def _ingest_process_main(
    conn,
    oracle: FrequencyOracle,
    worker_id: int,
    combiner_address: tuple[str, int],
    window: WindowSpec | None,
    credit_window: int,
    heartbeat_interval: float | None = None,
) -> None:
    """Entry point of one spawned ingest-worker process.

    Module-level so the spawn context can import it; reports the bound
    listening address back through ``conn`` and serves until drained.
    """

    async def main() -> None:
        daemon = IngestDaemon(
            oracle,
            worker_id,
            combiner_address,
            window=window,
            credit_window=credit_window,
            heartbeat_interval=heartbeat_interval,
        )
        await daemon.start()
        conn.send(daemon.address)
        await daemon.run()

    asyncio.run(main())


class _ProcessWorker:
    """Parent-side handle on one spawned ingest worker (restartable).

    ``timeout`` is the caller's service timeout: both the wait for the
    spawned process to report its bound port and the shutdown join are
    derived from it, so a slow CI machine gets the same patience the
    caller granted the whole run instead of a hard-coded cliff.
    """

    def __init__(self, ctx, spawn_args: tuple, timeout: float = 300.0) -> None:
        self._ctx = ctx
        self._spawn_args = spawn_args
        self._timeout = float(timeout)
        self.process = None
        self.address: tuple[str, int] | None = None

    async def start(self) -> None:
        parent, child = self._ctx.Pipe(duplex=False)
        self.process = self._ctx.Process(
            target=_ingest_process_main,
            args=(child, *self._spawn_args),
            daemon=True,
        )
        self.process.start()
        child.close()
        loop = asyncio.get_running_loop()
        try:
            self.address = await asyncio.wait_for(
                loop.run_in_executor(None, parent.recv),
                timeout=self._timeout,
            )
        except (EOFError, asyncio.TimeoutError) as exc:
            raise ServiceError(
                "ingest worker process died before binding its port"
            ) from exc
        finally:
            parent.close()

    async def restart(self) -> None:
        """Kill the worker abruptly (SIGKILL) and spawn a replacement."""
        loop = asyncio.get_running_loop()
        self.process.kill()
        await loop.run_in_executor(None, self.process.join)
        await self.start()

    def stop(self) -> None:
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=self._timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()


class _CombinerSupervisor:
    """Combiner lifecycle with crash-restart: the fault-tolerant shell.

    Runs one :class:`CombinerDaemon` generation at a time and watches it
    concurrently with the feeding fleet: when a generation crashes (a
    :class:`~repro.protocol.chaos.FaultPlan` SIGKILL between receiving a
    ship and acking it), the supervisor immediately starts a successor
    on the *same port* restored from the checkpoint file — workers keep
    their configured combiner address and simply reconnect, reshipping
    at-risk and unacked payloads into the restored core.  Checkpoint and
    recovery accounting is accumulated across generations.
    """

    def __init__(
        self,
        oracle: FrequencyOracle,
        num_workers: int,
        *,
        window: WindowSpec | None,
        checkpoint_path: str | None,
        checkpoint_every_ships: int,
        lease_timeout: float | None,
        crash_at_ships: tuple[int, ...],
    ) -> None:
        self._oracle = oracle
        self._num_workers = num_workers
        self._window = window
        self._checkpoint_path = checkpoint_path
        self._checkpoint_every_ships = checkpoint_every_ships
        self._lease_timeout = lease_timeout
        self._crash_at_ships = tuple(crash_at_ships)
        self._generation = 0
        self._daemon: CombinerDaemon | None = None
        self._task: asyncio.Task | None = None
        self._fleet_done = asyncio.Event()
        self._failure: BaseException | None = None
        self.restarts = 0
        self.recovery_seconds = 0.0
        self._prior_checkpoints = 0
        self._prior_checkpoint_bytes = 0

    def _make_daemon(self, port: int) -> CombinerDaemon:
        gen = self._generation
        crash_at = (
            self._crash_at_ships[gen]
            if gen < len(self._crash_at_ships)
            else None
        )
        return CombinerDaemon(
            self._oracle,
            self._num_workers,
            window=self._window,
            port=port,
            checkpoint_path=self._checkpoint_path,
            checkpoint_every_ships=self._checkpoint_every_ships,
            lease_timeout=self._lease_timeout,
            crash_at_ship=crash_at,
        )

    @property
    def core(self) -> CombinerCore:
        return self._daemon.core

    @property
    def address(self) -> tuple[str, int]:
        return self._daemon.address

    @property
    def checkpoints(self) -> int:
        return self._prior_checkpoints + self._daemon.checkpoints

    @property
    def checkpoint_bytes(self) -> int:
        return self._prior_checkpoint_bytes + self._daemon.checkpoint_bytes

    async def start(self) -> None:
        self._daemon = self._make_daemon(0)
        await self._daemon.start()
        self._task = asyncio.ensure_future(self._supervise())

    async def _supervise(self) -> None:
        """Watch each generation; crash → restore a successor in place."""
        try:
            while True:
                daemon = self._daemon
                waits = [
                    asyncio.ensure_future(daemon._crashed.wait()),
                    asyncio.ensure_future(daemon._done.wait()),
                ]
                try:
                    await asyncio.wait(
                        waits, return_when=asyncio.FIRST_COMPLETED
                    )
                finally:
                    for fut in waits:
                        if not fut.done():
                            fut.cancel()
                            with contextlib.suppress(asyncio.CancelledError):
                                await fut
                if not daemon._crashed.is_set():
                    self._fleet_done.set()
                    return
                t0 = time.perf_counter()
                self._prior_checkpoints += daemon.checkpoints
                self._prior_checkpoint_bytes += daemon.checkpoint_bytes
                port = daemon.address[1]
                await daemon.close()
                self._generation += 1
                replacement = self._make_daemon(port)
                await replacement.start()
                self._daemon = replacement
                self.restarts += 1
                self.recovery_seconds += time.perf_counter() - t0
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # surface restore failures loudly
            self._failure = exc
            self._fleet_done.set()

    async def wait_drained(self, timeout: float | None = None) -> None:
        try:
            await asyncio.wait_for(self._fleet_done.wait(), timeout)
        except asyncio.TimeoutError as exc:
            daemon = self._daemon
            raise ServiceError(
                f"combiner at {daemon.address} timed out waiting for the "
                f"fleet to drain ({daemon.core.ships_received} ships "
                f"received, {self.restarts} combiner restarts; undrained: "
                f"{daemon._drain_diagnostics()})"
            ) from exc
        if self._failure is not None:
            raise ServiceError(
                f"combiner supervision failed after {self.restarts} "
                f"restarts: {self._failure}"
            ) from self._failure

    def result(self) -> ServiceResult:
        return replace(
            self._daemon.core.result(),
            combiner_restarts=self.restarts,
            checkpoints=self.checkpoints,
            checkpoint_bytes=self.checkpoint_bytes,
            recovery_seconds=self.recovery_seconds,
        )

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
        if self._daemon is not None:
            await self._daemon.close()


async def _run_service(
    oracle: FrequencyOracle,
    worker_envelopes: list[list[tuple[str, Any]]],
    *,
    window: WindowSpec | None,
    backend: str,
    credit_window: int,
    faults: FaultPlan | None,
    lease_timeout: float | None,
    checkpoint_path: str | None,
    checkpoint_every_ships: int,
    timeout: float,
    outcome: list,
) -> None:
    """Run the service over the envelopes; append ``(result, wall)`` to ``outcome``.

    The result does not leave as the task's result: on Python 3.11 and
    3.12, ``asyncio.run``'s teardown formats the repr of its SIGINT
    handler, which holds the main task, and a finished task's repr
    builds its result's whole repr, every sealed window's arrays
    included, before truncating it.
    """
    num_workers = len(worker_envelopes)
    # Idle workers renew their lease four times per lease period.
    heartbeat_interval = None if lease_timeout is None else lease_timeout / 4.0
    client_retry = RetryPolicy()
    if faults is not None:
        client_retry = faults.retry_policy(client_retry)
    combiner = _CombinerSupervisor(
        oracle,
        num_workers,
        window=window,
        checkpoint_path=checkpoint_path,
        checkpoint_every_ships=checkpoint_every_ships,
        lease_timeout=lease_timeout,
        crash_at_ships=faults.crash_combiner_at_ships if faults else (),
    )
    await combiner.start()
    inline_daemons: list[IngestDaemon] = []
    process_workers: list[_ProcessWorker] = []
    daemon_tasks: list[asyncio.Task] = []
    try:
        addresses: list[Callable[[], tuple[str, int]]] = []
        if backend == "inline":
            for worker_id in range(num_workers):
                daemon = IngestDaemon(
                    oracle,
                    worker_id,
                    combiner.address,
                    window=window,
                    credit_window=credit_window,
                    heartbeat_interval=heartbeat_interval,
                )
                await daemon.start()
                inline_daemons.append(daemon)
                daemon_tasks.append(asyncio.ensure_future(daemon.run()))
                addresses.append(lambda d=daemon: d.address)
        else:
            import multiprocessing

            ctx = multiprocessing.get_context("spawn")
            for worker_id in range(num_workers):
                worker = _ProcessWorker(
                    ctx,
                    (
                        oracle,
                        worker_id,
                        combiner.address,
                        window,
                        credit_window,
                        heartbeat_interval,
                    ),
                    timeout=timeout,
                )
                await worker.start()
                process_workers.append(worker)
                addresses.append(lambda w=worker: w.address)

        t_start = time.perf_counter()
        feeders = []
        for worker_id, envelopes in enumerate(worker_envelopes):
            frame_filter = (
                faults.frame_filter(worker_id) if faults is not None else None
            )
            wf = faults.worker_fault(worker_id) if faults is not None else None
            fault_after = None
            fault_callback = None
            fault_mode = "restart"
            if wf is not None:
                fault_after = wf.after_envelopes
                fault_mode = wf.kind
                if wf.kind == "restart":
                    fault_callback = process_workers[worker_id].restart
                elif wf.kind == "kill":
                    daemon = inline_daemons[worker_id]

                    async def _kill(d=daemon):
                        d.simulate_kill()

                    fault_callback = _kill
                else:  # partition
                    daemon = inline_daemons[worker_id]

                    async def _partition(
                        d=daemon, s=wf.partition_seconds
                    ):
                        d.partition(s)

                    fault_callback = _partition
            feeders.append(
                feed_envelopes(
                    addresses[worker_id],
                    envelopes,
                    frame_filter=frame_filter,
                    ack_timeout=faults.ack_timeout if faults else None,
                    fault_after=fault_after,
                    fault_callback=fault_callback,
                    fault_mode=fault_mode,
                    retry=client_retry,
                    retry_key=worker_id,
                )
            )
        feed_stats = await asyncio.wait_for(asyncio.gather(*feeders), timeout)
        lost_rows = sum(
            sum(stats["undelivered"].values()) for stats in feed_stats
        )
        if lost_rows:
            combiner.core.count_lost(lost_rows)
        await combiner.wait_drained(timeout)
        wall = time.perf_counter() - t_start
        live_tasks = [t for t in daemon_tasks if not t.done()]
        if live_tasks:
            await asyncio.wait_for(asyncio.gather(*live_tasks), timeout)
        outcome.append((combiner.result(), wall))
    finally:
        for task in daemon_tasks:
            if not task.done():
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError, ServiceError):
                    await task
        for daemon in inline_daemons:
            with contextlib.suppress(Exception):
                await daemon.close()
        for worker in process_workers:
            worker.stop()
        await combiner.close()


def run_distributed_collection(
    oracle: FrequencyOracle,
    values: np.ndarray,
    *,
    num_ingest: int = 2,
    chunk_size: int = 65_536,
    timestamps: np.ndarray | None = None,
    window: WindowSpec | None = None,
    backend: str = "inline",
    placement: str = "contiguous",
    credit_window: int = DEFAULT_CREDIT_WINDOW,
    rng: np.random.Generator | int | None = None,
    ledger: PrivacyLedger | None = None,
    faults: FaultPlan | None = None,
    lease_timeout: float | None = None,
    checkpoint_path: str | None = None,
    checkpoint_every_ships: int = 8,
    timeout: float = 300.0,
) -> ServiceResult:
    """Collect a population through the socket-level distributed service.

    The orchestrator validates, charges and shards the population
    through the shard plan
    :func:`~repro.protocol.simulation.run_sharded_collection` uses —
    same shards, same per-shard spawned generators, same ``chunk_size``
    chunks — so both privatize the same report batches (each worker's in
    one :meth:`~repro.core.mechanism.FrequencyOracle.privatize_chunks`
    call); it then drives one client per ingest worker over real
    loopback TCP, with the combiner merging the fleet's partials.
    Because the accumulator algebra is exact, ``estimated_counts`` is
    **bit-identical** to the single-host pipeline for a fixed
    ``(num_ingest, chunk_size, rng)``, including under injected
    duplicate delivery and worker restarts, on either backend.  A
    windowed run is a function of its inputs too: each worker judges
    lateness against its own watermark, so the estimates, sealed windows
    and late count equal one
    :class:`~repro.protocol.streaming.EventTimeCollector` per shard
    (that shard's envelopes in client order) with the shards' panes
    merged — on either backend, at any ``credit_window``, and under
    duplicates, worker restarts and combiner crashes.  Lease eviction is
    the one exception: a worker that heals after its lease expired finds
    panes sealed without it, and its reports for them count late.

    Parameters beyond the ``run_sharded_collection`` ones:

    timestamps:
        Event time per user, aligned with ``values`` and finite; each
        envelope carries its users' times.  A windowed run needs them.
    placement:
        ``"contiguous"`` mirrors the single-host shard split (the
        bit-identity configuration).  ``"round_robin"`` deals users
        ``w, w + N, w + 2N, …`` to worker ``w`` — every worker's
        event-time frontier then advances together, which is the
        realistic shape for watermark/lateness experiments (contiguous
        splits leave each worker stuck in one region of event time, so
        panes only seal at drain).
    backend:
        ``"inline"`` (all daemons in this process's event loop) or
        ``"process"`` (one spawned OS process per ingest worker).
    credit_window:
        Envelopes a client may have unacked.  Each ingest daemon folds
        the envelopes queued on its link as one batch whenever the link
        goes idle and acks it in one frame, so this also bounds a batch;
        redelivery dedup and backpressure stay per envelope, and no
        output depends on it.
    faults:
        A :class:`~repro.protocol.chaos.FaultPlan` to inject during the
        run — frame drops/duplicates/delays, scheduled worker
        kill/restart/partition, combiner crashes.  Frame duplicates and
        worker restarts must leave estimates bit-identical; combiner
        crashes additionally need ``checkpoint_path`` (restore +
        redelivery make them bit-invisible too); worker kills and
        partitions need ``lease_timeout`` so the fleet degrades
        gracefully instead of hanging.  Worker restarts need the
        process backend (an inline daemon shares this process); kills
        and partitions need the inline backend (the fault is simulated
        inside the daemon).
    lease_timeout:
        Seconds of combiner-side silence after which an undrained
        worker is evicted from the expected set: the merged watermark
        stops waiting on its frontier, its unacked reports are counted
        ``lost`` (``absorbed + late + lost == n``), and the result is
        marked ``degraded`` with the eviction noted in the ledger.
        With leases on, each ingest worker reports its frontier to the
        combiner every ``lease_timeout / 4`` of idle link, keeping its
        lease fresh even when no uploads arrive.
    checkpoint_path:
        When set, the combiner snapshots its full merge state to this
        file (atomic rename) and a combiner started over an existing
        file restores and resumes from it.  Ship acks then carry a
        ``durable`` flag and workers retain acked-but-not-yet-durable
        ships for reshipment, so a crash between ship and checkpoint
        loses nothing.
    checkpoint_every_ships:
        Snapshot cadence K: a checkpoint every K ships received, plus
        one before every drain ack and after every lease eviction.  The
        cadence is a pure performance dial — the durable flag + at-risk
        reshipment make recovery bit-identical at *any* K — trading
        steady-state fsync overhead against recovery redelivery volume.
        The default (K=8) keeps the overhead under the 10% acceptance
        bar at 1M users; K=1 makes every ship durable before it is
        acked at ~3ms per fsync; E21 measures the curve.
    timeout:
        Hard wall-clock bound on the socket phase; a wedged fleet
        raises :class:`ServiceError` rather than hanging a test run.

    Every frame on every link is held to
    :data:`~repro.core.serialization.MAX_FRAME_BYTES`; a message over
    the cap is refused at the sender.
    """
    check_positive_int(num_ingest, name="num_ingest")
    check_positive_int(chunk_size, name="chunk_size")
    if backend not in SERVICE_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {SERVICE_BACKENDS}"
        )
    if placement not in ("contiguous", "round_robin"):
        raise ValueError(
            f"placement must be 'contiguous' or 'round_robin', got {placement!r}"
        )
    window = _check_window(window)
    if window is not None and timestamps is None:
        raise ValueError("a windowed collection needs timestamps")
    if lease_timeout is not None and not lease_timeout > 0:
        raise ValueError(f"lease_timeout must be > 0, got {lease_timeout!r}")
    check_positive_int(checkpoint_every_ships, name="checkpoint_every_ships")
    if faults is not None:
        if faults.crash_combiner_at_ships and checkpoint_path is None:
            raise ValueError(
                "crash_combiner_at_ships needs checkpoint_path: a restarted "
                "combiner can only resume from a checkpoint file"
            )
        for wf in faults.worker_faults:
            if not 0 <= wf.worker < num_ingest:
                raise ValueError(
                    f"WorkerFault worker {wf.worker} outside [0, {num_ingest})"
                )
            if wf.kind == "restart" and backend != "process":
                raise ValueError(
                    "a 'restart' WorkerFault needs backend='process' — an "
                    "inline daemon shares the orchestrator's process"
                )
            if wf.kind == "partition" and backend != "inline":
                raise ValueError(
                    "a 'partition' WorkerFault needs backend='inline' (the "
                    "partition is simulated inside the daemon)"
                )
            if wf.kind in ("kill", "partition") and lease_timeout is None:
                raise ValueError(
                    f"a {wf.kind!r} WorkerFault needs lease_timeout: without "
                    "leases the combiner waits on the silent worker forever"
                )
            if wf.kind == "kill" and backend != "inline":
                raise ValueError(
                    "a 'kill' WorkerFault needs backend='inline' (the dead "
                    "worker is simulated inside the daemon)"
                )
    ledger, shards = _plan_shards(
        oracle,
        values,
        num_ingest,
        count_name="num_ingest",
        label="distributed-collection",
        rng=rng,
        ledger=ledger,
        timestamps=timestamps,
        round_robin=placement == "round_robin",
    )
    worker_envelopes = [
        _privatize_envelopes(oracle, w, shard_values, shard_ts, chunk_size, gen)
        for w, (shard_values, shard_ts, gen) in enumerate(shards)
    ]
    if faults is not None:
        for wf in faults.worker_faults:
            if wf.after_envelopes > len(worker_envelopes[wf.worker]):
                raise ValueError(
                    f"WorkerFault on worker {wf.worker} fires after "
                    f"{wf.after_envelopes} envelopes but that worker only "
                    f"ships {len(worker_envelopes[wf.worker])}"
                )
    outcome: list[tuple[ServiceResult, float]] = []
    asyncio.run(
        _run_service(
            oracle,
            worker_envelopes,
            window=window,
            backend=backend,
            credit_window=credit_window,
            faults=faults,
            lease_timeout=lease_timeout,
            checkpoint_path=checkpoint_path,
            checkpoint_every_ships=checkpoint_every_ships,
            timeout=timeout,
            outcome=outcome,
        )
    )
    [(result, wall)] = outcome
    if result.evicted_workers:
        for worker_id in result.evicted_workers:
            ledger.add_note(
                f"distributed-collection: evicted worker {worker_id} after "
                "lease expiry (frontier released, unacked reports lost)"
            )
        total = (
            result.absorbed_reports + result.late_reports + result.lost_reports
        )
        ledger.add_note(
            f"distributed-collection: degraded round — {result.lost_reports} "
            f"of {total} reports lost to evicted workers "
            f"{list(result.evicted_workers)}"
        )
    return replace(result, wall_seconds=wall, backend=backend, ledger=ledger)

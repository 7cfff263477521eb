"""Deterministic chaos harness for the distributed collection service.

The paper's deployments run LDP collection as always-on fleet
infrastructure where faults are the norm: frames vanish on flaky links,
devices upload twice, ingest workers get OOM-killed and respawned,
aggregators restart, a rack loses its uplink for a minute.  The service
(:mod:`repro.protocol.service`) claims those faults are *bit-invisible
or honestly accounted* — a claim worth property-testing, which needs
faults that are **reproducible**: the same :class:`FaultPlan` must
inject the same faults at the same points no matter how the event loop
interleaves the fleet.

Determinism contract
--------------------
Every randomized decision a plan makes is a pure function of
``(seed, decision scope)`` — hashed with blake2b, never drawn from a
shared stream — so it is independent of call *order* and of how many
other decisions were made first:

* frame fates (drop / duplicate / delay) are keyed by
  ``(seed, worker_id, envelope_id, attempt)``: worker 3's fate for
  envelope ``w3:c7`` on delivery attempt 2 is the same whether worker 0
  ran first or last, and a retry (attempt + 1) re-rolls, so a dropped
  frame is eventually delivered;
* scheduled faults (combiner crashes, worker kill/restart/partition)
  are not randomized at all — they fire at explicit envelope / ship
  ordinals written in the plan.

The same contract extends to
:meth:`~repro.protocol.service.RetryPolicy.delay` jitter: seeded and
schedule-independent, so replays back off identically.

Fault vocabulary
----------------
Transport-layer frame faults (client → ingest hop, where device uplinks
are flakiest): ``drop_rate`` discards the frame on the wire (recovered
by the client's ``ack_timeout`` retransmit — a plan with drops must set
one), ``duplicate_rate`` / ``duplicate_every`` deliver an envelope
twice (at-least-once fault injection; dedup keys must make it
invisible), ``delay_rate`` holds a frame for ``delay_seconds`` before
sending (exercises idle-flush, heartbeat, and lease paths without
breaking TCP's in-order delivery).

Process faults: ``crash_combiner_at_ships`` SIGKILLs the combiner
between *receiving* a ship and *acking* it (the recovery-critical
window) — each ordinal counts ships received by the current combiner
incarnation and is consumed in order, so ``(3, 5)`` crashes the first
combiner at its 3rd ship and its successor at its own 5th.
:class:`WorkerFault` kills (``"kill"`` — permanent, triggers lease
eviction and lost accounting), restarts (``"restart"`` — SIGKILL +
respawn, process backend), or partitions (``"partition"`` — the worker
loses its combiner uplink for ``partition_seconds``, long enough for
its lease to expire, then heals and reships) one ingest worker after
it has acked ``after_envelopes`` client envelopes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.protocol.service import RetryPolicy

__all__ = [
    "WORKER_FAULT_KINDS",
    "FRAME_ACTIONS",
    "WorkerFault",
    "FrameFilter",
    "FaultPlan",
    "chaos_unit",
]

#: Supported worker-level fault kinds.
WORKER_FAULT_KINDS = ("restart", "kill", "partition")

#: Possible fates of one frame delivery attempt.
FRAME_ACTIONS = ("deliver", "drop", "delay")


def chaos_unit(seed: int, *scope: object) -> float:
    """A uniform [0, 1) value determined purely by ``(seed, scope)``.

    blake2b over the repr of the scope tuple — no shared RNG stream, so
    the value is independent of every other decision's existence and of
    call order.  This is the primitive behind every randomized chaos
    decision and the retry-jitter contract.
    """
    digest = hashlib.blake2b(
        repr((int(seed), scope)).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled fault against one ingest worker.

    The fault fires after the worker's client has had ``after_envelopes``
    envelopes *acked* (a quiescent point for ``"kill"``, so lost
    accounting is exact: every acked envelope was merged end-to-end,
    every unacked one never reached the combiner).
    """

    worker: int
    after_envelopes: int
    kind: str = "kill"
    partition_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {WORKER_FAULT_KINDS}, got {self.kind!r}"
            )
        if int(self.worker) < 0:
            raise ValueError(f"worker must be >= 0, got {self.worker}")
        if int(self.after_envelopes) < 1:
            raise ValueError(
                f"after_envelopes must be >= 1, got {self.after_envelopes}"
            )
        if self.kind == "partition":
            if not (
                math.isfinite(self.partition_seconds)
                and self.partition_seconds > 0
            ):
                raise ValueError(
                    "a partition fault needs partition_seconds > 0, got "
                    f"{self.partition_seconds!r}"
                )
        elif self.partition_seconds:
            raise ValueError(
                "partition_seconds only applies to kind='partition'"
            )


@dataclass(frozen=True)
class FrameFilter:
    """One worker's view of the plan's frame faults (client → worker hop).

    Stateless: both decisions are pure functions of the plan seed plus
    the decision scope, so concurrent feeders cannot perturb each
    other's fault schedules (the determinism contract above).
    """

    seed: int
    worker_id: int
    drop_rate: float
    duplicate_rate: float
    delay_rate: float
    delay_seconds: float
    duplicate_every: int | None

    def copies(self, index: int, envelope_id: str) -> int:
        """Delivery copies of envelope ``index`` (1, or 2 when duplicated)."""
        if self.duplicate_every is not None and index % self.duplicate_every == 0:
            return 2
        if self.duplicate_rate > 0.0 and (
            chaos_unit(self.seed, "dup", self.worker_id, str(envelope_id))
            < self.duplicate_rate
        ):
            return 2
        return 1

    def action(self, envelope_id: str, attempt: int) -> str:
        """Fate of one delivery attempt: ``deliver`` | ``drop`` | ``delay``.

        ``attempt`` is the per-envelope send count (0-based); it is part
        of the scope, so a retransmit re-rolls and a dropped envelope is
        eventually delivered (for any ``drop_rate < 1``).
        """
        if not (self.drop_rate or self.delay_rate):
            return "deliver"
        u = chaos_unit(
            self.seed, "frame", self.worker_id, str(envelope_id), int(attempt)
        )
        if u < self.drop_rate:
            return "drop"
        if u < self.drop_rate + self.delay_rate:
            return "delay"
        return "deliver"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of faults for one service run.

    Replaces the ad-hoc ``duplicate_every`` / ``restart_worker`` flags
    the orchestrator used to take: one object carries every fault the
    run injects, and two runs with the same plan inject identical
    faults (see the module docstring's determinism contract).
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    duplicate_every: int | None = None
    ack_timeout: float | None = None
    crash_combiner_at_ships: tuple[int, ...] = ()
    worker_faults: tuple[WorkerFault, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {rate!r}")
        if self.drop_rate + self.delay_rate >= 1.0:
            raise ValueError("drop_rate + delay_rate must stay below 1")
        if self.drop_rate > 0.0 and self.ack_timeout is None:
            raise ValueError(
                "a plan with drop_rate > 0 needs ack_timeout: a dropped "
                "frame is only recovered by the client's retransmit timer"
            )
        if self.ack_timeout is not None and self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {self.ack_timeout!r}")
        if self.delay_rate > 0.0 and self.delay_seconds <= 0.0:
            raise ValueError("delay_rate > 0 needs delay_seconds > 0")
        if self.delay_seconds < 0.0:
            raise ValueError("delay_seconds must be >= 0")
        if self.duplicate_every is not None and int(self.duplicate_every) < 1:
            raise ValueError(
                f"duplicate_every must be >= 1, got {self.duplicate_every}"
            )
        for at in self.crash_combiner_at_ships:
            if int(at) < 1:
                raise ValueError(
                    f"crash_combiner_at_ships ordinals must be >= 1, got {at}"
                )
        workers = [wf.worker for wf in self.worker_faults]
        if len(set(workers)) != len(workers):
            raise ValueError("at most one WorkerFault per worker")

    @property
    def injects_frame_faults(self) -> bool:
        return bool(
            self.drop_rate
            or self.duplicate_rate
            or self.delay_rate
            or self.duplicate_every is not None
        )

    def frame_filter(self, worker_id: int) -> FrameFilter | None:
        """The frame-fault filter for one worker's client (None if clean)."""
        if not self.injects_frame_faults:
            return None
        return FrameFilter(
            seed=self.seed,
            worker_id=int(worker_id),
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            delay_rate=self.delay_rate,
            delay_seconds=self.delay_seconds,
            duplicate_every=self.duplicate_every,
        )

    def worker_fault(self, worker_id: int) -> WorkerFault | None:
        """The scheduled fault against one worker, if any."""
        for wf in self.worker_faults:
            if wf.worker == int(worker_id):
                return wf
        return None

    def retry_policy(self, default: "RetryPolicy") -> "RetryPolicy":
        """The client retry policy a chaos run should use.

        The plan's ``seed`` becomes the policy's jitter salt, so two
        runs of the same plan back off identically while distinct
        retriers (keyed per worker) stay de-synchronized.
        """
        from dataclasses import replace

        return replace(default, salt=self.seed)

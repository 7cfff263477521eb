"""Client/aggregator round simulation and the sharded collection pipeline.

The tutorial stresses that deployed LDP is a *distributed system*: a
fleet of clients each encodes and perturbs locally, a collector sees
only reports, and the analyst sees only estimates.  This module gives
experiments and examples that shape explicitly rather than calling
oracle methods inline — it also measures the operational quantities the
deployments care about (report bytes per user, encode/decode wall time).

Two collection shapes are offered:

* :func:`run_collection` — the one-shot tutorial shape: privatize the
  whole population, estimate once.
* :func:`run_sharded_collection` — the deployment shape: clients are
  privatized in bounded-memory chunks, each shard folds its chunks into
  its own mergeable :class:`~repro.core.mechanism.Accumulator`, shard
  accumulators are merged into a *fresh* accumulator (never into a
  shard's own state), and a single ``finalize`` produces the estimates.
  Raw report batches never outlive the chunk after theirs, so peak
  memory is ``O(workers · chunk)`` regardless of the population size.

Shards can be collected on two executor backends:

* ``"serial"`` — in the calling thread, one shard after another, with
  one client thread privatizing the round's next chunk (of this shard
  or the next) while the calling thread absorbs the current one (two
  chunks in flight, :func:`~repro.util.client._privatize_ahead`);
* ``"thread"`` — a thread pool (NumPy kernels release the GIL for most
  of the work, so encode scales).

Both backends consume identical per-shard RNG streams, so for a fixed
``(num_shards, chunk_size, rng)`` the estimates are bit-identical
across backends.  Collection across processes is the service's job
(:func:`~repro.protocol.service.run_distributed_collection`), which
deals its population through this module's one shard plan
(:func:`_plan_shards`) and so privatizes the same report batches.

Mechanisms own all the cryptographic substance; this module adds
population handling, sharding and bookkeeping.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.budget import PrivacyLedger
from repro.core.mechanism import FrequencyOracle, HashedReports, IndexedBitReports
from repro.util.client import _chunks, _privatize_ahead
from repro.util.kernels import kernel_timing_scope
from repro.util.rng import ensure_generator
from repro.util.validation import check_positive_int

__all__ = [
    "BACKENDS",
    "CollectionStats",
    "ShardStats",
    "ShardedCollectionStats",
    "run_collection",
    "run_sharded_collection",
    "report_bytes",
]

#: Executor backends understood by :func:`run_sharded_collection`.
BACKENDS = ("serial", "thread")


@dataclass(frozen=True)
class CollectionStats:
    """Outcome and operational metrics of one simulated collection round."""

    estimated_counts: np.ndarray
    num_users: int
    encode_seconds: float
    decode_seconds: float
    bytes_per_report: float

    @property
    def total_bytes(self) -> float:
        return self.bytes_per_report * self.num_users


@dataclass(frozen=True)
class ShardStats:
    """Operational metrics of one shard of a sharded collection.

    ``encode_seconds``/``decode_seconds`` sum, over the shard's chunks,
    the wall time of each ``privatize`` and each ``absorb``.  On the
    serial backend a client thread privatizes (and times) the round's
    next chunk while the shard absorbs the current one, so the two
    overlap and their sum can exceed the shard's wall time.

    ``decode_hash_seconds``/``decode_accumulate_seconds`` split the
    decode-kernel compute between hashing (affine evaluation + modular
    reductions) and accumulation (compare + count), as reported by
    :func:`repro.util.kernels.kernel_timing_scope` on the per-thread CPU
    clock.  Unlike ``decode_seconds`` (wall time around ``absorb``,
    which inflates with concurrent shard threads time-slicing shared
    cores and also covers non-kernel accumulator work), these stay flat
    in the shard count — they measure CPU the decode kernels consumed.
    """

    shard_index: int
    num_users: int
    num_chunks: int
    encode_seconds: float
    decode_seconds: float
    bytes_per_report: float
    decode_hash_seconds: float = 0.0
    decode_accumulate_seconds: float = 0.0

    @property
    def total_bytes(self) -> float:
        return self.bytes_per_report * self.num_users


@dataclass(frozen=True)
class ShardedCollectionStats:
    """Outcome and metrics of a sharded, chunked collection round.

    ``encode_seconds``/``decode_seconds`` sum the per-shard work (CPU
    view); ``wall_seconds`` is end-to-end elapsed time, which is smaller
    under a thread pool.  ``finalize_seconds`` is reported separately
    from ``merge_seconds`` because for transform-domain oracles (HR) the
    real decode — the inverse WHT — happens inside ``finalize``.
    ``ledger`` is the privacy account the collection charged (each user
    reports once, so one spend of the oracle's declared cost).
    """

    estimated_counts: np.ndarray
    num_users: int
    num_shards: int
    chunk_size: int
    shards: tuple[ShardStats, ...]
    merge_seconds: float
    finalize_seconds: float
    wall_seconds: float
    backend: str = "serial"
    ledger: PrivacyLedger | None = None

    @property
    def encode_seconds(self) -> float:
        return sum(s.encode_seconds for s in self.shards)

    @property
    def decode_seconds(self) -> float:
        return sum(s.decode_seconds for s in self.shards)

    @property
    def decode_hash_seconds(self) -> float:
        """Summed decode-kernel hashing compute across shards."""
        return sum(s.decode_hash_seconds for s in self.shards)

    @property
    def decode_accumulate_seconds(self) -> float:
        """Summed decode-kernel compare/count compute across shards."""
        return sum(s.decode_accumulate_seconds for s in self.shards)

    @property
    def total_bytes(self) -> float:
        return sum(s.total_bytes for s in self.shards)

    @property
    def users_per_second(self) -> float:
        return self.num_users / self.wall_seconds if self.wall_seconds > 0 else 0.0


def report_bytes(reports: object, num_users: int) -> float:
    """Wire size per report, from the in-memory batch representation.

    Dense matrices count their row width; seeded/index reports count
    their fixed fields.  This matches how the deployments account
    communication (RAPPOR: m bits; OLH: seed + value; HCMS: 1 bit +
    indices).
    """
    if num_users <= 0:
        raise ValueError("num_users must be >= 1")
    if isinstance(reports, HashedReports):
        return (reports.seeds.itemsize + reports.values.itemsize)
    if isinstance(reports, IndexedBitReports):
        return (reports.indices.itemsize + 1.0)
    arr = np.asarray(reports)
    if arr.ndim == 2:
        # One row per user; uint8 0/1 matrices are bit vectors costing
        # m/8 bytes on the wire.  dtype + max is a single cheap pass —
        # no sort/unique materialization over the whole batch.
        if arr.dtype == np.uint8 and (arr.size == 0 or int(arr.max()) <= 1):
            return arr.shape[1] / 8.0
        return float(arr.shape[1] * arr.itemsize)
    if arr.ndim == 1:
        return float(arr.itemsize)
    raise TypeError(f"unrecognized report batch type {type(reports).__name__}")


def run_collection(
    oracle: FrequencyOracle,
    values: np.ndarray,
    rng: np.random.Generator | int | None = None,
) -> CollectionStats:
    """Simulate one full round: privatize on 'clients', estimate at server."""
    gen = ensure_generator(rng)
    vals = np.asarray(values)
    t0 = time.perf_counter()
    reports = oracle.privatize(vals, rng=gen)
    t1 = time.perf_counter()
    counts = oracle.estimate_counts(reports)
    t2 = time.perf_counter()
    return CollectionStats(
        estimated_counts=counts,
        num_users=int(vals.shape[0]),
        encode_seconds=t1 - t0,
        decode_seconds=t2 - t1,
        bytes_per_report=report_bytes(reports, int(vals.shape[0])),
    )


def _plan_shards(
    oracle: FrequencyOracle,
    values: np.ndarray,
    num_shards: int,
    *,
    count_name: str,
    label: str,
    rng: np.random.Generator | int | None,
    ledger: PrivacyLedger | None,
    timestamps: np.ndarray | None = None,
    round_robin: bool = False,
) -> tuple[
    PrivacyLedger, list[tuple[np.ndarray, np.ndarray | None, np.random.Generator]]
]:
    """The one shard plan of both collection entry points.

    Checks ``values``, ``timestamps`` and the shard count (named
    ``count_name`` in errors), charges ``ledger`` (a fresh one when
    ``None``) once under ``label`` before any client is privatized, spawns
    one generator per shard from ``rng`` and splits the population
    contiguously or, with ``round_robin``, user ``i`` to shard
    ``i % num_shards``.  Returns the ledger and one ``(values, timestamps
    or None, generator)`` per shard.
    """
    vals = np.asarray(values)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    ts = None
    if timestamps is not None:
        ts = np.asarray(timestamps, dtype=np.float64)
        if ts.shape != vals.shape:
            raise ValueError(
                f"timestamps {ts.shape} must align with values {vals.shape}"
            )
        if not np.all(np.isfinite(ts)):
            raise ValueError("timestamps must be finite")
    if num_shards > vals.shape[0]:
        raise ValueError(
            f"{count_name} ({num_shards}) cannot exceed the population "
            f"size ({vals.shape[0]})"
        )
    if ledger is None:
        ledger = PrivacyLedger()
    spend = getattr(oracle, "privacy_spend", None)
    if callable(spend):
        # Shards partition the population (disjoint users), so the whole
        # round costs each user exactly one declared release.  Every call
        # privatizes with fresh randomness — an independent release even
        # for one-time mechanisms — so the charge key is unique per call.
        ledger.charge(spend(), label=label, key=object())
    gens = ensure_generator(rng).spawn(num_shards)

    def split(arr: np.ndarray) -> list[np.ndarray]:
        if round_robin:
            return [arr[w::num_shards] for w in range(num_shards)]
        return np.array_split(arr, num_shards)

    shard_ts = split(ts) if ts is not None else [None] * num_shards
    return ledger, list(zip(split(vals), shard_ts, gens))


def _privatize_chunk(
    oracle: FrequencyOracle, chunk: np.ndarray, gen: np.random.Generator
) -> tuple[object, float, float]:
    """One chunk's reports, the seconds ``privatize`` took and bytes per report."""
    t0 = time.perf_counter()
    reports = oracle.privatize(chunk, rng=gen)
    seconds = time.perf_counter() - t0
    return reports, seconds, report_bytes(reports, int(chunk.shape[0]))


def _collect_shard(
    oracle: FrequencyOracle,
    shard_index: int,
    num_users: int,
    batches: Iterator[tuple[object, float, float]],
):
    """Fold one shard's privatized chunks into a fresh accumulator.

    ``batches`` yields each chunk's ``_privatize_chunk`` result in chunk
    order: on the serial backend it is the shard's share of the round's
    one client pipeline (:func:`~repro.util.client._privatize_ahead`,
    which privatizes the next chunk, of this shard or the next, while
    this thread absorbs the current one); on the thread backend it
    privatizes each chunk inline.  Each chunk's reports are dropped once
    absorbed, so the accumulator is the only state that survives.
    """
    acc = oracle.accumulator()
    encode = decode = 0.0
    bytes_per_report = 0.0
    num_chunks = 0
    with kernel_timing_scope() as kernel_timing:
        for reports, seconds, bytes_per_report in batches:
            t0 = time.perf_counter()
            acc.absorb(reports)
            decode += time.perf_counter() - t0
            encode += seconds
            num_chunks += 1
            del reports
    stats = ShardStats(
        shard_index=shard_index,
        num_users=num_users,
        num_chunks=num_chunks,
        encode_seconds=encode,
        decode_seconds=decode,
        bytes_per_report=bytes_per_report,
        decode_hash_seconds=kernel_timing.hash_seconds,
        decode_accumulate_seconds=kernel_timing.accumulate_seconds,
    )
    return acc, stats


def _resolve_backend(backend: str | None, workers: int | None) -> str:
    """Pick the executor backend, honouring the pre-backend workers API."""
    if backend is None:
        return "thread" if workers is not None and workers > 1 else "serial"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


def run_sharded_collection(
    oracle: FrequencyOracle,
    values: np.ndarray,
    *,
    num_shards: int = 4,
    chunk_size: int = 65_536,
    workers: int | None = None,
    backend: str | None = None,
    rng: np.random.Generator | int | None = None,
    ledger: PrivacyLedger | None = None,
) -> ShardedCollectionStats:
    """Collect a population through the sharded accumulator pipeline.

    Users are split into ``num_shards`` contiguous shards.  Each shard
    privatizes its clients in chunks of at most ``chunk_size``, folding
    every chunk's reports into the shard's accumulator and discarding
    them — the whole report batch is never materialized.  On the serial
    backend one client thread privatizes the round's chunks in order,
    every shard's as one list, one chunk ahead of the calling thread's
    absorb, so privatization and decode share the cores, at most two
    chunks' reports are alive and the pipeline runs on across shard
    boundaries; a round of one chunk privatizes inline.  The thread
    backend already overlaps shards, and privatizes inline.  Shard
    accumulators are then merged *into a fresh accumulator* in shard
    order and finalized once; no shard's state is mutated by the merge,
    so per-shard accumulators (and anything derived from them) remain
    valid after the call.

    Parameters
    ----------
    oracle:
        Any frequency oracle with an ``accumulator()``.
    values:
        One domain value per user.
    num_shards:
        Number of independent shard accumulators (≥ 1).
    chunk_size:
        Maximum clients privatized at once within a shard (the memory
        bound: the serial backend holds at most two chunks' reports).
    workers:
        Pool size for the ``"thread"`` backend.  ``None`` defaults to
        ``num_shards`` there; the serial backend ignores it.
    backend:
        ``"serial"`` or ``"thread"``.  ``None`` keeps the historical
        behaviour: a thread pool when ``workers > 1``, serial otherwise.
        Estimates are bit-identical across backends for every oracle,
        because both consume the same per-shard streams.
    rng:
        Master seed/generator.  Each shard draws from its own generator
        spawned off the master, so results are reproducible and
        *independent of the worker schedule and backend*.
    ledger:
        Privacy account to charge (a fresh audit-only ledger when
        ``None``).  One collection is one report per user — a single
        spend of the oracle's declared cost
        (:meth:`~repro.core.mechanism.LocalMechanism.privacy_spend`),
        charged *before* any client is privatized so a capped ledger
        refuses the round outright.

    Returns
    -------
    ShardedCollectionStats
        Final estimates plus per-shard encode/decode timings, bytes and
        the populated ledger.
    """
    check_positive_int(num_shards, name="num_shards")
    check_positive_int(chunk_size, name="chunk_size")
    if workers is not None:
        check_positive_int(workers, name="workers")
    chosen = _resolve_backend(backend, workers)
    ledger, shards = _plan_shards(
        oracle,
        values,
        num_shards,
        count_name="num_shards",
        label="sharded-collection",
        rng=rng,
        ledger=ledger,
    )
    pool_size = min(workers if workers is not None else num_shards, num_shards)

    def privatized(planned):
        """The chunks of the ``planned`` shards, privatized in order."""
        return (
            _privatize_chunk(oracle, chunk, gen)
            for shard_values, _, gen in planned
            for chunk in _chunks(shard_values, chunk_size)
        )

    def collect(index: int, batches: Iterator[tuple[object, float, float]]):
        return _collect_shard(oracle, index, shards[index][0].shape[0], batches)

    def collect_inline(index: int):
        return collect(index, privatized(shards[index : index + 1]))

    t_start = time.perf_counter()
    if chosen == "serial":
        chunk_counts = [
            -(-len(shard_values) // chunk_size) for shard_values, _, _ in shards
        ]
        with _privatize_ahead(privatized(shards), sum(chunk_counts)) as batches:
            outcomes = [
                collect(index, islice(batches, count))
                for index, count in enumerate(chunk_counts)
            ]
    elif pool_size > 1:
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(collect_inline, range(num_shards)))
    else:
        outcomes = [collect_inline(index) for index in range(num_shards)]

    t_merge = time.perf_counter()
    merged = oracle.accumulator()
    for acc, _ in outcomes:
        merged.merge(acc)
    t_finalize = time.perf_counter()
    counts = merged.finalize()
    t_end = time.perf_counter()

    return ShardedCollectionStats(
        estimated_counts=counts,
        num_users=sum(stats.num_users for _, stats in outcomes),
        num_shards=num_shards,
        chunk_size=chunk_size,
        shards=tuple(stats for _, stats in outcomes),
        merge_seconds=t_finalize - t_merge,
        finalize_seconds=t_end - t_finalize,
        wall_seconds=t_end - t_start,
        backend=chosen,
        ledger=ledger,
    )

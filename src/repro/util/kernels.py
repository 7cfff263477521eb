"""Fused decode kernels: the aggregator-side hot path, tiled and branch-free.

Every E14–E17 profile says the same thing: privatization is cheap and
*decoding* is the bottleneck.  The reference aggregator path for local
hashing — ``_reference_hash_cross`` + ``==`` + ``.sum`` — spends its
time in two places the hardware hates:

1. **Two uint64 divisions per cell.**  The affine hash
   ``((a·x + b) mod p) mod g`` over the Mersenne prime ``p = 2³¹ − 1``
   compiles to two hardware ``div`` instructions per (report, candidate)
   pair, each tens of cycles and unpipelined.
2. **Materialized intermediates.**  The ``(n, d)`` int64 hash matrix,
   the bool comparison matrix and several uint64 temporaries each cost a
   full write+read of main memory per chunk — and when several shard
   threads decode at once, those multi-MB temporaries evict each other
   from the shared cache, which is why summed decode time *grows* with
   shard count under the thread backend.

This module replaces both:

* :func:`mersenne_reduce` — branch-free shift-add reduction modulo the
  Mersenne prime (``2³¹ ≡ 1 (mod p)`` makes ``x mod p`` two fold steps
  plus one conditional subtract; no division).  Client-side hashing
  (``hash_elementwise``, ``SeededHashFamily``) uses it.
* :class:`FusedSupportKernel` — the fused hash→compare→accumulate
  support-count kernel.  It never computes ``h mod g``.  For a candidate
  ``x`` and a report ``(a, b, y)``, with ``a, b, x < p`` and ``y < g``:

  - ``h = a·x + b ≤ p(p − 1) < 2⁶²`` is the only uint64 arithmetic;
  - one fold ``(h & p) + (h >> 31)`` is at most ``2p − 2`` (``2p − 3``
    is the largest a valid input reaches), so it is written straight
    into uint32, and one wrapping ``r − p`` plus ``minimum`` gives the
    canonical ``r = h mod p``;
  - ``r mod g == y`` exactly when ``g`` divides ``t = r + g − y``, and
    ``1 ≤ t < p + g ≤ 2³² − 2``, so ``t`` is a uint32;
  - with ``g = 2ᵏ·o``, ``o`` odd, ``g | t`` exactly when
    ``rotr(t·o⁻¹ mod 2³², k) ≤ ⌊(2³² − 1)/g⌋`` (Hacker's Delight, 2nd
    ed., §10-17: multiplying by ``o⁻¹`` maps the multiples of ``g``
    onto ``2ᵏ·[0, ⌊(2³² − 1)/g⌋]`` and everything else elsewhere; the
    rotate moves nonzero low bits above the bound).  At ``k = 0`` the
    rotate is the identity.  When ``g`` is a power of two (``o = 1``:
    BLH, OLH at ε = 1 and 2) the test is the two-pass
    ``r & (g − 1) == y`` instead; every other ``g`` takes the
    divisibility test.

  It tiles (candidates × reports) into blocks of at most 2¹⁷ cells over
  per-thread scratch (~2.1 MB; the size is set by how often two pool
  threads must re-take the GIL, see ``_TILE_CELLS``).  Tiles are shaped
  per call from the report span: rows of ``min(span, 2¹⁴)`` reports,
  because NumPy's broadcast passes pay a fixed cost per row, and each
  row as many candidates as the cell budget allows at its own width
  (``_tile_shape``), so a span's short tail row runs in wide blocks.  It
  counts matches through a uint8 view into uint16 tile sums and adds
  them straight into int64 counts — the ``(n, d)`` matrix is never
  materialized.  Counts are ``(k, d)`` rows, one per key segment of a
  key-sorted batch (:meth:`FusedSupportKernel.segment_counts`): a tile
  inside one segment reduces its report axis whole, a tile crossing
  segment boundaries reduces at its in-tile cuts with
  ``np.add.reduceat``, and a plain
  :meth:`~FusedSupportKernel.support_counts` call is the one-segment
  case, with no per-tile segment lookup.
  Inputs outside that exact domain (``y ≥ g``, ``a`` or ``b ≥ p``,
  candidates ``≥ p``) are refused with ``ValueError``, never miscounted.
  Report tiles optionally fan out across a shared thread pool (the
  inner loops are pure NumPy and release the GIL), with each task
  accumulating into its own partial counts vector; integer addition is
  associative, so the result is bit-identical regardless of thread
  count or schedule.
* :func:`hadamard_support_counts` — bit-sliced Hadamard candidate
  decoding: report index bit-planes and ±1 signs are packed into machine
  words (:func:`repro.util.wht.pack_bit_planes`), the popcount parity
  ``popcount(j & v) mod 2`` becomes an XOR of planes selected by each
  candidate's bits, and the signed dot contracts via two
  ``np.bitwise_count`` popcounts — 64 reports per word op, replacing the
  int64 matmul NumPy won't BLAS-accelerate.
* :func:`column_support_counts` — tiled integer column sums for the
  dense unary (SUE/OUE) support path.

All kernels are integer arithmetic end to end, so their outputs are
**bit-identical** to the reference implementations by construction; the
property suite pins this for every registered oracle.

Kernel plans and caching
------------------------
Streaming consumers (``EventTimeCollector`` panes, ``RepeatedCollector``
rounds, a heavy-hitter group's chunks folded by ``collect_group``)
decode many small report batches against the *same* candidate set.  The
candidate-side setup — premixed candidates + the match-test constants
for local hashing, packed candidate bit masks for Hadamard — is
captured in reusable *plans* (:class:`FusedSupportKernel`,
:class:`HadamardCandidatePlan`) and cached in the process-wide
:data:`kernel_plan_cache`, keyed by the oracle's
config fingerprint plus :func:`candidate_digest`.  Plans are immutable
(their arrays are marked read-only) and hold **no per-batch scratch** —
scratch lives in a per-thread pool below — so cache entries are safe to
share across threads, accumulators, ``copy()`` and serialization
round-trips.  The cache is LRU-bounded (``REPRO_KERNEL_PLAN_CACHE``
caps the entry count; ``0`` disables caching entirely).

Scheduling
----------
Tile tasks fan out across one process-wide ``ThreadPoolExecutor``.  A
forked child inherits the pool object but none of its threads, so the
child forgets it at fork and starts its own on first use.

Timing
------
:func:`kernel_timing_scope` opens a thread-local scope that every kernel
invocation reports into, split into *hash* seconds (affine evaluation +
reductions) and *accumulate* seconds (match test + count).  The sharded
pipeline wraps each shard's ``absorb`` in a scope so ``ShardStats`` can
say where decode time goes.  Stages are timed on the per-thread CPU
clock (``time.thread_time``), which does not advance while the OS has a
thread descheduled: when many shard threads share cores, wall-clock
decode attribution inflates with the number of concurrent shards (each
shard's wall time includes everyone else's time slices) while these
numbers stay flat — they measure the CPU the kernels actually consumed.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_segment_starts
from repro.util.wht import pack_bit_planes, pack_sign_mask

__all__ = [
    "MERSENNE_P",
    "mersenne_reduce",
    "FusedSupportKernel",
    "HadamardCandidatePlan",
    "hadamard_support_counts",
    "column_support_counts",
    "KernelTiming",
    "kernel_timing_scope",
    "kernel_thread_count",
    "KernelPlanCache",
    "kernel_plan_cache",
    "plan_cache_capacity",
    "candidate_digest",
]

#: The Mersenne prime 2³¹ − 1 underlying the affine hash family.
MERSENNE_P = np.uint64(2**31 - 1)

_U31 = np.uint64(31)

# ---------------------------------------------------------------------------
# branch-free modular arithmetic
# ---------------------------------------------------------------------------


def mersenne_reduce(
    x: np.ndarray,
    out: np.ndarray | None = None,
    *,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``x mod (2³¹ − 1)`` for any uint64 input, without division.

    Because ``2³¹ ≡ 1 (mod p)``, splitting ``x = hi·2³¹ + lo`` gives
    ``x ≡ hi + lo``.  Two fold steps bring any 64-bit value under
    ``p + 8`` (first fold: < 2³⁴; second: ≤ p + 7) and one conditional
    subtract lands in ``[0, p)`` — the canonical residue, bit-identical
    to ``x % p``.

    ``out`` may alias ``x`` (the common in-place use).  The low halves go
    to ``scratch``, a uint64 array the shape of ``x`` aliasing neither
    (allocated when ``None``); the conditional subtract is the wrapping
    ``min(x, x − p)``, so no other temporary is made.
    """
    x = np.asarray(x, dtype=np.uint64)
    if out is None:
        out = x.copy()
    elif out is not x:
        np.copyto(out, x)
    lo = np.bitwise_and(out, MERSENNE_P, out=scratch)
    np.right_shift(out, _U31, out=out)
    np.add(out, lo, out=out)
    np.bitwise_and(out, MERSENNE_P, out=lo)
    np.right_shift(out, _U31, out=out)
    np.add(out, lo, out=out)
    np.subtract(out, MERSENNE_P, out=lo)
    np.minimum(out, lo, out=out)
    return out


# ---------------------------------------------------------------------------
# timing scopes
# ---------------------------------------------------------------------------


#: Per-thread CPU clock for kernel stage timing: unlike ``perf_counter``
#: it does not advance while the OS has the thread descheduled, so stage
#: timings stay schedule-independent when many shard threads share cores
#: (summing tile tasks' thread time = total CPU the kernel consumed).
_thread_clock = getattr(time, "thread_time", time.perf_counter)


@dataclass
class KernelTiming:
    """Accumulated decode-kernel compute time, split by kernel stage.

    ``hash_seconds`` covers affine evaluation + modular reductions;
    ``accumulate_seconds`` covers compare + count (or gather + sum).
    Both sum the per-thread CPU clock across tile tasks: schedule- and
    contention-independent, unlike wall time around the kernel call.
    """

    hash_seconds: float = 0.0
    accumulate_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def add(self, hash_seconds: float, accumulate_seconds: float) -> None:
        with self._lock:
            self.hash_seconds += hash_seconds
            self.accumulate_seconds += accumulate_seconds


_scope_local = threading.local()


def _active_timing() -> KernelTiming | None:
    return getattr(_scope_local, "timing", None)


@contextmanager
def kernel_timing_scope():
    """Collect kernel stage timings from every kernel call in this thread.

    Scopes nest: the innermost active scope receives the timings.  Tile
    tasks fanned out to the shared pool report back into the scope that
    was active at the *call site*, so a shard thread wrapping ``absorb``
    sees its own kernels' time even when the tiles ran elsewhere.
    """
    timing = KernelTiming()
    previous = _active_timing()
    _scope_local.timing = timing
    try:
        yield timing
    finally:
        _scope_local.timing = previous


# ---------------------------------------------------------------------------
# kernel plan cache
# ---------------------------------------------------------------------------

_PLAN_CACHE_ENV = "REPRO_KERNEL_PLAN_CACHE"
_PLAN_CACHE_DEFAULT = 64


def plan_cache_capacity() -> int:
    """Entry cap for the process-wide kernel plan cache.

    ``REPRO_KERNEL_PLAN_CACHE`` overrides (``0`` disables caching);
    unparsable values fall back to the default of
    ``_PLAN_CACHE_DEFAULT`` entries.  Plans are small — premixed
    candidates plus packed bit masks, a few hundred KB at heavy-hitter
    scale — so the default cap bounds the cache at tens of MB worst
    case.
    """
    env = os.environ.get(_PLAN_CACHE_ENV, "").strip()
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return _PLAN_CACHE_DEFAULT


def candidate_digest(values: np.ndarray) -> bytes:
    """Content digest of a candidate array, for plan-cache keys.

    Hashes dtype, shape and raw bytes with blake2b: two candidate sets
    collide only if they are byte-identical, so a cached plan can never
    be served for a different candidate list.
    """
    arr = np.ascontiguousarray(values)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


class KernelPlanCache:
    """Process-wide LRU cache of candidate-side decode plans.

    Keys are ``(kind, *config fingerprint parts, candidate digest)``
    tuples built by the oracles; values are immutable plan objects
    (:class:`FusedSupportKernel`, :class:`HadamardCandidatePlan`).
    Because plans hold no per-batch scratch and their arrays are
    read-only, entries are shared freely across threads and
    accumulators — ``copy()`` and ``to_bytes()`` round-trips never see
    the cache at all (nothing cache-related is ever stored on an
    accumulator).

    ``get`` builds outside the lock on a miss: a concurrent builder may
    do duplicate work, but the critical section stays tiny and the
    first-stored plan wins (both builds are deterministic and
    equivalent).
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, build):
        capacity = plan_cache_capacity()
        if capacity <= 0:
            with self._lock:
                self.misses += 1
            return build()
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
        value = build()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return existing
            self.misses += 1
            self._entries[key] = value
            while len(self._entries) > capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: The process-wide plan cache all oracles share.
kernel_plan_cache = KernelPlanCache()


# ---------------------------------------------------------------------------
# shared tile pool
# ---------------------------------------------------------------------------

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_size = 0


def _forget_pool_after_fork() -> None:
    """Drop the inherited tile pool in a forked child.

    ``fork`` copies ``_pool`` but none of its worker threads, so tiles
    queued to it would wait forever.  The child starts its own pool on
    first use; the lock is replaced too, in case another thread held it
    at the fork.
    """
    global _pool, _pool_size, _pool_lock
    _pool = None
    _pool_size = 0
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def kernel_thread_count() -> int:
    """Worker count for the shared tile pool.

    ``REPRO_KERNEL_THREADS`` overrides; the default is the number of
    CPUs this process may run on (``os.sched_getaffinity``, so a process
    pinned by a cpuset or ``taskset`` starts no more workers than it can
    run), or ``os.cpu_count()`` where the platform cannot say.  A value
    of 1 makes every kernel run inline (no pool, no overhead) — the
    right call on single-core machines and under test.
    """
    env = os.environ.get("REPRO_KERNEL_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def _submit_to_shared_pool(threads: int, calls) -> list:
    """Submit tile tasks to one process-wide pool; returns their futures.

    Sharing one pool (instead of a pool per shard) is what keeps
    within-shard tile parallelism from oversubscribing the machine when
    the sharded pipeline's own thread backend is already fanning shards
    out: total in-flight tile tasks are bounded by the pool size.

    Submission happens *inside* the pool lock: when a caller asks for
    more workers than the current pool has, the pool is replaced under
    the same lock — already-queued tasks still run to completion
    (``shutdown(wait=False)`` cancels nothing) and no caller can race a
    submit against the swap.  Futures come back in ``calls`` order.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < threads:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="repro-kernel")
            _pool_size = threads
        return [_pool.submit(fn) for fn in calls]


# ---------------------------------------------------------------------------
# per-thread scratch pool
# ---------------------------------------------------------------------------

#: Kernel scratch lives on the *thread*, not the kernel: plans stay
#: immutable (and therefore cacheable/copy-safe), repeated small absorbs
#: stop re-allocating tile buffers, and no two tasks can share a buffer
#: because a task runs on exactly one thread.  Buffers grow to the
#: largest tile a thread has seen and are bounded by the tile geometry:
#: ~2.1 MB per thread for the local-hashing kernel (``_TILE_CELLS``
#: cells × 16 bytes) and ~8 MB for the bit-sliced Hadamard kernel
#: (``_HAD_TILE_CELLS`` words × two uint64 planes).
_scratch_local = threading.local()


def _scratch(name: str, dtype, cells: int) -> np.ndarray:
    """A ``cells``-long prefix of this thread's ``name`` buffer."""
    buf = getattr(_scratch_local, name, None)
    if buf is None or buf.shape[0] < cells:
        buf = np.empty(cells, dtype=dtype)
        setattr(_scratch_local, name, buf)
    return buf[:cells]


# ---------------------------------------------------------------------------
# the fused support-count kernel (OLH / BLH)
# ---------------------------------------------------------------------------

#: Tile geometry: candidates × reports blocks of at most ``_TILE_CELLS``
#: cells.  The size is set by the GIL, not by the cache: each tile makes
#: 14 ufunc calls on the divisibility path (10 on the power-of-two mask
#: path), and each call releases and re-takes the GIL, so two pool
#: threads decoding at once wait on each other less the more cells a
#: call covers.  On a 2-vCPU host, at ldpbench ``batch_olh``'s chunk
#: shape (62,500 reports × 64 candidates, g = 8; measured with 64 × 2,048
#: tiles and the 14-call test), two threads ran 0.89×, 1.29×, 1.39× and
#: 1.49× one thread at 2¹⁴, 2¹⁶, 2¹⁷ and 2¹⁹ cells, against 1.88× for
#: two processes, while one thread's time stayed flat from 2¹⁵ to 2¹⁹.
#: The tile's scratch (uint64 product and two uint32 residue planes, the
#: bool match plane inside the spare one: 16 bytes a cell, ~2.1 MB a
#: thread) caps it here: at 2¹⁸ cells and above the decoding threads'
#: scratch grew by a further ≥ 6.6 MB, past the 10% peak-RSS budget of
#: ldpbench ``heavy_hitters`` (56–57 MiB); 2¹⁷ cost it 2.6–3.8 MiB.
_TILE_CELLS = 1 << 17
#: Reports per tile row, and the report count behind each pooled task.
#: The uint16 per-tile match sums cap it below 2¹⁶.  ``_report_spans``
#: gives a call ``n // _MAX_TILE_REPORTS`` tasks (at most one per
#: thread), so raising it costs parallelism: at 2¹⁵ each 62,500-report
#: ``batch_olh`` chunk would be one task, decoded on one thread.
_MAX_TILE_REPORTS = 1 << 14
#: Below this many (report × candidate) cells a kernel call runs inline
#: even when a pool is available — dispatch would cost more than it buys.
_MIN_PARALLEL_CELLS = 1 << 21

_P32 = np.uint32(MERSENNE_P)


def _tile_shape(span: int, d: int) -> tuple[int, int]:
    """``(reports, candidates)`` of each tile over a span of ``span`` reports.

    Rows run ``min(span, _MAX_TILE_REPORTS)`` reports wide and take as
    many of the ``d`` candidates as ``_TILE_CELLS`` cells allow: NumPy's
    broadcast passes pay a fixed cost per row, so long rows beat many
    candidates.  A span shorter than one row is one row of ``span``, so
    ``_tile_shape(w, d)[1]`` is the candidate block of a row ``w`` wide:
    a span's tail row takes its block from its own width.
    """
    rows = min(span, _MAX_TILE_REPORTS)
    return rows, max(1, min(d, _TILE_CELLS // rows))


class FusedSupportKernel:
    """Fused hash→compare→accumulate support counting for local hashing.

    One instance is built per candidate list: the candidates are premixed
    into the prime field once, the match-test constants for ``g`` are
    precomputed, and every :meth:`support_counts` or
    :meth:`segment_counts` call streams report tiles through pooled
    per-thread scratch, in tiles shaped for that call's report span
    (``_tile_shape``).  For value ``v`` and
    report ``(s, y)`` the kernel counts ``h_s(v) == y`` matches — exactly
    the quantity ``_LocalHashing._reference_support_counts_for`` extracts
    from the materialized ``_reference_hash_cross`` matrix, bit for bit.

    Per cell, with ``a, b, x < p = 2³¹ − 1`` and ``y < g ≤ p``:

    1. ``h = a·x + b ≤ p(p − 1) < 2⁶²`` (uint64 multiply-add).
    2. One Mersenne fold ``(h & p) + (h >> 31) ≤ 2p − 2`` into uint32,
       then ``r = min(fold, fold − p)`` with a wrapping subtract (it
       wraps above ``fold`` unless ``fold ≥ p``): the canonical
       ``h mod p``.
    3. ``t = r + g − y`` lies in ``[1, p + g) ⊆ [1, 2³² − 2]``, and
       ``h mod p mod g == y`` exactly when ``g`` divides ``t``.
    4. With ``g = 2ᵏ·o``, ``o`` odd: ``g | t`` exactly when
       ``rotr(t·o⁻¹ mod 2³², k) ≤ ⌊(2³² − 1)/g⌋`` (Hacker's Delight,
       2nd ed., §10-17).  ``o⁻¹``, ``k`` and the bound are computed here
       once; at ``k = 0`` the rotate is the identity.  When ``o = 1``
       (``g`` a power of two) ``r mod g == y`` is tested directly as
       ``r & (g − 1) == y``: two passes instead of six.

    Steps 2–4 run on uint32 planes.  Inputs outside that domain would
    break the bounds and could count false matches, so they are refused:
    candidates ``≥ p`` here, ``y ≥ g`` or ``a``/``b ≥ p`` in
    :meth:`support_counts` and :meth:`segment_counts`.

    Instances are immutable decode *plans*: the candidate array is
    marked read-only and no per-batch state is ever stored on the
    object, so one instance can be cached in :data:`kernel_plan_cache`
    and shared across threads and accumulators.

    Parameters
    ----------
    premixed_candidates:
        Candidate values already premixed into ``[0, p)`` (the caller
        owns the splitmix bijection; see ``repro.util.hashing``).
    range_size:
        The hash range ``g``, in ``[1, 2³¹)``.
    threads:
        Tile-pool fan-out; ``None`` uses :func:`kernel_thread_count`.
    """

    def __init__(
        self,
        premixed_candidates: np.ndarray,
        range_size: int,
        *,
        threads: int | None = None,
    ) -> None:
        x = np.ascontiguousarray(premixed_candidates, dtype=np.uint64)
        if x.ndim != 1:
            raise ValueError(f"candidates must be 1-D, got shape {x.shape}")
        if x.size and np.maximum.reduce(x) >= MERSENNE_P:
            raise ValueError("premixed candidates must lie in [0, 2^31 - 1)")
        if x is premixed_candidates or np.shares_memory(x, premixed_candidates):
            x = x.copy()
        x.setflags(write=False)
        g = int(range_size)
        if g < 1:
            raise ValueError(f"range_size must be >= 1, got {range_size}")
        if g >= 1 << 31:
            raise ValueError(
                f"range_size must be < 2^31 for the fused kernel, got {range_size}"
            )
        k = (g & -g).bit_length() - 1
        self._x = x
        self._g = np.uint64(g)
        self._odd_inverse = np.uint32(pow(g >> k, -1, 1 << 32))
        self._rotate_right = np.uint32(k)
        self._rotate_left = np.uint32((32 - k) % 32)
        self._multiple_bound = np.uint32((2**32 - 1) // g)
        self._mask = np.uint32(g - 1) if g == 1 << k else None
        self._threads = threads

    @property
    def num_candidates(self) -> int:
        return int(self._x.shape[0])

    def support_counts(
        self, a: np.ndarray, b: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Per-candidate match counts for reports ``((a, b), values)``.

        ``a``/``b`` are the affine hash parameters of each report's seed
        (derived once per batch by the caller, in ``[0, p)``) and
        ``values`` the perturbed hashed values in ``[0, g)``; anything
        outside those ranges raises ``ValueError``.  Returns float64
        counts — integers below 2⁵³, so float addition downstream stays
        exact.  This is :meth:`segment_counts` with one segment.
        """
        a, b, y = self._checked_reports(a, b, values)
        return self._counts(a, b, y, None)[0]

    def segment_counts(
        self, a: np.ndarray, b: np.ndarray, values: np.ndarray, starts
    ) -> np.ndarray:
        """``(k, d)`` match counts, one row per key segment of the reports.

        Segment ``i`` is reports ``[starts[i], starts[i + 1])`` (the last
        runs to the end of the batch), so one tile sweep serves every
        segment of a key-sorted batch: row ``i`` equals
        :meth:`support_counts` of segment ``i`` alone, bit for bit.
        ``starts`` must begin at 0, increase strictly and stay below the
        report count; the report inputs are checked as
        :meth:`support_counts` checks them.
        """
        a, b, y = self._checked_reports(a, b, values)
        return self._counts(a, b, y, check_segment_starts(starts, a.shape[0]))

    def _checked_reports(
        self, a: np.ndarray, b: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aligned uint64 report arrays inside the kernel's exact domain."""
        a = np.ascontiguousarray(a, dtype=np.uint64)
        b = np.ascontiguousarray(b, dtype=np.uint64)
        y = np.ascontiguousarray(values, dtype=np.uint64)
        if a.shape != b.shape or a.shape != y.shape or a.ndim != 1:
            raise ValueError("a, b and values must be aligned 1-D arrays")
        n = a.shape[0]
        if n and np.maximum.reduce(y) >= self._g:
            raise ValueError(f"report values must lie in [0, {int(self._g)})")
        if n and max(np.maximum.reduce(a), np.maximum.reduce(b)) >= MERSENNE_P:
            raise ValueError("hash parameters a and b must lie in [0, 2^31 - 1)")
        return a, b, y

    def _counts(
        self,
        a: np.ndarray,
        b: np.ndarray,
        y: np.ndarray,
        starts: np.ndarray | None,
    ) -> np.ndarray:
        """Float64 ``(k, d)`` counts; ``starts=None`` is one segment of all."""
        d = self.num_candidates
        n = a.shape[0]
        counts = np.zeros((1 if starts is None else starts.shape[0], d), np.int64)
        if n and d:
            timing = _active_timing()
            threads = (
                self._threads if self._threads is not None else kernel_thread_count()
            )
            total_cells = n * d
            if threads > 1 and total_cells >= _MIN_PARALLEL_CELLS:
                spans = self._report_spans(n, threads)
                futures = _submit_to_shared_pool(
                    threads,
                    [
                        lambda lo=lo, hi=hi: self._count_span(
                            a, b, y, lo, hi, starts, timing
                        )
                        for lo, hi in spans
                    ],
                )
                for future in futures:
                    counts += future.result()
            else:
                counts += self._count_span(a, b, y, 0, n, starts, timing)
        return counts.astype(np.float64)

    @staticmethod
    def _report_spans(n: int, threads: int) -> list[tuple[int, int]]:
        """Contiguous report spans, one per tile task (schedule-free math:
        integer partial counts sum identically in any order)."""
        tasks = min(threads, max(1, n // _MAX_TILE_REPORTS))
        bounds = np.linspace(0, n, tasks + 1, dtype=np.int64)
        return [
            (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]

    def _count_span(
        self,
        a: np.ndarray,
        b: np.ndarray,
        y: np.ndarray,
        lo: int,
        hi: int,
        starts: np.ndarray | None,
        timing: KernelTiming | None,
    ) -> np.ndarray:
        """Count matches for reports ``[lo, hi)`` into ``(k, d)`` segment rows.

        Layout: candidates are the leading axis of a tile so the
        per-candidate count reduction sums along contiguous memory.  A
        tile inside one segment reduces its whole report axis with
        ``np.add.reduce``; a tile that crosses segment boundaries
        reduces with ``np.add.reduceat`` at its in-tile cuts, one column
        per segment it touches.  Either way the uint16 tile sums hold at
        most ``_MAX_TILE_REPORTS`` matches.  Without ``starts`` (one
        segment) no tile looks its segments up.  Scratch comes from the
        per-thread pool — repeated small absorbs (streaming panes) reuse
        the same buffers call after call.  The arithmetic and its bounds
        are in the class docstring.
        """
        x = self._x
        d = x.shape[0]
        mask = self._mask
        tile_r, tile_c = _tile_shape(hi - lo, d)
        # Each row takes its candidate block from its own width, so a
        # short tail row runs in wide blocks.  No row's tile outgrows the
        # first row's, which fills ``_TILE_CELLS`` whenever a tail can
        # follow it (``_MAX_TILE_REPORTS`` divides it) or holds all d.
        cells = tile_r * tile_c
        product = _scratch("product", np.uint64, cells)
        residue = _scratch("residue", np.uint32, cells)
        spare = _scratch("spare", np.uint32, cells)
        # The match plane reuses the spare plane's bytes: the compare
        # that writes it reads only the residue plane.
        match = spare.view(np.bool_)
        # The per-report operand of the match test: y itself for the
        # mask, g − y ∈ [1, g] for the divisibility test.
        if mask is None:
            key = (self._g - y[lo:hi]).astype(np.uint32)
        else:
            key = y[lo:hi].astype(np.uint32)
        counts = np.zeros((1 if starts is None else starts.shape[0], d), np.int64)
        if starts is not None:
            # Segment of each tile's first and last report.
            tile_lo = np.arange(lo, hi, tile_r)
            tile_hi = np.minimum(tile_lo + tile_r, hi)
            first_seg = (np.searchsorted(starts, tile_lo, side="right") - 1).tolist()
            last_seg = (np.searchsorted(starts, tile_hi - 1, side="right") - 1).tolist()
        hash_s = 0.0
        acc_s = 0.0
        for t, r0 in enumerate(range(lo, hi, tile_r)):
            r1 = min(r0 + tile_r, hi)
            w = r1 - r0
            tile_c = _tile_shape(w, d)[1]
            ar = a[None, r0:r1]
            br = b[None, r0:r1]
            kr = key[None, r0 - lo : r1 - lo]
            s0 = s1 = 0
            if starts is not None:
                s0, s1 = first_seg[t], last_seg[t]
            if s0 != s1:
                cuts = np.concatenate(([0], starts[s0 + 1 : s1 + 1] - r0))
            for c0 in range(0, d, tile_c):
                c1 = min(c0 + tile_c, d)
                shape = (c1 - c0, w)
                size = shape[0] * w
                h = product[:size].reshape(shape)
                r = residue[:size].reshape(shape)
                s = spare[:size].reshape(shape)
                eq = match[:size].reshape(shape)
                t0 = _thread_clock()
                np.multiply(x[c0:c1, None], ar, out=h)
                np.add(h, br, out=h)
                np.bitwise_and(h, MERSENNE_P, out=r, casting="unsafe")
                np.right_shift(h, _U31, out=s, casting="unsafe")
                np.add(r, s, out=r)
                np.subtract(r, _P32, out=s)
                np.minimum(r, s, out=r)
                t1 = _thread_clock()
                if mask is None:
                    np.add(r, kr, out=r)
                    np.multiply(r, self._odd_inverse, out=r)
                    np.right_shift(r, self._rotate_right, out=s)
                    np.left_shift(r, self._rotate_left, out=r)
                    np.bitwise_or(r, s, out=r)
                    np.less_equal(r, self._multiple_bound, out=eq)
                else:
                    np.bitwise_and(r, mask, out=r)
                    np.equal(r, kr, out=eq)
                hits = eq.view(np.uint8)
                if s0 == s1:
                    counts[s0, c0:c1] += np.add.reduce(hits, axis=1, dtype=np.uint16)
                else:
                    counts[s0 : s1 + 1, c0:c1] += np.add.reduceat(
                        hits, cuts, axis=1, dtype=np.uint16
                    ).T
                t2 = _thread_clock()
                hash_s += t1 - t0
                acc_s += t2 - t1
        if timing is not None:
            timing.add(hash_s, acc_s)
        return counts


# ---------------------------------------------------------------------------
# Hadamard candidate decoding (bit-sliced)
# ---------------------------------------------------------------------------

#: Default report-segment length for the bit-sliced decode.  Dots are
#: additive over report segments, so segmenting bounds the packed-plane
#: footprint (≤ 64 planes × seg/64 words ≈ 8 MB at the default) without
#: changing a single output bit.
_HAD_SEGMENT_REPORTS = 1 << 20
#: Words per candidate tile of the XOR/popcount contraction (two uint64
#: planes of this size per thread).
_HAD_TILE_CELLS = 1 << 19


class HadamardCandidatePlan:
    """Candidate-side plan for the bit-sliced Hadamard decode.

    Precomputes, per candidate set: the union of index bits any
    candidate inspects (``bit_positions``) and, for each such bit, the
    boolean mask of candidates that have it set (``bit_masks``) — the
    XOR-selection table of the decode loop.  Arrays are read-only and
    the plan holds no scratch, so instances cache and share safely
    (:data:`kernel_plan_cache`).
    """

    def __init__(self, candidates: np.ndarray) -> None:
        cand = np.ascontiguousarray(candidates, dtype=np.uint64)
        if cand.ndim != 1:
            raise ValueError(f"candidates must be 1-D, got shape {cand.shape}")
        if cand is candidates or np.shares_memory(cand, candidates):
            cand = cand.copy()
        cand.setflags(write=False)
        self.candidates = cand
        union = int(np.bitwise_or.reduce(cand)) if cand.size else 0
        self.bit_positions = tuple(
            t for t in range(64) if (union >> t) & 1
        )
        shifts = np.array(self.bit_positions, dtype=np.uint64)
        masks = (
            (cand[None, :] >> shifts[:, None]) & np.uint64(1)
        ).astype(bool)
        masks.setflags(write=False)
        self.bit_masks = masks  # (num bits, num candidates)

    @property
    def num_candidates(self) -> int:
        return int(self.candidates.shape[0])


def hadamard_support_counts(
    indices: np.ndarray,
    bits: np.ndarray,
    candidates: np.ndarray | HadamardCandidatePlan,
    *,
    tile_reports: int = _HAD_SEGMENT_REPORTS,
) -> np.ndarray:
    """Per-candidate Hadamard support counts, bit-sliced and integer-exact.

    ``C_v = n/2 + ½ Σ_i b_i·H[j_i, v]`` with ``H[j, v] = (−1)^popcount(j & v)``.
    Instead of materializing parities and contracting with an int64
    matmul, the kernel bit-slices:

    1. Pack bit-plane ``t`` of the report indices into uint64 words —
       64 reports per word (:func:`repro.util.wht.pack_bit_planes`),
       only for bits some candidate actually inspects.
    2. For each candidate ``v``, ``parity_i = popcount(j_i & v) mod 2``
       is the XOR of the planes of ``v``'s set bits — one masked
       ``bitwise_xor`` per active bit per candidate block.
    3. With ``pos`` the packed mask of ``b_i = +1`` reports and
       ``sum_b = Σ b_i``, two ``np.bitwise_count`` popcounts finish the
       signed dot: ``Σ b_i·H[j_i, v] = sum_b − 4·popcount(parity ∧ pos)
       + 2·popcount(parity)``.

    Everything is integer arithmetic on word-packed lanes; the dot
    values are integers with magnitude ≤ n < 2⁵³, so the final float
    expression is bit-identical to the reference's per-candidate float
    dot (``HadamardResponse._reference_support_counts_for``).  Dots are
    additive over report segments, so ``tile_reports`` bounds peak
    memory without affecting output.

    ``candidates`` may be a raw array or a prebuilt (possibly cached)
    :class:`HadamardCandidatePlan`.
    """
    idx = np.ascontiguousarray(indices, dtype=np.uint64)
    signed_bits = np.ascontiguousarray(bits, dtype=np.int64)
    if idx.shape != signed_bits.shape or idx.ndim != 1:
        raise ValueError("indices and bits must be aligned 1-D arrays")
    if isinstance(candidates, HadamardCandidatePlan):
        plan = candidates
    else:
        plan = HadamardCandidatePlan(candidates)
    n = idx.shape[0]
    d = plan.num_candidates
    dots = np.zeros(d, dtype=np.int64)
    if n and d:
        timing = _active_timing()
        hash_s = 0.0
        acc_s = 0.0
        seg_len = max(1, int(tile_reports))
        for s0 in range(0, n, seg_len):
            s1 = min(s0 + seg_len, n)
            h_s, a_s = _bitsliced_segment(
                idx[s0:s1], signed_bits[s0:s1], plan, dots
            )
            hash_s += h_s
            acc_s += a_s
        if timing is not None:
            timing.add(hash_s, acc_s)
    return n / 2.0 + 0.5 * dots.astype(np.float64)


def _bitsliced_segment(
    idx: np.ndarray,
    signed_bits: np.ndarray,
    plan: HadamardCandidatePlan,
    dots: np.ndarray,
) -> tuple[float, float]:
    """Accumulate one report segment's signed dots into ``dots``.

    Returns (hash seconds, accumulate seconds).  The *hash*
    stage is the transform side — plane packing and the sign mask; the
    *accumulate* stage is the XOR/popcount contraction.
    """
    n = idx.shape[0]
    d = plan.num_candidates
    t0 = _thread_clock()
    # Bits no report in this segment has set contribute parity 0 for
    # every candidate: skip their planes entirely.
    seg_union = int(np.bitwise_or.reduce(idx))
    used = [
        k for k, t in enumerate(plan.bit_positions) if (seg_union >> t) & 1
    ]
    num_pos = int((signed_bits > 0).sum())
    sum_b = 2 * num_pos - n
    if not used:
        # Every active parity is even: H contributes +1 throughout.
        dots += sum_b
        return _thread_clock() - t0, 0.0
    pos = pack_sign_mask(signed_bits > 0)
    planes = pack_bit_planes(idx, [plan.bit_positions[k] for k in used])
    t1 = _thread_clock()
    words = planes.shape[1]
    tile_c = max(1, min(d, _HAD_TILE_CELLS // words))
    parity = _scratch("parity", np.uint64, tile_c * words).reshape(
        tile_c, words
    )
    counted = _scratch("counted", np.uint64, tile_c * words).reshape(
        tile_c, words
    )
    for c0 in range(0, d, tile_c):
        c1 = min(c0 + tile_c, d)
        par = parity[: c1 - c0]
        cnt = counted[: c1 - c0]
        par[:] = 0
        for j, k in enumerate(used):
            np.bitwise_xor(
                par,
                planes[j][None, :],
                out=par,
                where=plan.bit_masks[k, c0:c1, None],
            )
        np.bitwise_count(par, out=cnt)
        pc_all = cnt.sum(axis=1, dtype=np.int64)
        np.bitwise_and(par, pos[None, :], out=par)
        np.bitwise_count(par, out=par)
        pc_pos = par.sum(axis=1, dtype=np.int64)
        # Σ b_i·(1 − 2·parity_i) over the segment, per candidate.
        dots[c0:c1] += sum_b - 4 * pc_pos + 2 * pc_all
    return t1 - t0, _thread_clock() - t1


# ---------------------------------------------------------------------------
# dense unary support counting
# ---------------------------------------------------------------------------


def column_support_counts(
    reports: np.ndarray, *, tile_rows: int = 1 << 15
) -> np.ndarray:
    """Column sums of a dense 0/1 report matrix, accumulated in int64.

    The unary (SUE/OUE) support path: summing uint8 rows into an int64
    accumulator tile by tile avoids the per-element float64 conversion
    of ``arr.sum(axis=0, dtype=float64)`` while producing exactly the
    same integers (counts ≤ n < 2⁵³).
    """
    arr = np.asarray(reports)
    if arr.ndim != 2:
        raise ValueError(f"reports must be 2-D, got shape {arr.shape}")
    timing = _active_timing()
    t0 = _thread_clock()
    counts = np.zeros(arr.shape[1], dtype=np.int64)
    for r0 in range(0, arr.shape[0], tile_rows):
        counts += arr[r0 : r0 + tile_rows].sum(axis=0, dtype=np.int64)
    if timing is not None:
        timing.add(0.0, _thread_clock() - t0)
    return counts.astype(np.float64)

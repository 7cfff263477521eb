"""Local hashing oracles: BLH and OLH.

Unary encoding sends ``d`` bits per user; for the massive domains the
deployed systems face (every URL, every word) that is untenable.  Local
hashing [4, 21] first compresses the value with a *user-chosen* public
hash ``h : [d] → [g]`` and then runs k-ary randomized response on the
hashed value.  The report is the pair ``(h, y)`` — in this library a hash
is a 64-bit seed (:mod:`repro.util.hashing`), so reports stay tiny no
matter how large the domain.

Support counting uses the pure framework: value ``v`` is supported by
report ``(s, y)`` iff ``h_s(v) = y``.  For the true value this happens
with ``p* = e^ε/(e^ε + g − 1)``; for any other value the hash is uniform,
so ``q* = 1/g`` exactly.  Choosing ``g = e^ε + 1`` minimizes the variance
(**OLH**); fixing ``g = 2`` gives the earlier binary variant (**BLH**,
Bassily-Smith [4]) whose single-bit reports cost roughly 4× the variance
at large ε.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.mechanism import HashedReports, PureFrequencyOracle
from repro.util.hashing import (
    _hash_premixed,
    _premix,
    _premix_table,
    _reference_hash_cross,
    hash_elementwise,
    params_from_seeds,
)
from repro.util.kernels import (
    FusedSupportKernel,
    candidate_digest,
    kernel_plan_cache,
)
from repro.util.validation import check_domain_values, check_positive_int

__all__ = ["OptimalLocalHashing", "BinaryLocalHashing"]


class _LocalHashing(PureFrequencyOracle):
    """Shared client/server machinery for hash-then-GRR oracles."""

    def __init__(self, domain_size: int, epsilon: float, g: int) -> None:
        super().__init__(domain_size, epsilon)
        self.g = check_positive_int(g, name="g")
        if self.g < 2:
            raise ValueError(f"hash range g must be >= 2, got {g}")
        e = math.exp(self._epsilon)
        self._p = e / (e + self.g - 1.0)
        self._q_inner = 1.0 / (e + self.g - 1.0)

    @property
    def p_star(self) -> float:
        return self._p

    @property
    def q_star(self) -> float:
        """Exactly ``1/g``: a non-true value hashes uniformly into [0, g)."""
        return 1.0 / self.g

    def privatize(
        self,
        values: Sequence[int] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> HashedReports:
        """Hash with a fresh per-user seed, then GRR over the hash range.

        A batch at least as long as the domain gathers its premixed
        values from the cached ``_premix(arange(d))`` table.  GRR runs in
        place: a lie skips the true hash, and kept reports overwrite it.
        """
        vals, gen = self._prepare(values, rng)
        seeds = self._draw_seeds(vals.shape[0], gen)
        hashed = self._hash(vals, seeds)
        keep, lies = self._draw_grr(vals.shape[0], gen)
        lies += lies >= hashed
        np.copyto(lies, hashed, where=keep)
        return HashedReports(seeds=seeds, values=lies)

    def privatize_chunks(
        self,
        values: Sequence[int] | np.ndarray,
        chunk_size: int,
        rng: np.random.Generator | int | None = None,
    ) -> list[HashedReports]:
        """:meth:`privatize` chunk by chunk, hashing the population once.

        Each chunk's seeds, keep flags and lies are drawn in chunk order
        with the calls :meth:`privatize` makes, so every batch and the
        generator's final state equal the chunk-by-chunk loop's; the
        premix, hash and GRR then run once over all the users, and each
        chunk's batch is a slice of the shared arrays.  An out-of-domain
        value raises before any draw.
        """
        vals, gen = self._prepare(values, rng)
        size = check_positive_int(chunk_size, name="chunk_size")
        n = vals.shape[0]
        seeds = np.empty(n, dtype=np.uint64)
        keep = np.empty(n, dtype=bool)
        lies = np.empty(n, dtype=np.int64)
        chunks = [slice(start, min(start + size, n)) for start in range(0, n, size)]
        for chunk in chunks:
            seeds[chunk] = self._draw_seeds(chunk.stop - chunk.start, gen)
            keep[chunk], lies[chunk] = self._draw_grr(chunk.stop - chunk.start, gen)
        hashed = self._hash(vals, seeds)
        lies += lies >= hashed
        np.copyto(lies, hashed, where=keep)
        return [
            HashedReports(seeds=seeds[chunk], values=lies[chunk]) for chunk in chunks
        ]

    def _draw_seeds(self, n: int, gen: np.random.Generator) -> np.ndarray:
        """``n`` users' hash seeds: each user's first draw."""
        return gen.integers(0, 2**63 - 1, size=n, dtype=np.int64).view(np.uint64)

    def _draw_grr(self, n: int, gen: np.random.Generator):
        """``n`` users' keep flags, then their lies: the draws after the seeds."""
        return gen.random(n) < self._p, gen.integers(0, self.g - 1, size=n)

    def _hash(self, vals: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """Each value hashed under its user's seed, premixed via the table
        once the batch is at least as long as the domain."""
        if self._domain_size <= vals.shape[0]:
            premixed = _premix_table(self._domain_size).take(vals)
        else:
            premixed = _premix(vals)
        return _hash_premixed(seeds, premixed, self.g)

    def _check_reports(self, reports: HashedReports) -> None:
        if not isinstance(reports, HashedReports):
            raise TypeError(
                f"expected HashedReports, got {type(reports).__name__}"
            )
        if reports.values.size and (
            reports.values.min() < 0 or reports.values.max() >= self.g
        ):
            raise ValueError("report value outside hash range — refusing to aggregate")

    def support_counts_for(
        self, reports: HashedReports, candidates: np.ndarray
    ) -> np.ndarray:
        """Per-candidate support counts without touching the full domain.

        Runs the fused hash→compare→accumulate kernel
        (:class:`repro.util.kernels.FusedSupportKernel`): candidates are
        premixed once, report tiles stream through pooled per-thread
        scratch, and matches accumulate straight into the counts
        vector — the ``(n, d)`` hash matrix of the reference path is
        never materialized.  The premixed kernel is fetched from the
        process-wide :data:`~repro.util.kernels.kernel_plan_cache`
        (keyed by the oracle config and candidate digest), so streaming
        consumers decoding many small batches against one candidate set
        premix once.  Bit-identical to
        :meth:`_reference_support_counts_for` (integer arithmetic end to
        end; property-tested).
        """
        self._check_reports(reports)
        if self.g >= (1 << 31):  # beyond the kernel's uint32 bounds; rare
            return self._reference_support_counts_for(reports, candidates)
        cands = check_domain_values(candidates, self._domain_size, name="candidates")
        kernel = self._support_kernel(cands)
        a, b = params_from_seeds(reports.seeds)
        return kernel.support_counts(a, b, reports.values)

    def segment_support_counts(
        self, reports: HashedReports, candidates: np.ndarray | None, starts
    ) -> np.ndarray:
        """Per-segment support counts from one fused kernel pass.

        One report check, one candidate check and plan lookup, one
        ``params_from_seeds`` and one
        :meth:`~repro.util.kernels.FusedSupportKernel.segment_counts`
        call for the whole key-sorted batch, where the per-slice default
        pays each once per segment.  Row ``i`` is bit-identical to
        :meth:`support_counts_for` over segment ``i``.
        """
        if self.g >= (1 << 31):  # beyond the kernel's uint32 bounds; rare
            return super().segment_support_counts(reports, candidates, starts)
        self._check_reports(reports)
        cands = check_domain_values(
            np.arange(self._domain_size, dtype=np.int64)
            if candidates is None
            else candidates,
            self._domain_size,
            name="candidates",
        )
        kernel = self._support_kernel(cands)
        a, b = params_from_seeds(reports.seeds)
        return kernel.segment_counts(a, b, reports.values, starts)

    def _support_kernel(self, validated_candidates: np.ndarray) -> FusedSupportKernel:
        """Cached premixed support kernel for a validated candidate array.

        The key carries every config degree of freedom the kernel bakes
        in — the hash range ``g`` directly, ``domain_size``/``epsilon``
        for hygiene (two differently-configured oracles never share an
        entry even when their ``g`` coincides) — plus the candidate
        content digest.
        """
        key = (
            "fused-support",
            self._domain_size,
            float(self._epsilon),
            self.g,
            candidate_digest(validated_candidates),
        )
        return kernel_plan_cache.get(
            key, lambda: FusedSupportKernel(_premix(validated_candidates), self.g)
        )

    def _reference_support_counts_for(
        self, reports: HashedReports, candidates: np.ndarray
    ) -> np.ndarray:
        """The pre-kernel decode path (bit-identity oracle for tests/benches).

        Hashes each candidate under every user's function in
        bounded-memory chunks via the materializing
        ``_reference_hash_cross`` and extracts matches with a full
        comparison matrix — the two-``%``, three-temporaries-per-chunk
        implementation the fused kernel replaced.
        """
        self._check_reports(reports)
        cands = check_domain_values(candidates, self._domain_size, name="candidates")
        counts = np.zeros(cands.shape[0], dtype=np.float64)
        n = len(reports)
        rows = max(1, (1 << 22) // max(cands.shape[0], 1))
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            block = _reference_hash_cross(reports.seeds[start:stop], cands, self.g)
            counts += (block == reports.values[start:stop, None]).sum(
                axis=0, dtype=np.float64
            )
        return counts

    def support_counts(self, reports: HashedReports) -> np.ndarray:
        """Support counts over the whole domain (small-domain path)."""
        return self.support_counts_for(
            reports, np.arange(self._domain_size, dtype=np.int64)
        )

    def num_reports(self, reports: HashedReports) -> int:
        return len(reports)

    def log_likelihood(self, reports: HashedReports, value: int) -> np.ndarray:
        """``log P(y | v, seed)`` per report, conditioning on the seed."""
        if not 0 <= value < self._domain_size:
            raise ValueError(f"value {value} outside domain [0, {self._domain_size})")
        hashed = hash_elementwise(
            reports.seeds, np.full(len(reports), value, dtype=np.int64), self.g
        )
        return np.where(
            reports.values == hashed, math.log(self._p), math.log(self._q_inner)
        )

    def max_privacy_ratio(self) -> float:
        """``p / ((1−p)/(g−1)) = e^ε`` — the GRR ratio, hash seed public."""
        return self._p / self._q_inner


class OptimalLocalHashing(_LocalHashing):
    """OLH: hash range ``g = round(e^ε + 1)``, the variance minimizer [21].

    Matches OUE's variance ``4e^ε/(e^ε−1)²·n`` asymptotically while
    sending O(log g) bits instead of d — the oracle of choice for large
    domains, and the workhorse inside PEM and the marginal protocols.
    """

    def __init__(self, domain_size: int, epsilon: float, g: int | None = None) -> None:
        if g is None:
            g = max(2, int(round(math.exp(epsilon) + 1.0)))
        super().__init__(domain_size, epsilon, g)


class BinaryLocalHashing(_LocalHashing):
    """BLH: the ``g = 2`` special case (Bassily-Smith [4]).

    One-bit reports — minimal communication, the property the tutorial's
    "theoretical underpinnings" bullet highlights — at the cost of
    ``q* = 1/2`` and hence higher variance than OLH.
    """

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(domain_size, epsilon, 2)

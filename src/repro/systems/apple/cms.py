"""Apple's count-mean-sketch frequency oracles: CMS and HCMS.

Apple's deployment [1, 9] solves the massive-domain problem with
*sketching*: ``k`` public hash functions map the domain into ``m``
buckets, each client perturbs the one-hot encoding of its hashed value
under one randomly chosen function, and the server maintains a ``k × m``
count-mean sketch ``M``.  The frequency of any value ``d`` is read off
the sketch as the de-biased mean of its ``k`` buckets:

    f̂(d) = (m/(m−1)) · ( (1/k) Σ_j M[j, h_j(d)] − n/m )

**CMS** transmits the whole ``m``-bit perturbed row (per-bit flips at
``1/(e^{ε/2}+1)``, exactly the SUE schedule in ±1 form).  **HCMS**
transmits a *single* ±1 bit — one sampled coordinate of the Hadamard
transform of the one-hot row, flipped with probability ``1/(e^ε+1)`` —
and the server un-transforms its sketch once at the end ("the Fourier
transform spreads out signal information", as the tutorial puts it).

Both are unbiased up to hash collisions, whose ``+n/m`` inflation the
``(m/(m−1), −n/m)`` correction removes in expectation over the family.

Server state is a mergeable :class:`SketchAccumulator`: per-(function,
bucket) *integer* report tallies from which the float sketch is derived
at read time.  Keeping integers (not running float sums) makes shard
merges exact — absorbing any sharding of a batch finalizes to the same
bits — which is how Apple's aggregators can combine per-datacenter
sketches freely.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.mechanism import Accumulator
from repro.util.hashing import SeededHashFamily
from repro.util.rng import ensure_generator
from repro.util.validation import (
    check_domain_values,
    check_epsilon,
    check_positive_int,
)
from repro.util.wht import fwht, hadamard_entries, is_power_of_two

__all__ = [
    "CmsReports",
    "HcmsReports",
    "CmsAccumulator",
    "HcmsAccumulator",
    "CountMeanSketch",
    "HadamardCountMeanSketch",
]


@dataclass(frozen=True)
class CmsReports:
    """CMS report batch: chosen hash index + perturbed ±1 row per user."""

    hash_indices: np.ndarray  # (n,) int64 in [0, k)
    rows: np.ndarray  # (n, m) int8 in {−1, +1}

    def __len__(self) -> int:
        return int(self.hash_indices.shape[0])


@dataclass(frozen=True)
class HcmsReports:
    """HCMS report batch: hash index, sampled coordinate, one ±1 bit."""

    hash_indices: np.ndarray  # (n,) int64 in [0, k)
    coords: np.ndarray  # (n,) int64 in [0, m)
    bits: np.ndarray  # (n,) float64 ±1

    def __len__(self) -> int:
        return int(self.hash_indices.shape[0])


class _SketchBase(ABC):
    """Shared configuration, accumulator plumbing, sketch-mean estimator."""

    def __init__(
        self, domain_size: int, epsilon: float, k: int, m: int, master_seed: int
    ) -> None:
        self.domain_size = check_positive_int(domain_size, name="domain_size")
        self.epsilon = check_epsilon(epsilon)
        self.k = check_positive_int(k, name="k")
        self.m = check_positive_int(m, name="m")
        if self.m < 2:
            raise ValueError(f"sketch width m must be >= 2, got {m}")
        self.master_seed = int(master_seed)
        self.family = SeededHashFamily(self.k, self.m, self.master_seed)

    #: Candidate block size for sketch reads: bounds the ``(k, c)`` hash
    #: and gather temporaries during massive-domain decodes.
    _DECODE_TILE = 1 << 14

    def _estimate_from_sketch(
        self, sketch: np.ndarray, n: int, candidates: np.ndarray
    ) -> np.ndarray:
        """De-biased sketch-mean count estimate for each candidate.

        Candidates are decoded in tiles so peak memory is
        ``O(k · tile)`` regardless of how many candidates are read —
        the aggregator-side fast path for population-scale candidate
        lists.  Per-candidate arithmetic is independent across tiles, so
        the result is bit-identical to the one-shot evaluation
        (:meth:`_reference_estimate_from_sketch`; property-tested).
        """
        if sketch.shape != (self.k, self.m):
            raise ValueError(
                f"sketch must have shape ({self.k}, {self.m}), got {sketch.shape}"
            )
        cands = np.asarray(candidates)
        out = np.empty(cands.shape[0], dtype=np.float64)
        rows = np.arange(self.k)[:, None]
        scale = self.m / (self.m - 1.0)
        offset = n / self.m
        for start in range(0, cands.shape[0], self._DECODE_TILE):
            stop = min(start + self._DECODE_TILE, cands.shape[0])
            hashed = self.family.apply_all(cands[start:stop])  # (k, tile)
            mean = sketch[rows, hashed].mean(axis=0)
            out[start:stop] = scale * (mean - offset)
        return out

    def _reference_estimate_from_sketch(
        self, sketch: np.ndarray, n: int, candidates: np.ndarray
    ) -> np.ndarray:
        """The pre-tiling whole-list sketch read (bit-identity oracle)."""
        if sketch.shape != (self.k, self.m):
            raise ValueError(
                f"sketch must have shape ({self.k}, {self.m}), got {sketch.shape}"
            )
        hashed = self.family._reference_apply_all(np.asarray(candidates))
        bucket_sums = sketch[np.arange(self.k)[:, None], hashed]  # (k, c)
        mean = bucket_sums.mean(axis=0)
        return (self.m / (self.m - 1.0)) * (mean - n / self.m)

    def privacy_spend(self):
        """Each sketch report is a fresh ε-release (Apple rations by
        capping reports per day, not by memoizing randomness)."""
        from repro.core.budget import SpendDeclaration

        return SpendDeclaration(
            epsilon=self.epsilon, scope="per_report", mechanism=type(self).__name__
        )

    @abstractmethod
    def accumulator(self) -> "_SketchAccumulator":
        """A fresh, empty mergeable sketch accumulator."""

    def build_sketch(self, reports) -> np.ndarray:
        """The ``k × m`` float sketch of one report batch."""
        return self.accumulator().absorb(reports).sketch()

    def estimate_counts_for(self, reports, candidates: np.ndarray) -> np.ndarray:
        """Count estimates for a candidate list (sketch built on the fly)."""
        cands = check_domain_values(candidates, self.domain_size, name="candidates")
        return self.accumulator().absorb(reports).estimate_for(cands)

    def estimate_counts(self, reports) -> np.ndarray:
        """Count estimates for the whole (small) domain."""
        return self.accumulator().absorb(reports).finalize()

    def num_reports(self, reports) -> int:
        """Number of user reports in a batch."""
        return len(reports)


class _SketchAccumulator(Accumulator):
    """Shared read plumbing for count-mean-sketch accumulators.

    Subclasses keep integer per-(function, bucket) tallies and derive
    the float sketch on demand; integer state makes shard merges exact.
    """

    def __init__(self, owner: _SketchBase) -> None:
        self._owner = owner
        self._n = 0

    @abstractmethod
    def sketch(self) -> np.ndarray:
        """The ``k × m`` float sketch implied by the accumulated tallies."""

    def estimate_for(self, candidates: np.ndarray) -> np.ndarray:
        """De-biased count estimates for already-validated candidates."""
        return self._owner._estimate_from_sketch(self.sketch(), self._n, candidates)

    def config_fingerprint(self) -> dict:
        owner = self._owner
        return {
            "sketch": type(owner).__name__,
            "domain_size": int(owner.domain_size),
            "epsilon": float(owner.epsilon),
            "k": int(owner.k),
            "m": int(owner.m),
            "master_seed": int(owner.master_seed),
        }

    def finalize(self) -> np.ndarray:
        return self.estimate_for(
            np.arange(self._owner.domain_size, dtype=np.int64)
        )


class CmsAccumulator(_SketchAccumulator):
    """Mergeable CMS state: signed row sums and report counts per function.

    A CMS report adds ``k·(c_ε/2 · row + ½)`` across its whole sketch
    row, so the sketch is an affine function of two integer tallies —
    ``S[j, l] = Σ row_i[l]`` over users with function ``j``, and
    ``N[j]`` users per function: ``M = k·(c_ε/2 · S + N/2)``.
    """

    _STATE = ("signed", "per_hash")

    def __init__(self, owner: "CountMeanSketch") -> None:
        super().__init__(owner)
        self._signed = np.zeros((owner.k, owner.m), dtype=np.int64)
        self._per_hash = np.zeros(owner.k, dtype=np.int64)

    def absorb(self, reports: CmsReports) -> "CmsAccumulator":
        if not isinstance(reports, CmsReports):
            raise TypeError(f"expected CmsReports, got {type(reports).__name__}")
        owner = self._owner
        idx = np.asarray(reports.hash_indices)
        if idx.size and (idx.min() < 0 or idx.max() >= owner.k):
            raise ValueError("hash index out of range — refusing to aggregate")
        rows = np.asarray(reports.rows)
        if rows.ndim != 2 or rows.shape[1] != owner.m:
            raise ValueError(
                f"rows must have shape (n, {owner.m}), got {rows.shape}"
            )
        np.add.at(self._signed, idx, rows.astype(np.int64))
        self._per_hash += np.bincount(idx, minlength=owner.k).astype(np.int64)
        self._n += len(reports)
        return self

    def sketch(self) -> np.ndarray:
        owner = self._owner
        assert isinstance(owner, CountMeanSketch)
        return owner.k * (
            (owner.c_eps / 2.0) * self._signed
            + 0.5 * self._per_hash[:, None].astype(np.float64)
        )


class HcmsAccumulator(_SketchAccumulator):
    """Mergeable HCMS state: signed bit sums per (function, coordinate).

    Each report deposits one ±1 bit at its sampled transform coordinate;
    the server keeps the integer bit sums and applies the scale and one
    inverse WHT per row only at read time.
    """

    _STATE = ("signed",)

    def __init__(self, owner: "HadamardCountMeanSketch") -> None:
        super().__init__(owner)
        self._signed = np.zeros((owner.k, owner.m), dtype=np.int64)

    def absorb(self, reports: HcmsReports) -> "HcmsAccumulator":
        if not isinstance(reports, HcmsReports):
            raise TypeError(f"expected HcmsReports, got {type(reports).__name__}")
        owner = self._owner
        idx = np.asarray(reports.hash_indices)
        if idx.size and (idx.min() < 0 or idx.max() >= owner.k):
            raise ValueError("hash index out of range — refusing to aggregate")
        coords = np.asarray(reports.coords)
        if coords.size and (coords.min() < 0 or coords.max() >= owner.m):
            raise ValueError("coordinate out of range — refusing to aggregate")
        bits = np.asarray(reports.bits, dtype=np.float64)
        if bits.size and not np.all(np.isin(bits, (-1.0, 1.0))):
            raise ValueError("bits must be ±1")
        np.add.at(self._signed, (idx, coords), bits.astype(np.int64))
        self._n += len(reports)
        return self

    def sketch(self) -> np.ndarray:
        owner = self._owner
        assert isinstance(owner, HadamardCountMeanSketch)
        # Each report's deposit has per-user expectation (k/m)·H[idx, l];
        # one unnormalized WHT per row contracts against H[idx, l'] and
        # the m's cancel, giving E[M[j, l]] = k·#{users with function j
        # hashing to l} — the CMS sketch scale, so the same estimator
        # applies.
        return fwht(owner.k * owner.c_eps * self._signed.astype(np.float64))


class CountMeanSketch(_SketchBase):
    """CMS: full perturbed-row reports, per-bit budget ε/2.

    Parameters
    ----------
    domain_size:
        Size of the value domain (may be astronomically large; only
        hashing touches it).
    epsilon:
        Per-report LDP guarantee.
    k, m:
        Sketch depth (number of hash functions) and width (buckets).
    master_seed:
        Keys the public hash family.
    """

    def __init__(
        self, domain_size: int, epsilon: float, k: int = 64, m: int = 1024,
        master_seed: int = 0,
    ) -> None:
        super().__init__(domain_size, epsilon, k, m, master_seed)
        half = math.exp(self.epsilon / 2.0)
        self.flip_prob = 1.0 / (half + 1.0)
        self.c_eps = (half + 1.0) / (half - 1.0)

    def privatize(
        self,
        values: Sequence[int] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> CmsReports:
        """One CMS report per user: pick a function, one-hot, flip bits."""
        gen = ensure_generator(rng)
        vals = check_domain_values(values, self.domain_size)
        n = vals.shape[0]
        indices = gen.integers(0, self.k, size=n, dtype=np.int64)
        hashed = self.family.apply_selected(indices, vals)
        rows = np.full((n, self.m), -1, dtype=np.int8)
        rows[np.arange(n), hashed] = 1
        flips = gen.random((n, self.m)) < self.flip_prob
        rows = np.where(flips, -rows, rows).astype(np.int8)
        return CmsReports(hash_indices=indices, rows=rows)

    def accumulator(self) -> CmsAccumulator:
        """A fresh mergeable ``k × m`` sketch accumulator."""
        return CmsAccumulator(self)

    def count_variance(self, n: int, f: float = 0.0) -> float:
        """Leading-order variance ``n (c_ε² − 1)/4 · (m/(m−1))²``.

        Each report's bucket contribution is ``c_ε/2 · (±1) + ½`` whose
        variance is ``(c_ε² − 1)/4`` at rare values; hash-collision noise
        adds O(n/m) which the tests bound but we omit here.
        """
        check_positive_int(n, name="n")
        return n * (self.c_eps**2 - 1.0) / 4.0 * (self.m / (self.m - 1.0)) ** 2

    def max_privacy_ratio(self) -> float:
        """Two differing one-hot bits, each at budget ε/2 → exactly e^ε."""
        return ((1.0 - self.flip_prob) / self.flip_prob) ** 2


class HadamardCountMeanSketch(_SketchBase):
    """HCMS: single-bit reports via a sampled Hadamard coordinate.

    ``m`` must be a power of two (the transform's order).  The server
    accumulates raw ±1 bits into a transformed sketch and applies one
    inverse WHT per row at read time.
    """

    def __init__(
        self, domain_size: int, epsilon: float, k: int = 64, m: int = 1024,
        master_seed: int = 0,
    ) -> None:
        super().__init__(domain_size, epsilon, k, m, master_seed)
        if not is_power_of_two(self.m):
            raise ValueError(f"HCMS width m must be a power of two, got {m}")
        e = math.exp(self.epsilon)
        self.flip_prob = 1.0 / (e + 1.0)
        self.c_eps = (e + 1.0) / (e - 1.0)

    def privatize(
        self,
        values: Sequence[int] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> HcmsReports:
        """Sample (function, coordinate), send one flipped Hadamard bit."""
        gen = ensure_generator(rng)
        vals = check_domain_values(values, self.domain_size)
        n = vals.shape[0]
        indices = gen.integers(0, self.k, size=n, dtype=np.int64)
        hashed = self.family.apply_selected(indices, vals)
        coords = gen.integers(0, self.m, size=n, dtype=np.int64)
        bits = hadamard_entries(coords.astype(np.uint64), hashed.astype(np.uint64))
        flips = gen.random(n) < self.flip_prob
        bits = np.where(flips, -bits, bits)
        return HcmsReports(hash_indices=indices, coords=coords, bits=bits)

    def accumulator(self) -> HcmsAccumulator:
        """A fresh mergeable transform-domain sketch accumulator."""
        return HcmsAccumulator(self)

    def count_variance(self, n: int, f: float = 0.0) -> float:
        """Leading-order variance ``n c_ε² (m/(m−1))²``.

        One ±1 bit scaled by ``c_ε`` lands in the read bucket per report;
        its second moment is ``c_ε²`` and the mean is O(1/n)·count, so at
        rare values the variance is ≈ n c_ε² — the price of one-bit
        reports relative to CMS.
        """
        check_positive_int(n, name="n")
        return n * self.c_eps**2 * (self.m / (self.m - 1.0)) ** 2

    def max_privacy_ratio(self) -> float:
        """Single-bit flip at full budget → exactly e^ε."""
        return (1.0 - self.flip_prob) / self.flip_prob

"""Microsoft's dBitFlip: histogram collection with d sampled buckets.

For histograms over ``k`` buckets, transmitting all ``k`` randomized bits
(unary encoding) is wasteful at telemetry scale.  dBitFlip [10] has each
device sample ``d`` bucket indices (without replacement, public), and
report the randomized membership bit for *only those buckets*, each
flipped with the SUE schedule ``p = e^{ε/2}/(e^{ε/2}+1)``.  Two users'
one-hot vectors still differ in at most two positions within any sampled
set, so the guarantee stays ε regardless of ``d`` — smaller ``d`` costs
accuracy (fewer observations per bucket, √(k/d) in the error), not
privacy.

The count estimator restricted to the users who sampled bucket ``v`` is
the usual de-bias, rescaled by the sampling rate ``d/k``:

    ĉ_v = (k/d) Σ_{u ∋ v} (b̃_{u,v} − (1 − p)) / (2p − 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.mechanism import Accumulator
from repro.util.rng import ensure_generator
from repro.util.validation import (
    check_domain_values,
    check_epsilon,
    check_positive_int,
)

__all__ = ["DBitFlipReports", "DBitFlipAccumulator", "DBitFlip"]


@dataclass(frozen=True)
class DBitFlipReports:
    """Report batch: per user, ``d`` sampled bucket ids and ``d`` bits."""

    bucket_indices: np.ndarray  # (n, d) int64
    bits: np.ndarray  # (n, d) uint8

    def __post_init__(self) -> None:
        if self.bucket_indices.shape != self.bits.shape:
            raise ValueError(
                f"indices and bits must align, got {self.bucket_indices.shape} "
                f"vs {self.bits.shape}"
            )

    def __len__(self) -> int:
        return int(self.bucket_indices.shape[0])


class DBitFlip:
    """d-bit histogram mechanism over ``num_buckets`` buckets."""

    def __init__(self, num_buckets: int, d: int, epsilon: float) -> None:
        self.num_buckets = check_positive_int(num_buckets, name="num_buckets")
        self.d = check_positive_int(d, name="d")
        if self.d > self.num_buckets:
            raise ValueError(
                f"d ({d}) cannot exceed num_buckets ({num_buckets})"
            )
        self.epsilon = check_epsilon(epsilon)
        half = math.exp(self.epsilon / 2.0)
        self.p = half / (half + 1.0)

    def privatize(
        self,
        values: Sequence[int] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> DBitFlipReports:
        """Sample ``d`` buckets per user, flip each membership bit."""
        gen = ensure_generator(rng)
        vals = check_domain_values(values, self.num_buckets)
        n = vals.shape[0]
        # d distinct buckets per user: top-d of a random key per bucket.
        keys = gen.random((n, self.num_buckets))
        sampled = np.argpartition(keys, self.d - 1, axis=1)[:, : self.d]
        truth = (sampled == vals[:, None]).astype(np.uint8)
        keep = gen.random((n, self.d)) < self.p
        bits = np.where(keep, truth, 1 - truth).astype(np.uint8)
        return DBitFlipReports(
            bucket_indices=sampled.astype(np.int64), bits=bits
        )

    def accumulator(self) -> "DBitFlipAccumulator":
        """A fresh mergeable per-bucket tally accumulator."""
        return DBitFlipAccumulator(self)

    def privacy_spend(self):
        """One d-bit report is one fresh ε-release (ε/2 per differing bit)."""
        from repro.core.budget import SpendDeclaration

        return SpendDeclaration(
            epsilon=self.epsilon, scope="per_report", mechanism="DBitFlip"
        )

    def estimate_counts(self, reports: DBitFlipReports) -> np.ndarray:
        """Unbiased per-bucket count estimates."""
        return self.accumulator().absorb(reports).finalize()

    def num_reports(self, reports: DBitFlipReports) -> int:
        return len(reports)

    def count_variance(self, n: int, f: float = 0.0) -> float:
        """Leading-order variance at rare buckets.

        ``(k/d)² · (nd/k) · p(1−p)/(2p−1)² = n (k/d) e^{ε/2}/(e^{ε/2}−1)²``
        plus an O(n f) sampling term at popular buckets (the ``k/d − 1``
        inflation of the true signal), included for exactness.
        """
        check_positive_int(n, name="n")
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"f must be in [0, 1], got {f}")
        rate = self.num_buckets / self.d
        noise = n * rate * self.p * (1.0 - self.p) / (2.0 * self.p - 1.0) ** 2
        sampling = n * f * (1.0 - f) * (rate - 1.0)
        return noise + sampling

    def max_privacy_ratio(self) -> float:
        """Two differing sampled bits at ε/2 each → exactly e^ε."""
        return (self.p / (1.0 - self.p)) ** 2


class DBitFlipAccumulator(Accumulator):
    """Mergeable dBitFlip state: 1-bit and sample tallies per bucket.

    The estimator needs only, per bucket, how many users sampled it and
    how many of their bits were 1 — both integer-valued, so any sharding
    of a batch merges to bit-identical estimates.
    """

    _STATE = ("ones", "samples")

    def __init__(self, mechanism: DBitFlip) -> None:
        self._mechanism = mechanism
        k = mechanism.num_buckets
        self._ones = np.zeros(k, dtype=np.float64)
        self._samples = np.zeros(k, dtype=np.float64)
        self._n = 0

    def absorb(self, reports: DBitFlipReports) -> "DBitFlipAccumulator":
        if not isinstance(reports, DBitFlipReports):
            raise TypeError(
                f"expected DBitFlipReports, got {type(reports).__name__}"
            )
        k = self._mechanism.num_buckets
        idx = np.asarray(reports.bucket_indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= k):
            raise ValueError("bucket index out of range — refusing to aggregate")
        bits = np.asarray(reports.bits, dtype=np.float64)
        flat_idx = idx.reshape(-1)
        self._ones += np.bincount(flat_idx, weights=bits.reshape(-1), minlength=k)
        self._samples += np.bincount(flat_idx, minlength=k).astype(np.float64)
        self._n += len(reports)
        return self

    def finalize(self) -> np.ndarray:
        mech = self._mechanism
        debiased = (self._ones - self._samples * (1.0 - mech.p)) / (
            2.0 * mech.p - 1.0
        )
        return (mech.num_buckets / mech.d) * debiased

    def config_fingerprint(self) -> dict:
        mech = self._mechanism
        return {
            "num_buckets": int(mech.num_buckets),
            "d": int(mech.d),
            "epsilon": float(mech.epsilon),
        }

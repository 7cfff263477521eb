"""Histogram encoding oracles: SHE and THE.

Histogram encoding writes the value as a one-hot vector and adds
independent Laplace(2/ε) noise to *every* coordinate (the one-hot vector
has L1 sensitivity 2 between any two inputs, so scale 2/ε yields ε-LDP).
Two server strategies follow [21]:

* **SHE** (summation): the server simply sums the noisy vectors — the
  noise cancels in expectation and the count estimate is the column sum.
* **THE** (thresholding): the *client* thresholds its noisy vector at an
  optimized θ ∈ (1/2, 1) and sends the resulting support bits.  This is
  post-processing of an ε-LDP release, so privacy is preserved, and the
  thresholded support fits the pure-protocol estimator with
  ``p* = 1 − F(θ − 1)`` and ``q* = 1 − F(θ)`` (F the Laplace CDF).

THE beats SHE for all ε, and the gap is part of the tutorial's E1/E3
variance story.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.mechanism import Accumulator, FrequencyOracle, PureFrequencyOracle

__all__ = [
    "SummationAccumulator",
    "SummationHistogramEncoding",
    "ThresholdHistogramEncoding",
]


def _laplace_cdf(x: float, scale: float) -> float:
    """CDF of the centered Laplace distribution with the given scale."""
    if x < 0.0:
        return 0.5 * math.exp(x / scale)
    return 1.0 - 0.5 * math.exp(-x / scale)


class SummationHistogramEncoding(FrequencyOracle):
    """SHE: one-hot + per-coordinate Laplace(2/ε), summed server-side.

    Reports are dense float64 ``(n, d)`` matrices.  The count estimator is
    the raw column sum — already unbiased — with frequency-independent
    variance ``8 n / ε²`` (each report contributes Laplace variance
    ``2 · (2/ε)²``).
    """

    def __init__(self, domain_size: int, epsilon: float) -> None:
        super().__init__(domain_size, epsilon)
        self.scale = 2.0 / self._epsilon

    def privatize(
        self,
        values: Sequence[int] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        vals, gen = self._prepare(values, rng)
        n = vals.shape[0]
        noise = gen.laplace(0.0, self.scale, size=(n, self._domain_size))
        noise[np.arange(n), vals] += 1.0
        return noise

    def report_matrix(self, reports: np.ndarray) -> np.ndarray:
        """Validated ``(n, d)`` float64 view of a report batch."""
        arr = np.asarray(reports, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self._domain_size:
            raise ValueError(
                f"reports must have shape (n, {self._domain_size}), got {arr.shape}"
            )
        return arr

    def accumulator(self) -> "SummationAccumulator":
        """A fresh column-sum accumulator."""
        return SummationAccumulator(self)

    def num_reports(self, reports: np.ndarray) -> int:
        return int(np.asarray(reports).shape[0])

    def count_variance(self, n: int, f: float = 0.0) -> float:
        """``n · 2 · (2/ε)² = 8n/ε²`` — exact and frequency-independent."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return n * 2.0 * self.scale**2

    def log_density(self, reports: np.ndarray, value: int) -> np.ndarray:
        """Log density of each report row given an input value."""
        if not 0 <= value < self._domain_size:
            raise ValueError(f"value {value} outside domain [0, {self._domain_size})")
        arr = np.asarray(reports, dtype=np.float64)
        onehot = np.zeros(self._domain_size)
        onehot[value] = 1.0
        resid = np.abs(arr - onehot)
        return -(resid.sum(axis=1) / self.scale) - self._domain_size * math.log(
            2.0 * self.scale
        )

    def max_privacy_ratio(self) -> float:
        """Supremum density ratio ``e^{2/scale·1} · … = e^ε`` (L1 sens. 2)."""
        return math.exp(2.0 / self.scale)


#: Fixed-point geometry of the exact summation state: sums are held in
#: 32-bit little-endian words of the magnitude measured in units of
#: 2^-_UNIT_EXP.  _UNIT_EXP = 1127 puts the least significant bit of the
#: smallest subnormal's mantissa at word position ≥ 0, and 70 words
#: (2240 bits) cover the largest float64 times any realistic population
#: (2^1024 · 2^63 needs bit 1024+63+1127 = 2214) with headroom.
_UNIT_EXP = 1127
_NUM_WORDS = 70
_WORD_MASK = np.int64(0xFFFFFFFF)
#: Rows processed per exact-scatter pass: keeps every partial word below
#: 2^32·(2^20 + 1) < 2^63, so int64 scatter adds can never overflow
#: between carry normalizations.
_MAX_BLOCK = 1 << 20


class SummationAccumulator(Accumulator):
    """Mergeable SHE state: *exact* per-coordinate sums of noisy vectors.

    SHE's estimator is the raw column sum, so the accumulator *is* the
    estimate — but the summands are true floats (Laplace noise), and
    IEEE addition is not associative: a plain running float sum would
    make the estimate depend on how the stream happened to be chunked,
    sharded or windowed (the long-standing "SHE matches to ~1e-9"
    caveat).  This accumulator instead keeps the sum *exactly*, as a
    fixed-point superaccumulator: every report coordinate is decomposed
    into integer 32-bit words of its magnitude (a float64 is
    ``mantissa · 2^exponent`` — nothing is lost) and scatter-added into
    an integer word array spanning the full float64 exponent range.
    Integer addition is associative and commutative, so **any** grouping
    of absorbs and merges reaches bit-identical state, and ``finalize``
    rounds the exact sum to float64 once — sharded, windowed and
    process-shipped SHE estimates are now bitwise equal to the one-shot
    batch, like every other oracle.

    The cost is a constant-factor slowdown of ``absorb`` (a frexp and
    three integer scatters instead of one float reduction) on an oracle
    whose reports are dense ``(n, d)`` matrices anyway; state is
    ``O(70·d)`` int64 words.
    """

    _STATE = ("words",)

    def __init__(self, oracle: SummationHistogramEncoding) -> None:
        self._oracle = oracle
        self._words = np.zeros((oracle.domain_size, _NUM_WORDS), dtype=np.int64)
        self._n = 0

    def _add_words(
        self, col: np.ndarray, value: np.ndarray, shift: np.ndarray
    ) -> None:
        """Exactly add ``value[k] · 2^(shift[k] − _UNIT_EXP)`` to column ``col[k]``.

        ``|value| < 2^54`` and ``shift ≥ 0``; each addend's magnitude
        spans at most three 32-bit words starting at bit ``shift``, added
        with the value's sign.
        """
        word = shift >> 5
        s = shift & 31
        mag = np.abs(value)
        lo = (mag & _WORD_MASK) << s  # < 2^63
        hi = (mag >> 32) << s  # < 2^53
        part0 = lo & _WORD_MASK
        part1 = (lo >> 32) + (hi & _WORD_MASK)
        part2 = hi >> 32
        sign = np.where(value < 0, np.int64(-1), np.int64(1))
        flat = self._words.reshape(-1)
        base = col * _NUM_WORDS + word
        np.add.at(flat, base, part0 * sign)
        np.add.at(flat, base + 1, part1 * sign)
        np.add.at(flat, base + 2, part2 * sign)

    def _scatter_exact(self, block: np.ndarray) -> None:
        """Exactly add one ``(rows, d)`` block into the word state.

        Two stages, both error-free.  First the block is reduced to
        per-(column, exponent) totals: each value is ``M·2^p`` with
        ``|M| < 2^53``, the mantissa is split into two 27-bit pieces,
        and pieces sharing a (column, exponent) bin are summed with
        ``np.bincount`` — the weights are integers below 2^27 and over a
        block of at most 2^20 rows the running sums stay integers below
        2^47, where float64 addition is exact in any order.  Then the
        few thousand bin totals (exact integers times a known power of
        two) are folded into the 32-bit word state.
        """
        m, e = np.frexp(block)
        big = np.ldexp(m, 53).astype(np.int64)  # exact: |m|·2^53 < 2^53
        e_min = int(e.min())
        num_bins = int(e.max()) - e_min + 1
        d = block.shape[1]
        flat_bin = (
            np.arange(d, dtype=np.int64) * num_bins + (e - e_min)
        ).ravel()
        mag = np.abs(big)
        sign = np.where(big < 0, -1.0, 1.0)
        piece_mask = np.int64((1 << 27) - 1)
        for k in range(2):
            piece = (mag >> (27 * k)) & piece_mask
            totals = np.bincount(
                flat_bin, weights=(piece * sign).ravel(), minlength=d * num_bins
            )
            value = np.rint(totals).astype(np.int64)  # exact integers
            nz = np.flatnonzero(value)
            if nz.size == 0:
                continue
            # Bin (c, E) holds Σ piece_k scaled by 2^(e_min+E−53+27k).
            shift = (e_min - 53 + 27 * k + _UNIT_EXP) + nz % num_bins
            self._add_words(nz // num_bins, value[nz], shift)

    def _normalize(self) -> None:
        """Carry-propagate so every non-top word lies in [0, 2^32)."""
        words = self._words
        for i in range(_NUM_WORDS - 1):
            carry = words[:, i] >> 32  # arithmetic shift: floor division
            if not carry.any():
                continue
            words[:, i] -= carry << 32
            words[:, i + 1] += carry

    def absorb(self, reports: np.ndarray) -> "SummationAccumulator":
        cols = self._oracle.report_matrix(reports)
        if not np.all(np.isfinite(cols)):
            raise ValueError("reports must be finite to sum exactly")
        for start in range(0, cols.shape[0], _MAX_BLOCK):
            self._scatter_exact(cols[start : start + _MAX_BLOCK])
            self._normalize()
        self._n += int(cols.shape[0])
        return self

    def merge(self, other: Accumulator) -> "SummationAccumulator":
        """The additive merge, then a carry pass so words cannot overflow."""
        super().merge(other)
        self._normalize()
        return self

    def finalize(self) -> np.ndarray:
        """The exact column sums, rounded once to float64.

        Each coordinate's words encode an exact integer multiple of
        2^-_UNIT_EXP; Python big-int true division rounds it to the
        nearest float64 — the same bits no matter how the state was
        accumulated.
        """
        denom = 1 << _UNIT_EXP
        out = np.empty(self._oracle.domain_size, dtype=np.float64)
        for c, row in enumerate(self._words):
            total = 0
            for i, w in enumerate(row.tolist()):
                if w:
                    total += w << (32 * i)
            try:
                out[c] = total / denom
            except OverflowError:
                # The exact sum exceeds the float64 range; a float
                # accumulator would have reached ±inf, so round to it.
                out[c] = math.inf if total > 0 else -math.inf
        return out

    def config_fingerprint(self) -> dict:
        return {
            "oracle": type(self._oracle).__name__,
            "domain_size": int(self._oracle.domain_size),
            "epsilon": float(self._oracle.epsilon),
            "summation": "exact-fixed-point-v1",
        }


class ThresholdHistogramEncoding(PureFrequencyOracle):
    """THE: client-side thresholding of the SHE release at optimal θ.

    The client computes the SHE noisy vector, keeps the coordinates above
    θ, and transmits that bit vector.  θ defaults to the variance-optimal
    value in (1/2, 1), found numerically once per (ε) at construction.
    """

    def __init__(
        self, domain_size: int, epsilon: float, theta: float | None = None
    ) -> None:
        super().__init__(domain_size, epsilon)
        self.scale = 2.0 / self._epsilon
        if theta is None:
            theta = self._optimal_theta()
        if not 0.5 < theta <= 1.0:
            raise ValueError(f"theta must be in (0.5, 1], got {theta}")
        self.theta = float(theta)
        self._p = 1.0 - _laplace_cdf(self.theta - 1.0, self.scale)
        self._q = 1.0 - _laplace_cdf(self.theta, self.scale)

    def _optimal_theta(self) -> float:
        """Minimize the f→0 variance ``q*(1−q*)/(p*−q*)²`` over θ."""
        try:
            from scipy.optimize import minimize_scalar
        except ImportError as exc:
            raise ImportError(
                "finding the optimal THE threshold needs scipy "
                "(scipy.optimize.minimize_scalar); install scipy or pass an "
                "explicit theta to ThresholdHistogramEncoding"
            ) from exc

        def objective(theta: float) -> float:
            p = 1.0 - _laplace_cdf(theta - 1.0, self.scale)
            q = 1.0 - _laplace_cdf(theta, self.scale)
            return q * (1.0 - q) / (p - q) ** 2

        res = minimize_scalar(objective, bounds=(0.5 + 1e-9, 1.0), method="bounded")
        return float(res.x)

    @property
    def p_star(self) -> float:
        return self._p

    @property
    def q_star(self) -> float:
        return self._q

    def privatize(
        self,
        values: Sequence[int] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        vals, gen = self._prepare(values, rng)
        n = vals.shape[0]
        noisy = gen.laplace(0.0, self.scale, size=(n, self._domain_size))
        noisy[np.arange(n), vals] += 1.0
        return (noisy > self.theta).astype(np.uint8)

    def support_counts(self, reports: np.ndarray) -> np.ndarray:
        arr = np.asarray(reports)
        if arr.ndim != 2 or arr.shape[1] != self._domain_size:
            raise ValueError(
                f"reports must have shape (n, {self._domain_size}), got {arr.shape}"
            )
        return arr.sum(axis=0, dtype=np.float64)

    def num_reports(self, reports: np.ndarray) -> int:
        return int(np.asarray(reports).shape[0])

    def bit_marginals(self, value: int) -> np.ndarray:
        """Exact per-bit 1-probability of the thresholded report."""
        if not 0 <= value < self._domain_size:
            raise ValueError(f"value {value} outside domain [0, {self._domain_size})")
        probs = np.full(self._domain_size, self._q)
        probs[value] = self._p
        return probs

    def max_privacy_ratio(self) -> float:
        """Realized ratio of the *thresholded* output.

        Strictly below ``e^ε``: thresholding is post-processing of the
        ε-LDP noisy vector, so some budget is not realized in the released
        bits.  The audit asserts ``≤ e^ε`` here rather than equality.
        """
        p, q = self._p, self._q
        return (p / q) * ((1.0 - q) / (1.0 - p))

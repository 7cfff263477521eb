"""Microsoft's 1BitMean: mean estimation from single-bit reports.

Ding, Kulkarni and Yekhanin [10] collect app-usage counters (seconds of
use, bounded by ``m``) from hundreds of millions of Windows devices.
Each device sends **one bit** per counter:

    P(report 1 | x) = 1/(e^ε + 1) + (x/m) · (e^ε − 1)/(e^ε + 1)

which interpolates linearly between the two extreme response rates, and
the server inverts the expectation:

    mean̂ = (m/n) Σ_i (b_i (e^ε + 1) − 1)/(e^ε − 1).

The likelihood ratio between any two values is maximized at the endpoints
``x = 0, m`` and equals ``e^ε`` exactly — the mechanism is ε-LDP and
*tight*, while transmitting the absolute minimum number of bits (the
"single bit per user" direction the tutorial's theory section flags).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.mechanism import Accumulator
from repro.util.rng import ensure_generator
from repro.util.validation import as_value_array, check_epsilon

__all__ = ["OneBitMean", "OneBitMeanAccumulator"]


class OneBitMean:
    """One-bit mean estimation over values in ``[0, value_bound]``."""

    def __init__(self, value_bound: float, epsilon: float) -> None:
        if not (isinstance(value_bound, (int, float)) and value_bound > 0):
            raise ValueError(f"value_bound must be > 0, got {value_bound}")
        self.value_bound = float(value_bound)
        self.epsilon = check_epsilon(epsilon)
        e = math.exp(self.epsilon)
        self._base = 1.0 / (e + 1.0)
        self._slope = (e - 1.0) / (e + 1.0)

    def response_probability(self, x: float) -> float:
        """Exact P(report 1 | value x)."""
        if not 0.0 <= x <= self.value_bound:
            raise ValueError(
                f"value {x} outside [0, {self.value_bound}]"
            )
        return self._base + (x / self.value_bound) * self._slope

    def privatize(
        self,
        values: Sequence[float] | np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """One Bernoulli bit per user (uint8)."""
        gen = ensure_generator(rng)
        vals = as_value_array(values)
        if vals.min() < 0.0 or vals.max() > self.value_bound:
            raise ValueError(
                f"values must lie in [0, {self.value_bound}]"
            )
        probs = self._base + (vals / self.value_bound) * self._slope
        return (gen.random(vals.shape[0]) < probs).astype(np.uint8)

    def accumulator(self) -> "OneBitMeanAccumulator":
        """A fresh mergeable (1-bit count, user count) accumulator."""
        return OneBitMeanAccumulator(self)

    def privacy_spend(self):
        """One bit is one fresh ε-release; memoized reuse is declared by
        :class:`~repro.systems.microsoft.repeated.RepeatedCollector`."""
        from repro.core.budget import SpendDeclaration

        return SpendDeclaration(
            epsilon=self.epsilon, scope="per_report", mechanism="OneBitMean"
        )

    def estimate_mean(self, reports: np.ndarray) -> float:
        """Unbiased population-mean estimate from the bit vector."""
        acc = self.accumulator().absorb(reports)
        return float(acc.finalize()[0])

    def mean_variance_bound(self, n: int) -> float:
        """Worst-case variance of the mean estimate.

        Each bit has variance ≤ 1/4, so
        ``Var ≤ m² (e^ε + 1)² / (4 n (e^ε − 1)²)`` — the ``m/(ε√n)``-rate
        headline of the paper.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        e = math.exp(self.epsilon)
        return (self.value_bound**2 * (e + 1.0) ** 2) / (4.0 * n * (e - 1.0) ** 2)

    def max_privacy_ratio(self) -> float:
        """Endpoint ratio ``P(1|m)/P(1|0) = e^ε`` — exact."""
        top = self._base + self._slope
        return top / self._base


class OneBitMeanAccumulator(Accumulator):
    """Mergeable 1BitMean state: the number of 1-bits and of users.

    The mean estimate is a function of the two integer tallies alone,
    ``m · ((S/n)(e^ε + 1) − 1)/(e^ε − 1)``, so shard merges are exact.
    ``finalize`` returns a length-1 array holding the mean estimate (the
    mechanism estimates one population mean, not per-value counts).
    """

    _STATE = ("ones",)  # the 1-bit tally, a length-1 int64 array

    def __init__(self, mechanism: OneBitMean) -> None:
        self._mechanism = mechanism
        self._ones = np.zeros(1, dtype=np.int64)
        self._n = 0

    def absorb(self, reports: np.ndarray) -> "OneBitMeanAccumulator":
        bits = np.asarray(reports, dtype=np.float64)
        if bits.ndim != 1:
            raise ValueError("reports must be a 1-D array")
        if bits.size and not np.all(np.isin(bits, (0.0, 1.0))):
            raise ValueError("reports must be 0/1 bits")
        self._ones += int(bits.sum())
        self._n += int(bits.shape[0])
        return self

    def finalize(self) -> np.ndarray:
        if self._n == 0:
            raise ValueError("no reports absorbed — nothing to estimate")
        mech = self._mechanism
        e = math.exp(mech.epsilon)
        per_user = ((self._ones[0] / self._n) * (e + 1.0) - 1.0) / (e - 1.0)
        return np.asarray([mech.value_bound * per_user], dtype=np.float64)

    def config_fingerprint(self) -> dict:
        mech = self._mechanism
        return {
            "value_bound": float(mech.value_bound),
            "epsilon": float(mech.epsilon),
        }

"""Shared argument validation for the repro library.

Every public constructor and entry point validates its inputs through the
helpers in this module so that misuse fails loudly with a uniform error
style instead of propagating NaNs or silently mis-estimating.  The tutorial
the library reproduces stresses that deployed LDP systems are *systems*:
bad client input must be rejected at the boundary, not averaged into the
population estimate.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = [
    "check_epsilon",
    "check_delta",
    "check_probability",
    "check_positive_int",
    "check_nonnegative_int",
    "check_in_range",
    "check_domain_values",
    "check_segment_starts",
    "check_fraction",
    "as_value_array",
]


def check_epsilon(epsilon: float, *, name: str = "epsilon") -> float:
    """Validate a privacy parameter: finite and strictly positive.

    Returns the value as a float so callers can pass ints freely.
    """
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise TypeError(f"{name} must be a real number, got {type(epsilon).__name__}")
    eps = float(epsilon)
    if math.isnan(eps) or math.isinf(eps):
        raise ValueError(f"{name} must be finite, got {eps}")
    if eps <= 0.0:
        raise ValueError(f"{name} must be > 0, got {eps}")
    return eps


def check_delta(delta: float, *, name: str = "delta") -> float:
    """Validate a DP failure probability: in [0, 1)."""
    if not isinstance(delta, (int, float)) or isinstance(delta, bool):
        raise TypeError(f"{name} must be a real number, got {type(delta).__name__}")
    d = float(delta)
    if math.isnan(d):
        raise ValueError(f"{name} must not be NaN")
    if not 0.0 <= d < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {d}")
    return d


def check_probability(p: float, *, name: str = "p") -> float:
    """Validate a probability: in [0, 1]."""
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise TypeError(f"{name} must be a real number, got {type(p).__name__}")
    prob = float(p)
    if math.isnan(prob) or not 0.0 <= prob <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {prob}")
    return prob


def check_positive_int(value: int, *, name: str = "value") -> int:
    """Validate a strictly positive integer (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    v = int(value)
    if v <= 0:
        raise ValueError(f"{name} must be >= 1, got {v}")
    return v


def check_nonnegative_int(value: int, *, name: str = "value") -> int:
    """Validate a non-negative integer (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    v = int(value)
    if v < 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return v


def check_in_range(
    value: float,
    low: float,
    high: float,
    *,
    name: str = "value",
    inclusive: bool = True,
) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(
        value, bool
    ):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    v = float(value)
    if math.isnan(v):
        raise ValueError(f"{name} must not be NaN")
    if inclusive:
        if not low <= v <= high:
            raise ValueError(f"{name} must be in [{low}, {high}], got {v}")
    else:
        if not low < v < high:
            raise ValueError(f"{name} must be in ({low}, {high}), got {v}")
    return v


def check_fraction(value: float, *, name: str = "fraction") -> float:
    """Validate a fraction in [0, 1]."""
    return check_in_range(value, 0.0, 1.0, name=name)


def check_domain_values(
    values: Sequence[int] | np.ndarray, domain_size: int, *, name: str = "values"
) -> np.ndarray:
    """Validate and coerce raw user values into an int64 array in [0, d).

    This is the boundary between untrusted client input and the estimation
    pipeline: anything outside the registered domain raises.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise TypeError(f"{name} must contain integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    if arr.min() < 0 or arr.max() >= domain_size:
        bad = arr[(arr < 0) | (arr >= domain_size)][0]
        raise ValueError(
            f"{name} must lie in [0, {domain_size}), found out-of-domain value {bad}"
        )
    return arr


def check_segment_starts(
    starts: Sequence[int] | np.ndarray, n: int, *, name: str = "starts"
) -> np.ndarray:
    """Validate the start offsets of consecutive non-empty segments of ``n`` items.

    Segment ``i`` covers ``[starts[i], starts[i + 1])`` and the last one
    runs to ``n``, so the offsets must begin at 0, increase strictly and
    stay below ``n``; no items (``n == 0``) means no segments.  Returns
    the offsets as an ``intp`` array.
    """
    arr = np.asarray(starts)
    if arr.ndim != 1 or (arr.size and not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(
            f"{name} must be a 1-D integer array, got {arr.dtype} {arr.shape}"
        )
    arr = arr.astype(np.intp, copy=False)
    if n == 0 and arr.size == 0:
        return arr
    if arr.size == 0 or arr[0] != 0:
        raise ValueError(f"{name} must begin at 0 to cover all {n} items")
    if np.any(arr[1:] <= arr[:-1]):
        raise ValueError(f"{name} must increase strictly (segments are non-empty)")
    if arr[-1] >= n:
        raise ValueError(f"{name} must stay below the item count {n}")
    return arr


def as_value_array(values: Sequence[float] | np.ndarray, *, name: str = "values") -> np.ndarray:
    """Coerce numeric user data into a 1-D float64 array, rejecting NaN/inf."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr

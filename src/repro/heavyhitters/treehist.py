"""TreeHist: threshold-pruned hierarchical heavy-hitter search.

TreeHist (Bassily, Nissim, Stemmer, Thakurta [3]) walks the binary
prefix tree of the domain: one user group per level estimates the counts
of the *children of surviving nodes*, and a node survives when its
estimated count clears a noise-calibrated threshold.  Where PEM's beam
is fixed-width, TreeHist's frontier adapts to the data — few heavy
prefixes mean few candidates and less noise accumulation.

The threshold defaults to ``threshold_sds`` analytical standard
deviations of the group estimator, the calibration that keeps false
survivors rare while real heavy hitters (count ≫ noise floor) pass every
level.
"""

from __future__ import annotations

import numpy as np

from repro.heavyhitters.common import (
    HeavyHitterResult,
    _privatized,
    collect_group,
    make_group_oracle,
    split_groups,
)
from repro.util.rng import ensure_generator
from repro.util.validation import check_epsilon, check_positive_int

__all__ = ["treehist_heavy_hitters"]


def treehist_heavy_hitters(
    values: np.ndarray,
    bits: int,
    epsilon: float,
    *,
    initial_bits: int = 4,
    threshold_sds: float = 3.0,
    max_frontier: int = 4096,
    rng: np.random.Generator | int | None = None,
) -> HeavyHitterResult:
    """Find all values whose count clears the noise threshold at every level.

    Parameters
    ----------
    values, bits, epsilon:
        As in :func:`repro.heavyhitters.pem.pem_heavy_hitters`.
    initial_bits:
        Depth at which the walk starts (all ``2^initial_bits`` nodes).
    threshold_sds:
        Pruning threshold in analytical standard deviations of the
        per-level estimator.
    max_frontier:
        Hard cap on surviving nodes per level (resource guard; the cap
        keeps the best-estimated nodes).
    """
    check_positive_int(bits, name="bits")
    check_epsilon(epsilon)
    check_positive_int(initial_bits, name="initial_bits")
    if threshold_sds <= 0:
        raise ValueError(f"threshold_sds must be > 0, got {threshold_sds}")
    if initial_bits > bits:
        raise ValueError(
            f"initial_bits ({initial_bits}) cannot exceed bits ({bits})"
        )
    vals = np.asarray(values, dtype=np.int64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if vals.min() < 0 or (bits < 63 and vals.max() >= (1 << bits)):
        raise ValueError(f"values must lie in [0, 2^{bits})")
    gen = ensure_generator(rng)

    lengths = list(range(initial_bits, bits + 1))
    num_groups = len(lengths)
    groups = split_groups(vals.shape[0], num_groups, gen)

    frontier = np.arange(1 << initial_bits, dtype=np.int64)
    evaluated = 0
    counts = np.zeros(0)
    for round_idx, length in enumerate(lengths):
        if round_idx > 0:
            frontier = np.concatenate([frontier << 1, (frontier << 1) | 1])
        if frontier.size == 0:
            return HeavyHitterResult(items=[], counts=[], candidates_evaluated=evaluated)
        members = groups == round_idx
        group_vals = vals[members] >> (bits - length)
        group_n = int(members.sum())
        oracle = make_group_oracle(max(1 << length, 2), epsilon)
        # Privatized inline, unlike PEM's groups: a client running ahead
        # would draw from ``gen`` for a level the empty-frontier exit
        # above never reaches.
        reports = _privatized(oracle, group_vals, gen)
        est = collect_group(oracle, reports, frontier).finalize()
        evaluated += frontier.shape[0]
        threshold = threshold_sds * np.sqrt(oracle.count_variance(max(group_n, 1)))
        keep = est > threshold
        frontier, est = frontier[keep], est[keep]
        if frontier.size > max_frontier:
            order = np.argsort(-est)[:max_frontier]
            frontier, est = frontier[order], est[order]
        counts = est * num_groups

    order = np.argsort(-counts)
    return HeavyHitterResult(
        items=[int(frontier[i]) for i in order],
        counts=[float(counts[i]) for i in order],
        candidates_evaluated=evaluated,
    )

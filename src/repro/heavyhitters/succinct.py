"""Bitstogram-style succinct histograms: hash, decode bits, verify.

Bassily, Nissim, Stemmer and Thakurta's practical protocol [3] (and the
succinct-histogram line it descends from [4]) avoids multi-round prefix
growth entirely:

1. A public hash throws every value into one of ``K`` channels.  A heavy
   hitter dominates its channel with high probability when ``K`` is a
   few times the number of heavy values squared... in practice a
   constant multiple of ``k²``.
2. User group ``j`` (one per bit position) reports the *pair*
   ``(channel, j-th bit of value)`` through a frequency oracle over the
   small domain ``2K``.  In each channel, the more popular bit value
   reveals the dominant value's ``j``-th bit.
3. The per-channel bit strings are assembled into candidates, and a
   final verification group estimates their true counts (discarding
   hash-collision chimeras).

One report per user at full ε: ε-LDP by parallel composition.
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
from repro.util.hashing import SeededHashFamily
from repro.util.rng import derive_seed, ensure_generator
from repro.util.validation import check_epsilon, check_positive_int

__all__ = ["bitstogram_heavy_hitters"]


def bitstogram_heavy_hitters(
    values: np.ndarray,
    bits: int,
    epsilon: float,
    k: int,
    *,
    channel_factor: int = 8,
    threshold_sds: float = 3.0,
    master_seed: int = 0,
    rng: np.random.Generator | int | None = None,
) -> HeavyHitterResult:
    """Single-round heavy-hitter discovery via channel/bit decoding.

    Parameters
    ----------
    values, bits, epsilon, k:
        As in :func:`repro.heavyhitters.pem.pem_heavy_hitters`.
    channel_factor:
        Number of hash channels ``K = channel_factor · k`` (more channels
        → fewer collisions, thinner per-channel signal).
    threshold_sds:
        Verification threshold in standard deviations of the final
        estimator.
    master_seed:
        Keys the public channel hash.
    """
    check_positive_int(bits, name="bits")
    check_epsilon(epsilon)
    check_positive_int(k, name="k")
    check_positive_int(channel_factor, name="channel_factor")
    vals = np.asarray(values, dtype=np.int64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1-D array")
    if vals.min() < 0 or (bits < 63 and vals.max() >= (1 << bits)):
        raise ValueError(f"values must lie in [0, 2^{bits})")
    gen = ensure_generator(rng)

    num_channels = channel_factor * k
    family = SeededHashFamily(1, num_channels, derive_seed(master_seed, 0xB175))
    channels = family.apply(0, vals)

    num_groups = bits + 1  # one per bit + verification
    groups = split_groups(vals.shape[0], num_groups, gen)

    # --- stage 1: per-bit channel votes ------------------------------------
    pair_domain = 2 * num_channels
    bit_votes = np.zeros((num_channels, bits))
    evaluated = 0
    for j in range(bits):
        members = groups == j
        bit_j = (vals[members] >> (bits - 1 - j)) & 1
        pair_vals = channels[members] * 2 + bit_j
        oracle = make_group_oracle(pair_domain, epsilon)
        reports = _privatized(oracle, pair_vals, gen)
        est = collect_group(oracle, reports, None).finalize()
        evaluated += pair_domain
        # Vote: sign of (count of bit=1) − (count of bit=0) per channel.
        bit_votes[:, j] = est[1::2] - est[0::2]

    # --- stage 2: assemble one candidate per channel ------------------------
    bits_matrix = (bit_votes > 0).astype(np.int64)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.int64))
    candidates = bits_matrix @ weights
    candidates = np.unique(candidates)

    # --- stage 3: verify -----------------------------------------------------
    members = groups == bits
    verify_vals = vals[members]
    group_n = int(members.sum())
    oracle = make_group_oracle(max(1 << bits, 2), epsilon)
    reports = _privatized(oracle, verify_vals, gen)
    est = collect_group(oracle, reports, candidates).finalize()
    evaluated += candidates.shape[0]
    threshold = threshold_sds * np.sqrt(oracle.count_variance(max(group_n, 1)))
    keep = est > threshold
    candidates, est = candidates[keep], est[keep]
    order = np.argsort(-est)[:k]
    return HeavyHitterResult(
        items=[int(candidates[i]) for i in order],
        counts=[float(est[i] * num_groups) for i in order],
        candidates_evaluated=evaluated,
    )

"""PEM: the Prefix Extending Method for heavy-hitter identification.

Over a domain of ``bits``-wide values (think 2²⁰ URLs or 2⁶⁴ words), no
frequency oracle can afford to estimate every value.  PEM [21-style,
also the core of Bassily et al.'s constructions] grows the answer:

1. Users are split into ``G`` disjoint groups; group ``j`` reports the
   **prefix** of its value of length ``ℓ_j = ℓ_0 + j·γ`` through OLH.
2. The server starts from all ``2^{ℓ_0}`` seed prefixes and, at round
   ``j``, extends each surviving prefix by every ``γ``-bit suffix,
   keeping the ``beam`` candidates with the highest estimated counts.
3. The last group's survivors — now full-width values — are the heavy
   hitters, with their estimated full-population counts.

Each user answers once at full ε (parallel composition), so the protocol
is ε-LDP end to end; accuracy divides the population across rounds,
which is the trade experiment E7 measures.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from repro.heavyhitters.common import (
    _GROUP_CHUNK_SIZE,
    HeavyHitterResult,
    _privatized,
    collect_group,
    make_group_oracle,
    split_groups,
)
from repro.util.client import _privatize_ahead
from repro.util.rng import ensure_generator
from repro.util.validation import check_epsilon, check_positive_int

__all__ = ["pem_heavy_hitters"]


def pem_heavy_hitters(
    values: np.ndarray,
    bits: int,
    epsilon: float,
    k: int,
    *,
    initial_bits: int = 4,
    step_bits: int = 2,
    beam_factor: int = 4,
    rng: np.random.Generator | int | None = None,
) -> HeavyHitterResult:
    """Identify the top-``k`` values of a ``bits``-wide domain under ε-LDP.

    Parameters
    ----------
    values:
        One value per user in ``[0, 2^bits)``.
    bits:
        Domain width in bits (the domain itself is never materialized).
    epsilon:
        Per-user privacy budget.
    k:
        Number of heavy hitters to return.
    initial_bits, step_bits:
        Seed prefix length ``ℓ_0`` and per-round extension ``γ``.
    beam_factor:
        Keep ``beam_factor · k`` candidates between rounds; wider beams
        trade server work for recall.
    """
    check_positive_int(bits, name="bits")
    check_epsilon(epsilon)
    check_positive_int(k, name="k")
    check_positive_int(initial_bits, name="initial_bits")
    check_positive_int(step_bits, name="step_bits")
    check_positive_int(beam_factor, name="beam_factor")
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

    # Round plan: prefix lengths ℓ_0, ℓ_0+γ, …, bits (last step clipped).
    lengths = list(range(initial_bits, bits, step_bits)) + [bits]
    num_groups = len(lengths)
    groups = split_groups(vals.shape[0], num_groups, gen)
    beam = beam_factor * k
    oracles = [make_group_oracle(max(1 << length, 2), epsilon) for length in lengths]
    # Each group's split, prefix shift and privatize run on the client
    # thread, one chunk ahead of this thread's decode: no group's
    # reports depend on an earlier round's candidates.
    batches = (
        batch
        for j, (oracle, length) in enumerate(zip(oracles, lengths))
        for batch in _privatized(oracle, vals[groups == j] >> (bits - length), gen)
    )
    sizes = np.bincount(groups, minlength=num_groups)
    chunks = (-(-sizes // _GROUP_CHUNK_SIZE)).tolist()

    candidates = np.arange(1 << initial_bits, dtype=np.int64)
    evaluated = 0
    counts = np.zeros(0)
    with _privatize_ahead(batches, sum(chunks)) as reports:
        for round_idx, oracle in enumerate(oracles):
            if round_idx > 0:
                extension = lengths[round_idx] - lengths[round_idx - 1]
                suffixes = np.arange(1 << extension, dtype=np.int64)
                candidates = (
                    (candidates[:, None] << extension) | suffixes[None, :]
                ).reshape(-1)
            group = islice(reports, chunks[round_idx])
            est = collect_group(oracle, group, candidates).finalize()
            evaluated += candidates.shape[0]
            keep = min(beam if round_idx < num_groups - 1 else k, candidates.shape[0])
            order = np.argsort(-est)[:keep]
            candidates = candidates[order]
            counts = est[order] * num_groups  # scale group count to population

    items = [int(v) for v in candidates]
    return HeavyHitterResult(
        items=items,
        counts=[float(c) for c in counts],
        candidates_evaluated=evaluated,
    )

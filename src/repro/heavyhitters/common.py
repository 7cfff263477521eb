"""Shared plumbing for heavy-hitter protocols.

All three protocols in this package (PEM, TreeHist, Bitstogram) treat the
domain as fixed-width bitstrings, split the population into disjoint
groups (parallel composition: every user answers exactly one question at
the full ε), and drive a frequency oracle in candidate-restricted mode.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.core.local_hashing import OptimalLocalHashing
from repro.core.mechanism import PureAccumulator, PureFrequencyOracle
from repro.util.client import _chunks
from repro.util.rng import ensure_generator
from repro.util.validation import check_epsilon, check_positive_int

__all__ = [
    "HeavyHitterResult",
    "collect_group",
    "split_groups",
    "make_group_oracle",
]

#: Users privatized at once in a group's round: the memory bound.
_GROUP_CHUNK_SIZE = 65_536


@dataclass(frozen=True)
class HeavyHitterResult:
    """Discovered heavy hitters, best first.

    Attributes
    ----------
    items:
        Discovered domain values, ordered by decreasing estimated count.
    counts:
        Full-population count estimates aligned with ``items``.
    candidates_evaluated:
        Total candidate evaluations across rounds — the protocol's
        server-side work measure.
    """

    items: list[int]
    counts: list[float]
    candidates_evaluated: int

    def as_set(self) -> set[int]:
        return set(self.items)


def split_groups(
    n: int, num_groups: int, rng: np.random.Generator | int | None
) -> np.ndarray:
    """Uniformly assign ``n`` users to ``num_groups`` disjoint groups."""
    check_positive_int(n, name="n")
    check_positive_int(num_groups, name="num_groups")
    gen = ensure_generator(rng)
    return gen.integers(0, num_groups, size=n)


def make_group_oracle(domain_size: int, epsilon: float) -> OptimalLocalHashing:
    """The oracle every group runs: OLH at the full per-user budget.

    OLH is the right default here — candidate-restricted support counting
    is exactly its strength and the prefix domains grow too large for
    unary encodings.
    """
    check_epsilon(epsilon)
    return OptimalLocalHashing(domain_size, epsilon)


def _privatized(
    oracle: PureFrequencyOracle, values: np.ndarray, rng: np.random.Generator
) -> Iterator[object]:
    """``values`` privatized lazily, in order, in chunks of at most
    ``_GROUP_CHUNK_SIZE`` users: one report batch per chunk."""
    return (
        oracle.privatize(chunk, rng=rng)
        for chunk in _chunks(values, _GROUP_CHUNK_SIZE)
    )


def collect_group(
    oracle: PureFrequencyOracle,
    reports: Iterable[object],
    candidates: np.ndarray | None,
) -> PureAccumulator:
    """Fold one group's privatized report chunks into an accumulator.

    ``reports`` yields the group's report batches in chunk order — from
    the client pipeline (PEM) or privatized inline (TreeHist,
    Bitstogram) — and each is dropped once absorbed, so raw report
    batches never outlive their chunk: the same shape as
    :func:`repro.protocol.run_sharded_collection`, restricted to the
    candidate list the round actually scores.

    Every chunk's ``absorb`` decodes against the same candidate list, so
    the per-candidate decode plan (premixed OLH kernel, or packed
    Hadamard bit masks) is built once and reused from the process-wide
    :data:`~repro.util.kernels.kernel_plan_cache` — chunk count no
    longer multiplies the candidate-side setup cost.
    """
    acc = oracle.accumulator(candidates)
    for batch in reports:
        acc.absorb(batch)
        del batch
    return acc

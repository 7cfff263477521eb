"""Golden record of the heavy-hitter protocols, pinned bit for bit.

PEM, TreeHist and Bitstogram each run at three seeds over two
populations: a small one over a 10- or 12-bit domain (a few thousand
users per group), and a large one whose groups each hold more than
65,536 users, so every group is privatized in two chunks.  TreeHist also runs once at a budget so
small that its frontier empties and it returns before its last group.
Every run is made twice, once with an int ``rng`` and once with a
``Generator``; the record pins the items, the counts and
``candidates_evaluated``, and for the ``Generator`` runs the generator's
``bit_generator.state`` after the call, so a change to how many numbers a
protocol draws, or in which order, shows up here as a diff.

Regenerate the record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_heavy_hitters_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.heavyhitters import (
    bitstogram_heavy_hitters,
    pem_heavy_hitters,
    treehist_heavy_hitters,
)
from repro.heavyhitters.common import split_groups

GOLDEN = Path(__file__).with_name("golden_heavy_hitters.json")

_SEEDS = (3, 41, 977)
#: Users per group in the large population: past one 65,536-user chunk.
_TWO_CHUNK_GROUP = 67_000


def _population(seed: int, n: int, bits: int, planted: int) -> np.ndarray:
    """``n`` values of a ``bits``-wide domain, Zipf-weighted over planted items."""
    gen = np.random.default_rng(seed)
    items = gen.choice(1 << bits, size=planted, replace=False)
    weights = 1.0 / np.arange(1, planted + 1) ** 1.2
    return items[gen.choice(planted, size=n, p=weights / weights.sum())]


#: name → (protocol, population (seed, n, bits, planted), arguments).
#: The large population's runs have three groups each: PEM 4 → 6 → 8
#: bits, TreeHist levels 6, 7 and 8, Bitstogram two bits and a
#: verification group.
_CASES = {
    "pem/small": (
        pem_heavy_hitters, (11, 12_000, 12, 12), dict(bits=12, epsilon=2.0, k=4),
    ),
    "pem/two_chunk": (
        pem_heavy_hitters,
        (12, 3 * _TWO_CHUNK_GROUP, 8, 16),
        dict(bits=8, epsilon=1.5, k=4),
    ),
    "treehist/small": (
        treehist_heavy_hitters,
        (13, 12_000, 10, 12),
        dict(bits=10, epsilon=2.0, initial_bits=6),
    ),
    "treehist/two_chunk": (
        treehist_heavy_hitters,
        (14, 3 * _TWO_CHUNK_GROUP, 8, 16),
        dict(bits=8, epsilon=1.5, initial_bits=6),
    ),
    "treehist/empty_frontier": (
        treehist_heavy_hitters,
        (15, 2_000, 12, 400),
        dict(bits=12, epsilon=0.2, initial_bits=4),
    ),
    "bitstogram/small": (
        bitstogram_heavy_hitters,
        (16, 12_000, 10, 12),
        dict(bits=10, epsilon=2.0, k=4),
    ),
    "bitstogram/two_chunk": (
        bitstogram_heavy_hitters,
        (17, 3 * _TWO_CHUNK_GROUP, 2, 3),
        dict(bits=2, epsilon=1.5, k=2, channel_factor=2),
    ),
}


def _run(case: str, seed: int, generator: bool) -> dict:
    protocol, population, kwargs = _CASES[case]
    values = _population(*population)
    rng = np.random.default_rng(seed) if generator else seed
    result = protocol(values, rng=rng, **kwargs)
    record = {
        "items": list(result.items),
        "counts": list(result.counts),
        "candidates_evaluated": result.candidates_evaluated,
    }
    if generator:
        record["state_after"] = rng.bit_generator.state
    return record


def _keys() -> list[tuple[str, str, int, bool]]:
    return [
        (f"{case}/seed{seed}/{'generator' if generator else 'int'}",
         case, seed, generator)
        for case in _CASES
        for seed in _SEEDS
        for generator in (False, True)
    ]


def observe() -> dict:
    return {key: _run(case, seed, generator) for key, case, seed, generator in _keys()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(key for key, *_ in _keys())


@pytest.mark.parametrize("seed", _SEEDS)
def test_two_chunk_groups_span_two_chunks(seed):
    """Every group of the large population outgrows one 65,536-user chunk.

    Each protocol's first draw is its group split, so the split is
    replayed from the seed.
    """
    for case in ("pem/two_chunk", "treehist/two_chunk", "bitstogram/two_chunk"):
        _, (_, n, _, _), _ = _CASES[case]
        sizes = np.bincount(split_groups(n, 3, seed), minlength=3)
        assert sizes.min() > 65_536, case


@pytest.mark.parametrize(
    "key, case, seed, generator", _keys(), ids=[key for key, *_ in _keys()]
)
def test_heavy_hitters_match_golden(key, case, seed, generator, golden):
    assert _run(case, seed, generator) == golden[key]


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_heavy_hitters_golden.py --write")
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

"""Pairwise-independent hash families, vectorized.

Local hashing protocols (BLH/OLH [4, 21]), Apple's count-mean sketch [9]
and RAPPOR's Bloom filters [12] all need cheap universal hashing that can
be (a) re-derived from a compact seed — a user's report must identify its
hash function — and (b) evaluated for *millions* of (function, value)
pairs at once on the aggregator side.

We use the classic affine family over the Mersenne prime field
``p = 2^31 - 1``::

    h_{a,b}(x) = ((a * π(x) + b) mod p) mod g    a in [1, p), b in [0, p)

where ``π`` is a *fixed* splitmix64 bijection applied to the raw value
before the affine map.  Composing a fixed bijection with a pairwise
family preserves pairwise independence, and it buys two things the raw
affine family lacks: (1) values that differ by a multiple of ``p`` no
longer alias (packed-string domains exceed 2³¹), and (2) structured keys
(consecutive IDs) behave like random ones, so e.g. Bloom false-positive
rates match the classical formula.  The pair ``(a, b)`` is derived from a
single 64-bit seed, so "a hash function" is just an integer that fits in
a report.

No reduction divides element by element: ``mod p`` is the branch-free
Mersenne shift-add fold (:func:`repro.util.kernels.mersenne_reduce`)
and every other ``mod m`` is ``x − ⌊x / m⌋·m`` with NumPy's vectorized
``floor_divide`` by a scalar (:func:`_mod_in_place`).  The client path
(``params_from_seeds``, ``hash_elementwise``) runs its ufuncs in place
over the ``(a, b)`` arrays and one scratch array, and clients whose
batch covers the domain gather premixed values from a cached table.
The arithmetic is exact, so every function here is bit-identical to
the ``_reference_*`` twins that keep the original two-hardware-``%``
implementations — the property suite pins that equivalence over edge
values and every oracle.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.util.kernels import MERSENNE_P, mersenne_reduce
from repro.util.validation import check_positive_int

__all__ = [
    "MERSENNE_P",
    "params_from_seeds",
    "hash_elementwise",
    "SeededHashFamily",
]

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_XORSHIFTS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None))
_U31 = np.uint64(31)
_P_MINUS_1 = MERSENNE_P - np.uint64(1)
_ONE = np.uint64(1)


def _splitmix(
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """One round of the splitmix64 finalizer (vectorized, uint64 in/out).

    Runs its ufuncs in place on ``out`` (which may alias ``x``), with
    ``scratch`` holding the shifted words; either is allocated when
    ``None``.  ``scratch`` must alias neither.
    """
    if out is None:
        out = np.empty(np.shape(x), dtype=np.uint64)
    if scratch is None:
        scratch = np.empty_like(out)
    np.add(x, _GOLDEN, out=out)
    for shift, mix in _XORSHIFTS:
        np.right_shift(out, shift, out=scratch)
        np.bitwise_xor(out, scratch, out=out)
        if mix is not None:
            np.multiply(out, mix, out=out)
    return out


def _mod_in_place(x: np.ndarray, m: np.uint64, scratch: np.ndarray) -> np.ndarray:
    """``x mod m`` for uint64 ``x``, written over ``x`` as ``x − ⌊x / m⌋·m``.

    NumPy's uint64 ``%`` by a scalar divides element by element, while
    ``floor_divide`` by a scalar is vectorized.  Exact for every ``x``
    and every ``m ≥ 1``.  ``scratch`` is a uint64 array the shape of
    ``x`` that does not alias it.
    """
    np.floor_divide(x, m, out=scratch)
    np.multiply(scratch, m, out=scratch)
    np.subtract(x, scratch, out=x)
    return x


def _premix(values: np.ndarray) -> np.ndarray:
    """Fixed splitmix64 bijection of raw values, reduced into [0, p).

    Applied before every affine evaluation so arbitrary 64-bit domains
    (packed strings, sketch ids) enter the prime field without aliasing
    and without key structure.  Allocates the result and one scratch
    array; ``values`` is never written.
    """
    x = np.asarray(values, dtype=np.uint64)
    scratch = np.empty(x.shape, dtype=np.uint64)
    mixed = _splitmix(x, scratch=scratch)
    return mersenne_reduce(mixed, out=mixed, scratch=scratch)


@functools.lru_cache(maxsize=8)
def _premix_table(domain_size: int) -> np.ndarray:
    """Read-only ``_premix(arange(domain_size))``, built once per size.

    Clients whose batch is at least as long as the domain gather their
    premixed values from it instead of mixing each value again.
    """
    table = _premix(np.arange(domain_size, dtype=np.uint64))
    table.setflags(write=False)
    return table


def _reference_premix(values: np.ndarray) -> np.ndarray:
    """The original hardware-``%`` premix (bit-identity oracle)."""
    x = np.asarray(values, dtype=np.uint64)
    return _splitmix(x) % MERSENNE_P


def params_from_seeds(seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derive affine parameters ``(a, b)`` from 64-bit seeds.

    ``a`` lands in ``[1, p)`` and ``b`` in ``[0, p)``.  Deterministic:
    the same seed always yields the same hash function.  Runs in place
    over ``a``, ``b`` and one scratch array.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    a = np.empty(s.shape, dtype=np.uint64)
    b = np.empty_like(a)
    scratch = np.empty_like(a)
    _splitmix(s, out=a, scratch=scratch)
    _splitmix(a, out=b, scratch=scratch)
    mersenne_reduce(b, out=b, scratch=scratch)
    _mod_in_place(a, _P_MINUS_1, scratch)
    np.add(a, _ONE, out=a)
    return a, b


def _hash_premixed(seeds: np.ndarray, x: np.ndarray, g: int) -> np.ndarray:
    """``h_seed_i(x_i)`` for premixed ``x`` in ``[0, p)``, as int64.

    Evaluated in place over the ``(a, b)`` arrays.  Since
    ``a·x + b ≤ p(p − 1) < 2⁶²``, one Mersenne fold lands in
    ``[0, 2p − 2]`` and the wrapping ``min(f, f − p)`` of the fused
    kernel gives the canonical ``h mod p``; ``mod g`` is
    :func:`_mod_in_place`.
    """
    a, b = params_from_seeds(seeds)
    if x.shape != a.shape:
        raise ValueError(
            f"seeds and values must align, got {a.shape} vs {x.shape}"
        )
    np.multiply(a, x, out=a)
    np.add(a, b, out=a)
    np.bitwise_and(a, MERSENNE_P, out=b)
    np.right_shift(a, _U31, out=a)
    np.add(a, b, out=a)
    np.subtract(a, MERSENNE_P, out=b)
    np.minimum(a, b, out=a)
    return _mod_in_place(a, np.uint64(g), b).view(np.int64)


def hash_elementwise(
    seeds: np.ndarray, values: np.ndarray, range_size: int
) -> np.ndarray:
    """Evaluate ``h_seed_i(value_i)`` for aligned seed/value arrays.

    This is the client-side path: user ``i`` hashes their own value with
    their own function.  Returns int64 hashes in ``[0, range_size)``.
    """
    g = check_positive_int(range_size, name="range_size")
    return _hash_premixed(seeds, _premix(values), g)


def _reference_hash_elementwise(
    seeds: np.ndarray, values: np.ndarray, range_size: int
) -> np.ndarray:
    """The original two-``%`` elementwise evaluation (bit-identity oracle)."""
    g = check_positive_int(range_size, name="range_size")
    a, b = params_from_seeds(seeds)
    x = _reference_premix(values)
    if x.shape != a.shape:
        raise ValueError(
            f"seeds and values must align, got {a.shape} vs {x.shape}"
        )
    h = (a * x + b) % MERSENNE_P
    return (h % np.uint64(g)).astype(np.int64)


def _reference_hash_cross(
    seeds: np.ndarray,
    values: np.ndarray,
    range_size: int,
    *,
    chunk: int = 1 << 22,
) -> np.ndarray:
    """The original materializing two-``%`` cross evaluation (oracle)."""
    g = check_positive_int(range_size, name="range_size")
    s = np.asarray(seeds, dtype=np.uint64)
    xs = np.asarray(values, dtype=np.uint64)
    if xs.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {xs.shape}")
    xs = _reference_premix(xs)
    n, d = s.shape[0], xs.shape[0]
    a, b = params_from_seeds(s)
    out = np.empty((n, d), dtype=np.int64)
    rows_per_chunk = max(1, int(chunk // max(d, 1)))
    for start in range(0, n, rows_per_chunk):
        stop = min(start + rows_per_chunk, n)
        block = (a[start:stop, None] * xs[None, :] + b[start:stop, None]) % MERSENNE_P
        out[start:stop] = (block % np.uint64(g)).astype(np.int64)
    return out


class SeededHashFamily:
    """``k`` shared hash functions ``[0, p) -> [0, m)`` keyed by one seed.

    Used where the *aggregator* publishes the hash functions and every
    client uses the same family: Apple's CMS/HCMS sketches [9] and RAPPOR
    cohort Bloom filters [12].

    Parameters
    ----------
    k:
        Number of functions in the family.
    range_size:
        Common range ``m`` of every function.
    master_seed:
        Integer key; the family is a pure function of it.
    """

    def __init__(self, k: int, range_size: int, master_seed: int) -> None:
        self.k = check_positive_int(k, name="k")
        self.range_size = check_positive_int(range_size, name="range_size")
        self.master_seed = int(master_seed)
        base = np.arange(self.k, dtype=np.uint64) + np.uint64(
            self.master_seed & (2**64 - 1)
        )
        seeds = _splitmix(_splitmix(base) ^ _GOLDEN)
        self._a, self._b = params_from_seeds(seeds)

    def _reduce_mod_range(self, h: np.ndarray) -> np.ndarray:
        """``(h mod p) mod m`` for the affine image ``h``, in place over ``h``."""
        scratch = np.empty_like(h)
        mersenne_reduce(h, out=h, scratch=scratch)
        return _mod_in_place(h, np.uint64(self.range_size), scratch).view(np.int64)

    def apply(self, index: int, values: np.ndarray) -> np.ndarray:
        """Hash ``values`` with function ``index``; int64 in [0, m)."""
        if not 0 <= index < self.k:
            raise IndexError(f"hash index {index} out of range [0, {self.k})")
        x = _premix(values)
        return self._reduce_mod_range(self._a[index] * x + self._b[index])

    def apply_selected(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Hash ``values[i]`` with function ``indices[i]`` (aligned arrays).

        The CMS client path: each user samples one function index and
        hashes their value with it.
        """
        idx = np.asarray(indices, dtype=np.int64)
        x = _premix(values)
        if idx.shape != x.shape:
            raise ValueError(
                f"indices and values must align, got {idx.shape} vs {x.shape}"
            )
        if idx.size and (idx.min() < 0 or idx.max() >= self.k):
            raise IndexError("hash index out of range")
        return self._reduce_mod_range(self._a[idx] * x + self._b[idx])

    def apply_all(
        self, values: np.ndarray, *, chunk: int = 1 << 22
    ) -> np.ndarray:
        """Hash ``values`` under every function; shape ``(k, len(values))``.

        Work is chunked over values so peak *temporary* memory stays at
        roughly ``chunk`` uint64 elements regardless of the batch size —
        only the int64 result matrix itself scales with ``len(values)``.
        (Previously the whole ``(k, n)`` uint64 intermediate was
        materialized at once: an OOM risk for population-scale decodes.)
        """
        x = _premix(values)
        if x.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {x.shape}")
        n = x.shape[0]
        out = np.empty((self.k, n), dtype=np.int64)
        cols_per_chunk = max(1, int(chunk // max(self.k, 1)))
        a_col = self._a[:, None]
        b_col = self._b[:, None]
        for start in range(0, n, cols_per_chunk):
            stop = min(start + cols_per_chunk, n)
            block = a_col * x[None, start:stop] + b_col
            out[:, start:stop] = self._reduce_mod_range(block)
        return out

    def _reference_apply_all(self, values: np.ndarray) -> np.ndarray:
        """The original unchunked two-``%`` evaluation (bit-identity oracle)."""
        x = _reference_premix(values)
        h = (self._a[:, None] * x[None, :] + self._b[:, None]) % MERSENNE_P
        return (h % np.uint64(self.range_size)).astype(np.int64)

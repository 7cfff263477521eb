"""Unit tests for the pairwise hash families."""

import numpy as np
import pytest

from repro.util.hashing import (
    MERSENNE_P,
    SeededHashFamily,
    _mod_in_place,
    _reference_hash_cross,
    hash_elementwise,
    params_from_seeds,
)

P = int(MERSENNE_P)


class TestParamsFromSeeds:
    def test_a_in_valid_range(self):
        seeds = np.arange(1000, dtype=np.uint64)
        a, b = params_from_seeds(seeds)
        assert a.min() >= 1
        assert int(a.max()) < int(MERSENNE_P)
        assert b.min() >= 0
        assert int(b.max()) < int(MERSENNE_P)

    def test_deterministic(self):
        seeds = np.asarray([7, 8, 9], dtype=np.uint64)
        a1, b1 = params_from_seeds(seeds)
        a2, b2 = params_from_seeds(seeds)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)


class TestHashElementwise:
    def test_range(self):
        seeds = np.arange(500, dtype=np.uint64)
        values = np.arange(500, dtype=np.int64) % 97
        out = hash_elementwise(seeds, values, 16)
        assert out.min() >= 0
        assert out.max() < 16

    def test_matches_matrix_path(self):
        seeds = np.arange(50, dtype=np.uint64) + 1000
        values = (np.arange(50, dtype=np.int64) * 13) % 64
        elementwise = hash_elementwise(seeds, values, 8)
        matrix = _reference_hash_cross(seeds, np.arange(64, dtype=np.uint64), 8)
        expected = matrix[np.arange(50), values]
        assert np.array_equal(elementwise, expected)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="align"):
            hash_elementwise(
                np.arange(3, dtype=np.uint64), np.arange(4, dtype=np.int64), 4
            )

    def test_range_size_validation(self):
        with pytest.raises(ValueError):
            hash_elementwise(
                np.arange(3, dtype=np.uint64), np.arange(3, dtype=np.int64), 0
            )


class TestHashCross:
    """The materializing reference cross evaluation the kernels match."""

    def test_shape(self):
        out = _reference_hash_cross(
            np.arange(10, dtype=np.uint64), np.arange(7, dtype=np.int64), 4
        )
        assert out.shape == (10, 7)

    def test_chunking_invariant(self):
        seeds = np.arange(100, dtype=np.uint64)
        values = np.arange(33, dtype=np.int64)
        big = _reference_hash_cross(seeds, values, 8, chunk=1 << 22)
        tiny = _reference_hash_cross(seeds, values, 8, chunk=64)
        assert np.array_equal(big, tiny)

    def test_rejects_2d_values(self):
        with pytest.raises(ValueError, match="1-D"):
            _reference_hash_cross(
                np.arange(3, dtype=np.uint64), np.zeros((2, 2), dtype=np.int64), 4
            )


class TestModInPlace:
    @pytest.mark.parametrize(
        "m",
        [1, 2, 3, 4, 5, 7, 8, 11, 64, 1023, 1024, 2**30, 2**31 - 1,
         2**31, 2**31 + 11, 2**32 + 1, 2**63, 2**64 - 1],
    )
    def test_matches_hardware_mod(self, m):
        # Every uint64 dividend, not just the residues below p that the
        # hash paths feed it.
        edges = [0, 1, m - 1, m, m + 1, 2 * m, 2 * m + 1, P - 1, P, 2**31,
                 2**63, 2**64 - 1, (2**64 - 1) // m * m]
        rng = np.random.default_rng(m % 2**32)
        x = np.concatenate([
            np.array([v for v in edges if v < 2**64], dtype=np.uint64),
            rng.integers(0, 2**64, size=5_000, dtype=np.uint64),
        ])
        expected = x % np.uint64(m)
        result = _mod_in_place(x, np.uint64(m), np.empty_like(x))
        assert result is x
        assert np.array_equal(x, expected)


class TestHashUniformity:
    def test_bucket_balance_over_random_functions(self):
        """Across many seeds, one value's hash is near-uniform over [0, g)."""
        seeds = np.arange(40_000, dtype=np.uint64)
        values = np.full(40_000, 12345, dtype=np.int64)
        hashed = hash_elementwise(seeds, values, 8)
        counts = np.bincount(hashed, minlength=8)
        expected = 40_000 / 8
        # 6σ of a binomial(40000, 1/8)
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected * 7 / 8))

    def test_pairwise_collision_rate(self):
        """P(h(x) = h(y)) ≈ 1/g for x ≠ y over random functions."""
        seeds = np.arange(50_000, dtype=np.uint64) + 7
        hx = hash_elementwise(seeds, np.full(50_000, 3, dtype=np.int64), 16)
        hy = hash_elementwise(seeds, np.full(50_000, 4, dtype=np.int64), 16)
        rate = float((hx == hy).mean())
        assert abs(rate - 1 / 16) < 0.006


class TestSeededHashFamily:
    def test_apply_deterministic(self):
        fam1 = SeededHashFamily(4, 32, 99)
        fam2 = SeededHashFamily(4, 32, 99)
        vals = np.arange(100, dtype=np.int64)
        for j in range(4):
            assert np.array_equal(fam1.apply(j, vals), fam2.apply(j, vals))

    def test_different_indices_differ(self):
        fam = SeededHashFamily(2, 1024, 5)
        vals = np.arange(2000, dtype=np.int64)
        assert not np.array_equal(fam.apply(0, vals), fam.apply(1, vals))

    def test_apply_selected_matches_apply(self):
        fam = SeededHashFamily(3, 16, 11)
        vals = np.arange(60, dtype=np.int64)
        idx = np.arange(60, dtype=np.int64) % 3
        selected = fam.apply_selected(idx, vals)
        for j in range(3):
            members = idx == j
            assert np.array_equal(selected[members], fam.apply(j, vals[members]))

    def test_apply_all_shape(self):
        fam = SeededHashFamily(5, 8, 0)
        out = fam.apply_all(np.arange(12, dtype=np.int64))
        assert out.shape == (5, 12)

    def test_index_out_of_range(self):
        fam = SeededHashFamily(2, 8, 0)
        with pytest.raises(IndexError):
            fam.apply(2, np.arange(3, dtype=np.int64))

    def test_apply_selected_bad_index(self):
        fam = SeededHashFamily(2, 8, 0)
        with pytest.raises(IndexError):
            fam.apply_selected(
                np.asarray([0, 5], dtype=np.int64), np.asarray([1, 2], dtype=np.int64)
            )

    def test_apply_selected_shape_mismatch(self):
        fam = SeededHashFamily(2, 8, 0)
        with pytest.raises(ValueError, match="align"):
            fam.apply_selected(
                np.asarray([0], dtype=np.int64), np.asarray([1, 2], dtype=np.int64)
            )

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            SeededHashFamily(0, 8, 0)

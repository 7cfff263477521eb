"""Unit tests for BLH and OLH local-hashing oracles."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.estimation import ORACLE_REGISTRY, make_oracle
from repro.core.local_hashing import BinaryLocalHashing, OptimalLocalHashing
from repro.core.mechanism import HashedReports


class TestConfiguration:
    def test_olh_default_g(self):
        olh = OptimalLocalHashing(64, 1.0)
        assert olh.g == max(2, round(math.e + 1))

    def test_olh_g_grows_with_epsilon(self):
        assert OptimalLocalHashing(64, 3.0).g > OptimalLocalHashing(64, 1.0).g

    def test_blh_is_binary(self):
        assert BinaryLocalHashing(64, 1.0).g == 2

    def test_explicit_g(self):
        olh = OptimalLocalHashing(64, 1.0, g=7)
        assert olh.g == 7

    def test_rejects_g_below_two(self):
        with pytest.raises(ValueError):
            OptimalLocalHashing(64, 1.0, g=1)

    def test_q_star_is_one_over_g(self):
        olh = OptimalLocalHashing(64, 1.0, g=5)
        assert olh.q_star == 0.2

    def test_olh_variance_close_to_oue(self):
        from repro.core.unary import OptimalUnaryEncoding

        for eps in (0.7, 1.0, 1.5):
            olh = OptimalLocalHashing(64, eps)
            oue = OptimalUnaryEncoding(64, eps)
            ratio = olh.count_variance(1000) / oue.count_variance(1000)
            assert 0.9 < ratio < 1.35  # g rounding costs a few percent

    def test_blh_worse_than_olh_at_large_epsilon(self):
        blh = BinaryLocalHashing(64, 3.0)
        olh = OptimalLocalHashing(64, 3.0)
        assert blh.count_variance(1000) > olh.count_variance(1000)


class TestPrivatize:
    def test_report_structure(self):
        olh = OptimalLocalHashing(32, 1.0)
        reports = olh.privatize(np.arange(32), rng=1)
        assert isinstance(reports, HashedReports)
        assert len(reports) == 32
        assert reports.values.min() >= 0
        assert reports.values.max() < olh.g

    def test_distinct_seeds_per_user(self):
        olh = OptimalLocalHashing(32, 1.0)
        reports = olh.privatize(np.zeros(5000, dtype=int), rng=2)
        assert np.unique(reports.seeds).size == 5000

    def test_report_equals_hash_with_prob_p(self):
        from repro.util.hashing import hash_elementwise

        olh = OptimalLocalHashing(64, 1.0)
        n = 50_000
        reports = olh.privatize(np.full(n, 9), rng=3)
        hashed = hash_elementwise(reports.seeds, np.full(n, 9), olh.g)
        agree = float((reports.values == hashed).mean())
        assert abs(agree - olh.p_star) < 0.01


def _batch_arrays(batch) -> list[np.ndarray]:
    if dataclasses.is_dataclass(batch):
        return [getattr(batch, f.name) for f in dataclasses.fields(batch)]
    return [np.asarray(batch)]


class TestPrivatizeChunks:
    """``privatize_chunks`` equals ``privatize`` chunk by chunk, for every
    registered oracle: OLH and BLH override it to hash once, the rest
    inherit the chunk loop."""

    # d = 64: OLH premixes 40 users directly and gathers 300 from its table.
    @pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
    @pytest.mark.parametrize("n", [40, 300])
    @pytest.mark.parametrize("chunk_size", [1, 7, 256, 300])
    def test_equals_privatize_chunk_by_chunk(self, name, n, chunk_size):
        oracle = make_oracle(name, 64, 1.3)
        values = np.random.default_rng(n).integers(0, 64, size=n)
        chunked_gen, loop_gen = np.random.default_rng(7), np.random.default_rng(7)
        batches = oracle.privatize_chunks(values, chunk_size, rng=chunked_gen)
        expected = [
            oracle.privatize(values[start : start + chunk_size], rng=loop_gen)
            for start in range(0, n, chunk_size)
        ]
        assert len(batches) == len(expected)
        for got, want in zip(batches, expected):
            assert type(got) is type(want)
            for got_array, want_array in zip(_batch_arrays(got), _batch_arrays(want)):
                assert got_array.dtype == want_array.dtype
                assert np.array_equal(got_array, want_array)
        assert chunked_gen.bit_generator.state == loop_gen.bit_generator.state

    @pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
    def test_refuses_out_of_domain_values(self, name):
        oracle = make_oracle(name, 16, 1.0)
        values = np.arange(40) % 16
        values[-1] = 16
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        with pytest.raises(ValueError):
            oracle.privatize_chunks(values, 7, rng=gen)
        if name in ("OLH", "BLH"):
            assert gen.bit_generator.state == state  # raised before any draw


class TestAggregate:
    def test_support_counts_rejects_wrong_type(self):
        olh = OptimalLocalHashing(16, 1.0)
        with pytest.raises(TypeError):
            olh.support_counts(np.zeros(10))

    def test_support_counts_rejects_out_of_range_values(self):
        olh = OptimalLocalHashing(16, 1.0)
        bad = HashedReports(
            seeds=np.asarray([1, 2], dtype=np.uint64),
            values=np.asarray([0, olh.g], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="refusing"):
            olh.support_counts(bad)

    def test_candidate_counts_match_full(self):
        olh = OptimalLocalHashing(64, 1.0)
        values = np.arange(64).repeat(50)
        reports = olh.privatize(values, rng=5)
        full = olh.support_counts(reports)
        cands = np.asarray([0, 17, 63])
        partial = olh.support_counts_for(reports, cands)
        assert np.allclose(full[cands], partial)

    def test_large_domain_candidates_only(self):
        """OLH must decode a 2^40 domain via candidates without blowing up."""
        domain = 1 << 40
        olh = OptimalLocalHashing(domain, 1.0)
        heavy = 123_456_789_012
        values = np.full(5000, heavy, dtype=np.int64)
        reports = olh.privatize(values, rng=7)
        cands = np.asarray([heavy, heavy + 1, 42], dtype=np.int64)
        est = olh.estimate_counts_for(reports, cands)
        sd = olh.count_stddev(5000)
        assert abs(est[0] - 5000) < 5 * sd
        assert abs(est[1]) < 5 * sd
        assert abs(est[2]) < 5 * sd

    def test_log_likelihood_rejects_bad_value(self):
        olh = OptimalLocalHashing(16, 1.0)
        reports = olh.privatize(np.arange(16), rng=9)
        with pytest.raises(ValueError):
            olh.log_likelihood(reports, 16)


class TestHashedReports:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="align"):
            HashedReports(
                seeds=np.zeros(3, dtype=np.uint64),
                values=np.zeros(4, dtype=np.int64),
            )

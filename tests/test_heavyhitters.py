"""Tests for the three heavy-hitter protocols."""

import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import OptimalLocalHashing
from repro.eval import topk_f1
from repro.heavyhitters import (
    HeavyHitterResult,
    bitstogram_heavy_hitters,
    pem_heavy_hitters,
    treehist_heavy_hitters,
)
from repro.workloads import sample_from_frequencies, zipf_frequencies

BITS = 12


@pytest.fixture(scope="module")
def heavy_population():
    """n=80k users over a 2^12 domain; 16 planted heavy values."""
    gen = np.random.default_rng(17)
    heavy_ids = gen.choice(1 << BITS, size=16, replace=False).astype(np.int64)
    freqs = zipf_frequencies(16, 1.4)
    idx = sample_from_frequencies(freqs, 80_000, rng=19)
    values = heavy_ids[idx]
    order = np.argsort(-np.bincount(idx, minlength=16))
    top8 = set(int(heavy_ids[i]) for i in order[:8])
    return values, top8, set(int(v) for v in heavy_ids)


class TestPem:
    def test_finds_top_hitters(self, heavy_population):
        values, top8, _ = heavy_population
        result = pem_heavy_hitters(values, BITS, 2.0, k=8, rng=3)
        assert topk_f1(top8, set(result.items)) >= 0.6

    def test_result_sorted_by_count(self, heavy_population):
        values, _, _ = heavy_population
        result = pem_heavy_hitters(values, BITS, 2.0, k=8, rng=5)
        assert result.counts == sorted(result.counts, reverse=True)

    def test_returns_at_most_k(self, heavy_population):
        values, _, _ = heavy_population
        result = pem_heavy_hitters(values, BITS, 2.0, k=5, rng=7)
        assert len(result.items) <= 5

    def test_counts_scaled_to_population(self, heavy_population):
        values, _, all_heavy = heavy_population
        result = pem_heavy_hitters(values, BITS, 2.0, k=4, rng=9)
        truth = {
            v: float((values == v).sum()) for v in result.items if v in all_heavy
        }
        for item, count in zip(result.items, result.counts):
            if item in truth and truth[item] > 3000:
                assert 0.5 * truth[item] < count < 1.8 * truth[item]

    def test_beam_wider_is_no_worse_usually(self, heavy_population):
        values, top8, _ = heavy_population
        narrow = pem_heavy_hitters(values, BITS, 2.0, k=8, beam_factor=1, rng=11)
        wide = pem_heavy_hitters(values, BITS, 2.0, k=8, beam_factor=8, rng=11)
        assert wide.candidates_evaluated > narrow.candidates_evaluated

    def test_initial_bits_validation(self, heavy_population):
        values, _, _ = heavy_population
        with pytest.raises(ValueError, match="cannot exceed"):
            pem_heavy_hitters(values, BITS, 2.0, k=4, initial_bits=13)

    def test_rejects_out_of_domain_values(self):
        with pytest.raises(ValueError):
            pem_heavy_hitters(np.asarray([1 << BITS]), BITS, 2.0, k=2)


class TestTreeHist:
    def test_finds_heavy_values(self, heavy_population):
        values, top8, _ = heavy_population
        result = treehist_heavy_hitters(values, BITS, 2.0, rng=13)
        found = result.as_set()
        # thresholding finds the heavy head, maybe not all 8
        assert len(found & top8) >= 4

    def test_no_false_positives_on_uniform(self):
        gen = np.random.default_rng(23)
        values = gen.integers(0, 1 << BITS, size=30_000)
        result = treehist_heavy_hitters(values, BITS, 1.0, rng=29)
        # uniform over 4096 values: none should clear a 3σ threshold
        assert len(result.items) <= 3

    def test_threshold_validation(self, heavy_population):
        values, _, _ = heavy_population
        with pytest.raises(ValueError):
            treehist_heavy_hitters(values, BITS, 2.0, threshold_sds=0.0)

    def test_max_frontier_respected(self, heavy_population):
        values, _, _ = heavy_population
        result = treehist_heavy_hitters(values, BITS, 2.0, max_frontier=4, rng=31)
        assert len(result.items) <= 8  # 4 survivors × 2 children


class TestBitstogram:
    def test_finds_top_hitters(self, heavy_population):
        values, top8, _ = heavy_population
        result = bitstogram_heavy_hitters(values, BITS, 2.0, k=8, rng=37)
        assert len(set(result.items) & top8) >= 3

    def test_verification_filters_chimeras(self, heavy_population):
        values, _, all_heavy = heavy_population
        result = bitstogram_heavy_hitters(values, BITS, 2.0, k=16, rng=41)
        # every returned item must be a real heavy value (verified),
        # chimeric bit-mixes are filtered by the final FO
        real = sum(1 for item in result.items if item in all_heavy)
        assert real >= len(result.items) - 2

    def test_result_type(self, heavy_population):
        values, _, _ = heavy_population
        result = bitstogram_heavy_hitters(values, BITS, 1.0, k=4, rng=43)
        assert isinstance(result, HeavyHitterResult)


class TestCommon:
    def test_split_groups_partition(self):
        from repro.heavyhitters.common import split_groups

        groups = split_groups(10_000, 7, rng=3)
        assert groups.shape == (10_000,)
        assert set(np.unique(groups)) == set(range(7))

    def test_f1_improves_with_epsilon(self, heavy_population):
        values, top8, _ = heavy_population
        weak = pem_heavy_hitters(values, BITS, 0.5, k=8, rng=47)
        strong = pem_heavy_hitters(values, BITS, 4.0, k=8, rng=47)
        assert topk_f1(top8, set(strong.items)) >= topk_f1(top8, set(weak.items))


class _PrivatizeSpy:
    """Wraps ``OptimalLocalHashing.privatize``: records each call's thread
    and how many of the calls' report batches are still alive, and raises
    on the ``fail_at``-th call."""

    def __init__(self, monkeypatch, fail_at=None):
        self.fail_at = fail_at
        self.threads = []
        self.alive = []
        self._batches = []
        original = OptimalLocalHashing.privatize

        def privatize(oracle, values, rng=None):
            if len(self.threads) + 1 == self.fail_at:
                self.threads.append(threading.get_ident())
                raise RuntimeError(f"client failed on call {self.fail_at}")
            reports = original(oracle, values, rng=rng)
            self._batches.append(weakref.ref(reports))
            self.alive.append(sum(ref() is not None for ref in self._batches))
            self.threads.append(threading.get_ident())
            return reports

        monkeypatch.setattr(OptimalLocalHashing, "privatize", privatize)


def _client_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-client")]


def _pem(values, rng):
    """PEM over 12 bits: five groups."""
    return pem_heavy_hitters(values, 12, 2.0, k=4, rng=rng)


#: The protocols that privatize inline, and how many groups each runs.
_INLINE = {
    "treehist": (
        lambda values: treehist_heavy_hitters(values, BITS, 2.0, initial_bits=8, rng=5),
        BITS - 8 + 1,
    ),
    "bitstogram": (
        lambda values: bitstogram_heavy_hitters(values % 16, 4, 2.0, k=4, rng=5),
        4 + 1,
    ),
}


class TestClientPipeline:
    """PEM privatizes its groups on one client thread; TreeHist and
    Bitstogram privatize on the calling thread."""

    def test_error_in_the_third_group_stops_the_client(
        self, heavy_population, monkeypatch
    ):
        values, _, _ = heavy_population
        spy = _PrivatizeSpy(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="call 3"):
            _pem(values[:5000], 7)
        assert len(spy.threads) == 3  # no group after the failure started
        assert _client_threads() == []

    def test_groups_run_on_one_client_thread(self, heavy_population, monkeypatch):
        values, _, _ = heavy_population
        expected = _pem(values, 9)
        spy = _PrivatizeSpy(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two threads finely
        try:
            result = _pem(values, 9)
        finally:
            sys.setswitchinterval(interval)
        assert result == expected
        assert len(spy.threads) == 5
        assert len(set(spy.threads)) == 1
        assert threading.get_ident() not in spy.threads
        assert max(spy.alive) <= 2
        assert _client_threads() == []

    @pytest.mark.parametrize("name", sorted(_INLINE))
    def test_privatizes_inline(self, name, heavy_population, monkeypatch):
        values, _, _ = heavy_population
        run, num_groups = _INLINE[name]
        spy = _PrivatizeSpy(monkeypatch)
        run(values)
        assert spy.threads == [threading.get_ident()] * num_groups

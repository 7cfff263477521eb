"""Bit-identity of the fused decode kernels against the reference paths.

The kernel layer (``repro.util.kernels``) replaced the aggregator hot
paths wholesale — that is only safe because every fused path computes
the *same integers* as the ``_reference_*`` implementation it displaced.
This suite pins that promise:

* the hashing substrate (premix, elementwise, seeded family)
  over adversarial edge values — 0, 2⁶³−1, 2⁶⁴−1, multiples of p;
* the segmented OLH decode (``segment_counts``): every row equals the
  reference over its segment, for segments inside and across tiles,
  one report per segment, and on the pooled path — including cuts on,
  beside and across the row edges of the kernel's own tile geometry
  (``_tile_shape``);
* the client path (``params_from_seeds``, ``_premix``,
  ``hash_elementwise`` and OLH/BLH ``privatize`` on both its premix
  paths) against the previous out-of-place formulas;
* the oracle support paths (OLH/BLH fused kernel, bit-sliced Hadamard
  decode, unary integer column sums) including empty report batches,
  single-candidate lists and the BLH ``g = 2`` extreme — the bit-sliced
  tier is pinned against both the oracle's retained per-candidate
  reference and the direct formula over edge shapes (d=1, single report,
  non-power-of-two candidate counts, constant sign patterns);
* estimates unchanged whether the kernel plan cache is cold, warm, or
  disabled (``REPRO_KERNEL_PLAN_CACHE=0``), for every registered oracle
  and the heavy-hitter stacks;
* the sketch/Bloom decode paths (CMS tiled reads, chunked design
  matrices) across chunk boundaries;
* estimates end to end: for every registered oracle and system stack,
  the estimate is unchanged when the kernels' tile thread pool fans out
  (integer partial sums are schedule-independent).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BinaryLocalHashing, OptimalLocalHashing
from repro.core.estimation import ORACLE_REGISTRY, make_oracle
from repro.core.hadamard import HadamardResponse
from repro.core.mechanism import HashedReports
from repro.core.unary import OptimalUnaryEncoding, SymmetricUnaryEncoding
from repro.systems.apple import CountMeanSketch, HadamardCountMeanSketch
from repro.systems.microsoft import DBitFlip, OneBitMean
from repro.systems.rappor import RapporAggregator, RapporParams, privatize_population
from repro.util.bloom import BloomFilter
from repro.util.hashing import (
    MERSENNE_P,
    SeededHashFamily,
    _premix,
    _reference_hash_elementwise,
    _reference_premix,
    hash_elementwise,
    params_from_seeds,
)
from repro.util import kernels
from repro.util.kernels import FusedSupportKernel

P = int(MERSENNE_P)

#: Raw 64-bit inputs that stress every reduction boundary.
EDGE_INPUTS = np.array(
    [0, 1, P - 1, P, P + 1, 2 * P, 7 * P, 2**31, 2**32, 2**62,
     2**63 - 1, 2**63, 2**64 - 1, (2**64 - 1) // P * P],
    dtype=np.uint64,
)


# -- hashing substrate -----------------------------------------------------


def test_premix_matches_reference_on_edges():
    assert np.array_equal(_premix(EDGE_INPUTS), _reference_premix(EDGE_INPUTS))


@given(seed=st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_premix_matches_reference_on_random(seed):
    x = np.random.default_rng(seed).integers(
        0, 2**63, size=256, dtype=np.int64
    ).astype(np.uint64) * np.uint64(2) + np.uint64(seed % 2)
    assert np.array_equal(_premix(x), _reference_premix(x))


@pytest.mark.parametrize("g", [1, 2, 8, 1023])
def test_hash_elementwise_matches_reference(g):
    seeds = EDGE_INPUTS.copy()
    values = EDGE_INPUTS[::-1].copy()
    assert np.array_equal(
        hash_elementwise(seeds, values, g),
        _reference_hash_elementwise(seeds, values, g),
    )


@pytest.mark.parametrize("k,m", [(1, 2), (2, 64), (8, 1024), (3, 2**31 + 11)])
def test_seeded_family_matches_reference(k, m):
    family = SeededHashFamily(k, m, master_seed=99)
    values = np.concatenate(
        [EDGE_INPUTS, np.arange(40, dtype=np.uint64) * np.uint64(P)]
    )
    ref = family._reference_apply_all(values)
    assert np.array_equal(family.apply_all(values), ref)
    # chunking over values must be invisible
    assert np.array_equal(family.apply_all(values, chunk=3), ref)
    # per-function and selected paths agree with the matrix
    for j in range(k):
        assert np.array_equal(family.apply(j, values), ref[j])
    idx = np.arange(values.shape[0]) % k
    assert np.array_equal(
        family.apply_selected(idx, values),
        ref[idx, np.arange(values.shape[0])],
    )


def test_seeded_family_empty_batch():
    family = SeededHashFamily(3, 16, master_seed=1)
    empty = np.array([], dtype=np.int64)
    assert family.apply_all(empty).shape == (3, 0)


# -- oracle support paths --------------------------------------------------


def _hashed_reports(seeds, values):
    return HashedReports(
        seeds=np.asarray(seeds, dtype=np.uint64),
        values=np.asarray(values, dtype=np.int64),
    )


class TestLocalHashingIdentity:
    @pytest.mark.parametrize("oracle_cls,d,epsilon", [
        (OptimalLocalHashing, 64, 1.7),  # g = 6
        (OptimalLocalHashing, 2, 1.7),
        (OptimalLocalHashing, 64, 0.5),  # g = 3, odd
        (OptimalLocalHashing, 64, 4.0),  # g = 56, even, not a power of 2
        (BinaryLocalHashing, 64, 1.7),  # the g = 2 extreme
    ])
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_support_counts_match_reference(self, oracle_cls, d, epsilon, seed):
        oracle = oracle_cls(d, epsilon)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, d, size=300)
        reports = oracle.privatize(values, rng=rng)
        cands = np.arange(d, dtype=np.int64)
        assert np.array_equal(
            oracle.support_counts_for(reports, cands),
            oracle._reference_support_counts_for(reports, cands),
        )

    def test_edge_seeds_and_single_candidate(self):
        oracle = OptimalLocalHashing(5, 2.0)
        # seeds at the uint64 extremes and multiples of p — values the
        # client path never draws but the wire may carry
        reports = _hashed_reports(
            EDGE_INPUTS, np.arange(EDGE_INPUTS.shape[0]) % oracle.g
        )
        for cands in (np.array([0]), np.array([4]), np.arange(5)):
            assert np.array_equal(
                oracle.support_counts_for(reports, cands),
                oracle._reference_support_counts_for(reports, cands),
            )

    def test_empty_reports(self):
        oracle = BinaryLocalHashing(7, 1.0)
        empty = _hashed_reports(
            np.array([], dtype=np.uint64), np.array([], dtype=np.int64)
        )
        out = oracle.support_counts_for(empty, np.arange(7))
        assert np.array_equal(out, np.zeros(7))
        assert np.array_equal(
            out, oracle._reference_support_counts_for(empty, np.arange(7))
        )


def _segment_reference(oracle, reports, cands, starts):
    """Per-segment ``_reference_support_counts_for``, stacked."""
    bounds = list(starts) + [len(reports)]
    return np.stack([
        oracle._reference_support_counts_for(
            _hashed_reports(reports.seeds[lo:hi], reports.values[lo:hi]), cands
        )
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


class TestSegmentedKernelIdentity:
    """``segment_counts`` rows against the reference on each segment."""

    @pytest.mark.parametrize("g", [2, 5, 8, 1023])
    @given(
        seed=st.integers(0, 2**32),
        cuts=st.sets(st.integers(1, 3499), max_size=40),
        d=st.sampled_from([2, 7, 64]),
        single=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_segment_rows_match_reference(self, g, seed, cuts, d, single):
        # 3,500 reports are one tile row (two candidate blocks at
        # d = 64), so random cuts land inside it; the row-edge tests
        # below cut across rows.
        oracle = OptimalLocalHashing(d, 1.0, g=g)
        reports = oracle.privatize(
            np.random.default_rng(seed).integers(0, d, size=3500), rng=seed
        )
        cands = np.array([d - 1]) if single else np.arange(d)
        starts = np.array([0, *sorted(cuts)])
        assert np.array_equal(
            oracle.segment_support_counts(reports, cands, starts),
            _segment_reference(oracle, reports, cands, starts),
        )

    def test_one_report_segments_and_tile_edges(self):
        # One 3,100-report tile row in two candidate blocks (42 + 22).
        oracle = OptimalLocalHashing(64, 2.0)
        reports = oracle.privatize(np.arange(3100) % 64, rng=4)
        cands = np.arange(64)
        for starts in (
            np.arange(3100),  # one report per segment
            np.array([0, 1023, 1024, 1025, 2048, 3099]),  # cuts inside the row
            np.array([0, 5, 3000]),  # segments spanning whole tiles
        ):
            assert np.array_equal(
                oracle.segment_support_counts(reports, cands, starts),
                _segment_reference(oracle, reports, cands, starts),
            )

    def test_pool_path_matches_reference(self):
        # 33,000 reports × 64 candidates ≥ 2²¹ cells: the pooled path.
        oracle = OptimalLocalHashing(64, 2.0)
        reports = oracle.privatize(
            np.random.default_rng(9).integers(0, 64, size=33_000), rng=9
        )
        cands = np.arange(64)
        kernel = FusedSupportKernel(_premix(cands.astype(np.uint64)), oracle.g, threads=2)
        a, b = params_from_seeds(reports.seeds)
        starts = np.array([0, 100, 16_000, 16_500, 16_501, 32_999])
        assert np.array_equal(
            kernel.segment_counts(a, b, reports.values, starts),
            _segment_reference(oracle, reports, cands, starts),
        )

    def test_refuses_bad_starts_and_out_of_domain_inputs(self):
        kernel = FusedSupportKernel(np.arange(4, dtype=np.uint64), 8)
        ok = np.array([1, 2, 3], dtype=np.uint64)
        for starts in ([1], [0, 2, 2], [0, 3], [0, 2, 1], [], [0.0, 1.0], [[0]]):
            with pytest.raises(ValueError):
                kernel.segment_counts(ok, ok, ok, starts)
        empty = np.zeros(0, dtype=np.uint64)
        with pytest.raises(ValueError):
            kernel.segment_counts(empty, empty, empty, [0])
        assert kernel.segment_counts(empty, empty, empty, []).shape == (0, 4)
        for a, b, y in (
            (ok, ok, np.array([0, 8, 1])),  # y = g
            (np.array([1, P, 2], dtype=np.uint64), ok, ok),  # a = p
            (ok, np.array([P, 0, 1], dtype=np.uint64), ok),  # b = p
        ):
            with pytest.raises(ValueError):
                kernel.segment_counts(a, b, y, [0, 1])


class TestHadamardIdentity:
    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_candidate_support_matches_reference(self, seed):
        oracle = HadamardResponse(13, 1.4)
        rng = np.random.default_rng(seed)
        reports = oracle.privatize(rng.integers(0, 13, size=400), rng=rng)
        cands = np.array([0, 1, 7, 12])
        assert np.array_equal(
            oracle.support_counts_for(reports, cands),
            oracle._reference_support_counts_for(reports, cands),
        )

    def test_empty_reports(self):
        oracle = HadamardResponse(4, 1.0)
        from repro.core.mechanism import IndexedBitReports

        empty = IndexedBitReports(
            indices=np.array([], dtype=np.int64), bits=np.array([])
        )
        assert np.array_equal(
            oracle.support_counts_for(empty, np.arange(4)),
            oracle._reference_support_counts_for(empty, np.arange(4)),
        )


@pytest.mark.parametrize("oracle_cls", [SymmetricUnaryEncoding, OptimalUnaryEncoding])
def test_unary_support_matches_reference(oracle_cls):
    oracle = oracle_cls(9, 1.2)
    reports = oracle.privatize(
        np.random.default_rng(2).integers(0, 9, size=501), rng=3
    )
    assert np.array_equal(
        oracle.support_counts(reports), oracle._reference_support_counts(reports)
    )
    empty = np.zeros((0, 9), dtype=np.uint8)
    assert np.array_equal(
        oracle.support_counts(empty), oracle._reference_support_counts(empty)
    )


# -- sketch / Bloom decode paths -------------------------------------------


@pytest.mark.parametrize("sketch_cls", [CountMeanSketch, HadamardCountMeanSketch])
def test_sketch_candidate_decode_matches_reference(sketch_cls, monkeypatch):
    oracle = sketch_cls(200, 1.5, k=4, m=64, master_seed=5)
    reports = oracle.privatize(
        np.random.default_rng(6).integers(0, 200, size=300), rng=7
    )
    acc = oracle.accumulator().absorb(reports)
    sketch = acc.sketch()
    cands = np.arange(200, dtype=np.int64)
    expected = oracle._reference_estimate_from_sketch(sketch, 300, cands)
    assert np.array_equal(
        oracle._estimate_from_sketch(sketch, 300, cands), expected
    )
    # force many tiny tiles: the tiling must be invisible
    monkeypatch.setattr(type(oracle), "_DECODE_TILE", 7)
    assert np.array_equal(
        oracle._estimate_from_sketch(sketch, 300, cands), expected
    )


def test_bloom_encode_batch_chunking_is_invisible(monkeypatch):
    bloom = BloomFilter(32, 3, seed=4)
    values = np.arange(500, dtype=np.int64)
    whole = bloom.encode_batch(values)
    monkeypatch.setattr(BloomFilter, "_BATCH_CHUNK", 33)
    assert np.array_equal(bloom.encode_batch(values), whole)
    # and each row still equals the single-value encoding
    for v in (0, 33, 499):
        assert np.array_equal(whole[v], bloom.encode(v))


# -- bit-sliced Hadamard decode --------------------------------------------


def _direct_hadamard_counts(idx, bits, cands):
    from repro.util.wht import hadamard_entries

    n = idx.shape[0]
    out = np.empty(cands.shape[0])
    for pos, cand in enumerate(cands):
        entries = hadamard_entries(idx, np.uint64(cand))
        out[pos] = n / 2.0 + 0.5 * float(np.asarray(bits) @ entries)
    return out


def _reference_hadamard_counts(idx, bits, cands, order):
    """The oracle's retained per-candidate decode over raw arrays."""
    from repro.core.mechanism import IndexedBitReports

    oracle = HadamardResponse(order, 1.0)
    return oracle._reference_support_counts_for(
        IndexedBitReports(indices=idx, bits=np.asarray(bits)), cands
    )


class TestBitSlicedHadamardIdentity:
    """Bit-sliced decode == oracle reference == direct formula, bit for bit."""

    @pytest.mark.parametrize(
        "n,d,order",
        [
            (1, 1, 2),        # single report, single candidate
            (1, 4, 64),       # single report
            (64, 1, 1 << 16), # single candidate, wide order
            (100, 3, 8),      # non-power-of-two candidate count
            (777, 129, 1 << 16),
            (3000, 100, 1 << 20),
        ],
    )
    def test_edge_shapes_match_reference_and_direct(self, n, d, order):
        from repro.util.kernels import hadamard_support_counts

        rng = np.random.default_rng(n * 7919 + d)
        idx = rng.integers(0, order, size=n).astype(np.uint64)
        bits = rng.choice([-1.0, 1.0], size=n)
        cands = rng.choice(order, size=d, replace=False).astype(np.uint64)
        sliced = hadamard_support_counts(idx, bits, cands)
        assert np.array_equal(
            sliced, _reference_hadamard_counts(idx, bits, cands, order)
        )
        assert np.array_equal(sliced, _direct_hadamard_counts(idx, bits, cands))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_constant_sign_patterns(self, sign):
        # all-ones / all-zeros (all minus-one) sign patterns hit the
        # pos-mask edge: popcount(parity & pos) is everything or nothing.
        from repro.util.kernels import hadamard_support_counts

        rng = np.random.default_rng(3)
        idx = rng.integers(0, 256, size=500).astype(np.uint64)
        bits = np.full(500, sign)
        cands = np.arange(17, dtype=np.uint64)
        sliced = hadamard_support_counts(idx, bits, cands)
        assert np.array_equal(
            sliced, _reference_hadamard_counts(idx, bits, cands, 256)
        )
        assert np.array_equal(sliced, _direct_hadamard_counts(idx, bits, cands))

    def test_zero_index_reports(self):
        # all indices 0: no active bits, every H entry is +1 — the
        # plane-free fast branch.
        from repro.util.kernels import hadamard_support_counts

        idx = np.zeros(40, dtype=np.uint64)
        bits = np.random.default_rng(5).choice([-1.0, 1.0], size=40)
        cands = np.arange(8, dtype=np.uint64)
        assert np.array_equal(
            hadamard_support_counts(idx, bits, cands),
            _direct_hadamard_counts(idx, bits, cands),
        )

    @given(seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_random_shapes_match_reference(self, seed):
        from repro.util.kernels import hadamard_support_counts

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        d = int(rng.integers(1, 40))
        order = 1 << int(rng.integers(1, 20))
        idx = rng.integers(0, order, size=n).astype(np.uint64)
        bits = rng.choice([-1.0, 1.0], size=n)
        cands = rng.choice(order, size=min(d, order), replace=False).astype(
            np.uint64
        )
        assert np.array_equal(
            hadamard_support_counts(idx, bits, cands),
            _reference_hadamard_counts(idx, bits, cands, order),
        )

    def test_segmentation_is_invisible(self):
        from repro.util.kernels import hadamard_support_counts

        rng = np.random.default_rng(9)
        idx = rng.integers(0, 1 << 10, size=1000).astype(np.uint64)
        bits = rng.choice([-1.0, 1.0], size=1000)
        cands = rng.choice(1 << 10, size=33, replace=False).astype(np.uint64)
        whole = hadamard_support_counts(idx, bits, cands)
        for tile in (1, 63, 64, 65, 999):
            assert np.array_equal(
                whole,
                hadamard_support_counts(idx, bits, cands, tile_reports=tile),
            )


# -- estimates unchanged under plan caching --------------------------------


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
def test_estimates_cache_independent_for_registry(name, monkeypatch):
    """Plan caching must not move any registered oracle's estimate."""
    from repro.util.kernels import kernel_plan_cache

    oracle = make_oracle(name, 12, 1.5)
    values = np.random.default_rng(33).integers(0, 12, size=400)
    reports = oracle.privatize(values, rng=34)
    cands = np.array([0, 3, 11])

    def _candidate_estimate():
        try:
            acc = oracle.accumulator(cands)
        except TypeError:  # oracle without candidate restriction (e.g. SHE)
            acc = oracle.accumulator()
        return acc.absorb(reports).finalize()

    monkeypatch.setenv("REPRO_KERNEL_PLAN_CACHE", "0")
    kernel_plan_cache.clear()
    cold = oracle.estimate_counts(reports)
    cold_cand = _candidate_estimate()
    monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE")
    warm_first = _candidate_estimate()
    warm_second = _candidate_estimate()
    assert np.array_equal(cold, oracle.estimate_counts(reports))
    assert np.array_equal(cold_cand, warm_first)
    assert np.array_equal(warm_first, warm_second)


def test_heavy_hitters_cache_independent(monkeypatch):
    """PEM/TreeHist/Bitstogram results identical with the cache disabled."""
    from repro.heavyhitters import (
        bitstogram_heavy_hitters,
        pem_heavy_hitters,
        treehist_heavy_hitters,
    )
    from repro.util.kernels import kernel_plan_cache

    values = np.random.default_rng(41).integers(0, 1 << 10, size=4000)

    def _run_all():
        return (
            pem_heavy_hitters(values, 10, 2.0, k=4, rng=5),
            treehist_heavy_hitters(values, 10, 2.0, rng=5),
            bitstogram_heavy_hitters(values, 10, 2.0, k=4, rng=5),
        )

    monkeypatch.setenv("REPRO_KERNEL_PLAN_CACHE", "0")
    kernel_plan_cache.clear()
    cold = _run_all()
    monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE")
    warm = _run_all()
    for c, w in zip(cold, warm):
        assert c.items == w.items
        assert c.counts == w.counts


# -- estimates unchanged under kernel thread fan-out -----------------------


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRY))
def test_estimates_schedule_independent_for_registry(name, monkeypatch):
    """Fanning kernel tiles across threads must not move any estimate."""
    oracle = make_oracle(name, 10, 1.5)
    values = np.random.default_rng(17).integers(0, 10, size=400)
    reports = oracle.privatize(values, rng=18)
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
    serial = oracle.estimate_counts(reports)
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    fanned = oracle.estimate_counts(reports)
    assert np.array_equal(serial, fanned)


def test_estimates_schedule_independent_for_systems(monkeypatch):
    pytest.importorskip("scipy")  # RAPPOR decode solves NNLS
    rng = np.random.default_rng(21)
    values = rng.integers(0, 30, size=300)

    params = RapporParams(
        num_bits=16, num_hashes=2, num_cohorts=4, f=0.5, p=0.45, q=0.7
    )
    cohorts, rappor_reports = privatize_population(
        params, values, master_seed=31, rng=22
    )
    agg = RapporAggregator(params, 31)

    cms = CountMeanSketch(30, 1.5, k=4, m=32, master_seed=2)
    cms_reports = cms.privatize(values, rng=23)
    onebit = OneBitMean(29.0, 1.0)
    onebit_reports = onebit.privatize(values.astype(np.float64), rng=24)
    dbf = DBitFlip(num_buckets=8, d=2, epsilon=1.0)
    dbf_reports = dbf.privatize(values % 8, rng=25)

    def _all_estimates():
        return (
            agg.decode(cohorts, rappor_reports, np.arange(30)).estimated_counts,
            cms.estimate_counts(cms_reports),
            np.array([onebit.estimate_mean(onebit_reports)]),
            dbf.estimate_counts(dbf_reports),
        )

    monkeypatch.setenv("REPRO_KERNEL_THREADS", "1")
    serial = _all_estimates()
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    fanned = _all_estimates()
    for s, f in zip(serial, fanned):
        assert np.array_equal(s, f)


# -- tile edges derived from the kernel's tile geometry --------------------


def _row_edges(spans, d):
    """Every tile-row start but the first, over the kernel's report spans."""
    edges = [
        r
        for lo, hi in spans
        for r in range(lo, hi, kernels._tile_shape(hi - lo, d)[0])
    ]
    return edges[1:]


def _edge_cuts(edges, n):
    """Segment starts on, one short of, one past and across the edges."""
    return (
        np.array([0, *edges]),  # segments on the edges
        np.array([0, *[e - 1 for e in edges], n - 1]),  # one short of each
        np.array([0, *[e + 1 for e in edges]]),  # one past each
        np.array([0, *[e - 2 for e in edges[::2]]]),  # across every other
        np.array([0, 1, n - 1]),  # one segment spans every edge
    )


@pytest.mark.parametrize("d", [64, 256])
def test_segment_cuts_on_and_across_tile_edges(d):
    """Cuts on, beside and across three row edges of one span's tiles."""
    oracle = OptimalLocalHashing(d, 2.0)
    row = kernels._MAX_TILE_REPORTS
    n = 3 * row + row // 2
    _, block = kernels._tile_shape(n, d)
    assert block < d  # every row runs in several candidate blocks
    edges = _row_edges([(0, n)], d)
    assert edges == [row, 2 * row, 3 * row]
    reports = oracle.privatize(
        np.random.default_rng(d).integers(0, d, size=n), rng=d + 1
    )
    cands = np.arange(d)
    kernel = FusedSupportKernel(_premix(cands.astype(np.uint64)), oracle.g, threads=1)
    a, b = params_from_seeds(reports.seeds)
    for starts in _edge_cuts(edges, n):
        assert np.array_equal(
            kernel.segment_counts(a, b, reports.values, starts),
            _segment_reference(oracle, reports, cands, starts),
        )
    assert np.array_equal(
        kernel.support_counts(a, b, reports.values),
        oracle._reference_support_counts_for(reports, cands),
    )


@pytest.mark.parametrize("d", [64, 256])
def test_pool_path_across_tile_edges_at_two_threads(d):
    """The pooled path at ``threads=2``: cuts on, beside and across the
    row edges of both report spans, and where the spans meet."""
    oracle = OptimalLocalHashing(d, 2.0)
    # Past the inline threshold, and two spans of more than two rows.
    n = max(
        4 * kernels._MAX_TILE_REPORTS,
        -(-kernels._MIN_PARALLEL_CELLS // d),
    ) + 3
    spans = FusedSupportKernel._report_spans(n, 2)
    assert len(spans) == 2
    edges = _row_edges(spans, d)
    assert spans[1][0] in edges and len(edges) == 5
    reports = oracle.privatize(
        np.random.default_rng(d + 2).integers(0, d, size=n), rng=d + 3
    )
    cands = np.arange(d)
    kernel = FusedSupportKernel(_premix(cands.astype(np.uint64)), oracle.g, threads=2)
    a, b = params_from_seeds(reports.seeds)
    for starts in _edge_cuts(edges, n):
        assert np.array_equal(
            kernel.segment_counts(a, b, reports.values, starts),
            _segment_reference(oracle, reports, cands, starts),
        )
    assert np.array_equal(
        kernel.support_counts(a, b, reports.values),
        oracle._reference_support_counts_for(reports, cands),
    )


# -- client hashing against the previous formulas --------------------------


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _previous_splitmix(x):
    """The out-of-place splitmix64 finalizer the in-place one replaced."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _previous_params(seeds):
    m1 = _previous_splitmix(np.asarray(seeds, dtype=np.uint64))
    m2 = _previous_splitmix(m1)
    return m1 % (MERSENNE_P - np.uint64(1)) + np.uint64(1), m2 % MERSENNE_P


def _previous_hash(seeds, values, g):
    a, b = _previous_params(seeds)
    x = _previous_splitmix(np.asarray(values, dtype=np.uint64)) % MERSENNE_P
    return ((a * x + b) % MERSENNE_P % np.uint64(g)).astype(np.int64)


def _previous_privatize(oracle, values, seed):
    """OLH/BLH ``privatize`` as two ``np.where`` calls and an ``astype``."""
    gen = np.random.default_rng(seed)
    n = values.shape[0]
    seeds = gen.integers(0, 2**63 - 1, size=n, dtype=np.int64).astype(np.uint64)
    hashed = _previous_hash(seeds, values, oracle.g)
    keep = gen.random(n) < oracle.p_star
    lies = gen.integers(0, oracle.g - 1, size=n)
    lies = np.where(lies >= hashed, lies + 1, lies)
    return seeds, np.where(keep, hashed, lies).astype(np.int64)


_EDGE_SEEDS = np.array([0, 2**63 - 2], dtype=np.uint64)


@given(
    seed=st.integers(0, 2**32),
    n=st.integers(0, 300),
    g=st.sampled_from([2, 3, 8, 56, 1023]),
    d=st.sampled_from([2, 5, 64, 1 << 20]),
)
@settings(max_examples=40, deadline=None)
def test_client_hashing_matches_previous_formulas(seed, n, g, d):
    rng = np.random.default_rng(seed)
    seeds = np.concatenate(
        [_EDGE_SEEDS, EDGE_INPUTS, rng.integers(0, 2**63 - 1, size=n).astype(np.uint64)]
    )
    values = np.concatenate(
        [[0, d - 1], rng.integers(0, d, size=seeds.shape[0] - 2)]
    ).astype(np.int64)
    a, b = params_from_seeds(seeds)
    prev_a, prev_b = _previous_params(seeds)
    assert np.array_equal(a, prev_a) and np.array_equal(b, prev_b)
    assert np.array_equal(_premix(values), _reference_premix(values))
    assert np.array_equal(
        _premix(values), _previous_splitmix(values.astype(np.uint64)) % MERSENNE_P
    )
    hashed = hash_elementwise(seeds, values, g)
    assert hashed.dtype == np.int64
    assert np.array_equal(hashed, _reference_hash_elementwise(seeds, values, g))
    assert np.array_equal(hashed, _previous_hash(seeds, values, g))


@pytest.mark.parametrize("oracle_cls,epsilon", [
    (OptimalLocalHashing, 2.0),  # g = 8
    (OptimalLocalHashing, 0.5),  # g = 3
    (BinaryLocalHashing, 1.0),  # g = 2: one possible lie
])
@given(seed=st.integers(0, 2**32), n=st.integers(1, 200), wide=st.booleans())
@settings(max_examples=15, deadline=None)
def test_privatize_matches_previous_formulas(oracle_cls, epsilon, seed, n, wide):
    # ``wide`` puts the domain above the batch (the direct premix path);
    # otherwise d ≤ n and values come from the premix table.
    d = n + 1 + seed % 1000 if wide else max(2, min(n, 2 + seed % 64))
    oracle = oracle_cls(d, epsilon)
    values = np.random.default_rng(seed).integers(0, d, size=n)
    values[0] = 0
    values[-1] = d - 1
    first = oracle.privatize(values, rng=seed)
    kept = (first.seeds.copy(), first.values.copy())
    prev_seeds, prev_values = _previous_privatize(oracle, values, seed)
    assert first.seeds.dtype == np.uint64 and first.values.dtype == np.int64
    assert np.array_equal(first.seeds, prev_seeds)
    assert np.array_equal(first.values, prev_values)
    # A second call must not write into the first call's reports.
    oracle.privatize(values[::-1].copy(), rng=seed + 1)
    assert np.array_equal(first.seeds, kept[0])
    assert np.array_equal(first.values, kept[1])


def test_premix_table_is_shared_and_read_only():
    from repro.util.hashing import _premix_table

    table = _premix_table(64)
    assert table is _premix_table(64)
    assert not table.flags.writeable
    assert np.array_equal(table, _reference_premix(np.arange(64)))

"""Unit tests for the fused decode-kernel layer (repro.util.kernels)."""

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.util import kernels
from repro.util.kernels import (
    MERSENNE_P,
    FusedSupportKernel,
    HadamardCandidatePlan,
    KernelPlanCache,
    candidate_digest,
    column_support_counts,
    hadamard_support_counts,
    kernel_plan_cache,
    kernel_thread_count,
    kernel_timing_scope,
    mersenne_reduce,
    plan_cache_capacity,
)

P = int(MERSENNE_P)

#: The adversarial dividends: field boundaries, fold boundaries, word
#: boundaries, and multiples of p where the reduction's conditional
#: subtract must land exactly on the canonical residue.
EDGE_VALUES = [
    0,
    1,
    P - 1,
    P,
    P + 1,
    2 * P,
    2 * P + 1,
    2**31,
    2**32 - 1,
    2**32,
    7 * P,
    2**62 - 1,
    2**62,
    2**63 - 1,
    2**63,
    2**64 - 1,
    (2**64 - 1) // P * P,  # largest multiple of p in uint64
]


class TestMersenneReduce:
    def test_edge_values_match_hardware_mod(self):
        x = np.array(EDGE_VALUES, dtype=np.uint64)
        assert np.array_equal(mersenne_reduce(x), x % MERSENNE_P)

    def test_random_values_match_hardware_mod(self):
        x = np.random.default_rng(0).integers(
            0, 2**63, size=10_000, dtype=np.int64
        ).astype(np.uint64) * np.uint64(2)  # cover the top bit too
        assert np.array_equal(mersenne_reduce(x), x % MERSENNE_P)

    def test_result_is_canonical(self):
        x = np.array(EDGE_VALUES, dtype=np.uint64)
        out = mersenne_reduce(x)
        assert out.max() < MERSENNE_P

    def test_in_place_aliasing(self):
        x = np.array(EDGE_VALUES, dtype=np.uint64)
        expected = x % MERSENNE_P
        result = mersenne_reduce(x, out=x)
        assert result is x
        assert np.array_equal(x, expected)

    def test_does_not_mutate_input_by_default(self):
        x = np.array(EDGE_VALUES, dtype=np.uint64)
        before = x.copy()
        mersenne_reduce(x)
        assert np.array_equal(x, before)

    def test_empty(self):
        assert mersenne_reduce(np.array([], dtype=np.uint64)).size == 0


def _brute_support_counts(a, b, y, premixed, g):
    h = (a[:, None] * premixed[None, :] + b[:, None]) % MERSENNE_P
    return ((h % np.uint64(g)) == y[:, None]).sum(axis=0).astype(np.float64)


def _fold(h):
    """The kernel's single Mersenne fold of ``h``, in Python integers."""
    return (h & P) + (h >> 31)


class TestFusedSupportKernel:
    # odd, power-of-two (both ends of the mask path among them), even
    # non-power-of-two, and the largest range
    @pytest.mark.parametrize("g", [1, 2, 3, 6, 8, 17, 56, 2**30, 2**31 - 1])
    @pytest.mark.parametrize("d", [1, 3, 64])
    # one short row, and two full 16,384-report rows plus a short tail
    @pytest.mark.parametrize("n", [700, 40_000])
    def test_matches_brute_force(self, g, d, n):
        rng = np.random.default_rng(d * 100 + g)
        a = rng.integers(1, P, size=n).astype(np.uint64)
        b = rng.integers(0, P, size=n).astype(np.uint64)
        y = rng.integers(0, g, size=n).astype(np.uint64)
        premixed = rng.integers(0, P, size=d).astype(np.uint64)
        kernel = FusedSupportKernel(premixed, g, threads=1)
        out = kernel.support_counts(a, b, y)
        assert out.dtype == np.float64
        assert np.array_equal(out, _brute_support_counts(a, b, y, premixed, g))

    @pytest.mark.parametrize("g", [6, 8])  # divisibility test, mask
    def test_short_tail_row_takes_its_own_block(self, g):
        """One span of a full row and a 1,092-report tail at d = 256.

        The full row runs in blocks of 8 candidates, the tail row in
        blocks of 120, 120 and 16 (its own ``_tile_shape``), all within
        ``_TILE_CELLS``.
        """
        row, tail, d = kernels._MAX_TILE_REPORTS, 1_092, 256
        n = row + tail
        assert kernels._tile_shape(n, d) == (row, 8)
        block = kernels._tile_shape(tail, d)[1]
        assert block == 120 and block * tail <= kernels._TILE_CELLS
        rng = np.random.default_rng(g)
        a = rng.integers(1, P, size=n).astype(np.uint64)
        b = rng.integers(0, P, size=n).astype(np.uint64)
        y = rng.integers(0, g, size=n).astype(np.uint64)
        premixed = rng.integers(0, P, size=d).astype(np.uint64)
        out = FusedSupportKernel(premixed, g, threads=1).support_counts(a, b, y)
        expected = np.concatenate([
            _brute_support_counts(a, b, y, premixed[c : c + 32], g)
            for c in range(0, d, 32)
        ])
        assert np.array_equal(out, expected)

    def test_edge_parameters(self):
        # a at field max, b at 0/max, premixed at 0 and p−1.  With
        # a = x = p − 1 the affine image (p − 1)² + b folds to p + 1
        # (b = 0), p − 1 (b = p − 2), exactly p (b = p − 1: the largest
        # image, h = p(p − 1)) and 2p − 3 (b = p − 4: the largest fold a
        # valid input reaches; 2p − 2 would need h > p(p − 1)).
        assert [_fold((P - 1) ** 2 + v) for v in (0, P - 2, P - 1, P - 4)] == [
            P + 1,
            P - 1,
            P,
            2 * P - 3,
        ]
        a = np.array([1, P - 1, P - 1, 1, P - 1, P - 1], dtype=np.uint64)
        b = np.array([0, P - 1, 0, P - 1, P - 2, P - 4], dtype=np.uint64)
        premixed = np.array([0, P - 1, 1], dtype=np.uint64)
        for g in (2, 3, 8, 56):
            y = np.arange(a.shape[0], dtype=np.uint64) % np.uint64(g)
            kernel = FusedSupportKernel(premixed, g)
            assert np.array_equal(
                kernel.support_counts(a, b, y),
                _brute_support_counts(a, b, y, premixed, g),
            )

    def test_rejects_inputs_outside_the_exact_domain(self):
        """y ≥ g or a/b ≥ p could count false matches: refused instead."""
        kernel = FusedSupportKernel(np.arange(4, dtype=np.uint64), 8)
        ok = np.array([1, 2], dtype=np.uint64)
        for a, b, y in (
            (ok, ok, np.array([0, 8])),  # y = g
            (ok, ok, np.array([-1, 0])),  # negative y wraps above g
            (np.array([1, P], dtype=np.uint64), ok, ok),  # a = p
            (ok, np.array([P, 0], dtype=np.uint64), ok),  # b = p
        ):
            with pytest.raises(ValueError):
                kernel.support_counts(a, b, y)
        with pytest.raises(ValueError):
            FusedSupportKernel(np.array([0, P], dtype=np.uint64), 8)

    def test_empty_reports(self):
        kernel = FusedSupportKernel(np.arange(5, dtype=np.uint64), 4)
        empty = np.array([], dtype=np.uint64)
        assert np.array_equal(
            kernel.support_counts(empty, empty, empty), np.zeros(5)
        )

    def test_empty_candidates(self):
        kernel = FusedSupportKernel(np.array([], dtype=np.uint64), 4)
        one = np.zeros(3, dtype=np.uint64)
        assert kernel.support_counts(one, one, one).shape == (0,)

    def test_thread_fanout_is_bit_identical(self):
        rng = np.random.default_rng(7)
        n = 40_000  # large enough to cross the parallel threshold
        a = rng.integers(1, P, size=n).astype(np.uint64)
        b = rng.integers(0, P, size=n).astype(np.uint64)
        y = rng.integers(0, 8, size=n).astype(np.uint64)
        premixed = rng.integers(0, P, size=64).astype(np.uint64)
        serial = FusedSupportKernel(premixed, 8, threads=1).support_counts(a, b, y)
        fanned = FusedSupportKernel(premixed, 8, threads=3).support_counts(a, b, y)
        assert np.array_equal(serial, fanned)

    def test_rejects_misaligned_inputs(self):
        kernel = FusedSupportKernel(np.arange(4, dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            kernel.support_counts(
                np.zeros(3, dtype=np.uint64),
                np.zeros(2, dtype=np.uint64),
                np.zeros(3, dtype=np.uint64),
            )

    def test_rejects_oversized_range(self):
        with pytest.raises(ValueError):
            FusedSupportKernel(np.arange(4, dtype=np.uint64), 2**31)


class TestHadamardSupportCounts:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        n, d = 3_000, 16
        idx = rng.integers(0, 64, size=n).astype(np.uint64)
        bits = rng.choice([-1.0, 1.0], size=n)
        cands = np.arange(d, dtype=np.uint64)
        from repro.util.wht import hadamard_entries

        expected = np.empty(d)
        for pos in range(d):
            entries = hadamard_entries(idx, np.uint64(pos))
            expected[pos] = n / 2.0 + 0.5 * float(bits @ entries)
        assert np.array_equal(
            hadamard_support_counts(idx, bits, cands), expected
        )

    def test_tiling_boundaries(self):
        rng = np.random.default_rng(12)
        n = 100
        idx = rng.integers(0, 8, size=n).astype(np.uint64)
        bits = rng.choice([-1.0, 1.0], size=n)
        cands = np.arange(8, dtype=np.uint64)
        whole = hadamard_support_counts(idx, bits, cands)
        tiled = hadamard_support_counts(idx, bits, cands, tile_reports=7)
        assert np.array_equal(whole, tiled)

    def test_empty(self):
        empty = np.array([], dtype=np.uint64)
        out = hadamard_support_counts(empty, np.array([]), np.arange(3, dtype=np.uint64))
        assert np.array_equal(out, np.zeros(3))


class TestColumnSupportCounts:
    def test_matches_float_sum(self):
        arr = np.random.default_rng(5).integers(0, 2, size=(999, 17)).astype(np.uint8)
        expected = arr.sum(axis=0, dtype=np.float64)
        out = column_support_counts(arr, tile_rows=128)
        assert out.dtype == np.float64
        assert np.array_equal(out, expected)

    def test_empty_rows(self):
        out = column_support_counts(np.zeros((0, 4), dtype=np.uint8))
        assert np.array_equal(out, np.zeros(4))


class TestTimingScope:
    def test_records_kernel_stages(self):
        rng = np.random.default_rng(3)
        n = 5_000
        a = rng.integers(1, P, size=n).astype(np.uint64)
        b = rng.integers(0, P, size=n).astype(np.uint64)
        y = rng.integers(0, 8, size=n).astype(np.uint64)
        kernel = FusedSupportKernel(
            rng.integers(0, P, size=32).astype(np.uint64), 8, threads=1
        )
        with kernel_timing_scope() as timing:
            kernel.support_counts(a, b, y)
        assert timing.hash_seconds > 0.0
        assert timing.accumulate_seconds > 0.0

    def test_scopes_nest_and_restore(self):
        arr = np.ones((64, 4), dtype=np.uint8)
        with kernel_timing_scope() as outer:
            column_support_counts(arr)
            outer_before_inner = outer.accumulate_seconds
            with kernel_timing_scope() as inner:
                column_support_counts(arr)
            # the inner scope captured its own call...
            assert inner.accumulate_seconds > 0.0
            # ...without leaking into the outer scope...
            assert outer.accumulate_seconds == outer_before_inner
            # ...and the outer scope is active again afterwards.
            column_support_counts(arr)
            assert outer.accumulate_seconds > outer_before_inner

    def test_no_scope_is_fine(self):
        # kernels must run (and not crash) without any active scope
        assert column_support_counts(np.ones((2, 2), dtype=np.uint8))[0] == 2.0


class TestKernelPlanCache:
    def test_hit_returns_same_object(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE", raising=False)
        cache = KernelPlanCache()
        built = []

        def build():
            built.append(1)
            return object()

        first = cache.get(("k", 1), build)
        second = cache.get(("k", 1), build)
        assert first is second
        assert len(built) == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_candidate_set_change_is_a_miss(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE", raising=False)
        cache = KernelPlanCache()
        a = np.arange(8, dtype=np.int64)
        b = np.arange(1, 9, dtype=np.int64)
        one = cache.get(("k", candidate_digest(a)), lambda: "plan-a")
        other = cache.get(("k", candidate_digest(b)), lambda: "plan-b")
        assert one == "plan-a" and other == "plan-b"
        assert cache.stats()["misses"] == 2

    def test_config_fingerprint_mismatch_is_a_miss(self, monkeypatch):
        """Same candidates, different oracle config → different kernels."""
        monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE", raising=False)
        from repro.core import OptimalLocalHashing

        cands = np.arange(6, dtype=np.int64)
        k1 = OptimalLocalHashing(6, 1.0)._support_kernel(cands)
        k2 = OptimalLocalHashing(6, 3.0)._support_kernel(cands)  # other g
        k1_again = OptimalLocalHashing(6, 1.0)._support_kernel(cands)
        assert k1 is not k2
        assert k1 is k1_again  # same fingerprint + candidates → shared plan

    def test_lru_eviction_under_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_PLAN_CACHE", "2")
        cache = KernelPlanCache()
        cache.get(("a",), lambda: 1)
        cache.get(("b",), lambda: 2)
        cache.get(("a",), lambda: 1)  # refresh a: b is now LRU
        cache.get(("c",), lambda: 3)  # evicts b
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(("a",), lambda: "rebuilt") == 1  # a survived the evict
        built = []
        cache.get(("b",), lambda: built.append(1) or 2)  # b was evicted: rebuilt
        assert built

    def test_cap_zero_disables_caching(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_PLAN_CACHE", "0")
        cache = KernelPlanCache()
        first = cache.get(("k",), lambda: object())
        second = cache.get(("k",), lambda: object())
        assert first is not second
        assert len(cache) == 0

    def test_capacity_env_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_PLAN_CACHE", "7")
        assert plan_cache_capacity() == 7
        monkeypatch.setenv("REPRO_KERNEL_PLAN_CACHE", "junk")
        assert plan_cache_capacity() > 0
        monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE")
        assert plan_cache_capacity() > 0

    def test_digest_distinguishes_dtype_and_content(self):
        a = np.arange(4, dtype=np.int64)
        assert candidate_digest(a) == candidate_digest(a.copy())
        assert candidate_digest(a) != candidate_digest(a.astype(np.uint64))
        assert candidate_digest(a) != candidate_digest(a[::-1].copy())

    def test_cached_plans_are_immutable(self):
        kernel = FusedSupportKernel(np.arange(5, dtype=np.uint64), 4)
        with pytest.raises(ValueError):
            kernel._x[0] = 1
        plan = HadamardCandidatePlan(np.arange(5, dtype=np.uint64))
        with pytest.raises(ValueError):
            plan.candidates[0] = 1
        with pytest.raises(ValueError):
            plan.bit_masks[0, 0] = True

    def test_plan_build_does_not_freeze_caller_array(self):
        cands = np.arange(5, dtype=np.uint64)
        FusedSupportKernel(cands, 4)
        HadamardCandidatePlan(cands)
        cands[0] = 7  # caller's array must stay writable

    def test_accumulator_round_trips_never_share_scratch(self, monkeypatch):
        """copy()/to_bytes() of a cache-hitting accumulator is self-contained.

        Scratch lives in per-thread pools and plans only in the global
        cache — nothing cache- or scratch-related may appear on the
        accumulator, so copies and serialized round-trips can never
        alias live buffers.
        """
        monkeypatch.delenv("REPRO_KERNEL_PLAN_CACHE", raising=False)
        from repro.core import HadamardResponse, OptimalLocalHashing

        for oracle in (OptimalLocalHashing(16, 1.5), HadamardResponse(16, 1.5)):
            rng = np.random.default_rng(7)
            cands = np.array([1, 5, 9])
            acc = oracle.accumulator(cands)
            acc.absorb(oracle.privatize(rng.integers(0, 16, size=200), rng=rng))
            dup = acc.copy()
            wire = oracle.accumulator(cands).from_bytes(acc.to_bytes())
            baseline = acc.finalize().copy()
            # diverge the copies; the original must not move
            more = oracle.privatize(rng.integers(0, 16, size=100), rng=rng)
            dup.absorb(more)
            wire.absorb(more)
            assert np.array_equal(acc.finalize(), baseline)
            assert np.array_equal(
                dup.finalize(),
                wire.finalize(),
            )
            # no *mutable* ndarray state is shared between the original
            # and its round-trips (immutable config like the candidate
            # list may be shared; live state and scratch may not)
            for other in (dup, wire):
                for name, val in vars(acc).items():
                    if isinstance(val, np.ndarray) and name != "_candidates":
                        assert not np.shares_memory(val, vars(other).get(name))


class TestTilePool:
    def test_fan_out_runs_on_pool_threads_and_matches_inline(self, monkeypatch):
        rng = np.random.default_rng(13)
        n = 40_000
        a = rng.integers(1, P, size=n).astype(np.uint64)
        b = rng.integers(0, P, size=n).astype(np.uint64)
        y = rng.integers(0, 8, size=n).astype(np.uint64)
        premixed = rng.integers(0, P, size=64).astype(np.uint64)
        serial = FusedSupportKernel(premixed, 8, threads=1).support_counts(a, b, y)
        span_threads = []
        count_span = FusedSupportKernel._count_span

        def recording_count_span(self, *args):
            span_threads.append(threading.current_thread().name)
            return count_span(self, *args)

        monkeypatch.setattr(FusedSupportKernel, "_count_span", recording_count_span)
        fanned = FusedSupportKernel(premixed, 8, threads=3).support_counts(a, b, y)
        assert np.array_equal(serial, fanned)
        # 40,000 x 64 cells reach the pool: the spans fan out, each run
        # on a pool thread rather than inline on the caller's.
        assert len(span_threads) > 1
        assert all(name.startswith("repro-kernel") for name in span_threads)
        assert isinstance(kernels._pool, ThreadPoolExecutor)

    def test_replacing_the_pool_keeps_its_queued_tiles(self, monkeypatch):
        """A caller asking for more threads replaces the pool while another
        caller's tiles wait in its queue: those tiles still run."""
        rng = np.random.default_rng(17)
        n = 40_000
        a = rng.integers(1, P, size=n).astype(np.uint64)
        b = rng.integers(0, P, size=n).astype(np.uint64)
        y = rng.integers(0, 8, size=n).astype(np.uint64)
        premixed = rng.integers(0, P, size=64).astype(np.uint64)
        expected = FusedSupportKernel(premixed, 8, threads=1).support_counts(a, b, y)
        release = threading.Event()
        started = []
        submitted = []
        count_span = FusedSupportKernel._count_span
        submit = kernels._submit_to_shared_pool

        def held_count_span(self, *args):
            started.append(None)
            release.wait(timeout=60)
            return count_span(self, *args)

        def recorded_submit(threads, calls):
            futures = submit(threads, calls)
            submitted.append(threads)
            return futures

        def wait_for(condition):
            deadline = time.monotonic() + 60
            while not condition() and time.monotonic() < deadline:
                time.sleep(0.001)
            assert condition()

        results = {}

        def caller(name, threads):
            kernel = FusedSupportKernel(premixed, 8, threads=threads)
            results[name] = kernel.support_counts(a, b, y)

        monkeypatch.setattr(FusedSupportKernel, "_count_span", held_count_span)
        monkeypatch.setattr(kernels, "_submit_to_shared_pool", recorded_submit)
        saved = kernels._pool, kernels._pool_size
        kernels._pool, kernels._pool_size = None, 0
        callers = [
            threading.Thread(target=caller, args=(name, threads))
            for name, threads in (("running", 2), ("queued", 2), ("bigger", 3))
        ]
        try:
            # Two spans hold both threads of a fresh two-thread pool, the
            # next two wait in its queue, and a three-thread caller then
            # replaces the pool.
            callers[0].start()
            wait_for(lambda: len(started) == 2)
            callers[1].start()
            wait_for(lambda: submitted == [2, 2])
            callers[2].start()
            wait_for(lambda: submitted == [2, 2, 3])
        finally:
            release.set()
            for thread in callers:
                if thread.is_alive():
                    thread.join(timeout=60)
            with kernels._pool_lock:
                if kernels._pool is not None:
                    kernels._pool.shutdown(wait=False)
                kernels._pool, kernels._pool_size = saved
        assert not any(thread.is_alive() for thread in callers)
        assert sorted(results) == ["bigger", "queued", "running"]
        for counts in results.values():
            assert np.array_equal(counts, expected)


def test_kernel_thread_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "5")
    assert kernel_thread_count() == 5
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "not-a-number")
    assert kernel_thread_count() >= 1
    monkeypatch.delenv("REPRO_KERNEL_THREADS")
    assert kernel_thread_count() >= 1


def test_kernel_thread_count_defaults_to_usable_cpus(monkeypatch):
    """A process pinned to 2 of 8 CPUs starts 2 workers, not 8."""
    monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert kernel_thread_count() == 2
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    assert kernel_thread_count() == 3
    monkeypatch.delenv("REPRO_KERNEL_THREADS")
    # platforms without sched_getaffinity fall back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert kernel_thread_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert kernel_thread_count() == 1

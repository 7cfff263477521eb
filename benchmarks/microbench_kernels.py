"""Decode-kernel micro-benchmark: fused vs reference on one report batch.

A fast (seconds, not minutes) visibility check for CI and local tuning:
times the fused OLH support-count kernel and the Hadamard candidate
kernel against their ``_reference_*`` twins on a fixed-seed batch (OLH
at every kind of hash range ``g`` the kernel's match tests distinguish:
odd, a power of two (the mask test), and even but not a power of two;
the bit-sliced Hadamard kernel also at a 2^20 domain with 1024
candidates),
the OLH kernel on one pool thread against two at ldpbench's batch and
heavy-hitter chunk shapes, the OLH client ``privatize`` cost per user,
the segmented OLH decode of a key-sorted batch against one fused call
per segment (rows checked against the reference on every segment), the
shared-seed ``SeededHashFamily.apply_all`` (CMS and RAPPOR hashing, 16
functions into 4,096 buckets) against its two-``%`` reference,
cached-plan streaming absorption against per-pane plan rebuild, the
vectorized session sweep against the per-report reference walk, and the
stream driver (which folds consecutive arrival slices as one envelope
where no output can change) against the collector fed one slice at a
time; prints the speedups, and **fails** (exit 1) if any fast-path
output is not bit-identical to its baseline — the invariant that lets
the kernels replace the references everywhere.

Usage::

    PYTHONPATH=src python benchmarks/microbench_kernels.py [--users N]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core import OptimalLocalHashing, TimedReports
from repro.core.hadamard import HadamardResponse
from repro.core.mechanism import IndexedBitReports
from repro.core.timed import slice_report_batch
from repro.protocol import EventTimeCollector, WindowSpec, stream_collection
from repro.protocol.streaming import _arrival_slices
from repro.util.hashing import SeededHashFamily, _premix, params_from_seeds
from repro.util.kernels import (
    FusedSupportKernel,
    HadamardCandidatePlan,
    hadamard_support_counts,
    kernel_plan_cache,
)


#: OLH privacy levels whose hash ranges g = round(e^ε + 1) cover the
#: three kinds of g: 3 (odd), 8 (power of two), 56 (even, not a power).
OLH_EPSILONS = (0.5, 2.0, 4.0)


def _time(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _per_call(fn, calls=20, warm_seconds=0.0):
    """``fn``'s result and its mean time over ``calls`` back-to-back calls.

    Untimed calls warm up first: ``calls`` of them, and more until
    ``warm_seconds`` have passed.  On a 2-vCPU virtual machine a vCPU
    that has idled ran slow for its first ~2 s of load (two pool
    threads measured 0.9-1.0x one thread there, then 1.4-1.8x), so a
    cold timing understates what a second pool thread adds.
    """
    t0 = time.perf_counter()
    for _ in range(calls):
        result = fn()
    while time.perf_counter() - t0 < warm_seconds:
        fn()
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return result, (time.perf_counter() - t0) / calls


def _stream_outputs(result):
    """Everything a stream emits: snapshots, counts and ledger entries."""
    def raw(estimates):
        return None if estimates is None else estimates.tobytes()

    return (
        [
            (
                s.window_index, s.window_start, s.window_end, s.window_users,
                s.total_users, s.pane_count, s.late_reports, s.total_epsilon,
                s.total_delta, raw(s.window_estimates),
                raw(s.cumulative_estimates),
            )
            for s in result
        ],
        result.absorbed_reports,
        result.late_reports,
        result.coalesced_panes,
        [(e.label, e.group, e.epsilon, e.delta) for e in result.ledger.spends],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, default=200_000)
    parser.add_argument("--domain", type=int, default=64)
    parser.add_argument("--epsilon", type=float, default=2.0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(1888)
    cands = np.arange(args.domain, dtype=np.int64)
    ok = True

    values = rng.integers(0, args.domain, size=args.users)
    for epsilon in OLH_EPSILONS:
        olh = OptimalLocalHashing(args.domain, epsilon)
        reports = olh.privatize(values, rng=rng)
        ref, ref_s = _time(
            lambda: olh._reference_support_counts_for(reports, cands)
        )
        fused, fused_s = _time(lambda: olh.support_counts_for(reports, cands))
        identical = np.array_equal(ref, fused)
        ok &= identical
        print(
            f"olh   n={args.users} d={args.domain} g={olh.g}: "
            f"ref {ref_s:.3f}s fused {fused_s:.3f}s "
            f"speedup {ref_s / fused_s:.2f}x bit_identical={identical}"
        )
    olh = OptimalLocalHashing(args.domain, args.epsilon)

    # The OLH kernel on one pool thread against two, at the chunk shapes
    # of ldpbench's batch_olh (62,500 reports x 64 candidates) and
    # heavy_hitters (34,952 x 256 candidates of a 32-bit domain).
    for n, domain, d in ((62_500, args.domain, 64), (34_952, 1 << 32, 256)):
        wide = OptimalLocalHashing(domain, args.epsilon)
        shape_cands = np.sort(rng.choice(domain, size=d, replace=False))
        shape_reports = wide.privatize(
            rng.choice(shape_cands, size=n), rng=rng
        )
        a, b = params_from_seeds(shape_reports.seeds)
        premixed = _premix(shape_cands.astype(np.uint64))
        counts = {}
        seconds = {}
        for threads in (1, 2):
            kernel = FusedSupportKernel(premixed, wide.g, threads=threads)
            counts[threads], seconds[threads] = _per_call(
                lambda: kernel.support_counts(a, b, shape_reports.values),
                warm_seconds=2.5,
            )
        identical = np.array_equal(counts[1], counts[2])
        ok &= identical
        print(
            f"olh-threads n={n} d={d} g={wide.g}: 1 thread {seconds[1]:.4f}s "
            f"2 threads {seconds[2]:.4f}s ratio {seconds[1] / seconds[2]:.2f}x "
            f"bit_identical={identical}"
        )

    # Client privatize cost per user, from a chunk of 256 users (the
    # service's envelopes) to batch_olh's 62,500.
    for n in (256, 4096, 62_500):
        client_values = rng.integers(0, args.domain, size=n)
        _, priv_s = _per_call(lambda: olh.privatize(client_values, rng=rng))
        print(f"olh-privatize n={n} d={args.domain}: {priv_s / n * 1e9:.1f} ns/user")

    # Segmented decode: a key-sorted batch cut into segments of 1-400
    # reports, so most tiles (2,048 reports at d=64) hold several
    # segments and many segments cross a tile edge.
    seg_n = min(args.users, 50_000)
    seg_reports = olh.privatize(values[:seg_n], rng=rng)
    lengths = rng.integers(1, 400, size=seg_n)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    starts = starts[starts < seg_n]
    bounds = np.append(starts, seg_n)
    segments = [
        slice_report_batch(seg_reports, slice(lo, hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    ref = np.stack([olh._reference_support_counts_for(s, cands) for s in segments])
    per_segment, per_segment_s = _time(
        lambda: np.stack([olh.support_counts_for(s, cands) for s in segments])
    )
    segmented, segmented_s = _time(
        lambda: olh.segment_support_counts(seg_reports, cands, starts)
    )
    identical = np.array_equal(ref, segmented) and np.array_equal(ref, per_segment)
    ok &= identical
    print(
        f"olh-seg n={seg_n} d={args.domain} segments={starts.size}: "
        f"per-segment {per_segment_s:.3f}s segmented {segmented_s:.3f}s "
        f"speedup {per_segment_s / segmented_s:.2f}x bit_identical={identical}"
    )

    family = SeededHashFamily(16, 4096, master_seed=1888)
    ref, ref_s = _time(lambda: family._reference_apply_all(values))
    fast, fast_s = _time(lambda: family.apply_all(values))
    identical = np.array_equal(ref, fast)
    ok &= identical
    print(
        f"family n={args.users} k=16 m=4096: "
        f"ref {ref_s:.3f}s apply_all {fast_s:.3f}s "
        f"speedup {ref_s / fast_s:.2f}x bit_identical={identical}"
    )

    hr = HadamardResponse(args.domain, args.epsilon)
    hr_reports = hr.privatize(values, rng=rng)
    ref, ref_s = _time(lambda: hr._reference_support_counts_for(hr_reports, cands))
    fused, fused_s = _time(lambda: hr.support_counts_for(hr_reports, cands))
    identical = np.array_equal(ref, fused)
    ok &= identical
    print(
        f"hr    n={args.users} d={args.domain}: "
        f"ref {ref_s:.3f}s fused {fused_s:.3f}s "
        f"speedup {ref_s / fused_s:.2f}x bit_identical={identical}"
    )

    # Bit-sliced vs the per-candidate reference at a domain large
    # enough (2^20) for the packed bit-planes to earn their keep.
    big = HadamardResponse(1 << 20, args.epsilon)
    big_values = rng.integers(0, 1 << 20, size=args.users)
    big_cands = np.sort(
        rng.choice(1 << 20, size=1024, replace=False).astype(np.int64)
    )
    big_reports = big.privatize(big_values, rng=rng)
    big_idx = np.asarray(big_reports.indices, dtype=np.uint64)
    big_bits = np.asarray(big_reports.bits)
    ref, ref_s = _time(
        lambda: big._reference_support_counts_for(big_reports, big_cands)
    )
    kernel_plan_cache.clear()
    fused, fused_s = _time(lambda: big.support_counts_for(big_reports, big_cands))
    identical = np.array_equal(ref, fused)
    ok &= identical
    print(
        f"hr-bs n={args.users} d=1024 order=2^20: "
        f"ref {ref_s:.3f}s bit-sliced {fused_s:.3f}s "
        f"speedup {ref_s / fused_s:.2f}x bit_identical={identical}"
    )

    # Cached-plan streaming absorb vs a fresh candidate plan per pane.
    pane = 4096
    spans = [
        (s, min(s + pane, args.users)) for s in range(0, args.users, pane)
    ]
    state = np.zeros(big_cands.shape[0], dtype=np.float64)
    cold_n = 0
    t0 = time.perf_counter()
    for a, b in spans:
        state += hadamard_support_counts(
            big_idx[a:b], big_bits[a:b], HadamardCandidatePlan(big_cands)
        )
        cold_n += b - a
    cold_s = time.perf_counter() - t0
    cold_est = (state - cold_n * big.q_star) / (big.p_star - big.q_star)
    kernel_plan_cache.clear()
    acc = big.accumulator(big_cands)
    t0 = time.perf_counter()
    for a, b in spans:
        acc.absorb(
            IndexedBitReports(
                indices=big_reports.indices[a:b], bits=big_reports.bits[a:b]
            )
        )
    warm_s = time.perf_counter() - t0
    identical = np.array_equal(cold_est, acc.finalize())
    ok &= identical
    print(
        f"hr-st n={args.users} panes={len(spans)}: "
        f"cold {cold_s:.3f}s cached {warm_s:.3f}s "
        f"speedup {cold_s / warm_s:.2f}x bit_identical={identical}"
    )

    # Vectorized session sweep vs the per-report reference merge walk,
    # on a bursty mostly-in-order stream (bounded live set keeps the
    # O(reports)-per-envelope reference walk affordable here).
    sess_n = min(args.users, 30_000)
    gap = 1.0
    bursts = max(sess_n // 200, 1)
    sess_ts = rng.integers(0, bursts, size=sess_n) * (10.0 * gap) + rng.uniform(
        0.0, 3.0 * gap, sess_n
    )
    arrival = np.argsort(
        sess_ts + rng.uniform(0.0, 2.0 * gap, sess_n), kind="stable"
    )
    sess_reports = olh.privatize(
        rng.integers(0, args.domain, size=sess_n), rng=rng
    )
    spec = WindowSpec.session(gap, allowed_lateness=5.0 * gap)

    def _session_sweep(reference):
        collector = EventTimeCollector(olh, spec)
        collector._geometry.use_reference_sweep = reference
        for s in range(0, sess_n, 512):
            idx = arrival[s : s + 512]
            collector.absorb(
                TimedReports(sess_ts[idx], slice_report_batch(sess_reports, idx))
            )
        return collector.finish()

    ref, ref_s = _time(lambda: _session_sweep(True))
    fast, fast_s = _time(lambda: _session_sweep(False))
    identical = (
        len(ref) == len(fast)
        and ref.coalesced_panes == fast.coalesced_panes
        and ref.late_reports == fast.late_reports
        and ref.absorbed_reports == fast.absorbed_reports
        and all(
            a.window_index == b.window_index
            and (a.window_start, a.window_end) == (b.window_start, b.window_end)
            and np.array_equal(a.window_estimates, b.window_estimates)
            for a, b in zip(ref, fast)
        )
    )
    ok &= identical
    print(
        f"sess  n={sess_n} windows={len(fast)}: "
        f"ref {ref_s:.3f}s vectorized {fast_s:.3f}s "
        f"speedup {ref_s / fast_s:.2f}x bit_identical={identical}"
    )

    # The stream driver against the collector fed one 256-report arrival
    # slice at a time, on an in-order stream with 10% stragglers delayed
    # up to 4x the allowed lateness: the driver joins the slices inside
    # a pane and must still count every straggler late exactly as the
    # one-fold-per-slice feed does.
    drv_n = min(args.users, 20_000)
    drv_ts = np.sort(rng.uniform(0.0, 40.0, drv_n))
    delay = np.where(rng.random(drv_n) < 0.1, rng.uniform(0.0, 4.0, drv_n), 0.0)
    drv_ts = drv_ts[np.argsort(drv_ts + delay, kind="stable")]
    drv_values = rng.integers(0, args.domain, size=drv_n)
    drv_spec = WindowSpec.event_tumbling(4.0, allowed_lateness=1.0)

    def _one_fold_per_slice():
        collector = EventTimeCollector(olh, drv_spec)
        gen = np.random.default_rng(1889)
        for a, b in _arrival_slices(drv_spec, drv_n, 256):
            collector.charge_for(drv_ts[a:b])
            reports = olh.privatize(drv_values[a:b], rng=gen)
            collector.absorb(TimedReports(drv_ts[a:b], reports))
        return collector.finish()

    folds = []
    absorb = EventTimeCollector.absorb

    def _counted(self, timed):
        folds.append(len(timed))
        return absorb(self, timed)

    def _driver():
        EventTimeCollector.absorb = _counted
        try:
            return stream_collection(
                olh, drv_values, window=drv_spec, timestamps=drv_ts,
                chunk_size=256, rng=1889,
            )
        finally:
            EventTimeCollector.absorb = absorb

    ref, ref_s = _time(_one_fold_per_slice)
    fast, fast_s = _time(_driver)
    identical = _stream_outputs(ref) == _stream_outputs(fast)
    ok &= identical and fast.late_reports > 0
    slices = -(-drv_n // 256)
    print(
        f"driver n={drv_n} slices={slices} folds={len(folds)} "
        f"late={fast.late_reports}: per-slice {ref_s:.3f}s driver {fast_s:.3f}s "
        f"speedup {ref_s / fast_s:.2f}x bit_identical={identical}"
    )

    if not ok:
        print("FAIL: a fast path diverged from its reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

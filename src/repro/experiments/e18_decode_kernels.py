"""E18 — decode-kernel throughput: fused aggregator paths vs reference.

Every earlier pipeline experiment (E14–E17) finds the same bottleneck:
privatization is cheap, *decoding* dominates — on the E14 shard sweep
~96% of wall time was OLH support counting.  This experiment measures
the fused decode kernels (:mod:`repro.util.kernels`) that replaced the
materializing reference paths, over the three aggregator families that
carry the systems stacks:

* **OLH/BLH support counting** — the fused hash→compare→accumulate
  kernel vs the ``_reference_hash_cross`` + ``==`` + ``.sum``
  reference, over an (n, d, g) sweep that includes the E14-equivalent
  configuration (d=64, ε=2 → g=8).
* **CMS candidate decode** — the tiled sketch read vs the whole-list
  reference (``k`` hashes per candidate + bucket gather).
* **RAPPOR Bloom design matrix** — chunked ``encode_batch`` vs the
  unchunked reference encoding.
* **Hadamard candidate decode** — the bit-sliced kernel (packed index
  bit-planes, XOR + popcount, 64 reports per word op) vs the oracle's
  per-candidate reference loop
  (``HadamardResponse._reference_support_counts_for``).

A **streaming sweep** then measures what the kernel plan cache buys a
windowed consumer: many small panes absorbed into one
candidate-restricted accumulator.  The *cold* path re-derives the
candidate-side work every pane exactly as the pre-cache path did
(Hadamard: a fresh ``HadamardCandidatePlan`` per pane; OLH: premix +
kernel construction per pane); the *warm* path is the shipped accumulator, which fetches
the plan from :data:`repro.util.kernels.kernel_plan_cache` (the first
pane builds it, the rest reuse it — the cache is cleared before timing
so the build cost is included).  Estimates must match bit for bit.

Every row also checks *bit identity*: the fused path must reproduce the
reference outputs exactly (integer arithmetic end to end), which is what
lets the kernels replace the references everywhere without a single
estimate changing.

A final sweep reruns the E14 thread-backend shard scaling and reports
the new per-shard decode-kernel CPU split: summed kernel compute must
stay flat as shards are added (wall-clock attribution inflates with
time-slicing; the CPU clock shows the contention is gone).

Column semantics by sweep: for the kernel sweeps ``ref_s``/``fused_s``
are the two implementations' decode seconds and ``items_per_s`` is
items decoded per second through the fused path (reports for support
counting, candidates for sketch/Bloom reads).  For the ``stream``
sweep ``ref_s``/``fused_s`` are the *total* decode seconds across all
panes for the cold-rebuild and cached paths, ``num_shards`` carries the
pane count, and ``items_per_s`` streamed users/sec through the cached
path.  For the ``shards`` sweep ``ref_s`` is the
summed per-shard decode *wall* seconds, ``fused_s`` the summed
decode-kernel *CPU* seconds, ``speedup`` the kernel-CPU growth factor
relative to one shard (≈1 ⇒ no contention), and ``items_per_s`` the
end-to-end pipeline users/sec; after one warm-up run, each shard count
keeps the run with the least kernel CPU of three.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import BinaryLocalHashing, OptimalLocalHashing
from repro.core.hadamard import HadamardResponse
from repro.core.mechanism import HashedReports, IndexedBitReports
from repro.eval.tables import Table
from repro.experiments.common import zipf_instance
from repro.protocol import run_sharded_collection
from repro.systems.apple import CountMeanSketch
from repro.util.bloom import BloomFilter
from repro.util.hashing import _premix, params_from_seeds
from repro.util.kernels import (
    FusedSupportKernel,
    HadamardCandidatePlan,
    hadamard_support_counts,
    kernel_plan_cache,
)
from repro.util.rng import ensure_generator

__all__ = ["run", "main"]


def _time(fn, repeats: int = 1, *, warm: bool = False):
    """Run ``fn`` ``repeats`` times; return (result, best seconds).

    With ``warm``, one untimed call runs first.  The OLH/BLH rows time
    their reference and fused passes alike, warmed and best of three, so
    ``speedup`` compares two warm paths: a first call pays for cold
    caches, and the fused call for the tile pool and scratch as well.
    The sketch/Bloom rows keep the best of three, since they finish in
    milliseconds, where first-touch allocation noise dominates a single
    sample.  The Hadamard row, whose plan build is part of its cost,
    runs once.
    """
    if warm:
        fn()
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def run(
    *,
    n: int = 1_000_000,
    epsilon: float = 2.0,
    olh_domains: tuple[int, ...] = (64, 256),
    cms_k: int = 64,
    cms_m: int = 1024,
    cms_candidates: int = 65_536,
    bloom_bits: int = 128,
    bloom_hashes: int = 2,
    bloom_candidates: int = 65_536,
    had_domain: int = 1 << 20,
    had_candidates: int = 1024,
    stream_pane: int = 4096,
    stream_panes: int = 64,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    chunk_size: int = 65_536,
    workers: int = 4,
    seed: int = 18,
) -> Table:
    """Benchmark fused vs reference decode over OLH/BLH, CMS and Bloom.

    ``n`` scales every report batch; candidate-list sizes for the sketch
    and Bloom sweeps are capped at ``n`` so tiny smoke runs stay tiny.
    """
    gen = ensure_generator(seed)
    table = Table(
        "E18: fused decode-kernel throughput vs reference paths",
        [
            "sweep",
            "protocol",
            "n",
            "d",
            "g",
            "num_shards",
            "ref_s",
            "fused_s",
            "speedup",
            "items_per_s",
            "bit_identical",
        ],
    )
    table.add_note(
        f"n={n}, eps={epsilon}, seed={seed}; kernel sweeps time fused vs "
        "reference decode (bit_identical: outputs equal exactly); stream "
        "sweep: "
        "ref_s = per-pane candidate-work rebuild total, fused_s = cached "
        "kernel-plan total, num_shards = pane count; shards sweep (warmed, "
        "least kernel CPU of 3 runs): ref_s = decode wall sum, fused_s = "
        "decode-kernel CPU sum, speedup = kernel-CPU growth vs 1 shard "
        "(flat == no contention)"
    )

    # -- OLH / BLH support counting ------------------------------------
    olh_configs = [
        ("olh", OptimalLocalHashing(d, epsilon)) for d in olh_domains
    ] + [("blh", BinaryLocalHashing(olh_domains[0], epsilon))]
    for protocol, oracle in olh_configs:
        d = oracle.domain_size
        values = gen.integers(0, d, size=n, dtype=np.int64)
        reports = oracle.privatize(values, rng=gen)
        cands = np.arange(d, dtype=np.int64)
        ref, ref_s = _time(
            lambda: oracle._reference_support_counts_for(reports, cands),
            repeats=3,
            warm=True,
        )
        fused, fused_s = _time(
            lambda: oracle.support_counts_for(reports, cands), repeats=3, warm=True
        )
        table.add_row(
            "kernel",
            protocol,
            n,
            d,
            oracle.g,
            1,
            ref_s,
            fused_s,
            ref_s / fused_s if fused_s > 0 else 0.0,
            n / fused_s if fused_s > 0 else 0.0,
            int(np.array_equal(ref, fused)),
        )
        del reports

    # -- CMS candidate decode ------------------------------------------
    c = min(cms_candidates, max(2, n))
    sketch_oracle = CountMeanSketch(c, epsilon, k=cms_k, m=cms_m, master_seed=seed)
    acc = sketch_oracle.accumulator()
    # Build the sketch in bounded chunks (CMS rows are m bytes per user).
    sketch_users = min(n, 65_536)
    sketch_values = gen.integers(0, c, size=sketch_users, dtype=np.int64)
    for start in range(0, sketch_users, 16_384):
        acc.absorb(
            sketch_oracle.privatize(sketch_values[start : start + 16_384], rng=gen)
        )
    sketch = acc.sketch()
    cms_cands = np.arange(c, dtype=np.int64)
    ref, ref_s = _time(
        lambda: sketch_oracle._reference_estimate_from_sketch(
            sketch, sketch_users, cms_cands
        ),
        repeats=3,
    )
    fused, fused_s = _time(
        lambda: sketch_oracle._estimate_from_sketch(sketch, sketch_users, cms_cands),
        repeats=3,
    )
    table.add_row(
        "kernel",
        "cms",
        sketch_users,
        c,
        cms_m,
        1,
        ref_s,
        fused_s,
        ref_s / fused_s if fused_s > 0 else 0.0,
        c / fused_s if fused_s > 0 else 0.0,
        int(np.array_equal(ref, fused)),
    )

    # -- RAPPOR Bloom design matrix ------------------------------------
    bc = min(bloom_candidates, max(2, n))
    bloom = BloomFilter(bloom_bits, bloom_hashes, seed)
    bloom_vals = np.arange(bc, dtype=np.int64)

    def _reference_encode_batch() -> np.ndarray:
        hashed = bloom._family._reference_apply_all(bloom_vals)
        bits = np.zeros((bc, bloom_bits), dtype=np.uint8)
        rows = np.repeat(np.arange(bc), bloom_hashes)
        bits[rows, hashed.T.ravel()] = 1
        return bits

    ref, ref_s = _time(_reference_encode_batch, repeats=3)
    fused, fused_s = _time(lambda: bloom.encode_batch(bloom_vals), repeats=3)
    table.add_row(
        "kernel",
        "rappor-bloom",
        bc,
        bc,
        bloom_bits,
        1,
        ref_s,
        fused_s,
        ref_s / fused_s if fused_s > 0 else 0.0,
        bc / fused_s if fused_s > 0 else 0.0,
        int(np.array_equal(ref, fused)),
    )

    # -- Hadamard bit-sliced candidate decode --------------------------
    had_oracle = HadamardResponse(had_domain, epsilon)
    hd = min(had_candidates, had_domain)
    had_cands = np.sort(
        gen.choice(had_domain, size=hd, replace=False).astype(np.int64)
    )
    had_values = gen.integers(0, had_domain, size=n, dtype=np.int64)
    had_reports = had_oracle.privatize(had_values, rng=gen)
    ref, ref_s = _time(
        lambda: had_oracle._reference_support_counts_for(had_reports, had_cands)
    )
    kernel_plan_cache.clear()  # plan build is part of the measured cost
    fused, fused_s = _time(
        lambda: had_oracle.support_counts_for(had_reports, had_cands)
    )
    table.add_row(
        "kernel",
        "hadamard",
        n,
        hd,
        had_oracle.order,
        1,
        ref_s,
        fused_s,
        ref_s / fused_s if fused_s > 0 else 0.0,
        n / fused_s if fused_s > 0 else 0.0,
        int(np.array_equal(ref, fused)),
    )
    del had_reports

    # -- streaming: cached plans vs per-pane candidate-work rebuild ----
    stream_users = min(n, stream_pane * stream_panes)
    pane_spans = [
        (s, min(s + stream_pane, stream_users))
        for s in range(0, stream_users, stream_pane)
    ]

    def _stream_row(protocol, oracle, pane_cold_counts, panes, cands, size_col):
        """Time cold-rebuild vs cached-plan absorption of ``panes``.

        ``pane_cold_counts(pane)`` must re-derive all candidate-side
        work, exactly as the pre-cache tier did every ``absorb``.  The
        warm path is the shipped accumulator; both fold per-pane counts
        in the same order, so the estimates must be bit-identical.
        """
        state = np.zeros(cands.shape[0], dtype=np.float64)
        cold_n = 0
        t0 = time.perf_counter()
        for pane in panes:
            state += pane_cold_counts(pane)
            cold_n += oracle.num_reports(pane)
        cold_s = time.perf_counter() - t0
        p, q = oracle.p_star, oracle.q_star
        cold_est = (state - cold_n * q) / (p - q)

        kernel_plan_cache.clear()  # first pane pays the plan build
        acc = oracle.accumulator(cands)
        t0 = time.perf_counter()
        for pane in panes:
            acc.absorb(pane)
        warm_s = time.perf_counter() - t0
        table.add_row(
            "stream",
            protocol,
            stream_users,
            cands.shape[0],
            size_col,
            len(panes),
            cold_s,
            warm_s,
            cold_s / warm_s if warm_s > 0 else 0.0,
            stream_users / warm_s if warm_s > 0 else 0.0,
            int(np.array_equal(cold_est, acc.finalize())),
        )

    s_values = gen.integers(0, had_domain, size=stream_users, dtype=np.int64)
    s_reports = had_oracle.privatize(s_values, rng=gen)
    had_panes = [
        IndexedBitReports(
            indices=s_reports.indices[a:b], bits=s_reports.bits[a:b]
        )
        for a, b in pane_spans
    ]
    _stream_row(
        "hadamard",
        had_oracle,
        lambda pane: hadamard_support_counts(
            np.asarray(pane.indices, dtype=np.uint64),
            np.asarray(pane.bits),
            HadamardCandidatePlan(had_cands),
        ),
        had_panes,
        had_cands,
        had_oracle.order,
    )
    del s_reports, had_panes

    olh_stream = OptimalLocalHashing(had_domain, epsilon)
    s_values = gen.integers(0, had_domain, size=stream_users, dtype=np.int64)
    s_reports = olh_stream.privatize(s_values, rng=gen)
    olh_panes = [
        HashedReports(seeds=s_reports.seeds[a:b], values=s_reports.values[a:b])
        for a, b in pane_spans
    ]

    def _olh_cold_counts(pane):
        kernel = FusedSupportKernel(_premix(had_cands), olh_stream.g)
        a, b = params_from_seeds(pane.seeds)
        return kernel.support_counts(a, b, pane.values)

    _stream_row(
        "olh", olh_stream, _olh_cold_counts, olh_panes, had_cands, olh_stream.g
    )
    del s_reports, olh_panes

    # -- shard-scaling: decode contention under the thread backend -----
    d = olh_domains[0]
    oracle = OptimalLocalHashing(d, epsilon)
    values, _ = zipf_instance(d, n, seed)

    def _sharded(num_shards: int):
        stats = run_sharded_collection(
            oracle,
            values,
            num_shards=num_shards,
            chunk_size=chunk_size,
            workers=workers,
            backend="thread",
            rng=seed + 1,
        )
        return stats.decode_hash_seconds + stats.decode_accumulate_seconds, stats

    # One untimed run fills the tile pool, scratch and plan cache, so the
    # first shard count, which every growth factor divides by, is not
    # the only cold one; each count then keeps its least kernel CPU of
    # three runs, with that run's decode wall and throughput.
    _sharded(shard_counts[0])
    base_kernel_cpu = None
    for num_shards in shard_counts:
        kernel_cpu, stats = min(
            (_sharded(num_shards) for _ in range(3)), key=lambda run: run[0]
        )
        if base_kernel_cpu is None:
            base_kernel_cpu = kernel_cpu
        growth = kernel_cpu / base_kernel_cpu if base_kernel_cpu > 0 else 0.0
        table.add_row(
            "shards",
            "olh-thread",
            n,
            d,
            oracle.g,
            num_shards,
            stats.decode_seconds,
            kernel_cpu,
            growth,
            stats.users_per_second,
            1,
        )
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

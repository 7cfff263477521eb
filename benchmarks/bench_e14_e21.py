"""E14–E21 benchmarks: the at-scale systems experiments, one harness.

Sharded pipeline (E14), executor backends (E15), windowed accounting
(E16), event time (E17), decode kernels (E18), session windows (E19),
the distributed service (E20) and fault tolerance (E21) each run once
under the pytest-benchmark timer.  Each table is saved as
``results/<id>.txt`` and as ``results/BENCH_<id>.json``, whose ``rows``
are the table's rows keyed by column name — what
``check_bench_regression.py`` compares against the committed baselines.
``check_<id>(rows)`` then asserts what must hold at any scale:
bit-identity, accounting and row shapes.  Wall-clock columns are
reported, not asserted, except for the claims checked only at full
scale, where timing noise cannot drown them.

``REPRO_BENCH_USERS`` scales every population down for CI smoke runs;
the committed results use the default 1M::

    REPRO_BENCH_USERS=50000 PYTHONPATH=src python -m pytest \\
        benchmarks/bench_e14_e21.py -q \\
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

import math
import os

import pytest
from conftest import run_once

from repro.experiments import get_experiment

USERS = int(os.environ.get("REPRO_BENCH_USERS", "1000000"))

PANE_COUNTS = (4, 16, 64)
LATENESS_SWEEP = (0.0, 0.02, 0.5)
SHARD_COUNTS = (1, 2, 4)
GAP_SWEEP = (1.0, 3.75, 6.0)
BRIDGE_CHUNKS = (256, 4_096, 65_536)
#: Ingest-worker counts for E20's scale sweep, capped at the 2 cores of
#: the reference runner: a larger fleet only time-slices the same cores
#: and reads as negative scaling.
INGEST_SWEEP = (1, 2)
CADENCE_SWEEP = (1, 8, 64)


def _chunk(parts: int, cap: int = 65_536) -> int:
    """A chunk size of ``USERS / parts`` users, at most ``cap``."""
    return min(cap, max(USERS // parts, 1))


#: Each experiment's ``run`` arguments besides ``n`` and ``seed``.
PARAMS = {
    "E14": dict(
        shard_counts=(1, 2, 4, 8), chunk_sizes=(16_384, 65_536, 262_144),
        workers=4,
    ),
    "E15": dict(
        num_shards=4, chunk_size=_chunk(4), workers=4, num_windows=8,
        backends=("serial", "thread"),
    ),
    "E16": dict(
        num_shards=4, chunk_size=_chunk(4), workers=4,
        backends=("serial", "thread"),
    ),
    "E17": dict(
        chunk_size=_chunk(4), pane_counts=PANE_COUNTS,
        lateness_sweep=LATENESS_SWEEP,
    ),
    "E18": dict(shard_counts=SHARD_COUNTS, workers=4),
    "E19": dict(
        chunk_size=_chunk(4), gap_sweep=GAP_SWEEP, bridge_chunks=BRIDGE_CHUNKS
    ),
    "E20": dict(chunk_size=_chunk(8), ingest_sweep=INGEST_SWEEP),
    "E21": dict(
        chunk_size=_chunk(16, cap=16_384), cadence_sweep=CADENCE_SWEEP,
        lease_timeout=1.0,
    ),
}


def _sweep(rows, name):
    return [row for row in rows if row["sweep"] == name]


def check_e14(rows):
    assert len(rows) == 7
    # Every configuration processed the full population end-to-end.
    for row in rows:
        assert row["wall_s"] > 0.0 and row["users_per_s"] > 0.0
    # Every configuration decodes equally well up to sampling noise
    # (different shardings consume different, equally distributed
    # randomness): errors sit in one statistical band.
    errs = [row["mean_abs_err"] for row in rows]
    assert max(errs) < 2.0 * min(errs)


def check_e15(rows):
    backends, stream = _sweep(rows, "backend"), _sweep(rows, "stream")
    assert [r["config"] for r in backends] == ["serial", "thread"]
    # ceil(n / ceil(n/8)) windows — 8 at the default 1M, possibly fewer
    # when REPRO_BENCH_USERS shrinks the population below a multiple of 8.
    window_size = -(-USERS // 8)
    assert len(stream) == -(-USERS // window_size)
    # Executors must agree *exactly*: same shards, same chunking, same
    # spawned streams — the error column is one number twice.
    assert len({r["mean_abs_err"] for r in backends}) == 1
    for row in backends:
        assert row["wall_s"] > 0.0 and row["users_per_s"] > 0.0
    # The stream covers the full population and every snapshot is timed.
    assert stream[-1]["users"] == USERS
    for row in stream:
        assert row["snapshot_ms"] >= 0.0
    # Cumulative absolute error grows ~sqrt(users) — at 8x the users it
    # must sit well below 8x the first window's error (sanity, not a
    # tight statistical gate).
    first = max(stream[0]["mean_abs_err"], 1e-9)
    assert stream[-1]["mean_abs_err"] < 8.0 * first


def check_e16(rows):
    backends = _sweep(rows, "backend")
    windows = _sweep(rows, "window")
    accounting = _sweep(rows, "accounting")
    assert [r["config"] for r in backends] == ["serial", "thread"]
    # Backends consume identical per-shard streams: one error, twice.
    assert len({r["mean_win_err"] for r in backends}) == 1
    for row in backends:
        assert row["wall_s"] > 0.0 and row["users_per_s"] > 0.0
    # Window geometry: every config streams the full population, the
    # pane store stays within its declared capacity, and snapshots are
    # timed.
    assert [r["config"] for r in windows] == [
        "tumbling 2s", "sliding 4s/s", "sliding 2s/s",
    ]
    for row, peak_cap in zip(windows, (1, 4, 2)):
        assert row["users"] == USERS
        assert row["users_per_s"] > 0.0
        assert row["snapshot_ms"] >= 0.0
        assert row["peak_panes"] == peak_cap
    # Accounting: fresh ε grows linearly with windows; the memoized and
    # disjoint postures stay flat at one release.
    eps_round = accounting[0]["eps_fresh"]
    for k, row in enumerate(accounting):
        assert math.isclose(row["eps_fresh"], (k + 1) * eps_round)
        assert math.isclose(row["eps_memoized"], eps_round)
        assert math.isclose(row["eps_disjoint"], eps_round)
        assert row["snapshot_ms"] >= 0.0


def check_e17(rows):
    latency, lateness = _sweep(rows, "latency"), _sweep(rows, "lateness")
    # Latency sweep: one row per pane count, full coverage, timed
    # snapshots, and the store holds exactly the window's panes at its
    # peak.  (Bit-identity of the cumulative views across pane counts
    # is asserted inside the experiment itself.)
    assert [r["config"] for r in latency] == [
        f"two_stack {p}p" for p in PANE_COUNTS
    ]
    for row, panes in zip(latency, PANE_COUNTS):
        assert row["users"] == USERS
        assert row["users_per_s"] > 0.0 and row["snapshot_ms"] >= 0.0
        assert row["absorbed"] == USERS  # every report absorbed, none late
        assert row["peak_panes"] == panes
    # Lateness sweep: every report accounted, and a longer allowed
    # lateness never drops more reports than a shorter one.
    assert len(lateness) == len(LATENESS_SWEEP)
    for row in lateness:
        assert row["absorbed"] + row["late"] == USERS
    late_counts = [row["late"] for row in lateness]
    assert late_counts == sorted(late_counts, reverse=True)
    assert late_counts[0] > 0  # zero lateness drops the stragglers
    assert late_counts[-1] == 0  # generous lateness absorbs them all


def check_e18(rows):
    kernels, stream = _sweep(rows, "kernel"), _sweep(rows, "stream")
    shards = _sweep(rows, "shards")
    # olh d=64, olh d=256, blh, cms, bloom, hadamard
    assert len(kernels) == 6
    assert len(stream) == 2  # hadamard, olh
    assert len(shards) == len(SHARD_COUNTS)
    # The load-bearing guarantee: every fast path reproduces its
    # baseline bit for bit — kernels against their references, cached
    # streaming against per-pane rebuild.
    for row in kernels + stream:
        assert row["bit_identical"] == 1, (
            f"{row['protocol']}: fast decode diverged from baseline"
        )
    # The E14-equivalent OLH config (first row: d=64, g=8) must decode
    # substantially faster than the reference path.  Full-scale runs
    # show ~4x; assert a conservative floor so smoke-scale timer noise
    # cannot flake CI while a real regression still fails loudly.
    olh = kernels[0]
    assert olh["protocol"] == "olh" and olh["d"] == 64
    assert olh["speedup"] >= 1.5, (
        f"OLH fused decode speedup collapsed: {olh['speedup']:.2f}x vs "
        "reference"
    )
    # Bit-sliced Hadamard vs the per-candidate reference loop: the
    # acceptance floor is 2x (smoke and full-scale runs show ~20x).
    hadamard = kernels[5]
    assert hadamard["protocol"] == "hadamard"
    assert hadamard["speedup"] >= 2.0, (
        f"bit-sliced Hadamard speedup collapsed: {hadamard['speedup']:.2f}x "
        "vs reference"
    )
    # A cached plan saves only the candidate-side build per pane, which
    # is small next to the decode itself (both stream rows run ~1x), so
    # the guard is that caching never costs: a cached absorb more than
    # 2x slower than rebuilding every pane would fail.
    for row in stream:
        assert row["speedup"] >= 0.5, (
            f"{row['protocol']}: cached streaming absorb slower than "
            f"per-pane rebuild: {row['speedup']:.2f}x"
        )
    # Decode-kernel CPU must not scale with the shard count (the E14
    # thread-backend contention): allow generous headroom for smoke
    # noise, but 4 shards re-doing 4x the work would fail.  On shard
    # rows ``speedup`` is the kernel-CPU growth vs one shard.
    for row in shards:
        assert row["speedup"] < 2.0, (
            f"decode-kernel CPU grew {row['speedup']:.2f}x at "
            f"{row['num_shards']} shards"
        )


def check_e19(rows):
    sessions, bridge = _sweep(rows, "sessions"), _sweep(rows, "bridge")
    matrix = _sweep(rows, "matrix")
    (straggler,) = _sweep(rows, "stragglers")
    # Gap sweep: the window count is decided by the data — strictly
    # fewer sessions as the gap swallows quiet stretches, every report
    # absorbed, timed snapshots.  (Ledger-identity and partition
    # assertions run inside the experiment.)
    assert [r["config"] for r in sessions] == [f"gap={g:g}h" for g in GAP_SWEEP]
    window_counts = [r["windows"] for r in sessions]
    assert window_counts == sorted(window_counts, reverse=True)
    assert window_counts[0] > window_counts[-1] == 1
    for row in sessions:
        assert row["users"] == USERS
        assert row["users_per_s"] > 0.0 and row["snapshot_ms"] >= 0.0
        assert row["absorbed"] == USERS and row["late"] == 0
    # Bridge sweep: sparse envelopes coalesce, dense ones never split;
    # the final window count matches the small-gap segmentation on
    # every row (extent equality is asserted inside the experiment).
    assert len(bridge) == len(BRIDGE_CHUNKS)
    coalesced = [r["coalesced"] for r in bridge]
    assert coalesced[0] > 0 and coalesced[0] >= coalesced[-1]
    assert len({r["windows"] for r in bridge}) == 1
    for row in bridge:
        assert row["absorbed"] + row["late"] == USERS
    # Matrix sweep: every geometry x envelope cell absorbed everything;
    # stage timings are present on every row.
    assert len(matrix) == 2 * len(BRIDGE_CHUNKS)
    for row in matrix:
        assert row["absorbed"] == USERS and row["late"] == 0
    for row in rows:
        assert "absorb=" in row["stages"]
    # Straggler row: delayed uploads counted late, never dropped.
    assert straggler["late"] > 0
    assert straggler["absorbed"] + straggler["late"] == USERS


def check_e20(rows):
    scale, small = _sweep(rows, "scale"), _sweep(rows, "small_env")
    (faults,) = _sweep(rows, "faults")
    (lateness,) = _sweep(rows, "lateness")
    # Scale sweep: one row per fleet size, every report absorbed, real
    # wall-clock throughput.  (Bit-identity to the single-host pipeline
    # is asserted inside the experiment.)
    assert [r["config"] for r in scale] == [f"ingest={n}" for n in INGEST_SWEEP]
    for row, num_ingest in zip(scale, INGEST_SWEEP):
        assert row["users"] == USERS
        assert row["wall_s"] > 0.0 and row["users_per_s"] > 0.0
        assert row["workers"] == num_ingest
        assert row["envelopes"] >= num_ingest  # at least one per worker
        assert row["absorbed"] == USERS and row["late"] == 0
    # Faults row: the injected duplicates were delivered and dropped.
    assert faults["dups_dropped"] > 0
    assert faults["absorbed"] == USERS and faults["late"] == 0
    # Lateness row: sealed windows, stragglers late, nothing dropped.
    assert lateness["windows"] > 0 and lateness["late"] > 0
    assert lateness["absorbed"] + lateness["late"] == USERS
    # Small-envelope row: coalescing folds the envelopes in fewer
    # batches (asserted inside the experiment); worker fold stage
    # timings present.
    assert len(small) == 1
    for row in small:
        assert row["absorbed"] == USERS and row["late"] == 0
        assert "absorb=" in row["fold_stages"]


def check_e21(rows):
    cadence, crash = _sweep(rows, "cadence"), _sweep(rows, "crash")
    killed, healed = _sweep(rows, "degraded")
    # Cadence sweep: baseline + one row per K, all bit-identical, real
    # checkpoints written at every K, and a measured overhead.  (The
    # <= 10% default-cadence bar is asserted inside the experiment at
    # full scale.)
    assert cadence[0]["config"] == "no checkpointing"
    assert len(cadence) == 1 + len(CADENCE_SWEEP)
    for row in cadence:
        assert row["users"] == USERS and row["users_per_s"] > 0.0
        assert row["restarts"] == 0 and row["bit_identical"] is True
        assert not math.isnan(row["overhead_pct"]), (
            "cadence overhead must be measured, not NaN"
        )
    for row in cadence[1:]:
        assert row["checkpoints"] > 0 and row["ckpt_mb"] > 0.0
    # Crash sweep: exactly one supervisor restart per row, recovered
    # bit-identically, with measurable recovery latency.
    assert len(crash) == len(CADENCE_SWEEP)
    for row in crash:
        assert row["restarts"] == 1 and row["recovery_s"] > 0.0
        assert row["lost"] == 0 and row["bit_identical"] is True
    # Degraded fleet: the kill row loses reports (accounted inside the
    # experiment via the loss invariant), the healed partition loses none.
    assert killed["lost"] > 0 and killed["bit_identical"] is False
    assert healed["lost"] == 0 and healed["bit_identical"] is True


CHECKS = {
    "E14": check_e14, "E15": check_e15, "E16": check_e16, "E17": check_e17,
    "E18": check_e18, "E19": check_e19, "E20": check_e20, "E21": check_e21,
}


@pytest.mark.parametrize("experiment_id", sorted(PARAMS))
def bench_experiment(benchmark, save_table, save_bench_json, experiment_id):
    table = run_once(
        benchmark,
        get_experiment(experiment_id).run,
        n=USERS,
        seed=int(experiment_id[1:]),
        **PARAMS[experiment_id],
    )
    save_table(experiment_id, table)
    CHECKS[experiment_id](save_bench_json(experiment_id, USERS, table))

"""E15 — executor backends and streaming snapshots (scale surface).

Two questions the deployment story raises after E14:

1. **Backends** — the same sharded OLH collection is run on the serial
   and thread-pool executors.  Both consume identical per-shard RNG
   streams, so the estimates are bit-identical (the rows'
   ``mean_abs_err`` agree exactly); what differs is wall time — threads
   win when NumPy kernels release the GIL.  Each backend row times the
   fastest of three identical runs.  Collection across processes is the
   distributed service's job (E20).
2. **Streaming** — the same population arrives as an ordered stream cut
   into tumbling windows; each window close emits a snapshot (window +
   cumulative estimates) off the live accumulator.  ``snapshot_ms``
   measures the read latency an analyst pays per window — O(state) copy
   + merge + finalize, independent of how many users have streamed by.

Expected shape: backend rows share one error number and order serial ≥
thread on wall time; streaming snapshot latency is flat across windows
while cumulative error falls as users accumulate.
"""

from __future__ import annotations

import numpy as np

from repro.core import OptimalLocalHashing
from repro.eval.tables import Table
from repro.experiments.common import zipf_instance
from repro.protocol import run_sharded_collection, stream_collection

__all__ = ["run", "main"]

#: Backend rows report the fastest of this many identical runs: at smoke
#: scale a run takes tens of milliseconds, where first-touch and
#: scheduler noise dominate a single sample.
_BACKEND_REPEATS = 3


def run(
    *,
    domain_size: int = 64,
    n: int = 1_000_000,
    epsilon: float = 2.0,
    num_shards: int = 4,
    chunk_size: int = 65_536,
    workers: int = 4,
    backends: tuple[str, ...] = ("serial", "thread"),
    num_windows: int = 8,
    seed: int = 15,
) -> Table:
    """Backend sweep + tumbling-window stream for one OLH population."""
    values, counts = zipf_instance(domain_size, n, seed)
    oracle = OptimalLocalHashing(domain_size, epsilon)
    table = Table(
        "E15: executor backends and streaming snapshots (OLH)",
        [
            "sweep",
            "config",
            "users",
            "wall_s",
            "users_per_s",
            "merge_ms",
            "snapshot_ms",
            "mean_abs_err",
        ],
    )
    table.add_note(
        f"workload: Zipf(1.1), d={domain_size}, n={n}, eps={epsilon}, "
        f"shards={num_shards}, chunk={chunk_size}, workers={workers}, seed={seed}"
    )
    table.add_note(
        "backend rows share one mean_abs_err: estimates are bit-identical "
        "across executors for a fixed (shards, chunk, rng)."
    )
    table.add_note(
        f"backend rows time the fastest of {_BACKEND_REPEATS} runs with the "
        "same rng (identical estimates)."
    )

    for backend in backends:
        stats = min(
            (
                run_sharded_collection(
                    oracle,
                    values,
                    num_shards=num_shards,
                    chunk_size=chunk_size,
                    workers=workers,
                    backend=backend,
                    rng=seed + 1,
                )
                for _ in range(_BACKEND_REPEATS)
            ),
            key=lambda s: s.wall_seconds,
        )
        err = float(np.mean(np.abs(stats.estimated_counts - counts)))
        table.add_row(
            "backend",
            backend,
            stats.num_users,
            stats.wall_seconds,
            stats.users_per_second,
            stats.merge_seconds * 1e3,
            0.0,
            err,
        )

    window_size = -(-n // num_windows)  # ceil: last window may be short
    snapshots = stream_collection(
        oracle,
        values,
        window_size=window_size,
        chunk_size=chunk_size,
        rng=seed + 2,
    )
    for snap in snapshots:
        seen = values[: snap.total_users]
        true_seen = np.bincount(seen, minlength=domain_size).astype(np.float64)
        err = float(np.mean(np.abs(snap.cumulative_estimates - true_seen)))
        table.add_row(
            "stream",
            f"window {snap.window_index}",
            snap.total_users,
            0.0,
            0.0,
            0.0,
            snap.snapshot_seconds * 1e3,
            err,
        )
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

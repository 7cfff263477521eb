"""E17 — event-time streaming: two-stack snapshots and watermark lateness.

Two production claims of the event-time engine, measured on one drifting
1M-user OLH stream:

1. **O(state) sliding snapshots** — the same count-driven sliding
   stream through the two-stack (DABA-lite) pane store at growing pane
   counts (``size/stride``).  The store answers every snapshot from two
   pre-merged components, so ``snapshot_ms`` stays flat however many
   panes a window spans.  Every pane count privatizes the same slices
   of the same stream, so the cumulative views must be bit-identical
   across pane counts (asserted here — how many panes the store holds
   only regroups merges, which the exact accumulator algebra makes
   invisible).

2. **Watermark lateness accounting** — the same stream stamped with
   event timestamps and arrival-delayed: a fraction of reports arrive
   out of order, some beyond any reasonable watermark.  Sweeping
   ``allowed_lateness`` shows the policy trade: zero lateness seals
   panes instantly and counts every straggler late; growing lateness
   absorbs more stragglers into their true event-time window at the
   cost of holding panes open longer.  Every report is accounted —
   ``absorbed + late == n`` on each row — and window error is measured
   against each window's own event-time truth.

Expected shape: ``snapshot_ms`` stays flat from 4 to 64 panes; in the
lateness sweep ``late`` falls monotonically as ``allowed_lateness``
grows, hitting zero when it exceeds the injected delay bound.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import OptimalLocalHashing
from repro.eval.tables import Table
from repro.experiments.e16_windowed_accounting import drifting_zipf
from repro.protocol import WindowSpec, stream_collection

__all__ = ["run", "main", "delayed_arrival_order"]


def delayed_arrival_order(
    n: int,
    seed: int,
    *,
    late_fraction: float = 0.03,
    mean_delay: float = 0.05,
) -> tuple[np.ndarray, np.ndarray]:
    """Event times on [0, 1) and an arrival order with injected stragglers.

    Event time ``i/n`` for user ``i`` (the stream is dense and ordered
    on the event clock).  Arrival is event order except for a
    ``late_fraction`` of reports whose delivery is delayed by an
    exponential ``mean_delay`` of event-clock time — devices that slept
    through their upload window.  Delays are truncated at
    ``8 · mean_delay`` so a hard bound exists: any ``allowed_lateness``
    beyond it provably absorbs every straggler (an unbounded tail would
    make the zero-late sweep row a seed-lucky coin flip at large n).
    Returns ``(event_times, arrival)`` where ``arrival`` permutes user
    indices into delivery order.
    """
    gen = np.random.default_rng(seed)
    event_times = np.arange(n, dtype=np.float64) / n
    delay = np.zeros(n)
    stragglers = gen.random(n) < late_fraction
    delay[stragglers] = np.minimum(
        gen.exponential(mean_delay, size=int(stragglers.sum())),
        8.0 * mean_delay,
    )
    arrival = np.argsort(event_times + delay, kind="stable")
    return event_times, arrival


def run(
    *,
    domain_size: int = 64,
    n: int = 1_000_000,
    epsilon: float = 2.0,
    chunk_size: int = 65_536,
    pane_counts: tuple[int, ...] = (4, 16, 64),
    lateness_sweep: tuple[float, ...] = (0.0, 0.02, 0.5),
    late_fraction: float = 0.03,
    mean_delay: float = 0.05,
    drift_steps: int = 16,
    seed: int = 17,
) -> Table:
    """Two-stack latency sweep over pane counts + watermark lateness sweep."""
    values = drifting_zipf(domain_size, n, seed, drift_steps=drift_steps)
    oracle = OptimalLocalHashing(domain_size, epsilon)

    table = Table(
        "E17: event-time streaming — two-stack snapshots + watermark lateness "
        "(OLH, drifting stream)",
        [
            "sweep",
            "config",
            "users",
            "wall_s",
            "users_per_s",
            "snapshot_ms",
            "peak_panes",
            "mean_win_err",
            "windows",
            "absorbed",
            "late",
        ],
    )
    table.add_note(
        f"workload: drifting Zipf(1.1), d={domain_size}, n={n}, eps={epsilon}, "
        f"drift_steps={drift_steps}, chunk={chunk_size}, seed={seed}; "
        f"stragglers: {late_fraction:.0%} of arrivals delayed "
        f"Exp({mean_delay}) event-clock units"
    )
    table.add_note(
        "latency rows: identical reports at every pane count — cumulative "
        "views are bit-identical; each snapshot merges at most two "
        "pre-merged components (two-stack store)."
    )

    # -- sweep 1: snapshot latency vs pane count ---------------------------
    num_rolls = max(pane_counts) * 2
    stride = max(n // num_rolls, 1)
    first = None
    for panes in pane_counts:
        spec = WindowSpec.sliding(panes * stride, stride)
        t0 = time.perf_counter()
        result = stream_collection(
            oracle, values, window=spec, chunk_size=chunk_size, rng=seed + 1
        )
        wall = time.perf_counter() - t0
        table.add_row(
            "latency",
            f"two_stack {panes}p",
            n,
            wall,
            n / wall if wall > 0 else 0.0,
            float(np.mean([s.snapshot_seconds for s in result])) * 1e3,
            max(s.pane_count for s in result),
            0.0,
            len(result),
            result.absorbed_reports,
            0,
        )
        if first is None:
            first = result
        assert len(result) == len(first)
        for a, b in zip(result, first):
            assert np.array_equal(
                a.cumulative_estimates, b.cumulative_estimates
            ), "cumulative views diverged across pane counts"

    # -- sweep 2: event-time watermark lateness ----------------------------
    event_times, arrival = delayed_arrival_order(
        n, seed + 2, late_fraction=late_fraction, mean_delay=mean_delay
    )
    arrival_values = values[arrival]
    arrival_times = event_times[arrival]
    window_span = 1.0 / 16
    for lateness in lateness_sweep:
        spec = WindowSpec.event_tumbling(
            window_span, allowed_lateness=float(lateness)
        )
        t0 = time.perf_counter()
        result = stream_collection(
            oracle,
            arrival_values,
            window=spec,
            timestamps=arrival_times,
            chunk_size=chunk_size,
            rng=seed + 3,
        )
        wall = time.perf_counter() - t0
        assert result.absorbed_reports + result.late_reports == n
        errs = []
        for snap in result:
            if snap.window_estimates is None:
                continue
            mask = (event_times >= snap.window_start) & (
                event_times < snap.window_end
            )
            truth = np.bincount(
                values[mask], minlength=domain_size
            ).astype(np.float64)
            errs.append(float(np.mean(np.abs(snap.window_estimates - truth))))
        table.add_row(
            "lateness",
            f"lateness={lateness:g}",
            n,
            wall,
            n / wall if wall > 0 else 0.0,
            float(np.mean([s.snapshot_seconds for s in result])) * 1e3,
            max(s.pane_count for s in result),
            float(np.mean(errs)) if errs else 0.0,
            len(result),
            result.absorbed_reports,
            result.late_reports,
        )
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

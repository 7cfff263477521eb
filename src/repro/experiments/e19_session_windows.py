"""E19 — session windows: data-driven panes on bursty app-open streams.

The deployments the paper surveys collect from devices whose activity
arrives in bursts — app opens cluster into usage sessions separated by
quiet stretches — so the natural window is *data-driven*: one pane per
burst, split wherever consecutive event times are more than ``gap``
apart.  This experiment drives the session geometry at 1M users on a
day-clock workload (four activity bursts: morning, lunch, evening,
night) and measures three things:

1. **Gap segmentation** — sweeping ``gap`` across the burst-separation
   scale shows the window count is decided by the data, not the spec:
   a small gap keeps the four bursts as four sessions, a gap above the
   narrowest quiet stretch fuses neighbours, a gap above the widest
   fuses the whole day into one.  Each run asserts the exact window
   count implied by the burst layout, that every report lands in
   exactly one session, and (under ``disjoint_users``) that the ledger
   parallel groups carry the final ``session-{serial}[start,end)``
   identities assigned at seal time.

2. **Pane-merge rates** — with arrival fully shuffled inside a generous
   ``allowed_lateness``, small delivery envelopes see each burst as
   sparse samples: gaps open between them, proto-sessions form, and
   later reports bridge them back together (``coalesced_panes``).
   Larger envelopes see each burst densely and never split it.  The
   *final* windows are identical across envelope sizes — pane extents
   depend on the data alone, not the arrival granularity (asserted).

3. **Snapshot latency** — session snapshots are cut from a single live
   pane plus the retired state, so ``snapshot_ms`` stays flat no matter
   how many reports a session absorbed.

4. **Envelope × geometry matrix** — the vectorized session sweep, and
   the driver folding small envelopes together where no output can
   change, make throughput independent of pane geometry *and* envelope
   size: sessions and event-tumbling windows through 256/4096/65536-
   report envelopes stay within a small factor of each other.

Expected shape: window count falls from 4 to 1 as ``gap`` sweeps up;
``coalesced`` falls to zero as the bridge-sweep envelope grows; the
straggler row counts every delayed report late (``absorbed + late ==
n`` on every row); every row ends with its ``route/charge/absorb/
snapshot`` stage-seconds breakdown showing where the wall time went.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import OptimalLocalHashing
from repro.eval.tables import Table
from repro.experiments.e16_windowed_accounting import drifting_zipf
from repro.protocol import WindowSpec, stream_collection

__all__ = ["run", "main", "bursty_day", "BURST_CENTERS", "BURST_WIDTH"]

#: Day-clock (hours) burst layout: morning commute, lunch, evening, night.
BURST_CENTERS = (8.0, 12.5, 18.0, 22.0)
BURST_WIDTH = 0.5


def bursty_day(
    n: int,
    seed: int,
    *,
    centers: tuple[float, ...] = BURST_CENTERS,
    width: float = BURST_WIDTH,
) -> np.ndarray:
    """Event times (hours) for ``n`` app opens across the day's bursts.

    User ``i`` opens the app during burst ``i % len(centers)`` (round-
    robin, so every burst is populated at any ``n``), uniformly inside
    the burst's ``width``-hour span.
    """
    gen = np.random.default_rng(seed)
    burst = np.arange(n) % len(centers)
    starts = np.asarray(centers, dtype=np.float64) - width / 2.0
    return starts[burst] + gen.uniform(0.0, width, size=n)


def _quiet_stretches(centers=BURST_CENTERS, width=BURST_WIDTH) -> list[float]:
    """Edge-to-edge quiet time between consecutive bursts (hours)."""
    return [
        (centers[i + 1] - width / 2.0) - (centers[i] + width / 2.0)
        for i in range(len(centers) - 1)
    ]


def run(
    *,
    domain_size: int = 64,
    n: int = 1_000_000,
    epsilon: float = 2.0,
    chunk_size: int = 65_536,
    gap_sweep: tuple[float, ...] = (1.0, 3.75, 6.0),
    bridge_gap: float = 0.02,
    bridge_chunks: tuple[int, ...] = (256, 4_096, 65_536),
    straggler_fraction: float = 0.03,
    straggler_mean_delay: float = 2.0,
    drift_steps: int = 16,
    seed: int = 19,
) -> Table:
    """Gap segmentation + pane-merge rate + straggler accounting sweeps."""
    values = drifting_zipf(domain_size, n, seed, drift_steps=drift_steps)
    event_times = bursty_day(n, seed + 1)
    oracle = OptimalLocalHashing(domain_size, epsilon)

    table = Table(
        "E19: session windows — data-driven panes on a bursty app-open "
        "day (OLH, drifting stream)",
        [
            "sweep",
            "config",
            "users",
            "wall_s",
            "users_per_s",
            "snapshot_ms",
            "windows",
            "coalesced",
            "absorbed",
            "late",
            "mean_win_err",
            "stages",
        ],
    )
    table.add_note(
        f"workload: drifting Zipf(1.1), d={domain_size}, n={n}, "
        f"eps={epsilon}, chunk={chunk_size}, seed={seed}; app opens in "
        f"{len(BURST_CENTERS)} daily bursts at {BURST_CENTERS} "
        f"(width {BURST_WIDTH}h)"
    )
    table.add_note(
        "session rows: windows per run are decided by the data — the "
        "same stream segments into 4/3/1 sessions purely by gap; bridge "
        "rows: identical event times through shrinking delivery "
        "envelopes — sparse envelopes split bursts into proto-sessions "
        "that later arrivals coalesce, yet final window extents match "
        "across all envelope sizes."
    )

    def mean_window_err(result) -> float:
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
        return float(np.mean(errs)) if errs else 0.0

    def add_row(sweep, config, result, wall):
        assert result.absorbed_reports + result.late_reports == n
        stages = "/".join(
            f"{k}={result.stage_seconds.get(k, 0.0):.3f}s"
            for k in ("route", "charge", "absorb", "snapshot")
        )
        table.add_row(
            sweep,
            config,
            n,
            wall,
            n / wall if wall > 0 else 0.0,
            float(np.mean([s.snapshot_seconds for s in result])) * 1e3,
            len(result),
            result.coalesced_panes,
            result.absorbed_reports,
            result.late_reports,
            mean_window_err(result),
            stages,
        )

    # -- sweep 1: gap segmentation (in-order arrival) ----------------------
    order = np.argsort(event_times, kind="stable")
    sorted_values, sorted_times = values[order], event_times[order]
    stretches = _quiet_stretches()
    for gap in gap_sweep:
        spec = WindowSpec.session(float(gap))
        t0 = time.perf_counter()
        result = stream_collection(
            oracle,
            sorted_values,
            window=spec,
            timestamps=sorted_times,
            chunk_size=chunk_size,
            rng=seed + 2,
            user_model="disjoint_users",
        )
        wall = time.perf_counter() - t0
        expected = 1 + sum(stretch > gap for stretch in stretches)
        assert len(result) == expected, (
            f"gap={gap}: {len(result)} sessions, burst layout implies "
            f"{expected}"
        )
        assert result.late_reports == 0
        assert sum(s.window_users for s in result) == n
        groups = {s.group for s in result.ledger.spends}
        assert groups == {
            f"session-{s.window_index}"
            f"[{s.window_start:g},{s.window_end:g})"
            for s in result
        }, "ledger groups must carry the final seal-time identities"
        add_row("sessions", f"gap={gap:g}h", result, wall)

    # -- sweep 2: pane-merge rate vs delivery envelope (shuffled) ----------
    gen = np.random.default_rng(seed + 3)
    arrival = gen.permutation(n)
    arrival_values = values[arrival]
    arrival_times = event_times[arrival]
    bridge_extents = None
    bridge_coalesced = []
    for envelope in bridge_chunks:
        spec = WindowSpec.session(bridge_gap, allowed_lateness=24.0)
        t0 = time.perf_counter()
        # The driver folds small envelopes together but charges each one
        # first, and the charge commits session structure at arrival
        # granularity: coalesce counts equal one fold per envelope's.
        result = stream_collection(
            oracle,
            arrival_values,
            window=spec,
            timestamps=arrival_times,
            chunk_size=min(int(envelope), n),
            rng=seed + 4,
        )
        wall = time.perf_counter() - t0
        assert result.late_reports == 0
        extents = sorted((s.window_start, s.window_end) for s in result)
        if bridge_extents is None:
            bridge_extents = extents
        else:
            assert extents == bridge_extents, (
                "final session extents must not depend on envelope size"
            )
        bridge_coalesced.append(result.coalesced_panes)
        add_row("bridge", f"envelope={envelope}", result, wall)
    assert bridge_coalesced[0] > 0, (
        "sparse envelopes must split bursts into proto-sessions that "
        "later arrivals coalesce"
    )
    assert bridge_coalesced[0] >= bridge_coalesced[-1]

    # -- sweep 3: envelope x geometry throughput matrix --------------------
    # The fast-path claim in one table: throughput is decided by the
    # data volume — not by pane geometry or delivery envelope size.
    matrix_specs = (
        ("sessions", WindowSpec.session(1.0, allowed_lateness=24.0)),
        ("event_tumbling", WindowSpec.event_tumbling(6.0, allowed_lateness=24.0)),
    )
    for geometry, spec in matrix_specs:
        for envelope in bridge_chunks:
            t0 = time.perf_counter()
            result = stream_collection(
                oracle,
                arrival_values,
                window=spec,
                timestamps=arrival_times,
                chunk_size=min(int(envelope), n),
                rng=seed + 6,
            )
            wall = time.perf_counter() - t0
            assert result.late_reports == 0
            add_row("matrix", f"{geometry}@{envelope}", result, wall)

    # -- sweep 4: straggler accounting (delayed arrival, zero lateness) ----
    delay = np.zeros(n)
    stragglers = gen.random(n) < straggler_fraction
    delay[stragglers] = np.minimum(
        gen.exponential(straggler_mean_delay, size=int(stragglers.sum())),
        8.0 * straggler_mean_delay,
    )
    late_order = np.argsort(event_times + delay, kind="stable")
    spec = WindowSpec.session(1.0)
    t0 = time.perf_counter()
    result = stream_collection(
        oracle,
        values[late_order],
        window=spec,
        timestamps=event_times[late_order],
        chunk_size=chunk_size,
        rng=seed + 5,
    )
    wall = time.perf_counter() - t0
    assert result.late_reports > 0, (
        "delayed uploads behind the sealed horizon must be counted late"
    )
    add_row("stragglers", f"delay~Exp({straggler_mean_delay:g}h)", result, wall)
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

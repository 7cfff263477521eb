"""E20 — distributed collection service: ingest fleet × combiner on sockets.

E14–E18 scaled the sharded pipeline inside one process; this experiment
runs the *service* shape the deployments actually operate: N ingest
workers (real OS processes on the ``"process"`` backend), each folding
privatized report envelopes arriving over TCP into per-pane
accumulators, shipping wire-serialized partials to one combiner daemon
that merges them into fleet-wide estimates.  Three sweeps:

1. **Scale** — aggregate users/sec versus the ingest-worker count, with
   every row asserted **bit-identical** to the single-host
   ``run_sharded_collection`` over the same privatized reports (the
   exact merge algebra makes the topology invisible to estimates).

2. **Faults** — the same collection under injected at-least-once
   delivery faults: every ``duplicate_every``-th envelope delivered
   twice.  Dedup keys drop the redeliveries at the ingest tier, the
   estimates stay bit-identical, and the dropped-duplicate count is
   recorded (the faults really happened).

3. **Lateness** — a windowed, round-robin-placed fleet on a day-clock
   workload with exponential straggler delays: each worker judges its
   stragglers late against its own watermark, panes seal when the
   *merged* watermark (min over every worker's event-time frontier)
   passes them, and ``absorbed + late == n`` holds fleet-wide.

4. **Small envelopes** — the deployment regime the PR 9 fast path
   targets: devices upload in tiny (256-report) envelopes.  The ingest
   daemons fold the envelopes queued on a link as one batch (at most
   the credit window), so the per-envelope fold, ship and checkpoint
   overhead amortizes — estimates stay bit-identical (asserted) and
   the run folds fewer batches than it has envelopes (asserted).
   Every row reports the worker-side fold stage breakdown (coalesced
   batches, route/absorb seconds).

Each row's wall time is taken around the whole
``run_distributed_collection`` call, so ``wall_s`` and ``users_per_s``
cover client privatization, daemon start-up and the socket phase
(ingest + fold + ship + merge): raw values in, estimates out.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import OptimalLocalHashing
from repro.eval.tables import Table
from repro.experiments.e16_windowed_accounting import drifting_zipf
from repro.protocol import (
    FaultPlan,
    WindowSpec,
    run_distributed_collection,
    run_sharded_collection,
)

__all__ = ["run", "main"]


def run(
    *,
    domain_size: int = 64,
    n: int = 1_000_000,
    epsilon: float = 2.0,
    chunk_size: int = 65_536,
    ingest_sweep: tuple[int, ...] = (1, 2, 4),
    backend: str = "process",
    duplicate_every: int = 7,
    window_hours: float = 1.0,
    allowed_lateness_hours: float = 0.25,
    straggler_fraction: float = 0.03,
    straggler_mean_delay: float = 2.0,
    drift_steps: int = 16,
    seed: int = 20,
) -> Table:
    """Scale, fault-injection and merged-watermark sweeps for the service."""
    values = drifting_zipf(domain_size, n, seed, drift_steps=drift_steps)
    oracle = OptimalLocalHashing(domain_size, epsilon)

    table = Table(
        "E20: distributed collection service — asyncio ingest fleet, "
        "combiner daemon, merged watermarks (OLH, drifting stream)",
        [
            "sweep",
            "config",
            "users",
            "wall_s",
            "users_per_s",
            "workers",
            "envelopes",
            "dups_dropped",
            "windows",
            "absorbed",
            "late",
            "fold_stages",
        ],
    )
    table.add_note(
        f"workload: drifting Zipf(1.1), d={domain_size}, n={n}, "
        f"eps={epsilon}, chunk={chunk_size}, backend={backend}, "
        f"seed={seed}; wall_s is timed around each service run: "
        "privatization, daemon start-up and the socket phase (ingest + "
        "fold + ship + merge)"
    )
    table.add_note(
        "scale/faults rows are asserted bit-identical to the single-host "
        "run_sharded_collection over the same reports; the lateness row "
        "runs round-robin placement so every worker's frontier advances "
        "together and panes seal mid-stream on the merged watermark"
    )

    def serve(vals, **kwargs):
        """One service run and its wall time, timed from outside."""
        t0 = time.perf_counter()
        svc = run_distributed_collection(
            oracle, vals, backend=backend, **kwargs
        )
        return svc, time.perf_counter() - t0

    def add_row(sweep, config, svc, wall):
        envelopes = sum(w.envelopes for w in svc.workers)
        dups = (
            sum(w.duplicate_envelopes for w in svc.workers)
            + svc.duplicate_envelopes
        )
        batches = sum(w.fold_batches for w in svc.workers)
        route = sum(w.route_seconds for w in svc.workers)
        absorb = sum(w.absorb_seconds for w in svc.workers)
        table.add_row(
            sweep,
            config,
            n,
            wall,
            n / wall,
            svc.num_workers,
            envelopes,
            dups,
            len(svc.windows),
            svc.absorbed_reports,
            svc.late_reports,
            f"batches={batches} route={route:.3f}s absorb={absorb:.3f}s",
        )

    # -- sweep 1: aggregate throughput vs ingest-worker count --------------
    baselines = {}
    for num_ingest in ingest_sweep:
        base = run_sharded_collection(
            oracle,
            values,
            num_shards=num_ingest,
            chunk_size=chunk_size,
            backend="serial",
            rng=seed + 1,
        )
        baselines[num_ingest] = base.estimated_counts
        svc, wall = serve(
            values, num_ingest=num_ingest, chunk_size=chunk_size, rng=seed + 1
        )
        assert np.array_equal(svc.estimated_counts, base.estimated_counts), (
            f"ingest={num_ingest}: service estimates diverged from the "
            "single-host pipeline"
        )
        assert svc.absorbed_reports == n and svc.late_reports == 0
        add_row("scale", f"ingest={num_ingest}", svc, wall)

    # -- sweep 2: injected duplicate delivery ------------------------------
    widest = max(ingest_sweep)
    svc, wall = serve(
        values,
        num_ingest=widest,
        chunk_size=chunk_size,
        rng=seed + 1,
        faults=FaultPlan(seed=seed, duplicate_every=duplicate_every),
    )
    assert np.array_equal(svc.estimated_counts, baselines[widest]), (
        "duplicate delivery must be invisible to estimates"
    )
    assert svc.absorbed_reports == n
    assert sum(w.duplicate_envelopes for w in svc.workers) > 0, (
        "the injected duplicates must actually have been delivered"
    )
    add_row("faults", f"dup_every={duplicate_every}", svc, wall)

    # -- sweep 3: merged watermark + fleet-wide lateness accounting --------
    gen = np.random.default_rng(seed + 2)
    event_times = gen.uniform(0.0, 24.0, size=n)
    delay = np.zeros(n)
    stragglers = gen.random(n) < straggler_fraction
    delay[stragglers] = np.minimum(
        gen.exponential(straggler_mean_delay, size=int(stragglers.sum())),
        8.0 * straggler_mean_delay,
    )
    arrival = np.argsort(event_times + delay, kind="stable")
    svc, wall = serve(
        values[arrival],
        num_ingest=widest,
        chunk_size=chunk_size,
        timestamps=event_times[arrival],
        window=WindowSpec.event_tumbling(
            window_hours, allowed_lateness=allowed_lateness_hours
        ),
        placement="round_robin",
        rng=seed + 3,
    )
    assert svc.absorbed_reports + svc.late_reports == n, (
        "fleet-wide accounting must cover every report exactly once"
    )
    assert svc.late_reports > 0, (
        "stragglers behind the merged watermark must be counted late"
    )
    assert svc.windows, "the merged watermark must have sealed panes"
    assert sum(w.users for w in svc.windows) == svc.absorbed_reports
    panes = [w.pane for w in svc.windows]
    assert panes == sorted(panes), "panes seal in event-time order"
    add_row(
        "lateness",
        f"win={window_hours:g}h late~Exp({straggler_mean_delay:g}h)",
        svc,
        wall,
    )

    # -- sweep 4: small delivery envelopes, coalesced on each link --------
    small_envelope = 256
    base_small = run_sharded_collection(
        oracle,
        values,
        num_shards=widest,
        chunk_size=small_envelope,
        backend="serial",
        rng=seed + 4,
    )
    svc, wall = serve(
        values, num_ingest=widest, chunk_size=small_envelope, rng=seed + 4
    )
    assert np.array_equal(svc.estimated_counts, base_small.estimated_counts), (
        "coalescing must be invisible to estimates"
    )
    assert svc.absorbed_reports == n and svc.late_reports == 0
    assert sum(w.fold_batches for w in svc.workers) < sum(
        w.envelopes for w in svc.workers
    ), "the ingest daemons must have folded several envelopes per batch"
    add_row("small_env", f"env={small_envelope}", svc, wall)
    return table


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()

"""The four ldpbench workloads: inputs, the entry-point call, the check.

Every input is generated here from the benchmark seed.  The program
under test receives only values, timestamps and an integer rng seed.
Each workload runs one public entry point from raw client values to
released estimates, privatization included.  Its check runs after the
timer has stopped.
"""

from __future__ import annotations

import math
import os

import numpy as np

DOMAIN = 64
EPSILON = 2.0
ZIPF_EXPONENT = 1.1
DRIFT_STEPS = 16
DAY_HOURS = 24.0
STRAGGLER_FRACTION = 0.03
STRAGGLER_MEAN_HOURS = 2.0
#: Tolerance of every statistical check, in standard deviations.  At 6σ a
#: correct program fails one 64-cell check about once in 10⁷ runs.
SIGMAS = 6.0
#: Users in the warm-up call that ``setup_s`` times.
WARMUP_USERS = 4096


def zipf_ranks(gen: np.random.Generator, size: int, n: int) -> np.ndarray:
    """``n`` draws of a rank in ``[0, size)`` with Zipf weights ``1/(r+1)^s``."""
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return gen.choice(size, size=n, p=weights / weights.sum())


def drifting_zipf(gen: np.random.Generator, n: int) -> np.ndarray:
    """A Zipf stream over ``DOMAIN`` values whose identities rotate.

    The shape stays Zipf throughout, but every ``n // DRIFT_STEPS`` users
    the whole domain shifts by one value, so the head item changes.
    """
    identities = gen.permutation(DOMAIN)
    shift = np.arange(n) // max(n // DRIFT_STEPS, 1)
    return (identities[zipf_ranks(gen, DOMAIN, n)] + shift) % DOMAIN


def straggler_arrivals(
    gen: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Event times over one day and the order the reports arrive in.

    Event times are uniform over 24 hours.  3% of devices upload late by
    an Exp(2 h) delay, capped at 16 h.  Returns ``(arrival order, event
    times)``.
    """
    events = gen.uniform(0.0, DAY_HOURS, size=n)
    delay = np.zeros(n)
    late = gen.random(n) < STRAGGLER_FRACTION
    delay[late] = np.minimum(
        gen.exponential(STRAGGLER_MEAN_HOURS, size=int(late.sum())),
        8.0 * STRAGGLER_MEAN_HOURS,
    )
    return np.argsort(events + delay, kind="stable"), events


def straggler_stream(seed: int, n: int) -> dict:
    """Drifting-Zipf users in arrival order, with their event times."""
    gen = np.random.default_rng(seed)
    values = drifting_zipf(gen, n)
    order, events = straggler_arrivals(gen, n)
    return {
        "values": values[order],
        "timestamps": events[order],
        "truth": np.bincount(values, minlength=DOMAIN).astype(np.float64),
    }


def count_sigma(oracle, n: int, truth: np.ndarray) -> np.ndarray:
    """Per-cell standard deviation of the count estimates of ``n`` users."""
    return np.array(
        [oracle.count_stddev(n, float(c) / n) for c in truth], dtype=np.float64
    )


def counts_problem(
    label: str, estimates, truth: np.ndarray, sigma: np.ndarray, slack: float = 0.0
) -> list[str]:
    """Cells whose estimate is more than ``SIGMAS·σ + slack`` from the truth."""
    if estimates is None:
        return [f"{label}: no estimates"]
    error = np.abs(np.asarray(estimates, dtype=np.float64) - truth)
    worst = int(np.argmax(error - SIGMAS * sigma))
    if error[worst] > SIGMAS * sigma[worst] + slack:
        return [
            f"{label}: cell {worst} is off by {error[worst]:.1f} "
            f"> {SIGMAS:g}σ + {slack:g} = {SIGMAS * sigma[worst] + slack:.1f}"
        ]
    return []


def _olh():
    from repro.core import OptimalLocalHashing

    return OptimalLocalHashing(DOMAIN, EPSILON)


class Workload:
    """What the harness asks of a workload, with the shared defaults.

    A workload builds its oracle and entry point on construction (part of
    the set-up ``setup_s`` times) and provides ``inputs(seed, n)``, one
    ``call(inputs, rng)`` per timed run, and ``check(inputs, result)``,
    which returns the problems found.  An optional ``once_check`` runs
    once per invocation after the timed runs.
    """

    #: Layer name of a span around the entry point itself, or None.
    span: str | None = None

    def kernel_cpu(self, result, scope) -> tuple[float, float]:
        """Decode-kernel (hash, accumulate) CPU seconds of one run."""
        return scope.hash_seconds, scope.accumulate_seconds

    def late_ratios(self, result) -> dict[str, float]:
        return {}


class BatchOLH(Workload):
    """A decode-bound bulk round through the sharded pipeline.

    Absorb is most of the wall.  The serial backend leaves the kernel
    pool as the only parallelism, so the blocking path is one thread.
    """

    name = "batch_olh"
    span = "simulation"
    shards = 2

    def __init__(self, n: int) -> None:
        from repro.protocol import run_sharded_collection

        self.n = n
        self.oracle = _olh()
        self.entry = run_sharded_collection

    def inputs(self, seed: int, n: int) -> dict:
        values = drifting_zipf(np.random.default_rng(seed), n)
        return {
            "values": values,
            "truth": np.bincount(values, minlength=DOMAIN).astype(np.float64),
        }

    def call(self, inputs: dict, rng: int, backend: str = "serial"):
        return self.entry(
            self.oracle,
            inputs["values"],
            num_shards=self.shards,
            chunk_size=65_536,
            backend=backend,
            rng=rng,
        )

    def check(self, inputs: dict, result) -> list[str]:
        n = inputs["values"].shape[0]
        truth = inputs["truth"]
        problems = counts_problem(
            "estimates", result.estimated_counts, truth,
            count_sigma(self.oracle, n, truth),
        )
        if len(result.ledger) != 1:
            problems.append(f"ledger holds {len(result.ledger)} spends, not 1")
        users = sum(s.num_users for s in result.shards)
        if users != n:
            problems.append(f"shard users sum to {users}, not {n}")
        return problems

    def once_check(self, inputs: dict, rng: int, result) -> list[str]:
        """The thread backend must reproduce the serial estimates bit for bit."""
        threaded = self.call(inputs, rng, backend="thread")
        if not np.array_equal(threaded.estimated_counts, result.estimated_counts):
            return ["backend='thread' estimates differ from backend='serial'"]
        return []

    def kernel_cpu(self, result, scope) -> tuple[float, float]:
        # The pipeline opens its own kernel timing scope per shard.
        return result.decode_hash_seconds, result.decode_accumulate_seconds


class HeavyHitters(Workload):
    """PEM over a 32-bit domain: candidate-restricted decode.

    Every round builds a new kernel plan over up to 256 candidates, so
    plan-cache and large-d decode changes show here.
    """

    name = "heavy_hitters"
    span = "heavyhitters"

    def __init__(self, n: int, *, bits: int = 32, k: int = 16, planted: int = 64):
        from repro.heavyhitters import pem_heavy_hitters

        self.n = n
        self.bits = bits
        self.k = k
        self.planted = planted
        self.oracle = _olh()  # the group oracle's variance, at any prefix domain
        self.entry = pem_heavy_hitters

    def inputs(self, seed: int, n: int) -> dict:
        gen = np.random.default_rng(seed)
        planted = np.unique(gen.integers(0, 1 << self.bits, size=4 * self.planted))
        planted = gen.permutation(planted)[: self.planted]
        values = planted[zipf_ranks(gen, self.planted, n)]
        truth = {int(v): int(c) for v, c in zip(*np.unique(values, return_counts=True))}
        return {"values": values, "top": [int(v) for v in planted[: self.k]], "truth": truth}

    def call(self, inputs: dict, rng: int):
        return self.entry(inputs["values"], self.bits, EPSILON, self.k, rng=rng)

    def planned_candidates(self) -> int:
        """Candidate evaluations PEM's round plan makes at these settings.

        Seed prefixes of 4 bits, 2-bit extensions, a beam of 4k between
        rounds: 3,408 at bits=32, k=16.
        """
        lengths = list(range(4, self.bits, 2)) + [self.bits]
        total = kept = 0
        for i, length in enumerate(lengths):
            width = 1 << length if i == 0 else kept << (length - lengths[i - 1])
            total += width
            kept = min(4 * self.k if i < len(lengths) - 1 else self.k, width)
        return total

    def count_sigma(self, n: int, true: int) -> float:
        """Standard deviation of a reported count whose true value is ``true``.

        PEM scales one group's estimate by the number of groups, so the
        oracle's noise over ``n / groups`` users adds to the binomial
        noise of the random group split.
        """
        groups = len(range(4, self.bits, 2)) + 1
        var = self.oracle.count_variance(n // groups, min(true / n, 1.0))
        return groups * math.sqrt(var + true / groups * (1 - 1 / groups))

    def check(self, inputs: dict, result) -> list[str]:
        problems = []
        if result.candidates_evaluated != self.planned_candidates():
            problems.append(
                f"candidates_evaluated {result.candidates_evaluated} != "
                f"round plan {self.planned_candidates()}"
            )
        if len(set(result.items)) != self.k:
            problems.append(f"{len(set(result.items))} distinct items, not {self.k}")
        # Recall at these settings ranges 12–16 of 16.  The bar sits at
        # half, so a correct program never fails it while a broken
        # decode (recall near 0) always does; counts are checked below.
        found = len(set(result.items) & set(inputs["top"]))
        if 2 * found < self.k:
            problems.append(f"found {found} of the planted top {self.k}")
        n = inputs["values"].shape[0]
        for item, count in zip(result.items, result.counts):
            true = inputs["truth"].get(item, 0)
            sigma = self.count_sigma(n, true)
            if abs(count - true) > SIGMAS * sigma:
                problems.append(
                    f"item {item}: count {count:.0f} vs true {true} "
                    f"(> {SIGMAS:g}σ = {SIGMAS * sigma:.0f})"
                )
                break
        return problems


class ServiceSmallEnvelopes(Workload):
    """Devices upload 256-report envelopes to the default service.

    Unbatched and checkpointed every 8 ships, over real loopback TCP with
    every daemon inline on one event loop, so per-envelope and protocol
    work shows and the trace sees every layer.
    """

    name = "service_small_env"
    ingest = 2

    def __init__(self, n: int, workdir: str) -> None:
        from repro.protocol import WindowSpec, run_distributed_collection

        self.n = n
        self.oracle = _olh()
        self.entry = run_distributed_collection
        self.window = WindowSpec.event_tumbling(1.0, allowed_lateness=0.25)
        self.workdir = workdir

    def inputs(self, seed: int, n: int) -> dict:
        return straggler_stream(seed, n)

    def call(self, inputs: dict, rng: int):
        # A combiner started over an existing checkpoint file restores from
        # it, so every call gets a fresh path and removes it afterwards.
        path = os.path.join(self.workdir, f"combiner-{os.getpid()}-{rng}.ckpt")
        try:
            return self.entry(
                self.oracle,
                inputs["values"],
                num_ingest=self.ingest,
                chunk_size=256,
                timestamps=inputs["timestamps"],
                window=self.window,
                backend="inline",
                placement="round_robin",
                checkpoint_path=path,
                rng=rng,
            )
        finally:
            for leftover in (path, path + ".tmp"):
                if os.path.exists(leftover):
                    os.remove(leftover)

    def check(self, inputs: dict, result) -> list[str]:
        n = inputs["values"].shape[0]
        problems = []
        total = result.absorbed_reports + result.late_reports + result.lost_reports
        if total != n or result.lost_reports:
            problems.append(
                f"absorbed {result.absorbed_reports} + late {result.late_reports}"
                f" + lost {result.lost_reports} != {n} (or lost > 0)"
            )
        duplicates = result.duplicate_envelopes + sum(
            w.duplicate_envelopes for w in result.workers
        )
        if duplicates:
            problems.append(f"{duplicates} duplicate envelopes")
        panes = [w.pane for w in result.windows]
        if not panes or panes != sorted(panes):
            problems.append("sealed windows are missing or out of pane order")
        if sum(w.users for w in result.windows) != result.absorbed_reports:
            problems.append("sealed window users do not sum to absorbed")
        problems += counts_problem(
            "all-time estimates", result.estimated_counts, inputs["truth"],
            count_sigma(self.oracle, max(result.absorbed_reports, 1), inputs["truth"]),
            slack=result.late_reports,
        )
        if result.checkpoints <= 0:
            problems.append("the combiner wrote no checkpoint")
        return problems

    def late_ratios(self, result) -> dict[str, float]:
        return {"service.late_ratio": result.late_reports / self.n}


class StreamSliding(Workload):
    """The single-process event-time engine over sliding windows.

    96 two-hour windows sliding by 15 minutes, each read from the
    two-stack store, with a ledger charge per pane and late accounting.
    """

    name = "stream_sliding"

    def __init__(self, n: int) -> None:
        from repro.protocol import WindowSpec, stream_collection

        self.n = n
        self.oracle = _olh()
        self.entry = stream_collection
        self.window = WindowSpec.event_sliding(2.0, 0.25, allowed_lateness=0.25)

    def inputs(self, seed: int, n: int) -> dict:
        return straggler_stream(seed, n)

    def call(self, inputs: dict, rng: int):
        return self.entry(
            self.oracle,
            inputs["values"],
            chunk_size=4096,
            window=self.window,
            timestamps=inputs["timestamps"],
            rng=rng,
        )

    def expected_windows(self, timestamps: np.ndarray) -> int:
        """One window per stride pane from the first to the last event."""
        panes = np.floor(timestamps / self.window.pane_span)
        return int(panes.max() - panes.min()) + 1

    def check(self, inputs: dict, result) -> list[str]:
        n = inputs["values"].shape[0]
        problems = []
        if result.absorbed_reports + result.late_reports != n:
            problems.append(
                f"absorbed {result.absorbed_reports} + late "
                f"{result.late_reports} != {n}"
            )
        windows = self.expected_windows(inputs["timestamps"])
        if len(result) != windows:
            problems.append(f"{len(result)} windows, the spec gives {windows}")
            return problems
        problems += counts_problem(
            "final cumulative estimates", result[-1].cumulative_estimates,
            inputs["truth"],
            count_sigma(self.oracle, max(result.absorbed_reports, 1), inputs["truth"]),
            slack=result.late_reports,
        )
        # Same users re-report in every pane: one fresh ε per pane, composed
        # sequentially.
        declared = EPSILON * windows
        if len(result.ledger) != windows or not math.isclose(
            result.ledger.total_epsilon, declared
        ):
            problems.append(
                f"ledger ε {result.ledger.total_epsilon:g} over "
                f"{len(result.ledger)} spends, declared {declared:g}"
            )
        return problems

    def late_ratios(self, result) -> dict[str, float]:
        return {"streaming.late_ratio": result.late_reports / self.n}


#: Population per workload: (full run, ``--smoke``).
SIZES = {
    "batch_olh": (1_000_000, 32_768),
    "heavy_hitters": (524_288, 32_768),
    "service_small_env": (131_072, 8_192),
    "stream_sliding": (524_288, 16_384),
}
WORKLOADS = tuple(SIZES)


def make_workload(name: str, *, smoke: bool, workdir: str):
    """Build one workload (imports the program and builds its oracle)."""
    n = SIZES[name][1 if smoke else 0]
    if name == "batch_olh":
        return BatchOLH(n)
    if name == "heavy_hitters":
        # At smoke size a 32-bit, 16-item search is below the noise floor.
        return HeavyHitters(n, bits=12, k=4, planted=8) if smoke else HeavyHitters(n)
    if name == "service_small_env":
        return ServiceSmallEnvelopes(n, workdir)
    if name == "stream_sliding":
        return StreamSliding(n)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

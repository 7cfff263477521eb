"""One ldpbench subprocess: cold set-up, then timed runs of one workload.

``run.py`` starts this file in a fresh interpreter; it is not meant to be
run by hand.  Modes:

* ``setup``   — import the program, build the oracle, make the first call
  on ``WARMUP_USERS`` users; report how long that took (``setup_s``).
* ``measure`` — set up, generate the inputs (untimed), then make timed
  runs back to back for ``--seconds`` (closed loop, one caller).  Each
  run is one entry-point call timed with ``perf_counter``, its process
  CPU from ``process_time``; the check runs after the timer stops.
* ``trace``   — like ``measure``, alternating untraced and traced runs.

The last line of standard output is one JSON object with the raw samples.
"""

import time

START = time.perf_counter()  # set-up time counts from interpreter start-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE / ".work"
#: The tail percentile needs at least ten runs beyond it.
MIN_RUNS = 11
MIN_TRACED_RUNS = 3


def program_seed(seed: int, run: int) -> int:
    """The integer rng seed the program receives for run ``run``."""
    return seed * 1_000_003 + run


def timed(workload, inputs, rng):
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = workload.call(inputs, rng)
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - cpu0


def _failure(run: int, issues: list[str]) -> str:
    return f"run {run}: " + "; ".join(issues)


def measure(workload, inputs, seed: int, seconds: float) -> dict:
    walls: list[float] = []
    cpus: list[float] = []
    failures: list[str] = []
    last = None
    run = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or run < MIN_RUNS:
        rng = program_seed(seed, run)
        run += 1
        try:
            result, wall, cpu = timed(workload, inputs, rng)
            issues = workload.check(inputs, result)
        except Exception:
            issues = [traceback.format_exc(limit=4)]
        if issues:
            failures.append(_failure(run, issues))
            continue
        walls.append(wall)
        cpus.append(cpu)
        last = (rng, result)
    attempted = run
    once_check = getattr(workload, "once_check", None)
    if once_check is not None and last is not None:
        attempted += 1
        try:
            issues = once_check(inputs, *last)
        except Exception:
            issues = [traceback.format_exc(limit=4)]
        if issues:
            failures.append(_failure(attempted, issues))
    return {
        "attempted": attempted,
        "failures": failures,
        "walls": walls,
        "cpus": cpus,
    }


def trace(workload, inputs, seed: int, seconds: float) -> dict:
    from ldp_layers import Tracer, layer_metrics

    from repro.util import kernel_timing_scope

    plain: list[float] = []
    traced: list[float] = []
    rows: list[dict] = []
    failures: list[str] = []
    spans = None
    run = 0
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(traced) < MIN_TRACED_RUNS
        or len(plain) < MIN_TRACED_RUNS
    ):
        rng = program_seed(seed, run)
        tracing = run % 2 == 1
        run += 1
        tracer = Tracer(run_id=run)
        try:
            if tracing:
                tracer.install(workload)
            try:
                with kernel_timing_scope() if tracing else contextlib.nullcontext() as scope:
                    result, wall, _cpu = timed(workload, inputs, rng)
            finally:
                tracer.restore()
            issues = workload.check(inputs, result)
            if not issues and tracing:
                row = layer_metrics(tracer, wall)
                hash_s, accumulate_s = workload.kernel_cpu(result, scope)
                row["kernels.hash_cpu_s"] = hash_s
                row["kernels.accumulate_cpu_s"] = accumulate_s
                row["service.late_ratio"] = row["streaming.late_ratio"] = 0.0
                row.update(workload.late_ratios(result))
                row["trace.offthread_calls"] = float(tracer.offthread_calls)
        except Exception:
            issues = [traceback.format_exc(limit=4)]
        if issues:
            failures.append(_failure(run, issues))
            continue
        if tracing:
            traced.append(wall)
            rows.append(row)
            spans = tracer.dump()
        else:
            plain.append(wall)
    return {
        "attempted": run,
        "failures": failures,
        "plain_walls": plain,
        "traced_walls": traced,
        "layers": rows,
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy as np
    from ldp_workloads import WARMUP_USERS, make_workload

    WORKDIR.mkdir(exist_ok=True)
    workload = make_workload(args.workload, smoke=args.smoke, workdir=str(WORKDIR))
    workload.call(workload.inputs(0, WARMUP_USERS), 0)
    out: dict = {"setup_s": time.perf_counter() - START}
    if args.mode != "setup":
        inputs = workload.inputs(args.seed, workload.n)
        loop = measure if args.mode == "measure" else trace
        out.update(loop(workload, inputs, args.seed, args.seconds))
    out["users"] = workload.n
    out["numpy"] = np.__version__
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

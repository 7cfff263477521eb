"""ldpbench: LDP collection measured end to end, from raw values to estimates.

    python3 ldpbench/run.py --workload batch_olh --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
One invocation measures one workload (see README.md for the four and
why each is in the set):

* ``--trace 0`` starts ``SETUP_SAMPLES - 1`` cold subprocesses that only
  set up, then one that sets up and makes timed runs for ``--seconds``.
  It prints every end-to-end metric of BENCHMARK.json.
* ``--trace 1`` starts one subprocess that alternates untraced and
  traced runs and prints every per-layer metric.  End-to-end metrics
  never come from a traced run.

Every run's output is checked.  Human-readable lines (metric, unit,
median, quartiles, samples) go first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Raw samples and an environment stamp are written to
``ldpbench/results/<workload>.json`` (``<workload>_trace.json`` with the
spans of the last traced run).  Exits non-zero without a result when the
program cannot be imported or a subprocess fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOADS = ("batch_olh", "heavy_hitters", "service_small_env", "stream_sliding")
#: Cold set-ups per ``--trace 0`` invocation; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Wall budget of one invocation, under the 180 s a run may take.
BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    """A benchmark subprocess exited non-zero, timed out or printed no result."""


def run_child(mode: str, args, deadline: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "ldp_child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ] + (["--smoke"] if args.smoke else [])
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise ChildFailed(f"no time left for the {mode} subprocess")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} subprocess timed out after {remaining:.0f}s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} subprocess exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"{mode} subprocess printed no JSON result") from exc


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than eleven samples this
    is the minimum.
    """
    ordered = sorted(values)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine_score() -> float:
    """Seconds for a fixed pure-Python loop, best of 3.  Report-only."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(measured: dict, setups: list[float], rss: float) -> tuple[dict, list]:
    """End-to-end metrics and their summary rows (value, q1, q3, samples)."""
    n = measured["users"]
    walls, cpus = measured["walls"], measured["cpus"]
    wall_q1, wall_q3 = quartiles(walls)
    cpu_q1, cpu_q3 = quartiles(cpus)
    run_tail, percentile = tail(walls)
    setup_q1, setup_q3 = quartiles(setups)
    per_mu = 1e6 / n
    metrics = {
        "users_per_s": n / statistics.median(walls),
        "run_s_tail": run_tail,
        "cpu_s_per_mu": statistics.median(cpus) * per_mu,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    rows = [
        ("users_per_s", n / wall_q3, n / wall_q1, len(walls)),
        ("run_s_tail", None, None, f"{len(walls)} runs, p{percentile:.0f}"),
        ("cpu_s_per_mu", cpu_q1 * per_mu, cpu_q3 * per_mu, len(cpus)),
        ("peak_rss_mb", None, None, "max over subprocesses"),
        ("setup_s", setup_q1, setup_q3, len(setups)),
    ]
    return metrics, rows


def per_layer(traced: dict) -> tuple[dict, list]:
    """Per-layer metrics (medians over traced runs) and summary rows."""
    rows = traced["layers"]
    plain, walls = traced["plain_walls"], traced["traced_walls"]
    metrics = {
        key: statistics.median(row[key] for row in rows) for key in rows[0]
    }
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.overhead"] = statistics.median(walls) / statistics.median(plain) - 1.0
    summary = []
    for key in metrics:
        values = [row[key] for row in rows] if key in rows[0] else []
        q1, q3 = quartiles(values) if values else (None, None)
        summary.append((key, q1, q3, len(values) or f"{len(walls)}+{len(plain)} runs"))
    return metrics, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny populations and two cold set-ups, for the self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"ldpbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + BUDGET_S
    score_before = machine_score()
    try:
        if args.trace:
            child = run_child("trace", args, deadline)
            setups = [child["setup_s"]]
        else:
            setup_samples = 2 if args.smoke else SETUP_SAMPLES
            cold = [run_child("setup", args, deadline) for _ in range(setup_samples - 1)]
            child = run_child("measure", args, deadline)
            setups = [c["setup_s"] for c in cold] + [child["setup_s"]]
    except ChildFailed as exc:
        print(f"ldpbench: {exc}", file=sys.stderr)
        return 1
    if args.trace and child["layers"] and child["plain_walls"]:
        metrics, summary = per_layer(child)
    elif not args.trace and child["walls"]:
        rss = max(c["peak_rss_mib"] for c in cold + [child])
        metrics, summary = end_to_end(child, setups, rss)
    else:
        print("ldpbench: no run passed its check", file=sys.stderr)
        for failure in child["failures"]:
            print(failure, file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"ldpbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not child["failures"],
        "attempted": child["attempted"],
        "failed": len(child["failures"]),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    environment = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "seed": args.seed,
        "git_commit": git_commit(),
        # Report-only: box drift shows beside the numbers it affects, and
        # no gated metric is ever normalised by it.
        "machine_score_before": score_before,
        "machine_score_after": machine_score(),
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(
        workload=args.workload, seconds=args.seconds, smoke=args.smoke,
        environment=environment, result=result, all_metrics=metrics,
        setup_samples=setups, failures=child["failures"],
    )
    if args.trace:
        record.update(
            layers=child["layers"], plain_walls=child["plain_walls"],
            traced_walls=child["traced_walls"], spans=child["spans"],
        )
        name = f"{args.workload}_trace.json"
    else:
        record.update(walls=child["walls"], cpus=child["cpus"])
        name = f"{args.workload}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"ldpbench {args.workload} seed={args.seed} cpus={os.cpu_count()}")
    print(f"{'metric':<28} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12}  samples")
    for key, q1, q3, count in summary:
        cells = [f"{v:12.6g}" if v is not None else f"{'-':>12}" for v in (metrics[key], q1, q3)]
        print(f"{key:<28} {units.get(key, ''):<10} {' '.join(cells)}  {count}")
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the ldpbench harness (runs at smoke size, in seconds).

Checks that every metric BENCHMARK.json declares is emitted with its
unit, that each workload's check rejects a corrupted result, that the
self-time arithmetic is right, and that tracing leaves no wrapper behind.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ldp_layers import LAYERS, Tracer, layer_metrics, layer_targets, self_times  # noqa: E402
from ldp_workloads import WORKLOADS, count_sigma, make_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "ldpbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "7", "--seconds", "0.1",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and np.isfinite(metric["value"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "ldpbench", ignore=shutil.ignore_patterns(
        "results", ".work", "__pycache__"))
    proc = _bench("--workload", "batch_olh", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One checked smoke run per workload: (workload, inputs, result)."""
    workdir = str(tmp_path_factory.mktemp("ldpbench"))
    runs = {}
    for name in WORKLOADS:
        workload = make_workload(name, smoke=True, workdir=workdir)
        inputs = workload.inputs(7, workload.n)
        result = workload.call(inputs, 11)
        assert workload.check(inputs, result) == [], name
        runs[name] = (workload, inputs, result)
    return runs


def _shifted(workload, inputs, estimates, n):
    """Estimates moved 10σ away from the truth in every cell."""
    return estimates + 10 * count_sigma(workload.oracle, n, inputs["truth"])


def test_batch_check_rejects_corruption(smoke_runs):
    workload, inputs, result = smoke_runs["batch_olh"]
    n = workload.n
    shard = dataclasses.replace(result.shards[0], num_users=result.shards[0].num_users - 1)
    for bad in (
        dataclasses.replace(
            result, estimated_counts=_shifted(workload, inputs, result.estimated_counts, n)
        ),
        dataclasses.replace(result, shards=(shard,) + result.shards[1:]),
    ):
        assert workload.check(inputs, bad)
    assert workload.once_check(inputs, 11, result) == []
    assert workload.once_check(inputs, 12, result)


def test_heavy_hitters_check_rejects_corruption(smoke_runs):
    workload, inputs, result = smoke_runs["heavy_hitters"]
    shifted = [
        c + 10 * workload.count_sigma(workload.n, inputs["truth"].get(item, 0))
        for item, c in zip(result.items, result.counts)
    ]
    # Planted values outside the top k, reported with their exact counts.
    tail = [v for v in inputs["truth"] if v not in inputs["top"]][: workload.k]
    for bad in (
        dataclasses.replace(result, candidates_evaluated=result.candidates_evaluated + 1),
        dataclasses.replace(result, counts=shifted),
        dataclasses.replace(result, items=[i + 1 for i in result.items]),
        dataclasses.replace(
            result, items=tail, counts=[float(inputs["truth"][v]) for v in tail]
        ),
    ):
        assert workload.check(inputs, bad)


def test_service_check_rejects_corruption(smoke_runs):
    workload, inputs, result = smoke_runs["service_small_env"]
    shifted = _shifted(
        workload, inputs, result.estimated_counts, result.absorbed_reports
    ) + result.late_reports
    for bad in (
        dataclasses.replace(result, estimated_counts=shifted),
        dataclasses.replace(result, late_reports=result.late_reports + 1),
        dataclasses.replace(result, windows=result.windows[:-1]),
        dataclasses.replace(result, checkpoints=0),
    ):
        assert workload.check(inputs, bad)


def test_stream_check_rejects_corruption(smoke_runs):
    from repro.protocol import StreamResult

    workload, inputs, result = smoke_runs["stream_sliding"]

    def rebuilt(snapshots=result.snapshots, late=result.late_reports):
        return StreamResult(
            snapshots, result.ledger, result.spec,
            absorbed_reports=result.absorbed_reports, late_reports=late,
        )

    last = result[-1]
    shifted = dataclasses.replace(
        last,
        cumulative_estimates=_shifted(
            workload, inputs, last.cumulative_estimates, result.absorbed_reports
        ) + result.late_reports,
    )
    for bad in (
        rebuilt(snapshots=result.snapshots[:-1] + [shifted]),
        rebuilt(late=result.late_reports + 1),
        rebuilt(snapshots=result.snapshots[:-1]),
    ):
        assert workload.check(inputs, bad)


def test_self_times_of_a_nested_trace():
    a, b, c = LAYERS[:3]
    spans = [
        (a, 0.0, 10.0, -1),
        (b, 1.0, 4.0, 0),
        (c, 2.0, 3.0, 1),
        (b, 5.0, 6.0, 0),
        (a, 12.0, 13.0, -1),
    ]
    own, top = self_times(spans)
    assert own == {a: 7.0, b: 3.0, c: 1.0}
    assert top == 11.0

    tracer = Tracer()
    tracer.spans[:] = spans
    metrics = layer_metrics(tracer, wall=14.0)
    assert metrics[f"{a}.share"] == 0.5
    assert metrics["trace.other.share"] == 3.0 / 14.0
    assert sum(metrics[f"{layer}.share"] for layer in LAYERS) + metrics[
        "trace.other.share"
    ] == pytest.approx(1.0)

    for broken, wall in (
        ([(a, 0.0, 1.0, -1), (b, 0.0, 5.0, 0)], 5.0),  # child outlives parent
        ([(a, 0.0, 6.0, -1)], 5.0),  # span outlives the timed call
    ):
        tracer.spans[:] = broken
        with pytest.raises(AssertionError):
            layer_metrics(tracer, wall=wall)


def test_traced_run_restores_every_wrapper(smoke_runs):
    workload, inputs, _result = smoke_runs["stream_sliding"]
    before = [vars(owner).get(attr) for owner, attr, _layer, _count in layer_targets()]
    entry = workload.entry
    tracer = Tracer()
    tracer.install(workload)
    try:
        workload.call(inputs, 3)
    finally:
        tracer.restore()
    after = [vars(owner).get(attr) for owner, attr, _layer, _count in layer_targets()]
    assert all(x is y for x, y in zip(before, after))
    assert workload.entry is entry
    assert {span[0] for span in tracer.spans} >= {"core.privatize", "core.absorb"}

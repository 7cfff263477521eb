"""The benchmark-regression guard (``benchmarks/check_bench_regression.py``).

The guard walks row-shaped ``BENCH_E*.json`` payloads — each table row
keyed by column name — and compares every tracked cell in every row
against a committed baseline.  These tests feed it such payloads
directly.
"""

import copy
import importlib.util
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "benchmarks"
    / "check_bench_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard)

TRACKED = guard.THROUGHPUT_KEYS | set(guard.LATENCY_KEYS) | guard.ERROR_KEYS


def _payload():
    """Two rows: one with every tracked column set, one with zero cells."""
    busy = {
        "sweep": "scale",
        "config": "ingest=2",
        "users": 1000,
        "wall_s": 0.5,
        "users_per_s": 2000.0,
        "items_per_s": 4000.0,
        "snapshot_ms": 20.0,
        "merge_ms": 5.0,
        "finalize_ms": 3.0,
        "recovery_s": 1.5,
        "mean_abs_err": 150.0,
        "mean_win_err": 75.0,
        "late": 0,
    }
    idle = dict(
        busy, config="window 0", wall_s=0.0, users_per_s=0.0, mean_win_err=0.0
    )
    return {
        "experiment": "E99",
        "users": 1000,
        "rows": [busy, idle],
        "machine_score": 0.1,
    }


def _compare(fresh, baseline):
    return guard.compare_payloads(fresh, baseline, None)


def test_identical_rows_pass_and_every_tracked_cell_is_compared():
    payload = _payload()
    rows, violations, skipped, _ = _compare(payload, copy.deepcopy(payload))
    assert skipped is None and violations == []
    assert all(ok for *_, ok in rows)
    compared = {(path, key) for path, key, *_ in rows}
    assert compared == {
        (f"$.rows[{i}].{key}", key) for i in range(2) for key in TRACKED
    }


@pytest.mark.parametrize(
    "column,factor",
    [("users_per_s", 0.1), ("wall_s", 10.0), ("snapshot_ms", 10.0)],
)
@pytest.mark.parametrize("row", [0, 1])
def test_a_tenfold_regression_in_any_row_fails(column, factor, row):
    baseline = _payload()
    baseline["rows"][row][column] = 2.0
    fresh = copy.deepcopy(baseline)
    fresh["rows"][row][column] = 2.0 * factor
    _, violations, _, _ = _compare(fresh, baseline)
    assert [path for path, *_ in violations] == [f"$.rows[{row}].{column}"]


def test_zero_cells_and_latencies_under_their_floor_pass():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    fresh["rows"][1]["snapshot_ms"] = 0.0
    # Ten times the baseline, but under each column's noise floor.
    for key, floor in guard.LATENCY_KEYS.items():
        baseline["rows"][0][key] = floor / 20.0
        fresh["rows"][0][key] = floor / 2.0
    rows, violations, _, _ = _compare(fresh, baseline)
    assert violations == []
    assert len(rows) == 2 * len(TRACKED)


@pytest.mark.parametrize("drop", ["row", "column"])
def test_a_dropped_row_or_tracked_column_is_a_schema_change(drop):
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    if drop == "row":
        del fresh["rows"][1]
    else:
        del fresh["rows"][0]["wall_s"]
    _, violations, _, _ = _compare(fresh, baseline)
    assert violations
    assert all(f is None for _, _, f, _ in violations)


@pytest.mark.parametrize("column", sorted(guard.ERROR_KEYS))
def test_an_error_cell_fails_only_above_its_band(column):
    baseline = _payload()
    base = baseline["rows"][0][column]
    for factor, fails in (
        (guard.ERROR_TOLERANCE * 1.01, True),  # worse than the band
        (guard.ERROR_TOLERANCE, False),
        (1.0, False),  # equal
        (0.1, False),  # lower error always passes
    ):
        fresh = copy.deepcopy(baseline)
        fresh["rows"][0][column] = base * factor
        # A slower machine widens the speed band, never the error band.
        fresh["machine_score"] = 4 * baseline["machine_score"]
        _, violations, _, _ = _compare(fresh, baseline)
        assert [path for path, *_ in violations] == (
            [f"$.rows[0].{column}"] if fails else []
        ), factor


def test_a_zero_error_baseline_admits_only_zero():
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    fresh["rows"][1]["mean_win_err"] = 1e-9
    _, violations, _, _ = _compare(fresh, baseline)
    assert [path for path, *_ in violations] == ["$.rows[1].mean_win_err"]


@pytest.mark.parametrize("column", sorted(guard.ERROR_KEYS))
def test_a_missing_error_cell_is_a_schema_change(column):
    baseline = _payload()
    fresh = copy.deepcopy(baseline)
    del fresh["rows"][0][column]
    _, violations, _, _ = _compare(fresh, baseline)
    assert violations == [(f"$.rows[0].{column}", "missing", None, None)]

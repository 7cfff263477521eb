"""Benchmark-suite fixtures.

Every benchmark wraps one experiment's ``run`` in the pytest-benchmark
timer (one round — these are experiment regenerations, not
micro-benchmarks), asserts the experiment's expected shape, and saves
the rendered table under ``benchmarks/results/`` so EXPERIMENTS.md can
quote it.

The E14–E21 harness (``bench_e14_e21.py``) also saves each table as
machine-readable ``BENCH_E*.json`` (``save_bench_json``): the table's
rows keyed by column name, which ``check_bench_regression.py`` diffs
against committed baselines without parsing aligned-column text.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def save_table():
    """Write a rendered experiment table to benchmarks/results/<id>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(experiment_id: str, table) -> None:
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(table.render() + "\n", encoding="utf-8")

    return _save


@pytest.fixture(scope="session")
def save_bench_json():
    """Write a table to benchmarks/results/BENCH_<id>.json; return its rows.

    The payload is ``{"experiment", "users", "rows"}``, one dict per
    table row keyed by column name, stamped with the producing runner's
    calibration score (``machine_score``, seconds for a fixed
    micro-kernel — see ``_machine_score.py``) so the regression guard
    can scale its tolerance by the fresh/baseline machine-speed ratio
    instead of absorbing hardware differences into one blanket factor.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    from _machine_score import machine_score

    def _save(experiment_id: str, users: int, table) -> list[dict]:
        rows = [dict(zip(table.columns, row)) for row in table.rows]
        payload = {
            "experiment": experiment_id,
            "users": users,
            "rows": rows,
            "machine_score": machine_score(),
        }
        path = RESULTS_DIR / f"BENCH_{experiment_id}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return rows

    return _save


def run_once(benchmark, fn, **kwargs):
    """Time one full experiment run and return its table."""
    return benchmark.pedantic(lambda: fn(**kwargs), rounds=1, iterations=1)

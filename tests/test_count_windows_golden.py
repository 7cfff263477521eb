"""Golden record of count-time windowing, pinned bit for bit.

Count-time windows (``tumbling`` / ``sliding`` / gapped ``sliding`` /
``cumulative`` on arrival position) are observed through every public
path that drives them — :func:`stream_collection` (privatizing in
chunks, so the chunk slicing fixes the RNG stream),
:func:`stream_reports` over pre-privatized batches, the longitudinal
``RapporAggregator.stream`` and ``RepeatedCollector`` in all three
modes — and compared against ``golden_count_windows.json``: per
snapshot the window index, window/total users, the exact window and
cumulative estimates and the privacy trajectory, plus every ledger
entry (label, group, ε, δ).

Any change to how count windows route, seal, charge or slice the
privatization stream shows up here as a diff against the record.
Regenerate the record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_count_windows_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import make_oracle
from repro.core.budget import PrivacyLedger
from repro.protocol import WindowSpec, stream_collection, stream_reports
from repro.systems.microsoft import RepeatedCollector
from repro.systems.rappor import RapporAggregator, RapporParams, privatize_population

GOLDEN = Path(__file__).with_name("golden_count_windows.json")

_SPECS = {
    "tumbling": WindowSpec.tumbling(100),
    "sliding": WindowSpec.sliding(200, 50),
    "gapped": WindowSpec.sliding(30, 80),
    "cumulative": WindowSpec.cumulative(120),
}


def _array(values) -> list | None:
    if values is None:
        return None
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _ledger(ledger: PrivacyLedger) -> list:
    return [
        [s.label, s.group, float(s.epsilon), float(s.delta)]
        for s in ledger.spends
    ]


def _stream(result) -> dict:
    return {
        "snapshots": [
            {
                "window_index": int(s.window_index),
                "window_users": int(s.window_users),
                "total_users": int(s.total_users),
                "window_estimates": _array(s.window_estimates),
                "cumulative_estimates": _array(s.cumulative_estimates),
                "total_epsilon": float(s.total_epsilon),
                "total_delta": float(s.total_delta),
            }
            for s in result
        ],
        "absorbed_reports": int(result.absorbed_reports),
        "ledger": _ledger(result.ledger),
    }


def _collection_cases() -> dict:
    """``stream_collection`` — the driver privatizes chunk by chunk."""
    out = {}
    values = np.random.default_rng(501).integers(0, 8, size=350)
    for name, spec in _SPECS.items():
        for model in ("same_users", "disjoint_users"):
            oracle = make_oracle("OLH", 8, 0.75)
            result = stream_collection(
                oracle,
                values,
                window=spec,
                chunk_size=45,  # straddles pane and window/gap boundaries
                rng=502,
                user_model=model,
            )
            out[f"collection/{name}/{model}"] = _stream(result)
    oracle = make_oracle("DE", 8, 0.5)
    out["collection/window_size/advanced"] = _stream(
        stream_collection(
            oracle,
            values,
            window_size=70,
            chunk_size=64,
            rng=503,
            composition="advanced",
        )
    )
    # The key predates the single pane store; the record is keyed by it.
    out["collection/sliding/ring"] = _stream(
        stream_collection(
            make_oracle("OUE", 8, 1.0),
            values,
            window=_SPECS["sliding"],
            chunk_size=33,
            rng=504,
        )
    )
    return out


def _report_cases() -> dict:
    """``stream_reports`` over pre-privatized core and RAPPOR batches."""
    out = {}
    oracle = make_oracle("HR", 8, 1.1)
    values = np.random.default_rng(511).integers(0, 8, size=330)
    reports = oracle.privatize(values, rng=512)
    for name, spec in _SPECS.items():
        result = stream_reports(
            oracle,
            reports,
            window=spec,
            chunk_size=40,
            user_model="disjoint_users",
        )
        out[f"reports/{name}"] = _stream(result)

    params = RapporParams(num_bits=16, num_hashes=2, num_cohorts=2)
    aggregator = RapporAggregator(params, 5)
    cohorts, bits = privatize_population(
        params, np.random.default_rng(513).integers(0, 10, 260), 5, rng=514
    )
    for name, spec in _SPECS.items():
        result = aggregator.stream(cohorts, bits, window=spec, chunk_size=50)
        out[f"rappor/{name}"] = _stream(result)
    return out


def _repeated_cases() -> dict:
    """``RepeatedCollector`` — one tumbling window per round."""
    out = {}
    traj = np.random.default_rng(521).uniform(0, 100, size=(40, 4))
    for mode in ("fresh", "memoized", "memoized_op"):
        run = RepeatedCollector(100.0, epsilon=1.0, mode=mode).run(traj, rng=522)
        out[f"repeated/{mode}"] = {
            "rounds": [
                [r.round_index, r.true_mean, r.estimated_mean] for r in run.rounds
            ],
            "distinct_responses": float(run.distinct_responses),
            "ledger": _ledger(run.ledger),
        }
    return out


def observe() -> dict:
    """Everything the golden record pins, freshly computed."""
    return {**_collection_cases(), **_report_cases(), **_repeated_cases()}


@pytest.fixture(scope="module")
def observed() -> dict:
    return observe()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(observed, golden):
    assert sorted(observed) == sorted(golden)


@pytest.mark.parametrize(
    "case", sorted(json.loads(GOLDEN.read_text())) if GOLDEN.exists() else []
)
def test_count_windows_match_golden(case, observed, golden):
    got, want = observed[case], golden[case]
    if "snapshots" in want:
        assert len(got["snapshots"]) == len(want["snapshots"])
        for k, (g, w) in enumerate(zip(got["snapshots"], want["snapshots"])):
            assert g == w, f"{case}: snapshot {k} differs"
    assert got == want


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_count_windows_golden.py --write")
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

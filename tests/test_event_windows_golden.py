"""Golden record of event-time and session windowing, pinned bit for bit.

Event windows (``event_tumbling``, overlapping and gapped
``event_sliding``) and data-driven ``session`` windows are driven with
out-of-order arrival — stragglers inside and beyond ``allowed_lateness``;
for sessions, shuffled bursts whose late reports bridge open sessions
and stragglers behind the sealed horizon — through both public entry
points: :func:`stream_collection` (privatizing chunk by chunk, charging
each chunk's windows first, and folding consecutive chunks as one
envelope wherever no output can change) and :class:`EventTimeCollector`
fed pre-privatized envelopes one chunk at a time.  Every spec runs
under both user models.  ``golden_event_windows.json`` keys each run
twice, ``…/unbatched`` and ``…/micro_batch`` (written while an opt-in
coalescing buffer still existed, whose runs were equal), so one run
fills both keys.  The record pins, per snapshot, the window index, bounds,
window/total users, pane count, late count, the exact window and
cumulative estimates and the privacy trajectory; per run the absorbed
and late counts, the coalesced panes and every ledger entry (label,
group, ε, δ).

Any change to how event or session windows route, hold panes, seal,
charge or count late reports shows up here as a diff against the
record.  Regenerate the record (only for an intended behaviour change)
with::

    PYTHONPATH=src python tests/test_event_windows_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import TimedReports, make_oracle
from repro.core.timed import slice_report_batch
from repro.protocol import EventTimeCollector, WindowSpec, stream_collection
from test_count_windows_golden import _array, _ledger

GOLDEN = Path(__file__).with_name("golden_event_windows.json")

_N = 480
_CHUNK = 16
#: The record's two keys for every run (see the module docstring).
_BATCHINGS = ("unbatched", "micro_batch")
_USER_MODELS = ("same_users", "disjoint_users")

#: name → (spec, oracle name); event specs share one straggler stream.
_SPECS = {
    "tumbling": (WindowSpec.event_tumbling(2.0, allowed_lateness=1.0), "OLH"),
    "sliding": (WindowSpec.event_sliding(4.0, 1.0, allowed_lateness=1.0), "OUE"),
    "gapped": (WindowSpec.event_sliding(1.0, 3.0, allowed_lateness=1.0), "HR"),
    "session": (WindowSpec.session(0.3, allowed_lateness=2.0), "SHE"),
}


def _straggler_times(seed: int) -> np.ndarray:
    """Event times on [0, 20) in arrival order, with delayed stragglers.

    A fifth of the reports arrive late by up to 4 clock units: those
    delayed less than the 1.0 allowed lateness still reach their pane,
    the rest find it sealed and are counted late.
    """
    gen = np.random.default_rng(seed)
    ts = np.sort(gen.uniform(0.0, 20.0, _N))
    delay = np.where(gen.random(_N) < 0.2, gen.uniform(0.0, 4.0, _N), 0.0)
    return ts[np.argsort(ts + delay, kind="stable")]


def _session_times(seed: int) -> np.ndarray:
    """Five bursts of event times in arrival order, shuffled in each burst.

    Each burst spans 3 clock units (10 gaps of the session spec) and
    bursts start 10 units apart.  Arrival shuffles every burst, so its
    first envelopes open several sessions that later reports bridge, and
    the 2.0 allowed lateness seals some sessions before their burst is
    complete; one report in twenty is delivered 25 units late, behind
    the sealed horizon.
    """
    gen = np.random.default_rng(seed)
    burst = np.arange(_N) % 5
    ts = burst * 10.0 + gen.uniform(0.0, 3.0, _N)
    due = burst * 10.0 + gen.uniform(0.0, 3.0, _N)
    due[gen.random(_N) < 0.05] += 25.0
    return ts[np.argsort(due, kind="stable")]


def _stream(result) -> dict:
    return {
        "snapshots": [
            {
                "window_index": int(s.window_index),
                "window_start": float(s.window_start),
                "window_end": float(s.window_end),
                "window_users": int(s.window_users),
                "total_users": int(s.total_users),
                "pane_count": int(s.pane_count),
                "late_reports": int(s.late_reports),
                "window_estimates": _array(s.window_estimates),
                "cumulative_estimates": _array(s.cumulative_estimates),
                "total_epsilon": float(s.total_epsilon),
                "total_delta": float(s.total_delta),
            }
            for s in result
        ],
        "absorbed_reports": int(result.absorbed_reports),
        "late_reports": int(result.late_reports),
        "coalesced_panes": int(result.coalesced_panes),
        "ledger": _ledger(result.ledger),
    }


def observe() -> dict:
    """Everything the golden record pins, freshly computed."""
    out = {}
    for k, (name, (spec, oracle_name)) in enumerate(_SPECS.items()):
        ts = _session_times(601) if spec.is_data_driven else _straggler_times(602)
        values = np.random.default_rng(603 + k).integers(0, 8, _N)
        oracle = make_oracle(oracle_name, 8, 1.0)
        reports = oracle.privatize(values, rng=604 + k)
        for model in _USER_MODELS:
            collection = _stream(
                stream_collection(
                    oracle,
                    values,
                    window=spec,
                    timestamps=ts,
                    chunk_size=_CHUNK,
                    rng=605 + k,
                    user_model=model,
                )
            )
            collector = EventTimeCollector(oracle, spec, user_model=model)
            for a in range(0, _N, _CHUNK):
                part = slice(a, a + _CHUNK)
                collector.absorb(
                    TimedReports(ts[part], slice_report_batch(reports, part))
                )
            fed = _stream(collector.finish())
            for batching in _BATCHINGS:
                out[f"collection/{name}/{model}/{batching}"] = collection
                out[f"collector/{name}/{model}/{batching}"] = fed
    return out


@pytest.fixture(scope="module")
def observed() -> dict:
    return observe()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(observed, golden):
    assert sorted(observed) == sorted(golden)


def test_golden_exercises_lateness_and_bridging(golden):
    # The record is only a guard if its streams really hit the paths it
    # names: stragglers counted late on every spec, and session bridges.
    for case, run in golden.items():
        assert run["late_reports"] > 0, case
        assert run["absorbed_reports"] + run["late_reports"] == _N, case
        if "/session/" in case:
            assert run["coalesced_panes"] > 0, case


@pytest.mark.parametrize(
    "case", sorted(json.loads(GOLDEN.read_text())) if GOLDEN.exists() else []
)
def test_event_windows_match_golden(case, observed, golden):
    got, want = observed[case], golden[case]
    assert len(got["snapshots"]) == len(want["snapshots"])
    for k, (g, w) in enumerate(zip(got["snapshots"], want["snapshots"])):
        assert g == w, f"{case}: snapshot {k} differs"
    assert got == want


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_event_windows_golden.py --write")
    GOLDEN.write_text(json.dumps(observe(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
